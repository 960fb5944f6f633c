"""Degenerate schemes used to hit edge cases in metrics and verdicts.

Each toy implements the batch contract alone.  pi and identifier codes are
small integers, and alpha is always 0.  `RejectingRotation` declares rot's
ball law over a comparator that rejects everything."""

import numpy as np

from btpeval.schemes import BtpScheme, RotationScheme


class _ToyScheme(BtpScheme):
    """Every capture enrolls to the pi code `pie_code`, every verification
    gives the identifier code `pir_code`, and the comparator's decision is
    `accepts` for every pair."""

    pie_code = pir_code = 0
    accepts = False

    def __init__(self, n: int):
        self.feature_dim = n

    def pie_batch(self, xs, rng):
        shape = np.shape(xs)
        return (np.full(shape, self.pie_code, dtype=np.uint64),
                np.zeros(shape, dtype=np.uint64))

    def pir_batch(self, alpha, xs):
        return np.full(np.broadcast_shapes(np.shape(alpha), np.shape(xs)),
                       self.pir_code, dtype=np.uint64)

    def pic_batch(self, pi, vid):
        return np.full(np.broadcast_shapes(np.shape(pi), np.shape(vid)),
                       self.accepts)

    def pie_support_batch(self, xs):
        pis, alphas = self.pie_batch(np.expand_dims(xs, -1), None)
        return np.ones(pis.shape), pis, alphas


class AlwaysMatchScheme(_ToyScheme):
    """Comparator accepts everything; match rate 1, deviation 0."""

    name = "always-match"
    accepts = True

    def guaranteed_match_radius(self):
        return self.feature_dim


class NeverMatchScheme(_ToyScheme):
    """Comparator rejects everything, including the enrolled feature."""

    name = "never-match"
    pir_code = 1


class LotteryScheme(_ToyScheme):
    """Template acceptance is decided at enrollment with probability
    `win_prob`, independent of every probe; the per-template match rate is
    Bernoulli, so the variation coefficient is sqrt((1-w)/w).  pi is 1 for
    a winning template and 0 otherwise."""

    name = "lottery"
    pir_code = 1

    def __init__(self, n: int, win_prob: float):
        super().__init__(n)
        self.win_prob = win_prob

    def pie_batch(self, xs, rng):
        shape = np.shape(xs)
        hit = rng.random(size=shape) < self.win_prob
        return hit.astype(np.uint64), np.zeros(shape, dtype=np.uint64)

    def pic_batch(self, pi, vid):
        return np.broadcast_to(pi == 1, np.broadcast_shapes(np.shape(pi),
                                                            np.shape(vid)))

    def pie_support_batch(self, xs):
        shape = np.shape(xs) + (2,)
        return (np.broadcast_to([self.win_prob, 1.0 - self.win_prob], shape),
                np.broadcast_to(np.array([1, 0], dtype=np.uint64), shape),
                np.zeros(shape, dtype=np.uint64))


class RejectingRotation(RotationScheme):
    """Rot's encoder and match radius, with a comparator that rejects every
    pair, so no template accepts the feature it encodes."""

    def pic_batch(self, pi, vid):
        return np.zeros(np.broadcast_shapes(np.shape(pi), np.shape(vid)),
                        dtype=bool)
