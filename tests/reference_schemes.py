"""Scalar twins of the built-in schemes, the reference for their batch contract.

The library's schemes implement the batch contract alone.  The classes
here subclass them and add the scalar methods `pie(x, rng)`, `pir(alpha,
x)`, `pic(pi, vid)` and `pie_support(x)` on one capture's codes, written
directly: fc with an exhaustive bounded-distance decoder, rot with
`rotate`, the scalar twin of the package's packed rotation.  A capture is a packed int, `pie` returns a
(pi, alpha) pair of codes and `pie_support` a list of (probability, pi,
alpha) triples, so a differential test that compares a batch path with
these methods compares two independent computations.  Their batch
methods are the library's own.  `decisions_and_ball` lays out a
comparator's decisions in the batch contract beside a Hamming ball, for
the exhaustive structural-law checks.
"""

from functools import lru_cache

import numpy as np

from btpeval.errors import DimensionError
from btpeval.schemes import (
    REJECT_CODE,
    BrokenScheme,
    FuzzyCommitmentScheme,
    LinearCode,
    PlaintextScheme,
    RotationScheme,
)

REJECT = int(REJECT_CODE)


@lru_cache(maxsize=None)
def decode_int(code: LinearCode, y: int):
    """Unique codeword within distance t of y, or None, by a codeword scan."""
    for w in code.codewords:
        if (w ^ y).bit_count() <= code.t:
            return w
    return None


def bounded_distance_decode(code: LinearCode, y: int):
    """Decode the packed word y to the unique codeword within distance t,
    or None (reject)."""
    if y >> code.n_code:
        raise DimensionError(f"received word has more than {code.n_code} bits")
    return decode_int(code, y)


def rotate(n: int, x: int, r: int) -> int:
    """Cyclic coordinate shift of the n-bit x: coordinate i moves to
    (i + r) mod n."""
    r %= n
    return ((x << r) | (x >> (n - r))) & ((1 << n) - 1) if r else x


def decisions_and_ball(scheme, radius):
    """(accepts, within) over every feature x, every template of x and
    every probe: (2^n, K, 2^n) arrays of the comparator's decision, taken
    in the batch contract, and of d(x, probe) <= radius."""
    xs = np.arange(1 << scheme.feature_dim, dtype=np.uint64)
    _, pis, alphas = scheme.pie_support_batch(xs)
    accepts = scheme.pic_batch(pis[:, :, None],
                               scheme.pir_batch(alphas[:, :, None], xs))
    within = np.bitwise_count(xs[:, None] ^ xs)[:, None, :] <= radius
    return accepts, np.broadcast_to(within, accepts.shape)


class RefFuzzyCommitmentScheme(FuzzyCommitmentScheme):
    """pi is the codeword's index, alpha the offset x ^ w."""

    def pie(self, x, rng):
        m = int(rng.integers(1 << self.code.k_code))
        return m, x ^ self.code.codewords[m]

    def pir(self, alpha, x):
        w = decode_int(self.code, x ^ alpha)
        return REJECT if w is None else self.code.codewords.index(w)

    def pic(self, pi, vid):
        return pi != REJECT and pi == vid

    def pie_support(self, x):
        p = 1.0 / (1 << self.code.k_code)
        return [(p, m, x ^ w) for m, w in enumerate(self.code.codewords)]


class _RefThreshold:
    def pic(self, pi, vid):
        return (pi ^ vid).bit_count() <= self.tau


class RefRotationScheme(_RefThreshold, RotationScheme):
    """pi is the capture rotated by alpha = r."""

    def _rotate(self, x, r):
        return rotate(self.feature_dim, x, r)

    def pie(self, x, rng):
        r = int(rng.integers(self.feature_dim))
        return self._rotate(x, r), r

    def pir(self, alpha, x):
        return self._rotate(x, alpha)

    def pie_support(self, x):
        p = 1.0 / self.feature_dim
        return [(p, self._rotate(x, r), r) for r in range(self.feature_dim)]


class RefPlaintextScheme(_RefThreshold, PlaintextScheme):
    """pi is the capture, alpha 0."""

    def pie(self, x, rng):
        return x, 0

    def pir(self, alpha, x):
        return x

    def pie_support(self, x):
        return [(1.0, x, 0)]


class RefBrokenScheme(BrokenScheme):
    """Every template and identifier is REJECT_CODE."""

    def pie(self, x, rng):
        return REJECT, 0

    def pir(self, alpha, x):
        return REJECT

    def pic(self, pi, vid):
        return False

    def pie_support(self, x):
        return [(1.0, REJECT, 0)]
