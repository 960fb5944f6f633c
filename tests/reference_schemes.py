"""Scalar twins of the built-in schemes, the reference for their batch contract.

The library's schemes implement only the batch contract and derive their
scalar methods from it.  The classes here subclass them and carry the
scalar methods written directly on template objects, with an exhaustive
bounded-distance decoder, so a differential test that compares a batch
path with these methods compares two independent computations.
Their batch methods are the library's own.  `decisions_and_ball` lays
out a comparator's decisions in the batch contract beside a Hamming ball,
for the exhaustive structural-law checks.
"""

from functools import lru_cache

import numpy as np

from btpeval.errors import DimensionError
from btpeval.population import FeatureElement, hamming_distance
from btpeval.schemes import (
    REJECT,
    BrokenScheme,
    FuzzyCommitmentScheme,
    LinearCode,
    PlaintextScheme,
    ProtectedTemplate,
    RotationScheme,
)


@lru_cache(maxsize=None)
def decode_int(code: LinearCode, y: int):
    """Unique codeword within distance t of y, or None, by a codeword scan."""
    for w in code.codewords:
        if (w ^ y).bit_count() <= code.t:
            return w
    return None


def bounded_distance_decode(code: LinearCode, y: FeatureElement):
    """Decode y to the unique codeword within distance t, or None (reject)."""
    if y.n != code.n_code:
        raise DimensionError(f"received word has {y.n} bits, code expects {code.n_code}")
    w = decode_int(code, y.value)
    return None if w is None else FeatureElement(code.n_code, w)


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
    def __init__(self, code: LinearCode):
        super().__init__(code)
        self._digest_of = dict(zip(code.codewords, self._digests))

    def pie(self, x, rng):
        self._check_dim(x)
        m = int(rng.integers(1 << self.code.k_code))
        w = self.code.codewords[m]
        return ProtectedTemplate(
            pi=self._digests[m], alpha=FeatureElement(x.n, x.value ^ w)
        )

    def pir(self, alpha, x_prime):
        self._check_dim(x_prime)
        if alpha.n != self.feature_dim:
            raise DimensionError("auxiliary data has wrong length")
        w = decode_int(self.code, x_prime.value ^ alpha.value)
        if w is None:
            return REJECT
        return self._digest_of[w]

    def pic(self, pi, pi_prime):
        if pi is REJECT or pi_prime is REJECT:
            return False
        return pi == pi_prime

    def pie_support(self, x):
        self._check_dim(x)
        p = 1.0 / (1 << self.code.k_code)
        return [
            (p, ProtectedTemplate(pi=self._digests[m],
                                  alpha=FeatureElement(x.n, x.value ^ w)))
            for m, w in enumerate(self.code.codewords)
        ]


class RefRotationScheme(RotationScheme):
    def pie(self, x, rng):
        self._check_dim(x)
        r = int(rng.integers(self.feature_dim))
        return ProtectedTemplate(pi=x.rotate(r), alpha=r)

    def pir(self, alpha, x_prime):
        self._check_dim(x_prime)
        return x_prime.rotate(int(alpha))

    def pic(self, pi, pi_prime):
        if pi is REJECT or pi_prime is REJECT:
            return False
        return hamming_distance(pi, pi_prime) <= self.tau

    def pie_support(self, x):
        self._check_dim(x)
        p = 1.0 / self.feature_dim
        return [
            (p, ProtectedTemplate(pi=x.rotate(r), alpha=r))
            for r in range(self.feature_dim)
        ]


class RefPlaintextScheme(PlaintextScheme):
    def pie(self, x, rng):
        self._check_dim(x)
        return ProtectedTemplate(pi=x, alpha=None)

    def pir(self, alpha, x_prime):
        self._check_dim(x_prime)
        return x_prime

    def pic(self, pi, pi_prime):
        if pi is REJECT or pi_prime is REJECT:
            return False
        return hamming_distance(pi, pi_prime) <= self.tau

    def pie_support(self, x):
        self._check_dim(x)
        return [(1.0, ProtectedTemplate(pi=x, alpha=None))]


class RefBrokenScheme(BrokenScheme):
    def pie(self, x, rng):
        self._check_dim(x)
        return ProtectedTemplate(pi=REJECT, alpha=None)

    def pir(self, alpha, x_prime):
        self._check_dim(x_prime)
        return REJECT

    def pic(self, pi, pi_prime):
        return False

    def pie_support(self, x):
        self._check_dim(x)
        return [(1.0, ProtectedTemplate(pi=REJECT, alpha=None))]
