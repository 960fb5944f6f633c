"""Scalar twins of the built-in schemes, the reference for their batch contract.

The library's schemes implement the batch contract alone.  The classes
here subclass them and add the scalar methods `pie(x, rng)`, `pir(alpha,
x)`, `pic(pi, vid)` and `pie_support(x)` on one capture's codes, written
directly: fc with an exhaustive bounded-distance decoder, rot with
`rotate`, the scalar twin of the package's packed rotation.  A capture is a packed int, `pie` returns a
(pi, alpha) pair of codes and `pie_support` a list of (probability, pi,
alpha) triples, so a differential test that compares a batch path with
these methods compares two independent computations.  Their batch
methods are the library's own.  `reference_codewords` enumerates a
code's codewords by a loop over the generator rows, and
`reference_isometries` writes the ball-law isometries of fc, rot and
plain apart from their encoders.  `decisions_and_ball` lays out a
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
def reference_codewords(code: LinearCode) -> tuple:
    """Codeword m, as an int, for every m: the XOR of the generator rows
    the bits of m select, row by row."""
    words = []
    for m in range(1 << code.k_code):
        w = 0
        for i, row in enumerate(code.generator_rows):
            if (m >> i) & 1:
                w ^= row
        words.append(w)
    return tuple(words)


@lru_cache(maxsize=None)
def decode_int(code: LinearCode, y: int):
    """Unique codeword within distance t of y, or None, by a codeword scan."""
    for w in reference_codewords(code):
        if (w ^ int(y)).bit_count() <= code.t:
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


def reference_isometries(scheme, xs) -> np.ndarray:
    """The images g(x) of the isometries of a built-in scheme's ball law,
    along a new last axis: x XOR every codeword in index order (fc), x
    rotated by every r in [0, n) (rot), x itself (plain)."""
    xs = np.asarray(xs, dtype=np.uint64)[..., None]
    if isinstance(scheme, FuzzyCommitmentScheme):
        return xs ^ np.array(reference_codewords(scheme.code), dtype=np.uint64)
    if isinstance(scheme, RotationScheme):
        n = scheme.feature_dim
        return np.array([[rotate(n, x, r) for r in range(n)]
                         for x in xs.ravel().tolist()],
                        dtype=np.uint64).reshape(xs.shape[:-1] + (n,))
    return xs


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
        return m, x ^ reference_codewords(self.code)[m]

    def pir(self, alpha, x):
        w = decode_int(self.code, x ^ alpha)
        return REJECT if w is None else reference_codewords(self.code).index(w)

    def pic(self, pi, vid):
        return pi != REJECT and pi == vid

    def pie_support(self, x):
        p = 1.0 / (1 << self.code.k_code)
        return [(p, m, x ^ w)
                for m, w in enumerate(reference_codewords(self.code))]


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
