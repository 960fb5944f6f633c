"""Exhaustive-enumeration twins for every Monte Carlo estimator.

At desk scale (n <= 12 for distance sums, n <= 10 for full scheme
enumeration) every rate in the package has an exact value: probe
distributions are explicit pmf vectors over {0,1}^n, enrollment randomness
is enumerated through `pie_support`, and expectations become weighted
sums.  These functions are the reference oracles the test suite holds the
samplers to; they share the scheme objects with the samplers but never
share the sampling path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ModeError
from .population import FeatureElement, Population
from .schemes import BtpScheme

EXACT_N_CAP = 12
ENUM_N_CAP = 10
_CHUNK_ROWS = 2048


def _require(n: int, cap: int, what: str):
    if n > cap:
        raise ModeError(f"{what} supports n <= {cap}, got n = {n}")


def user_pmf(pop: Population, u: int) -> np.ndarray:
    """P(X_u = x) for every x, as a length-2^n vector."""
    _require(pop.n, EXACT_N_CAP, "exact pmf")
    xs = np.arange(1 << pop.n, dtype=np.uint64)
    d = np.bitwise_count(xs ^ np.uint64(pop.center(u).value))
    p = pop.flip_prob
    dd = np.arange(pop.n + 1)
    powers = (p ** dd) * ((1.0 - p) ** (pop.n - dd))
    return powers[d]


def mixture_pmf(pop: Population) -> np.ndarray:
    """pmf of a capture from a uniformly random user."""
    out = np.zeros(1 << pop.n)
    for u in range(pop.num_users):
        out += user_pmf(pop, u)
    return out / pop.num_users


def threshold_matvec(n: int, tau: int, vec: np.ndarray) -> np.ndarray:
    """out[x] = sum over y with d(x, y) <= tau of vec[y], for all x.

    Row-chunked so the full 2^n x 2^n distance matrix is never stored.
    """
    _require(n, EXACT_N_CAP, "distance enumeration")
    size = 1 << n
    ys = np.arange(size, dtype=np.uint64)
    out = np.empty(size)
    for lo in range(0, size, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, size)
        d = np.bitwise_count(ys[lo:hi, None] ^ ys[None, :])
        out[lo:hi] = (d <= tau) @ vec
    return out


def baseline_rates(pop: Population, tau: int) -> tuple:
    """(FNMR, FMR) of the raw threshold comparator, by full enumeration."""
    U = pop.num_users
    pmfs = [user_pmf(pop, u) for u in range(U)]
    ball = [threshold_matvec(pop.n, tau, pmfs[v]) for v in range(U)]
    fnmr = 1.0 - float(np.mean([pmfs[u] @ ball[u] for u in range(U)]))
    total = 0.0
    for u in range(U):
        for v in range(U):
            if u != v:
                total += pmfs[u] @ ball[v]
    fmr = total / (U * (U - 1))
    return fnmr, fmr


def mr_vector(pop: Population, tau: int) -> np.ndarray:
    """MR(x) = Pr[d(x, capture from random user) <= tau] for every x."""
    return threshold_matvec(pop.n, tau, mixture_pmf(pop))


def overlap_vector(pop: Population, tau: int) -> np.ndarray:
    """P(x) = Pr[tau-balls of x and a random capture intersect], every x."""
    return threshold_matvec(pop.n, 2 * tau, mixture_pmf(pop))


def mr_of_feature(pop: Population, x: FeatureElement, tau: int) -> float:
    """Exact MR(x) from per-user binomial ball sums; works to n = 20.

    d(x, X_u) = (h - A) + B with A ~ Bin(h, p), B ~ Bin(n - h, p) and
    h = d(x, c_u), so the distance pmf is a convolution of two binomials.
    """
    if pop.n > 20:
        raise ModeError("closed-form ball sums support n <= 20")
    if x.n != pop.n:
        raise ConfigError("feature dimension mismatch")
    p = pop.flip_prob
    total = 0.0
    for u in range(pop.num_users):
        h = (x.value ^ pop.center(u).value).bit_count()
        pmf_a = np.array([math.comb(h, a) * p**a * (1 - p) ** (h - a)
                          for a in range(h + 1)])
        nb = pop.n - h
        pmf_b = np.array([math.comb(nb, b) * p**b * (1 - p) ** (nb - b)
                          for b in range(nb + 1)])
        # distance = (h - A) + B; accumulate Pr[distance <= tau]
        acc = 0.0
        for a in range(h + 1):
            room = tau - (h - a)
            if room >= 0:
                acc += pmf_a[a] * pmf_b[: min(room, nb) + 1].sum()
        total += acc
    return total / pop.num_users


def _first_seen(values: np.ndarray) -> tuple:
    """The distinct values in order of first appearance, and each value's
    index in that order."""
    uniq, first, inverse = np.unique(values, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.ravel()]


class SchemeEnumerator:
    """Joint exact model of (scheme, population).

    Enumerates the template distribution per user (enrollment capture x
    encoder randomness), tabulates pic(pi, pir(alpha, probe)) over all
    identifier/auxiliary-data/probe combinations, and reduces every metric
    to small einsums.  Everything goes through the scheme's batch contract:
    `pi_codes`/`alpha_codes` are the codes that occur, numbered in the
    order a scan of users, their possible captures and the encoder
    outcomes first meets them; template k is (pt_pi[k], pt_alpha[k]).
    """

    def __init__(self, scheme: BtpScheme, pop: Population):
        if scheme.feature_dim != pop.n:
            raise ConfigError("scheme and population disagree on n")
        _require(pop.n, ENUM_N_CAP, "scheme enumeration")
        self.scheme = scheme
        self.pop = pop
        self.n = pop.n
        self.size = 1 << pop.n
        self.U = pop.num_users
        self.P = np.stack([user_pmf(pop, u) for u in range(self.U)])
        self.pmf_mix = self.P.mean(axis=0)
        self.xs = np.arange(self.size, dtype=np.uint64)
        probs, self.support_pi, self.support_alpha = (
            scheme.pie_support_batch(self.xs))

        # templates, in scan order: users, their possible captures, outcomes
        seen = [np.flatnonzero(self.P[u]) for u in range(self.U)]
        rows = np.concatenate(seen)
        self.pi_codes, pi_idx = _first_seen(self.support_pi[rows].ravel())
        self.alpha_codes, alpha_idx = _first_seen(
            self.support_alpha[rows].ravel())
        n_alpha = len(self.alpha_codes)
        pt_keys, pt_idx = _first_seen(pi_idx * n_alpha + alpha_idx)
        self.pt_pi, self.pt_alpha = np.divmod(pt_keys, n_alpha)
        self.W = np.zeros((self.U, len(pt_keys)))
        lo = 0
        for u, xu in enumerate(seen):
            hi = lo + probs[xu].size
            weights = (self.P[u, xu, None] * probs[xu]).ravel()
            self.W[u] = np.bincount(pt_idx[lo:hi], weights=weights,
                                    minlength=len(pt_keys))
            lo = hi
        self.w_mix = self.W.mean(axis=0)

        # match[i, j, x] = pic(pi_i, pir(alpha_j, x)), one alpha row at a time
        self.match = np.empty((len(self.pi_codes), n_alpha, self.size),
                              dtype=bool)
        for j, alpha in enumerate(self.alpha_codes):
            vids = scheme.pir_batch(alpha, self.xs)
            self.match[:, j] = scheme.pic_batch(self.pi_codes[:, None], vids)
        # per-template match indicator over probes
        self.M_pt = self.match[self.pt_pi, self.pt_alpha].astype(np.float64)
        self._K = None

    # -- recognition metrics -------------------------------------------------

    def _cross_accept(self) -> np.ndarray:
        """K[i, j, u] = Pr over x ~ X_u of pic(pi_i, pir(alpha_j, x))."""
        if self._K is None:
            self._K = np.einsum("ijx,ux->iju", self.match, self.P)
        return self._K

    def fnmr(self) -> float:
        hit = np.einsum("uk,kx,ux->", self.W, self.M_pt, self.P) / self.U
        return 1.0 - float(hit)

    def fmr_bp(self) -> float:
        A = self.W @ self.M_pt                         # (U, probes), template owner v
        G = A @ self.P.T                               # G[v, u] = accept prob
        return float((G.sum() - np.trace(G)) / (self.U * (self.U - 1)))

    def _part_marginals(self) -> tuple:
        """W summed over the templates that share a pi, and an alpha."""
        out = []
        for index, count in ((self.pt_pi, len(self.pi_codes)),
                             (self.pt_alpha, len(self.alpha_codes))):
            acc = np.zeros((count, self.U))
            np.add.at(acc, index, self.W.T)
            out.append(np.ascontiguousarray(acc.T))
        return tuple(out)

    def fmr_tp(self, factor: str) -> float:
        """Total-performance false match rate; factor is "ad" or "pi"."""
        Wpi, Wal = self._part_marginals()
        K = self._cross_accept()
        total = 0.0
        for u in range(self.U):
            for v in range(self.U):
                if u == v:
                    continue
                if factor == "ad":
                    total += Wpi[v] @ K[:, :, u] @ Wal[u]
                elif factor == "pi":
                    total += Wpi[u] @ K[:, :, u] @ Wal[v]
                else:
                    raise ConfigError(f"factor must be 'ad' or 'pi', got {factor!r}")
        return float(total / (self.U * (self.U - 1)))

    def fmr_div(self) -> float:
        Wpi, Wal = self._part_marginals()
        K = self._cross_accept()
        vals = [Wpi[u] @ K[:, :, u] @ Wal[u] for u in range(self.U)]
        return float(np.mean(vals))

    # -- protection metrics --------------------------------------------------

    def rmr_vector(self) -> np.ndarray:
        """rMR(x) for every probe x."""
        return self.w_mix @ self.M_pt

    def pt_rate(self, pt) -> float:
        """Acceptance rate of one fixed template against random captures."""
        pi, alpha = self.scheme.template_codes(pt)
        row = self.scheme.pic_batch(pi, self.scheme.pir_batch(alpha, self.xs))
        return float(row.astype(np.float64) @ self.pmf_mix)

    def pt_match_stats(self) -> tuple:
        """(mean, population std dev) of the per-template match rate."""
        w, r = self.w_mix, self.M_pt @ self.pmf_mix
        mean = float(w @ r)
        var = float(w @ (r - mean) ** 2)
        return mean, math.sqrt(max(var, 0.0))

    def hypothesis_own_match(self) -> bool:
        """Whether every template accepts the exact feature it encodes."""
        vids = self.scheme.pir_batch(self.support_alpha, self.xs[:, None])
        return bool(self.scheme.pic_batch(self.support_pi, vids).all())


@lru_cache(maxsize=8)
def enumerator(scheme: BtpScheme, pop: Population) -> SchemeEnumerator:
    return SchemeEnumerator(scheme, pop)
