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


class SchemeEnumerator:
    """Joint exact model of (scheme, population).

    Enumerates the template distribution per user (enrollment capture x
    encoder randomness), tabulates pic(pi, pir(alpha, probe)) over all
    identifier/auxiliary-data/probe combinations, and reduces every metric
    to small einsums.
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
        self._probes = [FeatureElement(self.n, v) for v in range(self.size)]
        self._build_support()
        self._build_match_tensor()

    def _build_support(self):
        pi_index, alpha_index, pt_index = {}, {}, {}
        pt_pi, pt_alpha = [], []
        weights = {}
        for u in range(self.U):
            pu = self.P[u]
            for xv in range(self.size):
                px = pu[xv]
                if px == 0.0:
                    continue
                for wp, pt in self.scheme.pie_support(self._probes[xv]):
                    key = (pt.pi, pt.alpha)
                    if key not in pt_index:
                        pt_index[key] = len(pt_index)
                        pi_index.setdefault(pt.pi, len(pi_index))
                        alpha_index.setdefault(pt.alpha, len(alpha_index))
                        pt_pi.append(pi_index[pt.pi])
                        pt_alpha.append(alpha_index[pt.alpha])
                    weights[(u, pt_index[key])] = (
                        weights.get((u, pt_index[key]), 0.0) + px * wp
                    )
        self.pi_objects = [None] * len(pi_index)
        for obj, i in pi_index.items():
            self.pi_objects[i] = obj
        self.alpha_objects = [None] * len(alpha_index)
        for obj, i in alpha_index.items():
            self.alpha_objects[i] = obj
        self.pt_pi = np.array(pt_pi, dtype=np.int64)
        self.pt_alpha = np.array(pt_alpha, dtype=np.int64)
        self.W = np.zeros((self.U, len(pt_index)))
        for (u, k), w in weights.items():
            self.W[u, k] = w
        self.w_mix = self.W.mean(axis=0)

    def _build_match_tensor(self):
        n_pi, n_alpha = len(self.pi_objects), len(self.alpha_objects)
        pir_rows = []
        for alpha in self.alpha_objects:
            pir_rows.append([self.scheme.pir(alpha, x) for x in self._probes])
        match = np.zeros((n_pi, n_alpha, self.size), dtype=bool)
        for i, pi in enumerate(self.pi_objects):
            pic = self.scheme.pic
            for j in range(n_alpha):
                row = pir_rows[j]
                match[i, j] = [pic(pi, r) for r in row]
        self.match = match
        self._matchf = match.astype(np.float64)
        # per-template match indicator over probes
        self.M_pt = self._matchf[self.pt_pi, self.pt_alpha]
        self._K = None

    # -- recognition metrics -------------------------------------------------

    def _cross_accept(self) -> np.ndarray:
        """K[i, j, u] = Pr over x ~ X_u of pic(pi_i, pir(alpha_j, x))."""
        if self._K is None:
            self._K = np.einsum("ijx,ux->iju", self._matchf, self.P)
        return self._K

    def fnmr(self) -> float:
        hit = np.einsum("uk,kx,ux->", self.W, self.M_pt, self.P) / self.U
        return 1.0 - float(hit)

    def fmr_bp(self) -> float:
        A = self.W @ self.M_pt                         # (U, probes), template owner v
        G = A @ self.P.T                               # G[v, u] = accept prob
        return float((G.sum() - np.trace(G)) / (self.U * (self.U - 1)))

    def _pi_marginals(self) -> np.ndarray:
        out = np.zeros((self.U, len(self.pi_objects)))
        for k, i in enumerate(self.pt_pi):
            out[:, i] += self.W[:, k]
        return out

    def _alpha_marginals(self) -> np.ndarray:
        out = np.zeros((self.U, len(self.alpha_objects)))
        for k, j in enumerate(self.pt_alpha):
            out[:, j] += self.W[:, k]
        return out

    def fmr_tp(self, factor: str) -> float:
        """Total-performance false match rate; factor is "ad" or "pi"."""
        Wpi = self._pi_marginals()
        Wal = self._alpha_marginals()
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
        Wpi = self._pi_marginals()
        Wal = self._alpha_marginals()
        K = self._cross_accept()
        vals = [Wpi[u] @ K[:, :, u] @ Wal[u] for u in range(self.U)]
        return float(np.mean(vals))

    # -- protection metrics --------------------------------------------------

    def rmr_vector(self) -> np.ndarray:
        """rMR(x) for every probe x."""
        return self.w_mix @ self.M_pt

    def pt_rate(self, pt) -> float:
        """Acceptance rate of one fixed template against random captures."""
        row = np.array(
            [self.scheme.pic(pt.pi, self.scheme.pir(pt.alpha, x)) for x in self._probes],
            dtype=float,
        )
        return float(row @ self.pmf_mix)

    def pt_match_stats(self) -> tuple:
        """(mean, population std dev) of the per-template match rate."""
        w, r = self.w_mix, self.M_pt @ self.pmf_mix
        mean = float(w @ r)
        var = float(w @ (r - mean) ** 2)
        return mean, math.sqrt(max(var, 0.0))

    def hypothesis_own_match(self) -> bool:
        """Whether every template accepts the exact feature it encodes."""
        for xv in range(self.size):
            x = self._probes[xv]
            for _, pt in self.scheme.pie_support(x):
                if not self.scheme.pic(pt.pi, self.scheme.pir(pt.alpha, x)):
                    return False
        return True


@lru_cache(maxsize=8)
def enumerator(scheme: BtpScheme, pop: Population) -> SchemeEnumerator:
    return SchemeEnumerator(scheme, pop)
