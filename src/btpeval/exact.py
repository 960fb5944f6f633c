"""Exact twins for every Monte Carlo estimator.

Every rate in the package has an exact value, from one of two engines.

* Closed forms.  A capture of user u flips each bit of c_u independently
  with probability p, so Pr[d(x, X_u) <= r] depends on x only through
  h = d(x, c_u), and two independent captures differ bit by bit with
  probability 2p(1 - p).  `_ball_table` tabulates that probability for
  every h by a convolution of two binomials; the raw-distance rates
  (`mr_of`, `mr_vector`, `overlap_vector`, `baseline_rates`) and
  `LawOracle`, the oracle of every scheme that declares a `match_law()`
  (fc, rot, plain), read it.  Recognition rates cost O(U^2 |offsets|),
  per-feature vectors O(U 2^n); feature scans stop at n <= 20.
* `SchemeEnumerator`, for every other scheme (toy, `broken`, custom):
  probe distributions are explicit pmf vectors over {0,1}^n, enrollment
  randomness is enumerated through `pie_support`, and expectations become
  weighted sums, for n <= 10.  It is also the differential twin of
  `LawOracle`.

`enumerator(scheme, pop)` picks the engine.  These are the reference
oracles the test suite holds the samplers to; they share the scheme
objects with the samplers but never share the sampling path.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ModeError
from .population import Population
from .schemes import BtpScheme

EXACT_N_CAP = 20
ENUM_N_CAP = 10


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


@lru_cache(maxsize=64)
def _ball_table(n: int, p: float, radius: int) -> np.ndarray:
    """f[h] = Pr[d(x, Y) <= radius] for h = d(x, c), every h in 0..n, where
    Y flips each bit of c independently with probability p.

    d(x, Y) = (h - A) + B with A ~ Bin(h, p) and B ~ Bin(n - h, p).
    """
    f = np.empty(n + 1)
    for h in range(n + 1):
        pmf_a = np.array([math.comb(h, a) * p**a * (1 - p) ** (h - a)
                          for a in range(h + 1)])
        nb = n - h
        pmf_b = np.array([math.comb(nb, b) * p**b * (1 - p) ** (nb - b)
                          for b in range(nb + 1)])
        acc = 0.0
        for a in range(h + 1):
            room = radius - (h - a)
            if room >= 0:
                acc += pmf_a[a] * pmf_b[: min(room, nb) + 1].sum()
        f[h] = acc
    f.flags.writeable = False
    return f


def _centers(pop: Population) -> np.ndarray:
    return np.array([c.value for c in pop.centers], dtype=np.uint64)


def mr_of(pop: Population, values, tau: int) -> np.ndarray:
    """MR(x) = Pr[d(x, capture from random user) <= tau] for every packed x
    in `values`, summed user by user from one ball table."""
    f = _ball_table(pop.n, pop.flip_prob, tau)
    values = np.asarray(values, dtype=np.uint64)
    total = np.zeros(values.shape)
    for c in _centers(pop):
        total += f[np.bitwise_count(values ^ c)]
    return total / pop.num_users


def mr_vector(pop: Population, tau: int) -> np.ndarray:
    """MR(x) for every x."""
    _require(pop.n, EXACT_N_CAP, "feature scan")
    return mr_of(pop, np.arange(1 << pop.n, dtype=np.uint64), tau)


def overlap_vector(pop: Population, tau: int) -> np.ndarray:
    """P(x) = Pr[tau-balls of x and a random capture intersect], every x."""
    return mr_vector(pop, 2 * tau)


def _pair_rates(pop: Population, radius: int, offsets=None) -> np.ndarray:
    """G[t, u] = Pr[d(X_t, g(X_u)) <= radius] for independent captures,
    averaged over the isometries g of `offsets` (the identity if None).

    Two captures differ bit by bit with probability 2p(1 - p).
    """
    p = pop.flip_prob
    pair, c = _ball_table(pop.n, 2.0 * p * (1.0 - p), radius), _centers(pop)
    images = c[:, None] if offsets is None else offsets(c)   # (U, offsets)
    return np.stack([pair[np.bitwise_count(images ^ ct)].mean(axis=1)
                     for ct in c])


def _diag_mean(G: np.ndarray) -> float:
    return float(np.mean(np.diag(G)))


def _off_diag_mean(G: np.ndarray) -> float:
    U = len(G)
    return float((G.sum() - np.trace(G)) / (U * (U - 1)))


def baseline_rates(pop: Population, tau: int) -> tuple:
    """(FNMR, FMR) of the raw threshold comparator."""
    G = _pair_rates(pop, tau)
    return 1.0 - _diag_mean(G), _off_diag_mean(G)


def _pt_rate(scheme: BtpScheme, pmf_mix: np.ndarray, pt) -> float:
    """Acceptance rate of one fixed template against random captures."""
    pi, alpha = scheme.template_codes(pt)
    xs = np.arange(len(pmf_mix), dtype=np.uint64)
    row = scheme.pic_batch(pi, scheme.pir_batch(alpha, xs))
    return float(row.astype(np.float64) @ pmf_mix)


class LawOracle:
    """Exact rates of a scheme with a `match_law()`, from ball tables.

    The one-enrollment rates read the two-capture table at d(c_v, c_u)
    (`_same`); the rates that mix the parts of two enrollments read it at
    d(c_t, g(c_u)), averaged over the law's offsets g (`_cross`).  Rows
    are the user whose capture the decision is tied to, columns the probe
    owner.  Per-feature rates read the one-capture table at d(x, c_u).
    Same methods as `SchemeEnumerator`.
    """

    def __init__(self, scheme: BtpScheme, pop: Population):
        if scheme.feature_dim != pop.n:
            raise ConfigError("scheme and population disagree on n")
        _require(pop.n, EXACT_N_CAP, "ball-law oracle")
        self.scheme = scheme
        self.pop = pop
        self.law = scheme.match_law()
        self.U = pop.num_users
        self._same = _pair_rates(pop, self.law.radius)
        self._cross = _pair_rates(pop, self.law.radius, self.law.offsets)

    @cached_property
    def pmf_mix(self) -> np.ndarray:
        return mixture_pmf(self.pop)

    @cached_property
    def _rmr(self) -> np.ndarray:
        vec = mr_vector(self.pop, self.law.radius)
        vec.flags.writeable = False
        return vec

    # -- recognition metrics -------------------------------------------------

    def fnmr(self) -> float:
        return 1.0 - _diag_mean(self._same)

    def fmr_bp(self) -> float:
        return _off_diag_mean(self._same)

    def fmr_tp(self, factor: str) -> float:
        """Total-performance false match rate; factor is "ad" or "pi"."""
        if factor not in ("ad", "pi"):
            raise ConfigError(f"factor must be 'ad' or 'pi', got {factor!r}")
        # the factor's part comes from the probe owner's own enrollment
        if factor == self.law.tied:
            return _diag_mean(self._cross)
        return _off_diag_mean(self._cross)

    def fmr_div(self) -> float:
        return _diag_mean(self._cross)

    # -- protection metrics --------------------------------------------------

    def rmr_vector(self) -> np.ndarray:
        """rMR(x) for every probe x: the template's capture within the radius."""
        return self._rmr

    def pt_rate(self, pt) -> float:
        """Acceptance rate of one fixed template against random captures."""
        return _pt_rate(self.scheme, self.pmf_mix, pt)

    def pt_match_stats(self) -> tuple:
        """(mean, population std dev) of the per-template match rate.

        A template of x accepts a random capture with rate MR(x) at the
        law's radius, and x is distributed as a random capture.
        """
        w, r = self.pmf_mix, self._rmr
        mean = float(w @ r)
        var = float(w @ (r - mean) ** 2)
        return mean, math.sqrt(max(var, 0.0))

    def hypothesis_own_match(self) -> bool:
        """Whether every template accepts the exact feature it encodes."""
        return self.law.radius >= 0


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
        A = self.W @ self.M_pt                         # (U, probes), own template
        return 1.0 - float(np.einsum("ux,ux->", A, self.P)) / self.U

    def fmr_bp(self) -> float:
        A = self.W @ self.M_pt                         # (U, probes), template owner v
        return _off_diag_mean(A @ self.P.T)            # [v, u] = accept prob

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
        return _pt_rate(self.scheme, self.pmf_mix, pt)

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
def enumerator(scheme: BtpScheme, pop: Population):
    """The exact oracle of (scheme, population): `LawOracle` when the
    scheme declares a match law, `SchemeEnumerator` otherwise."""
    if scheme.match_law() is not None:
        return LawOracle(scheme, pop)
    return SchemeEnumerator(scheme, pop)
