"""Exact twins for every Monte Carlo estimator.

Each rate is written once, in `_Oracle`, from tables an engine supplies:

* `same[v, u]` = Pr[an enrollment of v accepts a capture of u];
* `mixed(own)[v, u]` = Pr[the `own` part ("ad" or "pi") of an enrollment
  of u, with the other part of an enrollment of v, accepts a capture of u];
* `templates()`, the weight and the match rate of every template;
* `rmr_vector()`;
* the outcomes of `pie_support_batch` for the features `xs` (every
  feature, or the centers), which `hypothesis_own_match()` probes.

FNMR and FMR-BP are the diagonal and off-diagonal means of `same`; FMR-TP
for a factor is the off-diagonal mean of `mixed(factor)` and FMR-DIV the
diagonal mean, each a mean of its cells, so no small rate cancels; the
mean template match rate is the mean of every cell of `same`, at every n,
and the per-template spread the weighted second moment of `templates()`.
Rows index the enrolled user v, columns the probe owner u.  Two engines
supply the tables.

* `LawOracle`, for a scheme that declares a `match_radius()` (fc, rot,
  plain).  A capture of user u flips each bit of c_u independently with
  probability p, so Pr[d(x, X_u) <= r] depends on x only through
  h = d(x, c_u), and two independent captures differ bit by bit with
  probability 2p(1 - p).  `_ball_table` tabulates that probability for
  every h by a convolution of two binomials; the tables and the raw-
  distance rates (`mr_of`, `mr_vector`) read it.  The raw comparator
  d(x, x') <= tau is `PlaintextScheme(n, tau)`, whose FNMR and FMR-BP are
  its exact rates, and the ball-overlap probability at tau is `mr_vector`
  at radius 2 tau.  Tables cost O(U^2 K) for K outcomes, at every n;
  per-feature vectors cost O(U 2^n).  `mr_vector` is built once per
  (population, tau) and kept read-only, 8 bytes per feature (8 MB at
  n = 20), as `enumerator` keeps its oracles; `mr_scores` reads it to
  score any set of features.
* `SchemeEnumerator`, for every other scheme (`broken` and custom
  ones): probe distributions are explicit pmf vectors over {0,1}^n,
  the rows of `P`, whose mean is the capture pmf; enrollment randomness
  is enumerated through `pie_support_batch`, and the tables are matrix
  products.  Its `__init__` refuses n > 10.  It is also the
  differential twin of `LawOracle`.

Every per-feature sum over the population (`mr_of`, `mr_vector`,
`LawOracle.pmf_mix`) adds a per-distance table over the users, user by
user: `mr_of` for any features, `_cube_sum` for every feature at once,
with the same float64 for the same feature.  `_cube_sum`, the one 2^n
scan, alone reads its cap: it refuses n > 20, and `mr_scores`,
`metrics.extremal_mr` and the `metrics` overlap rows fall back on its
`ModeError`.  `mr_of` and `mr_scores` refuse a value of more than n
bits.  `enumerator(scheme, pop)` picks the engine.  These are the
reference oracles the test suite holds the samplers to; they share the
scheme objects with the samplers but never share the sampling path.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContractError, ModeError, require_type
from .population import Population, check_width
from .schemes import BtpScheme, check_factor, require_same_n

EXACT_N_CAP = 20
ENUM_N_CAP = 10


def _require(n: int, cap: int, what: str):
    if n > cap:
        raise ModeError(f"{what} supports n <= {cap}, got n = {n}")


@lru_cache(maxsize=64)
def _ball_table(n: int, p: float, radius: int) -> np.ndarray:
    """f[h] = Pr[d(x, Y) <= radius] for h = d(x, c), every h in 0..n, where
    Y flips each bit of c independently with probability p.

    d(x, Y) = (h - A) + B with A ~ Bin(h, p) and B ~ Bin(n - h, p).  Every
    exact raw-distance rate reads this table, so it alone refuses a radius
    that is not an integer >= 0.
    """
    require_type("radius", radius, whole=True, least=0)
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


def _capture_table(pop: Population) -> np.ndarray:
    """q[h] = Pr[X_u = x] for h = d(x, c_u), every h in 0..n."""
    h = np.arange(pop.n + 1)
    return (pop.flip_prob ** h) * ((1.0 - pop.flip_prob) ** (pop.n - h))


def mr_of(pop: Population, values, tau: int) -> np.ndarray:
    """MR(x) = Pr[d(x, capture from random user) <= tau] for every packed x
    in `values`: the mean over users u of the ball table at d(x, c_u),
    summed user by user.  A value of more than n bits is refused."""
    table = _ball_table(pop.n, pop.flip_prob, tau)
    values = np.asarray(values, dtype=np.uint64)
    check_width("a value", values, pop.n)
    total = np.zeros(values.shape)
    for c in pop.centers:
        total += table[np.bitwise_count(values ^ c)]
    return total / pop.num_users


def _cube_sum(pop: Population, table: np.ndarray) -> np.ndarray:
    """The mean over users u of table[d(x, c_u)], for every x in {0,1}^n in
    packed order, summed user by user as `mr_of` sums it.

    x splits into a high half h and a low half l, and d(x, c) = d(h, c_h)
    + d(l, c_l).  So row h of a user's term is row d(h, c_h) of the small
    table rows[k, l] = table[k + d(l, c_l)]: one row copy per h in place
    of a table lookup per x.
    """
    _require(pop.n, EXACT_N_CAP, "feature scan")
    lo = pop.n // 2
    low = np.arange(1 << lo, dtype=np.uint64)
    high = np.arange(1 << (pop.n - lo), dtype=np.uint64)
    total = np.zeros((len(high), len(low)))
    for c in pop.centers:
        d_low = np.bitwise_count(low ^ (c & np.uint64((1 << lo) - 1)))
        d_high = np.bitwise_count(high ^ (c >> np.uint64(lo)))
        rows = table[np.arange(pop.n - lo + 1)[:, None] + d_low]
        total += rows[d_high]
    return total.ravel() / pop.num_users


@lru_cache(maxsize=8)
def mr_vector(pop: Population, tau: int) -> np.ndarray:
    """MR(x) for every x, read-only: built once per (population, tau) and
    shared by `extremal_mr`, `overlap_rates` (at radius 2 tau),
    `LawOracle.rmr_vector` and `mr_scores`."""
    vec = _cube_sum(pop, _ball_table(pop.n, pop.flip_prob, tau))
    vec.flags.writeable = False
    return vec


def mr_scores(pop: Population, values, tau: int) -> np.ndarray:
    """MR(x) for every packed x in `values`, bit for bit `mr_of`: read from
    `mr_vector` where the feature scan serves, by the closed form over the
    distinct values past it.  A value of more than n bits is refused."""
    values = np.asarray(values, dtype=np.uint64)
    try:
        vec = mr_vector(pop, tau)
    except ModeError:   # past the feature scan
        uniq, inverse = np.unique(values, return_inverse=True)
        return mr_of(pop, uniq, tau)[inverse.reshape(values.shape)]
    check_width("a value", values, pop.n)
    return vec[values.view(np.int64)]


def _pair_rates(pop: Population, radius: int, images=None) -> np.ndarray:
    """G[t, u] = Pr[d(X_t, g(X_u)) <= radius] for independent captures,
    averaged over the isometries g with g(c_u) in row u of `images` (or g = id).

    Two captures differ bit by bit with probability 2p(1 - p).
    """
    p = pop.flip_prob
    pair = _ball_table(pop.n, 2.0 * p * (1.0 - p), radius)
    c = pop.centers
    images = c[:, None] if images is None else images
    return np.stack([pair[np.bitwise_count(images ^ ct).astype(np.intp)]
                     .mean(axis=1) for ct in c])


def _diag_mean(G: np.ndarray) -> float:
    return float(np.mean(np.diag(G)))


def _off_diag_mean(G: np.ndarray) -> float:
    # summed cell by cell: a sum less the trace cancels the small cells
    return float(G[~np.eye(len(G), dtype=bool)].mean())


class _Oracle:
    """The exact rates of (scheme, population), each written once.

    An engine supplies `same`, `mixed(own)`, `templates()` and
    `rmr_vector()`; see the module docstring.  It also lists, for each
    feature of `xs` (every feature, or the centers), the outcomes of
    `pie_support_batch` in `support_pi` and `support_alpha`.
    """

    def __init__(self, scheme: BtpScheme, pop: Population):
        require_same_n(scheme, pop)
        self.scheme = scheme
        self.pop = pop
        self.U = pop.num_users

    # -- recognition metrics -------------------------------------------------

    def fnmr(self) -> float:
        return 1.0 - _diag_mean(self.same)

    def fmr_bp(self) -> float:
        return _off_diag_mean(self.same)

    def fmr_tp(self, factor: str) -> float:
        """Total-performance false match rate; factor is "ad" or "pi", the
        part that comes from the probe owner's own enrollment."""
        check_factor(factor)
        return _off_diag_mean(self.mixed(factor))

    def fmr_div(self) -> float:
        # both parts from independent enrollments of the probe owner: the
        # diagonal of either mixed table
        return _diag_mean(self.mixed("ad"))

    # -- protection metrics --------------------------------------------------

    def mean_match_rate(self) -> float:
        """The mean per-template match rate: a template of a random user
        against a capture of a random user, the mean of every cell of `same`."""
        return float(self.same.mean())

    def pt_match_stats(self) -> tuple:
        """(mean, population std dev) of the per-template match rate."""
        w, r = self.templates()
        mean = self.mean_match_rate()
        var = float(w @ (r - mean) ** 2)
        return mean, math.sqrt(max(var, 0.0))

    def hypothesis_own_match(self) -> bool:
        """Whether every template of a feature of `xs`, one per outcome of
        `pie_support_batch`, accepts the feature it encodes."""
        vids = self.scheme.pir_batch(self.support_alpha, self.xs[:, None])
        return bool(self.scheme.pic_batch(self.support_pi, vids).all())


class LawOracle(_Oracle):
    """Exact tables of a scheme with a `match_radius()`, from ball tables.

    `same` reads the two-capture table at d(c_v, c_u).  A mixed decision
    is tied to one enrollment's capture: it reads the table at
    d(c_t, g(c_u)), over c_u's outcomes g(c_u) in the tied part, the one
    feature field (`_cross`), where t is u when the tied part is the probe
    owner's own and v otherwise.  A template of x accepts a random capture
    with rate MR(x) at the radius, and x is distributed as a capture.
    """

    def __init__(self, scheme: BtpScheme, pop: Population):
        super().__init__(scheme, pop)
        if scheme.feature_fields not in (("pi",), ("alpha",)):
            raise ContractError(f"{type(scheme).__name__} declares a match "
                                "radius but not one feature field, pi or alpha")
        self.radius = scheme.match_radius()
        self.tied = "pi" if scheme.feature_fields == ("pi",) else "ad"
        self.xs = pop.centers
        _, self.support_pi, self.support_alpha = scheme.pie_support_batch(self.xs)
        images = self.support_pi if self.tied == "pi" else self.support_alpha
        self.same = _pair_rates(pop, self.radius)
        self._cross = _pair_rates(pop, self.radius, images)

    def mixed(self, own: str) -> np.ndarray:
        if own == self.tied:
            return np.tile(np.diag(self._cross), (self.U, 1))
        return self._cross

    @cached_property
    def pmf_mix(self) -> np.ndarray:
        """pmf of a capture from a uniformly random user, every x."""
        return _cube_sum(self.pop, _capture_table(self.pop))

    def templates(self) -> tuple:
        return self.pmf_mix, self.rmr_vector()

    def rmr_vector(self) -> np.ndarray:
        """rMR(x) for every probe x: the template's capture within the radius."""
        return mr_vector(self.pop, self.radius)


class SchemeEnumerator(_Oracle):
    """Joint exact model of (scheme, population).

    Enumerates the template distribution per user (enrollment capture x
    encoder randomness), tabulates pic(pi, pir(alpha, probe)) over all
    identifier/auxiliary-data/probe combinations, and builds every table
    by matrix products.  Everything goes through the scheme's batch
    contract: `pi_codes`/`alpha_codes` are the codes that occur, in sorted
    order; template k is (pt_pi[k], pt_alpha[k]), numbered in sorted order
    of (pi index, alpha index).
    """

    def __init__(self, scheme: BtpScheme, pop: Population):
        super().__init__(scheme, pop)
        _require(pop.n, ENUM_N_CAP, "scheme enumeration")
        self.size = 1 << pop.n
        self.xs = np.arange(self.size, dtype=np.uint64)
        self.P = _capture_table(pop)[
            np.bitwise_count(pop.centers[:, None] ^ self.xs)]
        self.pmf_mix = self.P.mean(axis=0)   # of a capture of a random user
        probs, self.support_pi, self.support_alpha = (
            scheme.pie_support_batch(self.xs))
        if not ((probs >= 0.0).all()
                and (np.abs(probs.sum(axis=-1) - 1.0) <= 1e-12).all()):
            raise ContractError("pie_support_batch must give every feature "
                                "probabilities >= 0 that sum to 1")

        users, rows = np.nonzero(self.P)
        self.pi_codes, pi_idx = np.unique(self.support_pi[rows],
                                          return_inverse=True)
        self.alpha_codes, alpha_idx = np.unique(self.support_alpha[rows],
                                                return_inverse=True)
        n_alpha = len(self.alpha_codes)
        pt_keys, pt_idx = np.unique(pi_idx * n_alpha + alpha_idx,
                                    return_inverse=True)
        self.pt_pi, self.pt_alpha = np.divmod(pt_keys, n_alpha)
        n_pt = len(pt_keys)
        weights = self.P[users, rows, None] * probs[rows]
        cells = users[:, None] * n_pt + pt_idx
        self.W = np.bincount(cells.ravel(), weights=weights.ravel(),
                             minlength=self.U * n_pt).reshape(self.U, n_pt)
        self.w_mix = self.W.mean(axis=0)

        # match[i, j, x] = pic(pi_i, pir(alpha_j, x)), one alpha row at a time
        self.match = np.empty((len(self.pi_codes), n_alpha, self.size),
                              dtype=bool)
        for j, alpha in enumerate(self.alpha_codes):
            vids = scheme.pir_batch(alpha, self.xs)
            self.match[:, j] = scheme.pic_batch(self.pi_codes[:, None], vids)
        # per-template match indicator over probes
        self.M_pt = self.match[self.pt_pi, self.pt_alpha].astype(np.float64)

    @cached_property
    def same(self) -> np.ndarray:
        return (self.W @ self.M_pt) @ self.P.T

    @cached_property
    def _mixed(self) -> dict:
        """mixed(own) for both parts, through K[i, j, u] = Pr over x ~ X_u
        of pic(pi_i, pir(alpha_j, x)) and each user's part marginals
        Wpi[i, u], Wal[j, u] (W summed over the templates sharing a part)."""
        K = np.einsum("ijx,ux->iju", self.match, self.P)
        Wpi = np.zeros((len(self.pi_codes), self.U))
        Wal = np.zeros((len(self.alpha_codes), self.U))
        np.add.at(Wpi, self.pt_pi, self.W.T)
        np.add.at(Wal, self.pt_alpha, self.W.T)
        return {"ad": Wpi.T @ np.einsum("iju,ju->iu", K, Wal),
                "pi": Wal.T @ np.einsum("iu,iju->ju", Wpi, K)}

    def mixed(self, own: str) -> np.ndarray:
        return self._mixed[own]

    def templates(self) -> tuple:
        return self.w_mix, self.M_pt @ self.pmf_mix

    def rmr_vector(self) -> np.ndarray:
        """rMR(x) for every probe x."""
        return self.w_mix @ self.M_pt


@lru_cache(maxsize=8)
def enumerator(scheme: BtpScheme, pop: Population):
    """The exact oracle of (scheme, population): `LawOracle` (every n) when
    the scheme declares a match radius, else `SchemeEnumerator` (n <= 10)."""
    if scheme.match_radius() is not None:
        return LawOracle(scheme, pop)
    return SchemeEnumerator(scheme, pop)
