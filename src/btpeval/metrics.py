"""Recognition and protection metrics: Monte Carlo estimators + exact modes.

Every estimator here has an exact twin in `exact` that the tests hold
it to.  Estimators draw all randomness from streams derived via
(seed, label, chunk_index) with a fixed chunk size, so a result depends
only on (inputs, seed, trials) and never on how chunks were scheduled
across workers.  Every rate that counts comparator decisions is one
configuration of `_AcceptKernel`: the raw comparator d(x, x') <= tau is
`PlaintextScheme(n, tau)`, and the ball-overlap rates p_tau and q_tau are
match rates at radius 2 tau.  `_run_chunks` is the one chunk runner and
`CHUNK_TRIALS` (4096) the one chunk size of metrics and games; where a
chunk needs many captures per trial (the template statistics, the
`sampler`'s candidates), it takes them in blocks of at most
`PT_BLOCK_PROBES` (2^13).  Each estimator and game takes its run settings
whole, as one `RunSettings` record.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from statistics import NormalDist

import numpy as np

from . import exact
from .errors import ConfigError, ModeError, require_type
from .population import Population, check_width
from .records import Record
from .rng import substream
from .schemes import BtpScheme, PlaintextScheme, require_same_n

CHUNK_TRIALS = 4096


# --------------------------------------------------------------------------
# interval arithmetic


@lru_cache(maxsize=16)
def z_value(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ConfigError(f"confidence level must be in (0,1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def wilson_interval(wins: int, trials: int, level: float = 0.95) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    z = z_value(level)
    phat = wins / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    half /= denom
    lo = 0.0 if wins == 0 else max(0.0, center - half)
    hi = 1.0 if wins == trials else min(1.0, center + half)
    return (lo, hi)


VERDICT_LEVEL = 1.0 - 2.0 * NormalDist().cdf(-3.0)     # z = 3


def verdict_margin(terms, upper: bool) -> float:
    """The margin above (`upper`) or below sum c * wins / trials over `terms`
    of (c, wins, trials): MOVER (Newcombe 1998) over each rate's Wilson
    score bound at `VERDICT_LEVEL`, 0 only at a rate of 0 or 1."""
    total = 0.0
    for c, wins, trials in terms:
        lo, hi = wilson_interval(wins, trials, VERDICT_LEVEL)
        rate = wins / trials
        total += (c * (hi - rate if (c > 0) == upper else rate - lo)) ** 2
    return math.sqrt(total)


class AdvantageEstimate(Record):
    """A point estimate with its interval and oracle-query accounting."""

    point: float
    trials: int
    ci_low: float
    ci_high: float
    queries_used: int = 0

    def _validate(self):
        require_type("trials", self.trials, whole=True, least=0)
        if not (self.ci_low - 1e-12 <= self.point <= self.ci_high + 1e-12):
            raise ConfigError(
                f"interval [{self.ci_low}, {self.ci_high}] excludes point {self.point}"
            )

    @classmethod
    def from_counts(cls, wins: int, trials: int, level: float = 0.95,
                    queries_used: int = 0) -> "AdvantageEstimate":
        lo, hi = wilson_interval(wins, trials, level)
        return cls(point=wins / trials if trials else 0.0, trials=trials,
                   ci_low=lo, ci_high=hi, queries_used=queries_used)

    def shifted(self, offset: float) -> "AdvantageEstimate":
        return AdvantageEstimate(
            point=self.point + offset, trials=self.trials,
            ci_low=self.ci_low + offset, ci_high=self.ci_high + offset,
            queries_used=self.queries_used,
        )

    def to_dict(self) -> dict:
        return {
            "estimate": self.point,
            "ci": [self.ci_low, self.ci_high],
            "trials": self.trials,
            "queries": self.queries_used,
            "method": "wilson",
        }


def absolute_advantage(win_rate: AdvantageEstimate) -> AdvantageEstimate:
    """Map a win-rate estimate through |2w - 1|.

    The map is non-monotone at w = 1/2; an interval straddling it becomes
    [0, max endpoint image].
    """
    lo2, hi2 = 2 * win_rate.ci_low - 1, 2 * win_rate.ci_high - 1
    point = abs(2 * win_rate.point - 1)
    if lo2 <= 0.0 <= hi2:
        lo, hi = 0.0, max(abs(lo2), abs(hi2))
    else:
        lo, hi = sorted((abs(lo2), abs(hi2)))
    return AdvantageEstimate(point=point, trials=win_rate.trials, ci_low=lo,
                             ci_high=hi, queries_used=win_rate.queries_used)


def entropy_bits(rate: float) -> float:
    """-log2 of a rate; infinite for rates <= 0."""
    if rate <= 0.0:
        return float("inf")
    return -math.log2(rate)


# --------------------------------------------------------------------------
# run settings


# The least value of each integer setting, checked in this order; a sample
# variance needs two templates and two captures of each.
_MINIMUMS = {"tau": 0, "trials": 1, "query_budget": 1, "sampler_queries": 1,
             "jobs": 1, "stats_outer": 2, "stats_inner": 2}


class RunSettings(Record):
    """Run settings of the estimators, games, theorem checks and built-in
    adversaries, named and defaulted as the CLI config keys; `jobs` is
    `--jobs` and `level` the confidence level of every interval (neither
    is a config key).  Each setting is checked here, before any work."""

    tau: int = 1
    trials: int = 10000
    query_budget: int = 10**6
    seed: int = 1
    delta: float = 0.16
    gamma: float = 0.5
    stats_outer: int = 600
    stats_inner: int = 400
    sampler_queries: int = 16
    jobs: int = 1
    level: float = 0.95

    def _validate(self):
        for key, default in self._defaults.items():
            require_type(key, getattr(self, key), whole=type(default) is int)
        for key, least in _MINIMUMS.items():
            require_type(key, getattr(self, key), whole=True, least=least)
        if not 0.0 < self.delta < self.gamma < 1.0:
            raise ConfigError(f"need 0 < delta < gamma < 1, got {self.delta}, {self.gamma}")
        z_value(self.level)     # refuses a level outside (0, 1)

    @classmethod
    def from_config(cls, cfg: dict, jobs: int = 1) -> "RunSettings":
        """The settings of a CLI config; a key it lacks keeps its default."""
        return cls(jobs=jobs, **{name: cfg[name] for name in cls._fields
                                 if name in cfg})


# --------------------------------------------------------------------------
# chunked deterministic trial runner


def _run_chunks(work, trials: int, jobs: int) -> list:
    """Call `work(lo, hi)` on consecutive ranges of at most `CHUNK_TRIALS`
    trials; returns the results in range order, serially or on `jobs`
    processes (scheduling independent).  `trials` and `jobs` come from a
    `RunSettings`, which has checked them."""
    los = range(0, trials, CHUNK_TRIALS)
    his = [min(lo + CHUNK_TRIALS, trials) for lo in los]
    if jobs == 1 or len(los) == 1:
        return [work(lo, hi) for lo, hi in zip(los, his)]
    # imported here, so a run at --jobs 1 never loads the process pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(work, los, his))


def _kernel_range(kernel, seed, label, lo, hi):
    return kernel(substream(seed, label, lo // CHUNK_TRIALS), hi - lo)


def _run_kernel(kernel, trials, s: RunSettings, label) -> list:
    """Chunk results of `kernel`, each chunk on its own derived stream."""
    return _run_chunks(partial(_kernel_range, kernel, s.seed, label), trials,
                       s.jobs)


def _count_rate(kernel, s: RunSettings, label) -> AdvantageEstimate:
    wins = sum(_run_kernel(kernel, s.trials, s, label))
    return AdvantageEstimate.from_counts(
        wins, s.trials, s.level, queries_used=s.trials * kernel.queries_per_trial)


# --------------------------------------------------------------------------
# the acceptance-count kernel (top-level, picklable)


class _AcceptKernel(Record):
    """Counts comparator accepts (or rejects) over m trials.

    A trial draws a user u, then a distinct user v only when an
    enrollment is owned by "v", then the probe (a capture of u unless
    `probe` is fixed), then one enrollment capture per entry of `owners`.
    The comparator enrolls each capture and probes with the `alpha` of
    enrollment `alpha_from` against the `pi` of enrollment `pi_from`.  A
    chunk is counted in array ops, through the scheme's batch contract:
    one `sample_batch` for the probe and every enrollment, then one
    `pie_batch`, `pir_batch` and `pic_batch`.
    """

    pop: Population
    scheme: BtpScheme
    owners: tuple = ("u",)
    probe: int | None = None
    pi_from: int = 0
    alpha_from: int = 0
    count_rejects: bool = False

    def _validate(self):
        require_same_n(self.scheme, self.pop)
        if self.probe is not None:
            check_width(f"probe {self.probe}", self.probe, self.pop.n)

    @property
    def queries_per_trial(self) -> int:
        return len(self.owners) + (self.probe is None)

    def __call__(self, rng, m):
        users = {"u": rng.integers(self.pop.num_users, size=m)}
        if "v" in self.owners:
            vs = rng.integers(self.pop.num_users - 1, size=m)
            users["v"] = vs + (vs >= users["u"])
        # one (rows, m) draw, whose uniforms are row by row those of one
        # draw per row
        rows = self.owners if self.probe is not None else ("u", *self.owners)
        captures = self.pop.sample_batch(np.array([users[o] for o in rows]), rng)
        if self.probe is None:
            x, enrolls = captures[0], captures[1:]
        else:
            x, enrolls = np.full(m, self.probe, dtype=np.uint64), captures
        scheme = self.scheme
        # a trial's enrollments are adjacent in C order of the (m, k) view,
        # so the encoder draws come trial by trial, as in a loop
        pis, alphas = scheme.pie_batch(enrolls.T, rng)
        pi, alpha = pis[:, self.pi_from], alphas[:, self.alpha_from]
        accepts = int(scheme.pic_batch(pi, scheme.pir_batch(alpha, x)).sum())
        return m - accepts if self.count_rejects else accepts


# Captures per array block of `_PtStatsKernel` (templates x probes) and of
# the `sampler` adversary (trials x candidates): bounds their (captures,
# words) uniforms at 2^13 x ceil(n / 10) doubles.
PT_BLOCK_PROBES = 1 << 13


class _PtStatsKernel(Record):
    """Per-template match rates: enroll one capture, rate its template.

    A chunk's templates go in blocks of b = max(1, PT_BLOCK_PROBES // k),
    where k = `trials_inner`.  A block draws, in this order: its templates'
    users (`integers(U, size=b)`), their enrolled captures, the
    encoder's draws (one `pie_batch`), the users of each template's k
    probes (`integers(U, size=(b, k))`) and the probes; the probes are
    rated in one `pir_batch` and one `pic_batch`.
    """

    scheme: BtpScheme
    pop: Population
    trials_inner: int

    def _validate(self):
        require_same_n(self.scheme, self.pop)

    def __call__(self, rng, m):
        scheme, pop, k = self.scheme, self.pop, self.trials_inner
        block = max(1, PT_BLOCK_PROBES // k)
        rates = np.empty(m)
        for lo in range(0, m, block):
            b = min(block, m - lo)
            users = rng.integers(pop.num_users, size=b)
            pi, alpha = scheme.pie_batch(pop.sample_batch(users, rng), rng)
            probes = pop.sample_batch(rng.integers(pop.num_users, size=(b, k)),
                                      rng)
            vid = scheme.pir_batch(alpha[:, None], probes)
            rates[lo:lo + b] = scheme.pic_batch(pi[:, None], vid).sum(axis=1) / k
        return rates


# --------------------------------------------------------------------------
# public estimators


def est_baseline_rates(pop: Population, tau: int,
                       settings: RunSettings = RunSettings()) -> tuple:
    """(FNMR, FMR) of the raw distance comparator at threshold tau: the
    plaintext scheme's."""
    raw = PlaintextScheme(pop.n, tau)
    fnmr = _count_rate(_AcceptKernel(pop, raw, count_rejects=True), settings,
                       f"fnmr_d<={tau}")
    fmr = _count_rate(_AcceptKernel(pop, raw, owners=("v",)), settings,
                      f"fmr_d<={tau}")
    return fnmr, fmr


def est_scheme_fnmr(scheme, pop, settings: RunSettings = RunSettings()):
    return _count_rate(_AcceptKernel(pop, scheme, count_rejects=True),
                       settings, "fnmr_scheme")


def est_fmr_tp(scheme, pop, factor: str, settings: RunSettings = RunSettings()):
    """False match rate for total performance; factor is "ad" or "pi".

    The factor names the part taken from the probe owner's own
    enrollment; the other part comes from a distinct user's.
    """
    if factor not in ("ad", "pi"):
        raise ConfigError(f"factor must be 'ad' or 'pi', got {factor!r}")
    pi_from = 1 if factor == "ad" else 0
    kernel = _AcceptKernel(pop, scheme, owners=("u", "v"), pi_from=pi_from,
                           alpha_from=1 - pi_from)
    return _count_rate(kernel, settings, f"fmr_tp_{factor}")


def est_fmr_bp(scheme, pop, settings: RunSettings = RunSettings()):
    return _count_rate(_AcceptKernel(pop, scheme, owners=("v",)), settings,
                       "fmr_bp")


def est_fmr_div(scheme, pop, settings: RunSettings = RunSettings()):
    """The old enrollment's pi against the new enrollment's alpha."""
    kernel = _AcceptKernel(pop, scheme, owners=("u", "u"), alpha_from=1)
    return _count_rate(kernel, settings, "fmr_div")


def est_mr_of_feature(pop, x, tau, settings: RunSettings = RunSettings()):
    """MR(x) = Pr[d(x, capture of a random user) <= tau], for a packed x."""
    kernel = _AcceptKernel(pop, PlaintextScheme(pop.n, tau), probe=x)
    return _count_rate(kernel, settings, f"mr_x_{x}_tau{tau}")


def rmr_of_feature(scheme, pop, x, settings: RunSettings = RunSettings()):
    return _count_rate(_AcceptKernel(pop, scheme, probe=x), settings,
                       f"rmr_x_{x}")


# --------------------------------------------------------------------------
# extremal features and overlap rates


class MValue(Record):
    """A maximum of a per-feature rate with the witness that attains it.

    mode "exact" means a full feature scan; "lower_bound" means the
    maximum was taken over a candidate set only.
    """

    value: float
    witness: int
    mode: str


# Exact rates within this of the extreme tie; the witness is the lowest
# packed feature among them, whatever the summation order.
TIE_TOL = 1e-12


def _extreme(values, rates, lowest: bool = False) -> tuple:
    """(rate, packed value) of the lowest value whose rate is within TIE_TOL
    of the max (the min with `lowest`)."""
    values, rates = np.asarray(values), np.asarray(rates)
    target = rates.min() if lowest else rates.max()
    near = np.flatnonzero(np.abs(rates - target) <= TIE_TOL)
    i = near[np.argmin(values[near])]
    return float(rates[i]), int(values[i])


@lru_cache(maxsize=16)
def _mr_scan(pop: Population, tau: int, lowest: bool) -> tuple:
    """`_extreme` of `exact.mr_vector(pop, tau)` over every feature: made
    once per (population, tau, lowest) and kept, as the vector is."""
    vec = exact.mr_vector(pop, tau)     # refuses before any 2^n array
    return _extreme(np.arange(len(vec)), vec, lowest)


# Mixture draws beside the centers in a candidate-set extreme, and the
# trials that rate each candidate of a scheme without an exact oracle.
EXTREMAL_MR_DRAWS = 256
EXTREMAL_RMR_DRAWS = 64
EXTREMAL_RMR_TRIALS = 4000


def extremal_mr(pop: Population, tau: int,
                settings: RunSettings = RunSettings()) -> MValue:
    """max over x of MR(x), exact for n <= 20, candidate-set beyond."""
    if pop.n <= exact.EXACT_N_CAP:
        return MValue(*_mr_scan(pop, tau, False), "exact")
    rng = substream(settings.seed, "extremal-mr-candidates")
    draws = pop.sample_batch(rng.integers(pop.num_users, size=EXTREMAL_MR_DRAWS),
                             rng)
    values = np.concatenate([pop.centers, draws])
    return MValue(*_extreme(values, exact.mr_of(pop, values, tau)),
                  "lower_bound")


def extremal_rmr(scheme: BtpScheme, pop: Population,
                 settings: RunSettings = RunSettings()) -> MValue:
    """max over x of rMR(x), exact where the scheme has an exact oracle;
    under a ball law rMR is MR at the law's radius, at every n."""
    require_same_n(scheme, pop)
    if (radius := scheme.match_radius()) is not None:
        return extremal_mr(pop, radius, settings)
    try:
        vec = exact.enumerator(scheme, pop).rmr_vector()
    except ModeError:
        pass
    else:
        return MValue(*_extreme(np.arange(len(vec)), vec), "exact")
    rng = substream(settings.seed, "extremal-rmr-candidates")
    draws = pop.sample_batch(rng.integers(pop.num_users, size=EXTREMAL_RMR_DRAWS),
                             rng)
    rate_settings = settings.replace(trials=EXTREMAL_RMR_TRIALS)
    best_val, best_x = -1.0, None
    for c in np.concatenate([pop.centers, draws]).tolist():
        est = rmr_of_feature(scheme, pop, c, rate_settings)
        if est.point > best_val:
            best_val, best_x = est.point, c
    return MValue(best_val, best_x, "lower_bound")


class OverlapRates(Record):
    """Extremes over x of the ball-intersection probability at radius tau."""

    p_tau: float
    q_tau: float
    witness_max: int
    witness_min: int


def overlap_rates(pop: Population, tau: int) -> OverlapRates:
    """Exact (p_tau, q_tau) by scanning all features; n <= 20.

    The tau-balls of x and x' intersect iff d(x, x') <= 2 tau, so the
    probability at x is MR(x) at radius 2 tau.
    """
    require_type("tau", tau, whole=True, least=0)
    p_tau, w_max = _mr_scan(pop, 2 * tau, False)
    q_tau, w_min = _mr_scan(pop, 2 * tau, True)
    return OverlapRates(p_tau, q_tau, w_max, w_min)


# --------------------------------------------------------------------------
# per-template match-rate statistics


class MatchRateStats(Record):
    """Mean and population standard deviation of per-template match rates."""

    mean: float
    std_dev: float

    def _validate(self):
        if not 0.0 <= self.mean <= 1.0 + 1e-12:
            raise ConfigError(f"mean rate {self.mean} outside [0, 1]")
        require_type("standard deviation", self.std_dev, whole=False, least=0)

    @property
    def variation_coeff(self) -> float:
        if self.mean <= 0.0:
            raise ConfigError("variation coefficient undefined for zero mean")
        return self.std_dev / self.mean

    def chebyshev_threshold(self, delta: float) -> float:
        """Rate floor held with probability >= 1 - delta over template draws."""
        if delta <= 0.0:
            raise ConfigError("delta must be positive")
        return self.mean - self.std_dev / math.sqrt(delta)


class PtMatchStatsResult(Record):
    """The statistics of `pt_match_stats` with their intervals."""

    stats: MatchRateStats
    trials_outer: int
    trials_inner: int
    mean_ci: tuple
    std_ci: tuple

    def to_dict(self) -> dict:
        s = self.stats
        cv = None
        if s.mean > 0.0:
            cv = s.variation_coeff
        return {
            "mean": s.mean,
            "std_dev": s.std_dev,
            "variation_coeff": cv,
            "mean_ci": list(self.mean_ci),
            "std_ci": list(self.std_ci),
            "trials_outer": self.trials_outer,
            "trials_inner": self.trials_inner,
        }


def pt_match_stats(scheme, pop,
                   settings: RunSettings = RunSettings()) -> PtMatchStatsResult:
    """Draw `settings.stats_outer` templates, rate each against
    `settings.stats_inner` random captures, summarize.

    The spread of the estimated rates overstates the true template-to-
    template deviation by the inner binomial noise; the reported std_dev
    subtracts that noise term (clipped at zero).
    """
    trials_inner = settings.stats_inner
    parts = _run_kernel(_PtStatsKernel(scheme, pop, trials_inner),
                        settings.stats_outer, settings, "pt_stats")
    rates = np.concatenate(parts)
    no = len(rates)
    mean = float(rates.mean())
    z = z_value(settings.level)
    se_mean = float(rates.std(ddof=1)) / math.sqrt(no)
    s2 = float(rates.var(ddof=1))
    noise = float(np.mean(rates * (1.0 - rates))) / (trials_inner - 1)
    sigma2 = max(s2 - noise, 0.0)
    sigma = math.sqrt(sigma2)
    centered = rates - mean
    m4 = float(np.mean(centered ** 4))
    se_s2 = math.sqrt(max(m4 - s2 * s2, 0.0) / no)
    lo2, hi2 = max(sigma2 - z * se_s2, 0.0), sigma2 + z * se_s2
    return PtMatchStatsResult(
        stats=MatchRateStats(mean=min(mean, 1.0), std_dev=sigma),
        trials_outer=no,
        trials_inner=trials_inner,
        mean_ci=(mean - z * se_mean, mean + z * se_mean),
        std_ci=(math.sqrt(lo2), math.sqrt(hi2)),
    )


def exact_pt_match_stats(scheme, pop) -> MatchRateStats:
    """Enumeration twin of `pt_match_stats`."""
    mean, sigma = exact.enumerator(scheme, pop).pt_match_stats()
    return MatchRateStats(mean=mean, std_dev=sigma)
