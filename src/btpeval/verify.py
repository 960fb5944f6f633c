"""Empirical checkers for the four relation theorems.

Each checker runs the relevant games/oracles and reduces the claim to a
single inequality `lhs REL rhs` within a tolerance.  T1's relation is a
per-trial set inclusion, which is exact.  T2, T3 and T4 compare linear
forms in game win rates, and each takes its tolerance from one rule,
`metrics.verdict_margin`: the Wilson score bounds at z = 3, combined by
MOVER for T4's two games, on the side of lhs that faces rhs.  The
details name the rule and its nominal false-fail rate.
A check whose hypothesis fails reports status "not-applicable" rather
than silently passing, and so does T2, T3 or T4 when the query budget
cuts a trial of the adversary it posits; a bound that degenerates
(p_tau = 1) reports "vacuous".

Universal quantification over adversaries is not executable; the
unachievability claims are checked in full strength by running the
constructive adversary they posit, while the implication bounds are
checked per adversary and labeled as such in the verdict details.

The checks take one `metrics.RunSettings` record and build their adversaries
as `btpeval game` does: with `build_adversary`, and T2's inverter from the
statistics `adversaries.inverter_stats` chooses.  `verify_all` drives them.
"""

from __future__ import annotations

from . import exact, metrics
from .adversaries import (
    PalSamplerAdversary,
    PalSamplerConfig,
    ReductionUnlinkAdversary,
    build_adversary,
    inverter_stats,
)
from .errors import ConfigError, ModeError, VariationTooHighError
from .games import run_al_irr_game, run_coupled_irr_trials, run_pal_irr_game, run_unlink_game
from .metrics import RunSettings
from .population import Population
from .records import Record
from .schemes import LEAK_AD, LEAK_BOTH, LEAK_PI, BtpScheme, LeakSet

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
VACUOUS = "vacuous"
VERDICT_RULE = "Wilson score bounds at z = 3, combined by MOVER"


class TheoremVerdict(Record):
    """One checked relation: lhs REL rhs within tolerance, plus context."""

    theorem: str
    status: str
    relation: str
    lhs: float | None
    rhs: float | None
    tolerance: float | None
    leak: str | None = None
    details: dict

    def to_dict(self) -> dict:
        out = {
            "id": self.theorem,
            "pass": self.status == PASS,
            "status": self.status,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tolerance": self.tolerance,
            "details": self.details,
        }
        if self.leak is not None:
            out["lambda"] = self.leak
        return out


def _unchecked(theorem: str, status: str, relation: str, leak: LeakSet,
               details: dict, reason: str) -> TheoremVerdict:
    """The verdict of a check that did not run, `reason` closing its details."""
    details["reason"] = reason
    return TheoremVerdict(theorem, status, relation, None, None, None,
                          leak=str(leak), details=details)


def _decided(theorem: str, relation: str, lhs: float, rhs: float, terms,
             leak: LeakSet, details: dict, settings: RunSettings
             ) -> TheoremVerdict:
    """`lhs REL rhs`, lhs a constant plus c * win rate summed over `terms`
    of (c, game), within lhs's `metrics.verdict_margin` on the side facing
    rhs, which is never 0: rhs lies inside lhs's range.  Not applicable when
    the query budget cut a trial: the posited adversary did not run."""
    details["flagged"] = flagged = sum(game.flagged for _, game in terms)
    if flagged:
        return _unchecked(theorem, NOT_APPLICABLE, relation, leak, details, (
            f"query_budget = {settings.query_budget} cut {flagged} of "
            f"{sum(game.trials for _, game in terms)} trials, so the "
            "adversary the check posits did not run in full"))
    two_sided = relation == "~~"
    tol = metrics.verdict_margin([(c, game.wins, game.trials)
                                  for c, game in terms], upper=lhs < rhs)
    ok = abs(lhs - rhs) <= tol if two_sided else lhs >= rhs - tol
    details.update(rule=VERDICT_RULE, nominal_false_fail=(
        1.0 - metrics.VERDICT_LEVEL) / (1 if two_sided else 2))
    return TheoremVerdict(theorem, PASS if ok else FAIL, relation, lhs, rhs,
                          tol, leak=str(leak), details=details)


def check_thm_irr_relations(scheme: BtpScheme, pop: Population, leak: LeakSet,
                            settings: RunSettings = RunSettings(),
                            adversary=None) -> TheoremVerdict:
    """Irreversibility relation chain, checked as exact per-trial
    inclusions on coupled transcripts.

    (a) an exact-recovery win is a within-tau win, so the full-leakage
    advantage is at most the tau-advantage plus the blind-baseline gap;
    (b) for threshold-compatible schemes a within-tau win is an
    acceptance win.  Both inclusions carry zero tolerance.
    """
    tau = settings.tau
    if adversary is None:
        adversary = build_adversary("blind", "al-irr", scheme, pop, settings,
                                    leak)
    coupled = run_coupled_irr_trials(scheme, pop, leak, tau, adversary,
                                     settings)
    violations = coupled.inclusion_violations()
    pal_applies = scheme.threshold_compatible(tau)
    total = violations["fl_subset_al"]
    if pal_applies:
        total += violations["al_subset_pal"]
    m0 = metrics.extremal_mr(pop, 0, settings)
    m_tau = metrics.extremal_mr(pop, tau, settings)
    m_pal = metrics.extremal_rmr(scheme, pop, settings)
    rates = coupled.rates
    details = {
        "adversary": getattr(adversary, "name", "custom"),
        "trials": settings.trials,
        "tau": tau,
        "violations": violations,
        "rates": {k: float(v) for k, v in rates.items()},
        "adv_fl": float(rates["fl"]) - m0.value,
        "adv_al_plus_gap": float(rates["al"]) - m_tau.value + (m_tau.value - m0.value),
        "adv_al": float(rates["al"]) - m_tau.value,
        "adv_pal_plus_gap": float(rates["pal"]) - m_pal.value + (m_pal.value - m_tau.value),
        "pal_part": "checked" if pal_applies else
                    "skipped: scheme not threshold-compatible at this tau",
        "quantification": "per-adversary coupled check",
        "flagged": coupled.flagged,
    }
    return TheoremVerdict(
        theorem="T1", status=PASS if total == 0 else FAIL, relation="<=",
        lhs=float(total), rhs=0.0, tolerance=0.0, leak=str(leak),
        details=details,
    )


def check_thm_pal_unachievable(scheme: BtpScheme, pop: Population,
                               settings: RunSettings = RunSettings()
                               ) -> TheoremVerdict:
    """Full-template inversion is unachievable: the repeated-sampling
    inverter must win the acceptance game with rate above 1 - gamma.

    The hypothesis C^2 < delta gates applicability: `PalSamplerConfig.
    from_stats` checks it and sizes the inverter from the template statistics
    `inverter_stats` chooses, as `btpeval game` does, exact wherever an oracle
    serves the scheme; the details also give the measured ones.  The sampler
    game runs at most 5000 trials.
    """
    s = settings
    trials = min(s.trials, 5000)
    stats, source = inverter_stats(scheme, pop, s)
    measured = (stats if source == "measured"
                else metrics.pt_match_stats(scheme, pop, s).stats)
    details = {
        "delta": s.delta, "gamma": s.gamma,
        "measured_mr": measured.mean, "measured_sigma": measured.std_dev,
        "stats_outer": s.stats_outer, "stats_inner": s.stats_inner,
        "statistics": source,
    }
    if measured.mean > 0.0:
        details["measured_c2"] = measured.variation_coeff ** 2
    if source == "exact":
        details.update(exact_mr=stats.mean, exact_sigma=stats.std_dev)
    else:
        details["tolerance_note"] = ("the tolerance counts only the sampler "
                                     "game's sampling error, not the error of "
                                     "the estimated statistics that set n_delta")
    try:
        cfg = PalSamplerConfig.from_stats(stats, s.delta, s.gamma)
    except VariationTooHighError as e:
        return _unchecked("T2", NOT_APPLICABLE, ">=", LEAK_BOTH, details, str(e))
    details.update(mu=cfg.mu, n_delta=cfg.n_delta, trials=trials)
    game = run_pal_irr_game(scheme, pop, LEAK_BOTH, PalSamplerAdversary(cfg),
                            s.replace(trials=trials))
    details.update(win_rate=game.win_rate.point,
                   advantage=game.advantage.point)
    return _decided("T2", ">=", game.win_rate.point, 1.0 - s.gamma,
                    [(1.0, game)], LEAK_BOTH, details, s)


def check_thm_unlink_unachievable(scheme: BtpScheme, pop: Population,
                                  settings: RunSettings = RunSettings()
                                  ) -> TheoremVerdict:
    """Full-template linkage is unachievable: the match-test distinguisher
    reaches advantage 1 - MR when every template accepts its own feature.

    The own-feature hypothesis is checked exactly first; MR is the exact
    mean template match rate, and without it the check does not apply.
    """
    details = {}
    try:
        en = exact.enumerator(scheme, pop)
        own_match = en.hypothesis_own_match()
        mr_mean = en.mean_match_rate()
    except ModeError as e:
        return _unchecked("T3", NOT_APPLICABLE, "~~", LEAK_BOTH, details,
                          f"no exact oracle: {e}")
    if not own_match:
        return _unchecked("T3", NOT_APPLICABLE, "~~", LEAK_BOTH, details,
                          "some template rejects the very feature it encodes")
    details.update(mr_exact=mr_mean, trials=settings.trials)
    adversary = build_adversary("match-test", "unlink", scheme, pop, settings,
                                LEAK_BOTH)
    game = run_unlink_game(scheme, pop, LEAK_BOTH, adversary, settings)
    details.update(advantage=game.advantage.point,
                   win_rate=game.win_rate.point)
    # the signed advantage 2w - 1, which is `advantage` wherever w >= 1/2
    return _decided("T3", "~~", 2.0 * game.win_rate.point - 1.0, 1.0 - mr_mean,
                    [(2.0, game)], LEAK_BOTH, details, settings)


def check_thm_unlink_irr_bound(scheme: BtpScheme, pop: Population,
                               leak: LeakSet,
                               settings: RunSettings = RunSettings(),
                               inner_adversary=None) -> TheoremVerdict:
    """Unlinkability dominates within-tau irreversibility: the reduction
    distinguisher built from an inversion adversary A must reach
    advantage >= (1 - p_tau) * Adv(A) - (p_tau - q_tau) * m_tau; A
    defaults to the built-in `sampler`."""
    tau = settings.tau
    if inner_adversary is None:
        inner_adversary = build_adversary("sampler", "al-irr", scheme, pop,
                                          settings, leak)
    details = {
        "tau": tau, "trials": settings.trials,
        "inner": getattr(inner_adversary, "name", "custom"),
        "quantification": "per-adversary reduction check",
    }
    try:
        ov = metrics.overlap_rates(pop, tau)
    except ModeError as e:
        return _unchecked("T4", NOT_APPLICABLE, ">=", leak, details,
                          f"no exact overlap rates: {e}")
    m_tau = metrics.extremal_mr(pop, tau, settings)
    details.update(p_tau=ov.p_tau, q_tau=ov.q_tau, m_tau=m_tau.value)
    if ov.p_tau >= 1.0 - 1e-12:
        return _unchecked("T4", VACUOUS, ">=", leak, details,
                          "p_tau = 1 makes the bound vacuous")
    game_a = run_al_irr_game(scheme, pop, leak, tau, inner_adversary, settings)
    reduction = ReductionUnlinkAdversary(inner_adversary, tau)
    game_b = run_unlink_game(scheme, pop, leak, reduction, settings)
    adv_a, adv_b = game_a.advantage.point, game_b.advantage.point
    details.update(adv_inner=adv_a, adv_reduction=adv_b)
    rhs = (1.0 - ov.p_tau) * adv_a - (ov.p_tau - ov.q_tau) * m_tau.value
    # adv_b = |2 w_b - 1|, and adv_a is w_a less the blind baseline
    c_b = 2.0 if game_b.win_rate.point >= 0.5 else -2.0
    return _decided("T4", ">=", adv_b, rhs, [(c_b, game_b),
                                             (ov.p_tau - 1.0, game_a)],
                    leak, details, settings)


SINGLE_PART_LEAKS = (LEAK_PI, LEAK_AD)

# The relation diagram in report order.  Each entry maps (scheme, pop,
# leaks, settings) to its verdicts; T1 and T4 run once per leak set, T2
# and T3 on the full template.  The lambdas look each check up at call
# time, so a rebound module attribute takes effect.
THEOREMS = {
    "t1": lambda scheme, pop, leaks, s: [
        check_thm_irr_relations(scheme, pop, leak, s) for leak in leaks],
    "t2": lambda scheme, pop, leaks, s: [
        check_thm_pal_unachievable(scheme, pop, s)],
    "t3": lambda scheme, pop, leaks, s: [
        check_thm_unlink_unachievable(scheme, pop, s)],
    "t4": lambda scheme, pop, leaks, s: [
        check_thm_unlink_irr_bound(scheme, pop, leak, s) for leak in leaks],
}


def verify_all(scheme: BtpScheme, pop: Population,
               settings: RunSettings = RunSettings(),
               theorem: str = "all", leak: LeakSet | None = None) -> list:
    """The verdicts of `theorem` ("t1" ... "t4"), or of the full relation
    diagram for "all"; T1 and T4 run on `leak`, or on pi and then on ad
    when it is None."""
    if theorem != "all" and theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}; choose from "
                          f"{(*THEOREMS, 'all')}")
    checks = THEOREMS.values() if theorem == "all" else [THEOREMS[theorem]]
    leaks = SINGLE_PART_LEAKS if leak is None else (leak,)
    return [v for check in checks for v in check(scheme, pop, leaks, settings)]
