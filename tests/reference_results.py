"""Readings of result records that only the tests use: the half width of
an estimate's interval, its plug-in standard error, the Wilson interval of
the theorem verdicts, whether a verdict passed, and a report without its
volatile timings."""

import math

from btpeval import verify


def half_width(estimate) -> float:
    """Half the width of an `AdvantageEstimate`'s interval."""
    return (estimate.ci_high - estimate.ci_low) / 2.0


def plug_in_se(estimate) -> float:
    """The plug-in (Wald) standard error sqrt(p(1 - p) / trials) of an
    `AdvantageEstimate`'s point: the unit of the tests' own tolerances."""
    p = estimate.point
    return math.sqrt(max(p * (1.0 - p), 0.0) / estimate.trials)


def wilson_z3(wins: int, trials: int) -> tuple:
    """The Wilson score interval at z = 3, written out: the interval of the
    theorem verdicts' rule."""
    rate, z2 = wins / trials, 9.0
    center = (rate + z2 / (2 * trials)) / (1.0 + z2 / trials)
    half = 3.0 * math.sqrt(rate * (1.0 - rate) / trials
                           + z2 / (4 * trials * trials)) / (1.0 + z2 / trials)
    return max(0.0, center - half), min(1.0, center + half)


def passed(verdict) -> bool:
    """Whether a `TheoremVerdict` held or did not apply."""
    return verdict.status in (verify.PASS, verify.NOT_APPLICABLE, verify.VACUOUS)


def strip_timings(report: dict) -> dict:
    """A report without its "timings" block: equal for equal seeds."""
    return {k: v for k, v in report.items() if k != "timings"}
