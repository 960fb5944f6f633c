"""Readings of result records that only the tests use: the half width of
an estimate's interval, whether a theorem verdict passed, and a report
without its volatile timings."""

from btpeval import verify


def half_width(estimate) -> float:
    """Half the width of an `AdvantageEstimate`'s interval."""
    return (estimate.ci_high - estimate.ci_low) / 2.0


def passed(verdict) -> bool:
    """Whether a `TheoremVerdict` held or did not apply."""
    return verdict.status in (verify.PASS, verify.NOT_APPLICABLE, verify.VACUOUS)


def strip_timings(report: dict) -> dict:
    """A report without its "timings" block: equal for equal seeds."""
    return {k: v for k, v in report.items() if k != "timings"}
