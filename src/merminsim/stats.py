"""Estimates from a tally and the checks that judge them: relative
frequencies with standard errors and Wilson intervals, exact-vs-simulated
comparison reports and the settings-independence chi-square test on
coincidence counts."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .model import STATISTICS, CaseStats, CellWeights, statistic_sums

# Two-sided 95% normal quantile used by the Wilson score interval.
Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    Stays inside [0, 1], holds k / n, and behaves at the extremes: k = 0
    gives a lower bound of exactly 0 and k = n an upper bound of exactly 1.
    """
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p_hat = successes / trials
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (Z_95 / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    )
    # The bounds are exactly 0 / 1 at the extremes; keep them free of
    # float round-off there. Past 2^53 trials, k / n can round to a double
    # beyond a computed bound, so each bound is widened to hold k / n.
    low = 0.0 if successes == 0 else max(0.0, min(p_hat, center - margin))
    high = 1.0 if successes == trials else min(1.0, max(p_hat, center + margin))
    return (low, high)


@dataclass(frozen=True)
class Estimate:
    """A relative frequency with its standard error and Wilson 95% CI.

    value is None when the conditioning count is zero (undefined, not 0).
    """

    value: Union[float, None]
    se: Union[float, None]
    ci_low: Union[float, None]
    ci_high: Union[float, None]
    successes: int
    trials: int

    @property
    def defined(self) -> bool:
        return self.value is not None


def _proportion(successes: int, trials: int, scale: float = 1.0) -> Estimate:
    if trials == 0:
        return Estimate(None, None, None, None, successes, 0)
    p_hat = successes / trials
    se = scale * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    lo, hi = wilson_interval(successes, trials)
    return Estimate(
        value=scale * p_hat,
        se=se,
        ci_low=scale * lo,
        ci_high=scale * hi,
        successes=successes,
        trials=trials,
    )


def estimate_stats(tally: CellWeights) -> CaseStats[Estimate]:
    """Relative-frequency estimates of every CaseStats field.

    Each statistic is its numerator count over its denominator count, so
    conditionals are computed over double-flash events only and a field
    whose conditioning count is zero comes back undefined.
    coincidence_rate estimates use the known 1/9 aiming probability as
    denominator (the scaled estimator 9 k / n), matching the exact
    definition; their standard error and interval are 9 times those of
    k / n, so both the estimate and its interval can exceed 1.
    """
    values = [
        _proportion(num, den, stat.scale)
        for stat, (num, den) in zip(STATISTICS, statistic_sums(tally.weights))
    ]
    return CaseStats.from_values(values)


class NoCoincidencesError(ValueError):
    """The tally contains no double-flash event to test."""


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    exact: Union[Fraction, None]
    estimate: Union[float, None]
    se: Union[float, None]
    z: Union[float, None]
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


def _compare_one(
    name: str,
    exact_value: Union[Fraction, None],
    estimate: Estimate,
    threshold: float,
) -> Union[ComparisonRow, None]:
    row = functools.partial(ComparisonRow, name, exact_value, estimate.value, estimate.se)
    if exact_value is None and not estimate.defined:
        return None  # undefined on both sides: skipped
    if exact_value is None or not estimate.defined:
        return row(None, False, "defined on one side only")
    x = float(exact_value)
    if estimate.value == x:
        return row(0.0, True)
    if not estimate.se:
        return row(None, False, "zero variance but values differ")
    z = (estimate.value - x) / estimate.se
    return row(z, abs(z) <= threshold)


def compare(
    exact: CaseStats[Union[Fraction, None]],
    estimated: CaseStats[Estimate],
    threshold: float = 5.0,
) -> ComparisonReport:
    """Field-by-field z-score comparison of exact and estimated stats.

    A row passes when |z| <= threshold or the two values are exactly
    equal (the only way to pass at zero variance). Fields undefined on
    both sides are skipped; one-sided definition is a failure.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    rows = (
        _compare_one(stat.label, stat.read(exact), stat.read(estimated), threshold)
        for stat in STATISTICS
    )
    return ComparisonReport(tuple(row for row in rows if row is not None))


@dataclass(frozen=True)
class IndependenceTestResult:
    """Pearson chi-square of the nine coincidence counts against the
    uniform-settings null (equal expected counts, dof = 8). observed is
    keyed by setting pair digits, e.g. "12"."""

    statistic: float
    degrees_of_freedom: int
    p_value: float
    observed: Mapping[str, int]
    expected: float


def settings_independence_test(tally: CellWeights) -> IndependenceTestResult:
    """Test whether the detected sample size depends on the setting pair.

    Observed counts are the double flashes per realized (setting_a,
    setting_b) cell, failures excluded: the numerators of the nine
    coincidence rates. Under uniform settings the nine cells share one
    expected count, total / 9; only that total is estimated from the
    data, leaving 8 degrees of freedom.
    """
    sums = statistic_sums(tally.weights)
    observed = {stat.key: num for stat, (num, _) in zip(STATISTICS, sums) if stat.key is not None}
    total = sum(observed.values())
    if total == 0:
        raise NoCoincidencesError("tally has no double-flash event")
    expected = total / 9.0
    statistic = sum((o - expected) ** 2 / expected for o in observed.values())
    dof = 8
    p_value = chi_square_tail_dof8(statistic)
    return IndependenceTestResult(
        statistic=statistic,
        degrees_of_freedom=dof,
        p_value=p_value,
        observed=observed,
        expected=expected,
    )


def chi_square_tail_dof8(x: float) -> float:
    """P(X >= x) for X chi-square with 8 degrees of freedom.

    This is Q(4, x / 2), which for integer shape 4 is the closed form
    e^(-h) (1 + h + h^2 / 2 + h^3 / 6) with h = x / 2: exactly 1 at 0,
    within a few ulps of the true tail while e^(-h) is a normal double,
    and 0 once it underflows.
    """
    h = x / 2.0
    return math.exp(-h) * (1.0 + h + h * h / 2.0 + h * h * h / 6.0)
