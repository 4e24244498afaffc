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

from .exact import CaseStats
from .model import STATISTICS, CellWeights, SettingPair, statistic_fields, statistic_sums

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


@dataclass(frozen=True)
class EstimatedCaseStats:
    """CaseStats estimated from a tally, field for field, with errors."""

    p_same_case_a: Estimate
    p_same_case_b: Estimate
    eta_a: Estimate
    eta_b: Estimate
    eta_u_a: Estimate
    eta_u_b: Estimate
    eta_f_a: Estimate
    eta_f_b: Estimate
    coincidence_rate: Mapping[SettingPair, Estimate]
    n_trials: int


def estimate_stats(tally: CellWeights) -> EstimatedCaseStats:
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
    return EstimatedCaseStats(**statistic_fields(values), n_trials=tally.total)


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
    threshold: float
    rows: tuple[ComparisonRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> tuple[ComparisonRow, ...]:
        return tuple(row for row in self.rows if not row.passed)


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
    exact: CaseStats, estimated: EstimatedCaseStats, threshold: float = 5.0
) -> ComparisonReport:
    """Field-by-field z-score comparison of exact and estimated stats.

    A row passes when |z| <= threshold or the two values are exactly
    equal (the only way to pass at zero variance). Fields undefined on
    both sides are skipped; one-sided definition is a failure.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    rows = (
        _compare_one(stat.label, stat.read(exact), stat.read(estimated), threshold)
        for stat in STATISTICS
    )
    return ComparisonReport(threshold, tuple(row for row in rows if row is not None))


@dataclass(frozen=True)
class IndependenceTestResult:
    """Pearson chi-square of the nine coincidence counts against the
    uniform-settings null (equal expected counts, dof = 8)."""

    statistic: float
    degrees_of_freedom: int
    p_value: float
    observed: Mapping[SettingPair, int]
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
    observed = {
        stat.pair: num for stat, (num, _) in zip(STATISTICS, sums) if stat.pair is not None
    }
    total = sum(observed.values())
    if total == 0:
        raise NoCoincidencesError("tally has no double-flash event")
    expected = total / 9.0
    statistic = sum((o - expected) ** 2 / expected for o in observed.values())
    dof = 8
    p_value = regularized_gamma_q(dof / 2.0, statistic / 2.0)
    return IndependenceTestResult(
        statistic=statistic,
        degrees_of_freedom=dof,
        p_value=p_value,
        observed=observed,
        expected=expected,
    )


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma function Q(a, x).

    Power series on the lower tail for x < a + 1, modified Lentz
    continued fraction otherwise; converges well below 1e-10 absolute
    error for the argument ranges a p-value kernel sees. Q(a, 0) = 1.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_continued_fraction(a, x)


_MAX_ITER = 10_000
_EPS = 1e-16


def _log_prefactor(a: float, x: float) -> float:
    return a * math.log(x) - x - math.lgamma(a)


def _lower_series(a: float, x: float) -> float:
    # P(a, x) = x^a e^-x / Gamma(a) * sum_{k>=0} x^k / (a (a+1) ... (a+k))
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"series for P({a}, {x}) did not converge")
    return total * math.exp(_log_prefactor(a, x))


def _upper_continued_fraction(a: float, x: float) -> float:
    # Q(a, x) = x^a e^-x / Gamma(a) * 1 / (x + 1 - a - 1*(1-a)/(x + 3 - a - ...))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"continued fraction for Q({a}, {x}) did not converge")
    return h * math.exp(_log_prefactor(a, x))
