import math
from fractions import Fraction
from types import MappingProxyType

import pytest

from merminsim.model import (
    ALL_SETTING_PAIRS,
    CaseStats,
    CellWeights,
    ExperimentConfig,
    SETTINGS,
    builtin_distribution,
)
from merminsim.montecarlo import SimulationPlan, run_trials
from merminsim.stats import (
    Estimate,
    NoCoincidencesError,
    chi_square_tail_dof8,
    compare,
    settings_independence_test,
)

from cells import cell_weights


def exact_estimate(value):
    """A zero-variance estimate exactly equal to value."""
    return Estimate(float(value), 0.0, float(value), float(value), 1, 1)


def undefined_estimate():
    return Estimate(None, None, None, None, 0, 0)


def make_pair(exact_case_b, est_case_b):
    """Stats records agreeing exactly everywhere except p_same_case_b."""
    zero = Fraction(0)
    exact = CaseStats(
        p_same_case_a=Fraction(1),
        p_same_case_b=exact_case_b,
        eta_a=Fraction(1),
        eta_b=Fraction(1),
        eta_u_a=Fraction(1),
        eta_u_b=Fraction(1),
        eta_f_a=Fraction(1),
        eta_f_b=Fraction(1),
        coincidence_rate=MappingProxyType({f"{a}{b}": zero for a, b in ALL_SETTING_PAIRS}),
    )
    one = exact_estimate(1.0)
    est = CaseStats(
        p_same_case_a=exact_estimate(1.0),
        p_same_case_b=est_case_b,
        eta_a=one,
        eta_b=one,
        eta_u_a=one,
        eta_u_b=one,
        eta_f_a=one,
        eta_f_b=one,
        coincidence_rate={f"{a}{b}": exact_estimate(0.0) for a, b in ALL_SETTING_PAIRS},
    )
    return exact, est


def row_named(report, name):
    matches = [row for row in report.rows if row.name == name]
    assert len(matches) == 1, f"expected one row named {name}"
    return matches[0]


class TestCompare:
    def test_small_z_passes(self):
        exact, est = make_pair(Fraction(1, 4), Estimate(0.2502, 0.0005, 0.249, 0.251, 2502, 10000))
        report = compare(exact, est, threshold=5.0)
        row = row_named(report, "p_same_case_b")
        assert row.z == pytest.approx(0.4)
        assert row.passed
        assert report.all_pass

    def test_exact_equality_passes_at_zero_variance(self):
        exact, est = make_pair(Fraction(1), exact_estimate(1.0))
        report = compare(exact, est)
        row = row_named(report, "p_same_case_b")
        assert row.passed and row.z == 0.0

    def test_large_z_fails(self):
        exact, est = make_pair(Fraction(5, 6), Estimate(0.80, 0.004, 0.79, 0.81, 8000, 10000))
        report = compare(exact, est)
        row = row_named(report, "p_same_case_b")
        assert row.z == pytest.approx(-8.33, abs=0.01)
        assert not row.passed
        assert not report.all_pass
        assert [r for r in report.rows if not r.passed] == [row]

    def test_z_at_threshold_passes(self):
        # z = (0.75 - 1/2) / 0.125 = 2 exactly, in binary floating point too.
        exact, est = make_pair(Fraction(1, 2), Estimate(0.75, 0.125, 0.5, 1.0, 12, 16))
        row = row_named(compare(exact, est, threshold=2.0), "p_same_case_b")
        assert row.z == 2.0 and row.passed
        assert not row_named(compare(exact, est, threshold=1.999), "p_same_case_b").passed

    def test_zero_variance_mismatch_fails(self):
        exact, est = make_pair(Fraction(1), exact_estimate(0.9))
        report = compare(exact, est)
        row = row_named(report, "p_same_case_b")
        assert not row.passed
        assert row.note == "zero variance but values differ"
        # The pass/fail outcome at zero variance is pure equality, so it is
        # unchanged if the roles of the two sides are exchanged.
        assert (0.9 == 1.0) == row.passed

    def test_undefined_on_both_sides_skipped(self):
        exact, est = make_pair(None, undefined_estimate())
        report = compare(exact, est)
        assert all(row.name != "p_same_case_b" for row in report.rows)
        assert report.all_pass

    def test_undefined_on_one_side_fails(self):
        exact, est = make_pair(None, exact_estimate(0.25))
        row = row_named(compare(exact, est), "p_same_case_b")
        assert not row.passed and row.note == "defined on one side only"

        exact, est = make_pair(Fraction(1, 4), undefined_estimate())
        row = row_named(compare(exact, est), "p_same_case_b")
        assert not row.passed

    def test_threshold_must_be_positive(self):
        exact, est = make_pair(Fraction(1), exact_estimate(1.0))
        with pytest.raises(ValueError):
            compare(exact, est, threshold=0)

    def test_nan_threshold_is_refused(self):
        # nan <= 0 is false, so a bare sign test would let every row judge
        # abs(z) <= nan, which fails whenever z is finite and nonzero.
        exact, est = make_pair(Fraction(1), exact_estimate(1.0))
        with pytest.raises(ValueError, match="threshold must be positive"):
            compare(exact, est, threshold=float("nan"))

    def test_covers_all_seventeen_fields(self):
        exact, est = make_pair(Fraction(1), exact_estimate(1.0))
        assert len(compare(exact, est).rows) == 8 + 9


def uniform_coincidence_tally(count_per_cell):
    cells = {}
    for sa in SETTINGS:
        for sb in SETTINGS:
            cells[f"{sa}{sb}GG"] = count_per_cell
    return cell_weights(cells)


class TestSettingsIndependence:
    def test_uniform_cells_statistic_zero(self):
        result = settings_independence_test(uniform_coincidence_tally(1000))
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.degrees_of_freedom == 8
        assert result.expected == 1000.0

    def test_zeroed_cell_is_extreme(self):
        cells = {
            f"{sa}{sb}GG": 1125
            for sa in SETTINGS
            for sb in SETTINGS
            if not (sa == 1 and sb == 1)
        }
        tally = cell_weights(cells)
        result = settings_independence_test(tally)
        # Oracle: expected = 9000/9 = 1000, so the statistic is
        # 1000^2/1000 + 8 * 125^2/1000 = 1125.
        assert result.statistic == pytest.approx(1125.0)
        assert result.p_value < 1e-6

    def test_statistic_scales_with_cells(self):
        cells_small = {
            "11GG": 10, "12GG": 20, "13GG": 10,
            "21GG": 20, "22GG": 10, "23GG": 20,
            "31GG": 10, "32GG": 20, "33GG": 10,
        }
        small = settings_independence_test(cell_weights(cells_small))
        tripled = settings_independence_test(
            cell_weights({k: 3 * v for k, v in cells_small.items()})
        )
        assert tripled.statistic == pytest.approx(3 * small.statistic)
        # Only the statistic-0 case is invariant under uniform scaling.
        zero = settings_independence_test(uniform_coincidence_tally(7))
        zero_scaled = settings_independence_test(uniform_coincidence_tally(21))
        assert zero.statistic == zero_scaled.statistic == 0.0

    def test_failures_and_singles_excluded(self):
        tally = cell_weights(
            {"11GG": 100, "01NG": 50, "10GN": 50, "12GN": 25, "00NN": 25}
        )
        result = settings_independence_test(tally)
        assert sum(result.observed.values()) == 100

    def test_no_coincidences_raises(self):
        with pytest.raises(NoCoincidencesError):
            settings_independence_test(CellWeights.empty())
        with pytest.raises(NoCoincidencesError):
            settings_independence_test(cell_weights({"11NN": 40}))

    def test_simulated_table1_not_extreme(self):
        cfg = ExperimentConfig(source=builtin_distribution("table1_uniform"))
        tally = run_trials(SimulationPlan(cfg, 100_000, seed=7))
        result = settings_independence_test(tally)
        assert result.p_value > 0.001


class TestChiSquareTailDof8:
    def test_at_zero(self):
        assert chi_square_tail_dof8(0.0) == 1.0

    def test_chi_square_example(self):
        # dof 8 at statistic 16 -> Q(4, 8)
        assert chi_square_tail_dof8(16.0) == pytest.approx(0.04238011199168, abs=1e-14)

    def test_non_increasing(self):
        grid = [0.0, 1e-12, 0.1, 0.5, 1, 2, 5, 8, 10, 16, 25, 60, 200, 700, 1500, 3500]
        values = [chi_square_tail_dof8(x) for x in grid]
        for earlier, later in zip(values, values[1:]):
            assert earlier >= later

    # Upper-tail critical values of chi-square with 8 degrees of freedom,
    # as printed (to 3 decimals) in standard statistical tables.
    @pytest.mark.parametrize(
        "critical, tail",
        [
            (1.646, 0.99),
            (2.733, 0.95),
            (3.490, 0.90),
            (13.362, 0.10),
            (15.507, 0.05),
            (20.090, 0.01),
            (26.124, 0.001),
        ],
    )
    def test_published_critical_values(self, critical, tail):
        # Rounding the critical value to 3 decimals moves the tail by at
        # most about 2e-4 of itself.
        assert chi_square_tail_dof8(critical) == pytest.approx(tail, rel=5e-4)

    def test_slope_is_the_dof8_density(self):
        # -dQ/dx is the chi-square density x^3 e^(-x/2) / 96, checked by
        # central differences.
        step = 1e-5
        for x in (0.5, 2.0, 6.0, 8.0, 15.0, 40.0):
            slope = (chi_square_tail_dof8(x - step) - chi_square_tail_dof8(x + step)) / (2 * step)
            density = x**3 * math.exp(-x / 2) / 96
            assert slope == pytest.approx(density, rel=1e-6)

    def test_tails(self):
        assert chi_square_tail_dof8(1e-12) == pytest.approx(1.0, abs=1e-12)
        # The explicit_entries golden verify report's statistic.
        assert chi_square_tail_dof8(3355.4613481292645) == 0.0
