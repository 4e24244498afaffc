"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline)."""

import time
from fractions import Fraction

import mpmath
import pytest

from merminsim.exact import (
    case_b_same_fraction,
    conditional_stats,
    detector_invariance_check,
    enumerate_joint,
    min_case_b_no_noflash,
)
from merminsim.model import (
    ALL_EIGHT_SETS,
    ALL_SETTING_PAIRS,
    ExperimentConfig,
    SETTINGS,
    builtin_distribution,
)
from merminsim.montecarlo import SimulationPlan, run_trials
from merminsim.stats import (
    chi_square_tail_dof8,
    compare,
    estimate_stats,
    settings_independence_test,
)

from cells import cell_weights

N_ACCEPT = 1_000_000
SEED = 1
Z_THRESHOLD = 5.0
CONFIG_NAMES = (
    ("table1_uniform", None),
    ("two_one_uniform", None),
    ("all_eight_uniform", None),
    ("single", "GNR-GGR"),
)


def config_for(name, state=None, p=0):
    cfg = ExperimentConfig(source=builtin_distribution(name, state))
    return cfg.with_failure_probabilities(p, p)


@pytest.fixture(scope="module")
def million_trial_runs():
    """One n = 10^6 single-stream run per builtin config, with wall time."""
    runs = {}
    for name, state in CONFIG_NAMES:
        cfg = config_for(name, state)
        start = time.perf_counter()
        tally = run_trials(SimulationPlan(cfg, N_ACCEPT, seed=SEED, n_streams=1))
        elapsed = time.perf_counter() - start
        runs[name] = (cfg, tally, elapsed)
    return runs


def test_criterion_1_exact_oracle_table1():
    cfg = config_for("table1_uniform")
    start = time.perf_counter()
    stats = conditional_stats(enumerate_joint(cfg))
    elapsed = time.perf_counter() - start

    assert stats.p_same_case_a == Fraction(1)
    assert stats.p_same_case_b == Fraction(1, 4)
    assert stats.eta_a == Fraction(5, 6)
    assert stats.eta_b == Fraction(5, 6)
    for sa, sb in ALL_SETTING_PAIRS:
        assert stats.coincidence_rate[f"{sa}{sb}"] == Fraction(2, 3)
    assert elapsed < 0.010

    print(
        f"\nPASS criterion 1: table1_uniform exact = (1, 1/4, 5/6, 5/6), "
        f"coincidence 2/3 in all 9 cells, runtime {elapsed * 1e3:.2f} ms"
    )


def test_criterion_2_conundrum_baselines():
    two_one = conditional_stats(enumerate_joint(config_for("two_one_uniform")))
    assert two_one.p_same_case_b == Fraction(1, 3)

    all_eight = conditional_stats(enumerate_joint(config_for("all_eight_uniform")))
    assert all_eight.p_same_case_b == Fraction(1, 2)

    result = min_case_b_no_noflash()
    assert result.minimum == Fraction(1, 3)
    support = {str(s) for s in result.support}
    assert "RRR" not in support and "GGG" not in support
    assert support == {"RRG", "RGR", "RGG", "GRR", "GRG", "GGR"}

    print(
        "\nPASS criterion 2: two_one 1/3, all_eight 1/2, "
        "minimum 1/3 with support excluding RRR/GGG"
    )


def test_criterion_3_detector_loss_invariance():
    grid = (Fraction(0), Fraction(1, 5), Fraction(1, 2))
    for name in ("table1_uniform", "two_one_uniform"):
        base = conditional_stats(enumerate_joint(config_for(name)))
        report = detector_invariance_check(config_for(name), grid)
        assert report.conditionals_invariant
        assert report.coincidence_scaling_exact
        for p, stats in zip(grid, report.stats_by_p):
            assert stats.p_same_case_a == base.p_same_case_a
            assert stats.p_same_case_b == base.p_same_case_b
            assert stats.eta_u_a == base.eta_u_a
            assert stats.eta_u_b == base.eta_u_b
            assert stats.eta_a == (1 - p) * stats.eta_u_a
            assert stats.eta_b == (1 - p) * stats.eta_u_b
            assert stats.eta_a == stats.eta_u_a * stats.eta_f_a
            assert stats.eta_b == stats.eta_u_b * stats.eta_f_b

    print(
        "\nPASS criterion 3: conditionals and eta_u exactly unchanged for "
        "p in {0, 1/5, 1/2}; eta = (1-p) * eta_u = eta_u * eta_f exactly"
    )


def test_criterion_4_monte_carlo_convergence(million_trial_runs):
    total_elapsed = 0.0
    worst = ("", 0.0)
    for name, (cfg, tally, elapsed) in million_trial_runs.items():
        total_elapsed += elapsed
        exact = conditional_stats(enumerate_joint(cfg))
        report = compare(exact, estimate_stats(tally), threshold=Z_THRESHOLD)
        assert report.all_pass, (name, [row for row in report.rows if not row.passed])
        for row in report.rows:
            if row.z is not None and abs(row.z) > worst[1]:
                worst = (f"{name}.{row.name}", abs(row.z))
    assert total_elapsed < 5.0

    rate = 4 * N_ACCEPT / total_elapsed
    print(
        f"\nPASS criterion 4: 4 configs x 10^6 trials within {Z_THRESHOLD} SE of "
        f"the exact oracle (worst |z| = {worst[1]:.2f} on {worst[0]}); "
        f"wall {total_elapsed:.2f} s single-stream ({rate:,.0f} trials/s)"
    )


def test_criterion_5_bitwise_determinism(million_trial_runs):
    cfg, reference, _ = million_trial_runs["table1_uniform"]
    for streams in (4, 8):
        split = run_trials(
            SimulationPlan(cfg, N_ACCEPT, seed=SEED, n_streams=streams)
        )
        assert split == reference
    rerun = run_trials(SimulationPlan(cfg, N_ACCEPT, seed=SEED, n_streams=1))
    assert rerun == reference

    print(
        "\nPASS criterion 5: (seed=1, n=10^6) tallies bitwise identical at "
        "1, 4 and 8 streams and across re-runs"
    )


def test_criterion_6_settings_independence():
    p_values = {}
    for seed in (7, 11, 13):
        cfg = config_for("table1_uniform")
        tally = run_trials(SimulationPlan(cfg, N_ACCEPT, seed=seed))
        result = settings_independence_test(tally)
        assert result.p_value > 0.001, (seed, result.p_value)
        p_values[seed] = result.p_value

    cells = {
        f"{sa}{sb}GG": 1125
        for sa in SETTINGS
        for sb in SETTINGS
        if not (sa == 1 and sb == 1)
    }
    biased = settings_independence_test(cell_weights(cells))
    assert biased.p_value < 1e-6

    rendered = ", ".join(f"seed {s}: p = {p:.3g}" for s, p in p_values.items())
    print(
        f"\nPASS criterion 6: chi-square p > 0.001 on simulated output ({rendered}); "
        f"zeroed-cell tally p = {biased.p_value:.2e} < 1e-6"
    )


def test_criterion_7_oracle_cross_validation():
    for s in ALL_EIGHT_SETS:
        direct = case_b_same_fraction(s)
        enumerated = conditional_stats(
            enumerate_joint(config_for("single", f"{s}-{s}"))
        ).p_same_case_b
        assert direct == enumerated, str(s)

    print(
        "\nPASS criterion 7: case_b_same_fraction matches the enumeration "
        "path on all eight flash-only identical-pair states"
    )


def test_criterion_8_chi_square_tail_against_mpmath():
    # Midpoints of 2000 equal steps over [0, 200]; the tail there runs from
    # about 1 down to 7e-39, all normal doubles.
    grid = [(i + 0.5) / 10 for i in range(2000)]
    worst = 0.0
    with mpmath.workdps(50):
        for x in grid:
            reference = mpmath.gammainc(4, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
            worst = max(worst, float(abs((chi_square_tail_dof8(x) - reference) / reference)))
    assert worst < 1e-15

    print(
        f"\nPASS criterion 8: the dof-8 chi-square tail within relative {worst:.2e} "
        f"of a 50-digit independent evaluation at {len(grid)} points over [0, 200]"
    )
