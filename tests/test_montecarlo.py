import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from merminsim import montecarlo
from merminsim.exact import conditional_stats, enumerate_joint
from merminsim.model import (
    CellWeights,
    ExperimentConfig,
    FAILURE,
    N_CELLS,
    OUTCOMES,
    SETTINGS,
    builtin_distribution,
    merge,
)
from merminsim.montecarlo import MAX_TRIALS, SimulationPlan, run_trials
from merminsim.stats import _proportion, compare, estimate_stats, wilson_interval

from cells import cell_weight, cell_weights


S1, S2, S3 = SETTINGS
G, R, N = OUTCOMES

I64_MAX = (1 << 63) - 1


def config_for(name, state=None, p_a=0, p_b=0):
    cfg = ExperimentConfig(source=builtin_distribution(name, state))
    return cfg.with_failure_probabilities(p_a, p_b)


def plan_for(name, n, seed, streams=1, state=None, p_a=0, p_b=0):
    return SimulationPlan(config_for(name, state, p_a, p_b), n, seed, streams)


class TestRunTrials:
    def test_homogeneous_state_always_same_color(self):
        tally = run_trials(plan_for("single", 1000, seed=42, state="RRR-RRR"))
        assert tally.total == 1000
        rr_total = sum(
            cell_weight(tally, sa, sb, R, R) for sa in SETTINGS for sb in SETTINGS
        )
        assert rr_total == 1000

    def test_zero_trials_gives_empty_tally(self):
        tally = run_trials(plan_for("table1_uniform", 0, seed=5))
        assert tally.total == 0
        assert tally == CellWeights.empty()

    def test_reproducible_bitwise(self):
        a = run_trials(plan_for("table1_uniform", 50_000, seed=9))
        b = run_trials(plan_for("table1_uniform", 50_000, seed=9))
        assert a == b

    def test_seed_changes_output(self):
        a = run_trials(plan_for("table1_uniform", 10_000, seed=1))
        b = run_trials(plan_for("table1_uniform", 10_000, seed=2))
        assert a != b

    def test_seed_reduced_mod_2_64(self):
        a = run_trials(plan_for("table1_uniform", 5_000, seed=3))
        b = run_trials(plan_for("table1_uniform", 5_000, seed=3 + (1 << 64)))
        assert a == b

    @pytest.mark.parametrize("streams", [2, 3, 4, 8, 17])
    def test_stream_count_never_changes_result(self, streams):
        base = run_trials(plan_for("table1_uniform", 30_000, seed=11))
        split = run_trials(plan_for("table1_uniform", 30_000, seed=11, streams=streams))
        assert base == split

    def test_worker_cap_does_not_change_result(self, monkeypatch):
        # Small chunks, so the CPU count and not the chunk count caps the workers.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=8))
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        capped = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=8))
        assert base == capped

    def test_unknown_cpu_count_runs_one_worker(self, monkeypatch):
        # os.cpu_count() may return None; the run then takes one worker.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13))
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        unknown = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=4))
        assert base == unknown

    @pytest.mark.parametrize("streams", [2, 3, 8])
    def test_threads_sharing_chunks_count_every_trial_once(self, streams, monkeypatch):
        base = run_trials(plan_for("table1_uniform", 30_500, seed=17, p_a=Fraction(1, 5)))
        # Small chunks and a CPU count above the stream count, so every
        # stream gets a worker and each worker takes many chunks.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        split = run_trials(
            plan_for("table1_uniform", 30_500, seed=17, streams=streams, p_a=Fraction(1, 5))
        )
        assert base == split

    def test_conservation_and_failure_cells(self):
        tally = run_trials(
            plan_for("table1_uniform", 40_000, seed=21, p_a=Fraction(3, 10), p_b=Fraction(1, 10))
        )
        assert sum(tally.weights) == 40_000
        for sb in SETTINGS:
            for color in (G, R):
                assert cell_weight(tally, FAILURE, sb, color, G) == 0
                assert cell_weight(tally, S1, FAILURE, G, color) == 0
        # failures do occur at these rates
        fail_a = sum(
            cell_weight(tally, FAILURE, swb, N, ob)
            for swb in (FAILURE,) + SETTINGS
            for ob in (G, R, N)
        )
        assert fail_a > 0

    def test_plan_validation(self):
        cfg = config_for("table1_uniform")
        with pytest.raises(ValueError):
            SimulationPlan(cfg, -1, seed=0)
        with pytest.raises(ValueError):
            SimulationPlan(cfg, 10, seed=0, n_streams=0)
        with pytest.raises(ValueError):
            SimulationPlan(cfg, 1 << 61, seed=0)


class TestCellWeights:
    def test_rejects_failure_flash_cells(self):
        with pytest.raises(ValueError):
            cell_weights({"01GG": 1})

    def test_rejects_negative_and_bad_sum(self):
        weights = [0] * N_CELLS
        weights[0] = -1
        with pytest.raises(ValueError):
            CellWeights(weights, -1)
        with pytest.raises(ValueError):
            CellWeights([0] * N_CELLS, 5)

    def test_weights_are_read_only(self):
        tally = CellWeights.empty()
        with pytest.raises(TypeError):
            tally.weights[0] = 1


class TestMerge:
    def test_identity(self):
        t = run_trials(plan_for("table1_uniform", 1_000, seed=3))
        assert merge(t, CellWeights.empty()) == t
        assert merge(CellWeights.empty(), t) == t

    def test_commutative_and_associative(self):
        t1 = run_trials(plan_for("table1_uniform", 1_000, seed=3))
        t2 = run_trials(plan_for("table1_uniform", 2_000, seed=4))
        t3 = run_trials(plan_for("two_one_uniform", 3_000, seed=5))
        assert merge(t1, t2) == merge(t2, t1)
        assert merge(merge(t1, t2), t3) == merge(t1, merge(t2, t3))

    def test_n_trials_additive(self):
        t1 = run_trials(plan_for("table1_uniform", 1_500, seed=6))
        t2 = run_trials(plan_for("table1_uniform", 500, seed=7))
        assert merge(t1, t2).total == 2_000

    def test_merged_streams_equal_sequential(self):
        # The stream partition is internal, but merging externally split
        # tallies must agree with the single-stream run too.
        whole = run_trials(plan_for("table1_uniform", 8_000, seed=8))
        parts = run_trials(plan_for("table1_uniform", 8_000, seed=8, streams=4))
        assert merge(whole, CellWeights.empty()) == parts

    def test_merge_counts_exactly_past_64_bits(self):
        big = cell_weights({"11GG": I64_MAX})
        one = cell_weights({"11GG": 1})
        merged = merge(big, one)
        assert merged.total == 1 << 63
        assert cell_weight(merged, S1, S1, G, G) == 1 << 63


class TestEstimateStats:
    def test_case_b_ratio_and_wilson_ci(self):
        tally = cell_weights({"12GG": 300, "12GR": 900})
        est = estimate_stats(tally)
        assert est.p_same_case_b.value == pytest.approx(0.25)
        assert est.p_same_case_b.successes == 300
        assert est.p_same_case_b.trials == 1200
        lo, hi = est.p_same_case_b.ci_low, est.p_same_case_b.ci_high
        assert 0.20 < lo < 0.25 < hi < 0.30

    def test_all_same_color_hits_ci_bound(self):
        tally = cell_weights({"11RR": 500})
        est = estimate_stats(tally)
        assert est.p_same_case_a.value == 1.0
        assert est.p_same_case_a.se == 0.0
        assert est.p_same_case_a.ci_high == 1.0

    def test_empty_tally_all_undefined(self):
        est = estimate_stats(CellWeights.empty())
        for name in (
            "p_same_case_a",
            "p_same_case_b",
            "eta_a",
            "eta_b",
            "eta_u_a",
            "eta_u_b",
            "eta_f_a",
            "eta_f_b",
        ):
            assert not getattr(est, name).defined
        assert all(not e.defined for e in est.coincidence_rate.values())

    def test_matches_exact_at_moderate_n(self):
        cfg = config_for("table1_uniform")
        tally = run_trials(SimulationPlan(cfg, 100_000, seed=17))
        est = estimate_stats(tally)
        exact = conditional_stats(enumerate_joint(cfg))
        report = compare(exact, est, threshold=5.0)
        assert report.all_pass, [row for row in report.rows if not row.passed]

    def test_lossy_config_eta_f_estimated(self):
        cfg = config_for("table1_uniform", p_a=Fraction(1, 5), p_b=Fraction(1, 2))
        tally = run_trials(SimulationPlan(cfg, 100_000, seed=19))
        est = estimate_stats(tally)
        assert est.eta_f_a.value == pytest.approx(0.8, abs=0.01)
        assert est.eta_f_b.value == pytest.approx(0.5, abs=0.01)
        exact = conditional_stats(enumerate_joint(cfg))
        assert compare(exact, est, threshold=5.0).all_pass


class TestWilsonInterval:
    def test_needs_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_extremes_are_tight(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0 < hi < 0.35
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and 0.65 < lo < 1

    def test_contains_point_estimate_and_shrinks(self):
        lo1, hi1 = wilson_interval(30, 100)
        lo2, hi2 = wilson_interval(3000, 10000)
        assert lo1 < 0.3 < hi1
        assert lo2 < 0.3 < hi2
        assert hi2 - lo2 < hi1 - lo1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.integers(1, 100), st.integers(1, MAX_TRIALS - 1)),
    offset=st.one_of(st.sampled_from([0, 1]), st.integers(0, MAX_TRIALS - 1)),
    from_top=st.booleans(),
    scale=st.sampled_from([1, 9]),
)
# Past 2^53 trials, (n - 1) / n rounds to 1.0, above the computed bound.
@example(n=2**54 + 1, offset=1, from_top=True, scale=1)
def test_interval_holds_the_estimate(n, offset, from_top, scale):
    # A coincidence rate is 9 k / n, and its interval is 9 times the Wilson
    # interval of k / n: both can exceed 1.
    k = n - min(offset, n) if from_top else min(offset, n)
    est = _proportion(k, n, scale)
    assert est.ci_low <= est.value <= est.ci_high
    assert 0 <= est.ci_low and est.ci_high <= scale
