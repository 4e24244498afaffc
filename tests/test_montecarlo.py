import os
import signal
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from merminsim import montecarlo
from merminsim.exact import conditional_stats, enumerate_joint
from merminsim.model import (
    CellWeights,
    DetectorModel,
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
    source = builtin_distribution(name, state)
    return ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))


def plan_for(name, n, seed, streams=1, state=None, p_a=0, p_b=0):
    return SimulationPlan(config_for(name, state, p_a, p_b), n, seed, streams)


def allow_cpus(monkeypatch, n):
    """Let run_trials count n CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes that run_trials forks."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def interrupted_after_one(starts):
    """The first of starts, then a KeyboardInterrupt."""
    for start in starts:
        yield start
        raise KeyboardInterrupt


def open_fds():
    """This process's open fds, or None where /proc is absent."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


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

    def test_worker_cap_does_not_change_result(self, monkeypatch, forks):
        # Small chunks, so the CPU count and not the chunk count caps the workers.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=8))
        assert len(forks) == 7
        allow_cpus(monkeypatch, 1)
        capped = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=8))
        assert len(forks) == 7
        assert base == capped

    def test_affinity_mask_caps_the_workers(self, monkeypatch, forks):
        # os.cpu_count() counts the machine's CPUs, not those this process
        # may run on: pinned to one CPU, the run forks no worker.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13))
        pinned = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=4))
        assert forks == []
        assert base == pinned

    def test_unknown_cpu_count_runs_one_worker(self, monkeypatch, forks):
        # Without an affinity mask os.cpu_count() counts the CPUs, and it
        # may return None; the run then takes one worker.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        unknown = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=4))
        assert forks == []
        assert base == unknown

    @pytest.mark.parametrize("streams", [2, 3, 8])
    def test_workers_sharing_chunks_count_every_trial_once(self, streams, monkeypatch, forks):
        base = run_trials(plan_for("table1_uniform", 30_500, seed=17, p_a=Fraction(1, 5)))
        # Small chunks and a CPU count above the stream count, so every
        # stream gets a worker and each worker takes many chunks.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        split = run_trials(
            plan_for("table1_uniform", 30_500, seed=17, streams=streams, p_a=Fraction(1, 5))
        )
        assert len(forks) == streams - 1
        assert base == split

    def test_worker_exception_surfaces_from_run_trials(self, monkeypatch, forks, capfd):
        # Small chunks and a CPU count above the stream count, so the run
        # forks two workers; only those raise, and the caller, the first
        # worker, then stops taking chunks.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        run_chunks = montecarlo._run_chunks
        caller = os.getpid()
        taken = []

        def counted(starts):
            for start in starts:
                taken.append(start)
                yield start

        def failing(starts, *args):
            if os.getpid() != caller:
                raise RuntimeError("worker failed")
            return run_chunks(counted(starts), *args)

        monkeypatch.setattr(montecarlo, "_run_chunks", failing)
        with pytest.raises(RuntimeError, match="worker process exited with status 1"):
            run_trials(plan_for("table1_uniform", 5_000_000, seed=13, streams=3))
        assert len(forks) == 2
        assert len(taken) < 5000
        assert capfd.readouterr().err.count("RuntimeError: worker failed") == 2

    def test_import_loads_no_executor_or_logging(self):
        # Nor signal, which only the fork path needs.
        code = (
            "import sys, merminsim.montecarlo; "
            "print(sorted({'concurrent.futures', 'logging', 'multiprocessing', 'signal',"
            " 'subprocess'} & set(sys.modules)))"
        )
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout == "[]\n"

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


class TestWorkerProcesses:
    @pytest.mark.parametrize("fault", [None, "child", "caller"])
    def test_no_child_or_fd_outlives_run_trials(self, fault, monkeypatch, forks):
        # A child that raises, or an interrupt in the caller's own share
        # after its first chunk, while the other workers still run.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        run_chunks = montecarlo._run_chunks
        caller = os.getpid()

        def faulty(starts, *args):
            if fault == "child" and os.getpid() != caller:
                raise RuntimeError("worker failed")
            if fault == "caller" and os.getpid() == caller:
                starts = interrupted_after_one(starts)
            return run_chunks(starts, *args)

        monkeypatch.setattr(montecarlo, "_run_chunks", faulty)
        fds = open_fds()
        plan = plan_for("table1_uniform", 200_000, seed=3, streams=3)
        if fault is None:
            assert run_trials(plan).total == 200_000
        else:
            with pytest.raises(RuntimeError if fault == "child" else KeyboardInterrupt):
                run_trials(plan)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_a_warning_from_fork_leaves_no_child(self, monkeypatch):
        # Python 3.12 and later warn in the caller, once the child exists,
        # when other OS threads run; under an "error" filter the warning
        # raises from os.fork. The child must still be reaped.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        fork, pids = os.fork, []

        def warning_fork():
            pid = fork()
            if pid:
                pids.append(pid)
                warnings.warn("fork() with other threads may deadlock", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        fds = open_fds()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning):
                run_trials(plan_for("table1_uniform", 20_000, seed=3, streams=2))
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def test_an_interrupt_right_after_fork_leaves_no_child(self, monkeypatch):
        # SIGINT reaches the caller once the child exists, before its pid is
        # kept. The interrupt must surface, and the child still be reaped.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        fork, pids = os.fork, []

        def interrupted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
                signal.raise_signal(signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            run_trials(plan_for("table1_uniform", 20_000, seed=3, streams=2))
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds
        # The caller's signal mask is as it was: SIGINT is not left blocked.
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, ())

    def test_an_interrupted_caller_stops_the_children(self, monkeypatch, forks, tmp_path):
        # The caller drains the token pipe, so the children stop after their
        # current chunk and do not run the 5000 chunks to the end.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        run_chunks = montecarlo._run_chunks
        caller = os.getpid()
        log = tmp_path / "child_chunks"

        def logged(starts):
            for start in starts:
                with open(log, "a") as fh:
                    fh.write(".")
                yield start

        def split(starts, *args):
            mine = interrupted_after_one if os.getpid() == caller else logged
            return run_chunks(mine(starts), *args)

        monkeypatch.setattr(montecarlo, "_run_chunks", split)
        with pytest.raises(KeyboardInterrupt):
            run_trials(plan_for("table1_uniform", 5_000_000, seed=13, streams=3))
        assert len(forks) == 2
        assert log.stat().st_size < 2500

    def test_a_child_flushes_no_inherited_stdout(self):
        # Unflushed text in the caller's stdout buffer is written once, by
        # the caller; stderr reports how many workers were forked. Without
        # PYTHONUNBUFFERED a stdout pipe is block-buffered.
        code = """
import os, sys
from merminsim import montecarlo
from merminsim.model import ExperimentConfig, builtin_distribution

fork, forks = os.fork, []
def counted():
    pid = fork()
    forks.append(pid)
    return pid
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1}
montecarlo._CHUNK = 1000
config = ExperimentConfig(source=builtin_distribution("table1_uniform"))
print("x")
montecarlo.run_trials(montecarlo.SimulationPlan(config, 4000, 1, 2))
sys.stderr.write(str(len(forks)))
"""
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            check=True,
            env={**env, "PYTHONPATH": src},
            timeout=60,
        )
        assert (done.stdout, done.stderr) == (b"x\n", b"1")

    def test_a_live_thread_means_no_fork(self, monkeypatch, forks):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        allow_cpus(monkeypatch, 8)
        base = run_trials(plan_for("table1_uniform", 20_000, seed=13))
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            shared = run_trials(plan_for("table1_uniform", 20_000, seed=13, streams=4))
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert base == shared

    @pytest.mark.parametrize("n", [10_000, 10_003])
    def test_a_token_stands_for_a_run_of_chunks(self, n, monkeypatch, forks):
        # 2500 chunks of 4 trials or more, against at most 512 tokens: the
        # caller's one write, of the tokens, fits in the least pipe.
        base = run_trials(plan_for("table1_uniform", n, seed=23, p_a=Fraction(1, 5)))
        monkeypatch.setattr(montecarlo, "_CHUNK", 4)
        allow_cpus(monkeypatch, 8)
        write, writes = os.write, []

        def recorded(fd, data):
            writes.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(os, "write", recorded)
        split = run_trials(plan_for("table1_uniform", n, seed=23, streams=3, p_a=Fraction(1, 5)))
        assert len(forks) == 2
        assert len(writes) == 1 and writes[0] <= 4096
        assert base == split


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
