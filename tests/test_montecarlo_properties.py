"""Monte Carlo invariants as properties over random sources.

The sources are the exact oracle's random sources: up to 729 pair states,
N instructions included, with random exact failure probabilities. Tallies
must not depend on how the trial range is split between workers, merge
must be a commutative monoid, a tally must read as the law of its own
frequencies, and the estimates must agree with the exact statistics.
"""

import os
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from merminsim import montecarlo
from merminsim.exact import conditional_stats, enumerate_joint
from merminsim.model import STATISTICS, CellWeights, ExperimentConfig, merge, statistic_sums
from merminsim.montecarlo import SimulationPlan, run_trials
from merminsim.stats import compare, estimate_stats
from test_exact_reference import failure_probabilities, random_sources

seeds = st.integers(0, 2**64 - 1)


def configs():
    return st.builds(
        lambda source, p_a, p_b: ExperimentConfig(source=source).with_failure_probabilities(p_a, p_b),
        random_sources(),
        failure_probabilities,
        failure_probabilities,
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(config=configs(), n=st.integers(200, 2000), seed=seeds)
def test_tallies_do_not_depend_on_the_stream_count(config, n, seed):
    # 64-trial chunks give every one of three workers several chunks to
    # take from the shared queue.
    with mock.patch.object(montecarlo, "_CHUNK", 64), mock.patch.object(
        os, "cpu_count", return_value=3
    ):
        tallies = [run_trials(SimulationPlan(config, n, seed, streams)) for streams in (1, 2, 3)]
    assert tallies[0] == tallies[1] == tallies[2]
    assert tallies[0].total == n


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=configs(), sizes=st.tuples(*[st.integers(0, 300)] * 3), seed=seeds)
def test_merge_is_a_commutative_monoid(config, sizes, seed):
    a, b, c = (run_trials(SimulationPlan(config, n, seed + i)) for i, n in enumerate(sizes))
    empty = CellWeights.empty()
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(a, b) == merge(b, a)
    assert merge(a, empty) == a == merge(empty, a)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=configs(), n=st.integers(0, 500), seed=seeds)
def test_a_tally_reads_as_the_law_of_its_frequencies(config, n, seed):
    # The exact oracle and the estimates read one tally through one
    # declaration: each exact value is the estimate's own success ratio.
    tally = run_trials(SimulationPlan(config, n, seed))
    exact, estimated = conditional_stats(tally), estimate_stats(tally)
    for stat in STATISTICS:
        e = stat.read(estimated)
        expected = Fraction(stat.scale * e.successes, e.trials) if e.trials else None
        assert stat.read(exact) == expected


N_COMPARE = 20_000
SEEDS = (1, 2, 3)
# Expected count below which a statistic's estimate may come out
# undefined or at zero variance, which compare counts as a failure.
MIN_EXPECTED = 100


def well_sampled(table, n):
    """Every statistic's numerator and the rest of its denominator are
    either impossible or expected at least MIN_EXPECTED times in n trials."""
    return all(
        part == 0 or part * n >= MIN_EXPECTED * table.total
        for num, den in statistic_sums(table.weights)
        for part in (num, den - num)
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=configs())
def test_estimates_agree_with_the_exact_oracle(config):
    table = enumerate_joint(config)
    assume(well_sampled(table, N_COMPARE))
    exact = conditional_stats(table)
    for seed in SEEDS:
        tally = run_trials(SimulationPlan(config, N_COMPARE, seed))
        assert compare(exact, estimate_stats(tally), threshold=5.0).all_pass
