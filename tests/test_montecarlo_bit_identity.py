"""The integer-threshold engine against the float sampler it replaces.

Every draw is a 53-bit integer k standing for u = k 2^-53; the engine
compares k with integer thresholds instead of comparing u with floats.
These tests pin that the two give the same tallies, draw for draw.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    ExperimentConfig,
    N_CELLS,
    Outcome,
    PairState,
    SETTINGS,
    SourceDistribution,
    builtin_distribution,
    outcome_index,
)
from merminsim.montecarlo import (
    MAX_TRIALS,
    _CHUNK,
    _SET_1,
    _SET_2,
    _draw_state,
    _run_range,
    _sampler_tables,
)

GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
U64 = np.uint64
ONE = 1 << 53


def float_cumulative(config):
    """The float64 cumulative weights the float sampler searched."""
    return np.array(
        [float(c) for c in accumulate(w for _, w in config.source.renormalized())]
    )


def reference_run_range(lo, hi, seed, config):
    """Float form of the sampler, the oracle for the integer engine:
    lane j of trial i is u = (mix64((8 i + j + 1) GAMMA + seed) >> 11) 2^-53,
    the state is a searchsorted over float cumulative weights, and each
    side's outcome is gathered from its own (state, switch) table."""
    entries = config.source.renormalized()
    cum = float_cumulative(config)
    no_flash = outcome_index(Outcome.NO_FLASH)
    table_a, table_b = (
        np.array([[no_flash] + [outcome_index(side(s).outcome_at(x)) for x in SETTINGS]
                  for s, _ in entries])
        for side in (lambda s: s.alice, lambda s: s.bob)
    )
    trial = np.arange(lo, hi, dtype=U64)

    def uniforms(lane):
        z = (trial * U64(8) + U64(lane + 1)) * U64(GAMMA) + U64(seed)
        for shift, mult in ((30, MIX1), (27, MIX2)):
            z = (z ^ (z >> U64(shift))) * U64(mult)
        return ((z ^ (z >> U64(31))) >> U64(11)).astype(np.float64) * 2.0**-53

    state = np.searchsorted(cum, uniforms(0), side="right")
    p_a = float(config.detector_a.failure_probability)
    p_b = float(config.detector_b.failure_probability)
    sw_a = np.where(uniforms(1) < p_a, 0, 1 + (uniforms(2) * 3.0).astype(np.int64))
    sw_b = np.where(uniforms(3) < p_b, 0, 1 + (uniforms(4) * 3.0).astype(np.int64))
    cell = ((sw_a * 4 + sw_b) * 3 + table_a[state, sw_a]) * 3 + table_b[state, sw_b]
    return np.bincount(cell, minlength=N_CELLS)


ALL_PAIRS = tuple(
    PairState(a, b) for a in ALL_INSTRUCTION_SETS for b in ALL_INSTRUCTION_SETS
)

# Every threshold but the first lands in the last guide bucket.
SKEWED = SourceDistribution(
    ((ALL_PAIRS[0], 1 - Fraction(728, 10**9)),)
    + tuple((state, Fraction(1, 10**9)) for state in ALL_PAIRS[1:])
)


def weighted_source(pairs, weights):
    total = int(sum(weights))
    return SourceDistribution(
        tuple((pair, Fraction(int(w), total)) for pair, w in zip(pairs, weights))
    )


# All 729 pair states, N instructions included, with uneven weights.
DENSE = weighted_source(ALL_PAIRS, np.random.default_rng(729).integers(1, 100, 729))


@st.composite
def random_sources(draw):
    """1 to 729 distinct pair states, N instructions included, with random
    integer weights (zeros allowed) renormalized exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, len(ALL_PAIRS)))
    picks = rng.choice(len(ALL_PAIRS), size=size, replace=False)
    weights = rng.integers(0, 100, size=size)
    weights[rng.integers(size)] += 1
    return weighted_source([ALL_PAIRS[i] for i in picks], weights)


failure_probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1),
    st.integers(0, 10**9).map(lambda num: Fraction(num, 10**9)),
)


def edges(points):
    """Each point and its two neighbours, kept to valid draws [0, 2^53)."""
    ks = {p + d for p in points for d in (-1, 0, 1)}
    return np.array(sorted(k for k in ks if 0 <= k < ONE), dtype=U64)


SOURCES = {
    "table1": builtin_distribution("table1_uniform"),
    "dense": DENSE,
    "skewed": SKEWED,
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    source=st.one_of(random_sources(), st.just(SKEWED)),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    first_chunk=st.integers(0, MAX_TRIALS // _CHUNK - 4),
    offset=st.integers(1, _CHUNK - 1),
    span=st.integers(2 * _CHUNK, 3 * _CHUNK),
)
def test_bit_identical_to_float_sampler(source, p_a, p_b, seed, first_chunk, offset, span):
    config = ExperimentConfig(source=source).with_failure_probabilities(p_a, p_b)
    lo = first_chunk * _CHUNK + offset
    expected = reference_run_range(lo, lo + span, seed, config)
    got = _run_range(lo, lo + span, seed, _sampler_tables(config))
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_state_draw_at_every_threshold_and_bucket_edge(name):
    config = ExperimentConfig(source=SOURCES[name])
    tables = _sampler_tables(config)
    inner = tables.thresholds[tables.thresholds < U64(ONE)]
    assert len(inner) == len(config.source.renormalized()) - 1
    buckets = [b << tables.bucket_shift for b in range(len(tables.guide))]
    k = edges([int(t) for t in inner] + buckets)
    size = len(k)
    got = _draw_state(
        k,
        tables,
        np.empty(size, dtype=np.intp),
        np.empty(size, dtype=U64),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=np.intp),
    )
    u = k.astype(np.float64) * 2.0**-53
    expected = np.searchsorted(float_cumulative(config), u, side="right")
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "p", [Fraction(1, 5), Fraction(1, 10), Fraction(1, 3), Fraction(2, 3), Fraction(1, 10**9)]
)
def test_failure_threshold_edges(p):
    config = ExperimentConfig(source=SOURCES["table1"])
    fail = _sampler_tables(config.with_failure_probabilities(p, 0)).fail_a
    k = edges([fail])
    assert np.array_equal(k < U64(fail), k.astype(np.float64) * 2.0**-53 < float(p))


def test_in_bucket_search_is_logarithmic():
    assert _sampler_tables(ExperimentConfig(source=SKEWED)).search_steps <= (
        math.ceil(math.log2(729)) + 1
    )
    assert _sampler_tables(ExperimentConfig(source=SOURCES["table1"])).search_steps == 1


def test_search_rounds_do_not_vary_between_random_weight_sources():
    # The cost of a state draw follows the round count; with too few guide
    # buckets some 729-state sources of random weights need an extra round.
    rounds = {
        _sampler_tables(
            ExperimentConfig(
                source=weighted_source(
                    ALL_PAIRS, np.random.default_rng(seed).integers(1, 101, 729)
                )
            )
        ).search_steps
        for seed in range(24)
    }
    assert rounds == {2}


def test_setting_thresholds_reproduce_float_rounding():
    # (2^54 - 1) / 3 * 3 * 2^-53 = 2 - 2^-53 rounds up to 2.0, one
    # draw below the exact boundary ceil(2^54 / 3).
    assert _SET_2 == (2**54 - 1) // 3
    for k in (0, _SET_1 - 1, _SET_1, _SET_2 - 1, _SET_2, ONE - 1):
        u_times_3 = np.float64(k) * 2.0**-53 * 3.0
        assert 1 + (k >= _SET_1) + (k >= _SET_2) == 1 + int(u_times_3)


def test_weights_not_summing_to_one_are_rejected(monkeypatch):
    config = ExperimentConfig(source=SOURCES["table1"])
    masses, total = config.source.state_masses
    short = property(lambda self: (masses[:-1], total))
    monkeypatch.setattr(SourceDistribution, "state_masses", short)
    with pytest.raises(ValueError, match="not 1"):
        _sampler_tables(config)
