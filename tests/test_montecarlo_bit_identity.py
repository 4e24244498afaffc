"""The integer-threshold engine against a reference sampler written from
the definitions, and the law its tables sample against the exact oracle.

Every draw is a 53-bit integer k = z >> 11 of a 64-bit hash z, standing
for u = k 2^-53; the engine compares z with integer thresholds on k. The
reference draws the state and the pair code 4 * digit_a + digit_b as
exact rational partitions of k, in Python ints. These tests pin that the
two give the same tallies, draw for draw, and that the law of the tables
is within (K + 16) 2^-53 of enumerate_joint.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.exact import enumerate_joint
from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    DetectorModel,
    ExperimentConfig,
    N_CELLS,
    NO_FLASH,
    OUTCOMES,
    SETTINGS,
    SourceDistribution,
    builtin_distribution,
)
from merminsim.montecarlo import (
    MAX_TRIALS,
    _BUCKETS_PER_PART,
    _CHUNK,
    _guided_draw,
    _run_range,
    _sampler_tables,
)

GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
U64 = np.uint64
ONE = 1 << 53


def exact_parts(k, weights):
    """Part of each draw k when [0, 1) is cut into parts of the Fraction
    weights in turn: the number of inner cumulative weights c with
    k 2^-53 >= c, compared as integers over one denominator."""
    cum = list(accumulate(weights))[:-1]
    den = math.lcm(*(c.denominator for c in cum))
    bounds = np.array([ONE * c.numerator * (den // c.denominator) for c in cum], dtype=object)
    return np.searchsorted(bounds, k.astype(object) * den, side="right").astype(np.int64)


def state_weights(config):
    return [w for _, w in config.source.renormalized()]


def pair_weights(config):
    """Weights of the pair codes 4 * digit_a + digit_b: each side's digit
    is 0, its failure position, with probability p and each setting with
    probability (1 - p) / 3, independently."""
    a, b = (
        [p] + [(1 - p) / 3] * 3
        for p in (config.detector_a.failure_probability, config.detector_b.failure_probability)
    )
    return [x * y for x in a for y in b]


def reference_run_range(lo, hi, seed, config):
    """Reference form of the sampler, the oracle for the integer engine:
    lane j of trial i is k = mix64((8 i + j + 1) GAMMA + seed) >> 11, the
    state is exact_parts of lane 0 over the renormalized weights, the pair
    code exact_parts of lane 1 over pair_weights, and each side's outcome
    is gathered from its own (state, switch) table."""
    entries = config.source.renormalized()
    no_flash = OUTCOMES.index(NO_FLASH)
    table_a, table_b = (
        np.array([[no_flash] + [OUTCOMES.index(s.split("-")[side][x - 1]) for x in SETTINGS]
                  for s, _ in entries])
        for side in (0, 1)
    )
    trial = np.arange(lo, hi, dtype=U64)

    def draws(lane):
        z = (trial * U64(8) + U64(lane + 1)) * U64(GAMMA) + U64(seed)
        for shift, mult in ((30, MIX1), (27, MIX2)):
            z = (z ^ (z >> U64(shift))) * U64(mult)
        return (z ^ (z >> U64(31))) >> U64(11)

    state = exact_parts(draws(0), state_weights(config))
    sw_a, sw_b = np.divmod(exact_parts(draws(1), pair_weights(config)), 4)
    cell = ((sw_a * 4 + sw_b) * 3 + table_a[state, sw_a]) * 3 + table_b[state, sw_b]
    return np.bincount(cell, minlength=N_CELLS)


ALL_PAIRS = tuple(f"{a}-{b}" for a in ALL_INSTRUCTION_SETS for b in ALL_INSTRUCTION_SETS)

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


def hashes(k):
    """The least and the greatest hash z whose draw z >> 11 is k, for each
    draw in k, as the y with z = y ^ (y >> 31) that the guided draw takes:
    (k, y) with every draw listed twice."""
    z = np.concatenate([k << U64(11), (k << U64(11)) | U64(0x7FF)])
    y = z ^ (z >> U64(31)) ^ (z >> U64(62))
    assert np.array_equal(y ^ (y >> U64(31)), z)
    return np.concatenate([k, k]), y


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
def test_bit_identical_to_reference_sampler(source, p_a, p_b, seed, first_chunk, offset, span):
    config = ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))
    lo = first_chunk * _CHUNK + offset
    expected = reference_run_range(lo, lo + span, seed, config)
    got = _run_range(lo, lo + span, seed, _sampler_tables(config))
    assert np.array_equal(got, expected)


def probe_edges(table, weights, step):
    """Check the guided draw of table against exact_parts of weights at
    every threshold edge and every guide-bucket edge. The thresholds are
    sorted, so the draw is a non-decreasing step in k and the edges pin it
    for all 2^53 draws."""
    inner = [int(t) for t in table.thresholds]
    assert inner == sorted(inner)
    assert len(inner) == len(weights) - 1
    width = 1 << table.bucket_shift
    buckets = [b * width for b in range(len(table.guide))]
    split = [b * width for b in np.flatnonzero(table.guide < 0).tolist()]
    # ONE - 1 brings in the greatest hash, 2^64 - 1; bucket 0, the least.
    k, y = hashes(edges(inner + buckets + [b + width - 1 for b in split] + [ONE - 1]))
    size = len(y)
    got = _guided_draw(
        y,
        table,
        np.empty(size, dtype=np.int16),
        np.empty(size, dtype=U64),
        np.empty(size, dtype=bool),
    )
    assert np.array_equal(got, step * exact_parts(k, weights))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_state_draw_at_every_threshold_and_bucket_edge(name):
    config = ExperimentConfig(source=SOURCES[name])
    probe_edges(_sampler_tables(config).state, state_weights(config), 16)


@pytest.mark.parametrize("name, moved", [("table1", 2), ("dense", 251), ("skewed", 364)])
def test_state_thresholds_take_no_float64_step(name, moved):
    # t_s = ceil(2^53 acc_s / total) in integers. Scheme 2 rounded acc_s /
    # total to float64 first, which moves some thresholds by one draw.
    masses, total = SOURCES[name].state_masses
    cum = list(accumulate(masses))[:-1]
    exact = [-(-ONE * acc // total) for acc in cum]
    scheme_2 = [math.ceil(Fraction(acc / total) * ONE) for acc in cum]
    tables = _sampler_tables(ExperimentConfig(source=SOURCES[name]))
    assert tables.state.thresholds.tolist() == exact
    assert sum(e != f for e, f in zip(exact, scheme_2)) == moved


@pytest.mark.parametrize(
    "p",
    [Fraction(0), Fraction(1), Fraction(1, 5), Fraction(1, 10), Fraction(1, 3),
     Fraction(2, 3), Fraction(1, 10**9), Fraction(99, 100)],
)
def test_pair_draw_at_every_threshold_and_bucket_edge(p):
    # Side B runs at 1 - p, so a table with the sides swapped or the code
    # transposed shows. p = 0 puts thresholds at 0, which every draw
    # passes, and p = 1 at 2^53, which none does.
    config = ExperimentConfig(SOURCES["table1"], DetectorModel(p), DetectorModel(1 - p))
    probe_edges(_sampler_tables(config).pair, pair_weights(config), 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    source=st.one_of(random_sources(), st.just(SKEWED)),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
)
def test_at_most_k_minus_1_buckets_are_split(source, p_a, p_b):
    # A split bucket costs a search after the gather; each of the K - 1
    # inner thresholds of K parts lies inside at most one bucket.
    states = len(source.state_masses[0])
    tables = _sampler_tables(ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b)))
    assert len(tables.state.guide) >= _BUCKETS_PER_PART * states
    assert np.count_nonzero(tables.state.guide < 0) <= states - 1
    assert len(tables.pair.guide) >= _BUCKETS_PER_PART * 16
    assert np.count_nonzero(tables.pair.guide < 0) <= 15


def widths(table):
    """Draws in each part of table, in Python ints."""
    return np.diff([0, *(int(t) for t in table.thresholds), ONE]).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    source=st.one_of(random_sources(), st.just(SKEWED), st.just(DENSE)),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
)
def test_sampled_law_is_within_k_plus_16_steps_of_the_oracle(source, p_a, p_b):
    # Each threshold is the ceiling of 2^53 times a rational cumulative
    # weight, so a partition of n parts is off by under n 2^-53 in L1, and
    # a product law by under the sum of its factors' errors; the fold into
    # cells adds none.
    config = ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))
    tables = _sampler_tables(config)
    law = [0] * N_CELLS
    for cells, state_width in zip(tables.cells.tolist(), widths(tables.state)):
        for cell, pair_width in zip(cells, widths(tables.pair)):
            law[cell] += state_width * pair_width
    assert sum(law) == ONE * ONE
    exact = enumerate_joint(config)
    l1 = sum(abs(Fraction(w, ONE * ONE) - Fraction(x, exact.total))
             for w, x in zip(law, exact.weights))
    assert l1 < Fraction(len(widths(tables.state)) + 16, ONE)


def test_weights_not_summing_to_one_are_rejected(monkeypatch):
    config = ExperimentConfig(source=SOURCES["table1"])
    masses, total = config.source.state_masses
    short = property(lambda self: (masses[:-1], total))
    monkeypatch.setattr(SourceDistribution, "state_masses", short)
    with pytest.raises(ValueError, match="not 1"):
        _sampler_tables(config)
