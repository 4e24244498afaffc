"""The integer-threshold engine against a reference sampler written from
the definitions.

Every draw is a 53-bit integer k = z >> 11 of a 64-bit hash z, standing
for u = k 2^-53; the engine compares z with integer thresholds on k. The
reference draws the state as a float searchsorted of u over the
cumulative weights, and each side's switch digit as an exact rational
partition of k. These tests pin that the two give the same tallies, draw
for draw.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _BUCKETS_PER_STATE,
    _CHUNK,
    _add_switch_digits,
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


def exact_digits(k, p):
    """Switch digit of each draw k at failure probability p = num / den:
    #{j : 3 den k >= 2^53 (3 num + j (den - num))}, in Python ints."""
    num, den = p.numerator, p.denominator
    scaled = k.astype(object) * (3 * den)
    return sum(
        (scaled >= ONE * (3 * num + j * (den - num))).astype(np.int64) for j in range(3)
    )


def reference_run_range(lo, hi, seed, config):
    """Reference form of the sampler, the oracle for the integer engine:
    lane j of trial i is k = mix64((8 i + j + 1) GAMMA + seed) >> 11, the
    state is a searchsorted of u = k 2^-53 over float cumulative weights,
    each side's switch digit is exact_digits of its lane (2 for A, 4 for
    B), and each side's outcome is gathered from its own (state, switch)
    table."""
    entries = config.source.renormalized()
    cum = float_cumulative(config)
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

    state = np.searchsorted(cum, draws(0).astype(np.float64) * 2.0**-53, side="right")
    sw_a = exact_digits(draws(2), config.detector_a.failure_probability)
    sw_b = exact_digits(draws(4), config.detector_b.failure_probability)
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
    draw in k: (k, z) with every draw listed twice."""
    z = np.concatenate([k << U64(11), (k << U64(11)) | U64(0x7FF)])
    return np.concatenate([k, k]), z


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


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_state_draw_at_every_threshold_and_bucket_edge(name):
    config = ExperimentConfig(source=SOURCES[name])
    tables = _sampler_tables(config)
    inner = [int(t) for t in tables.thresholds]
    assert len(inner) == len(config.source.renormalized()) - 1
    width = 1 << tables.bucket_shift
    buckets = [b * width for b in range(len(tables.guide))]
    split = [b * width for b in np.flatnonzero(tables.guide < 0).tolist()]
    k, z = hashes(edges(inner + buckets + [b + width - 1 for b in split]))
    size = len(z)
    got = _draw_state(
        z,
        tables,
        np.empty(size, dtype=np.int16),
        np.empty(size, dtype=U64),
        np.empty(size, dtype=bool),
    )
    u = k.astype(np.float64) * 2.0**-53
    expected = np.searchsorted(float_cumulative(config), u, side="right")
    assert np.array_equal(got, 16 * expected)


@pytest.mark.parametrize(
    "p",
    [Fraction(0), Fraction(1), Fraction(1, 5), Fraction(1, 10), Fraction(1, 3),
     Fraction(2, 3), Fraction(1, 10**9), Fraction(99, 100)],
)
def test_switch_digits_at_every_threshold_edge(p):
    # Side B runs at 1 - p, so a table built for the wrong side shows.
    config = ExperimentConfig(SOURCES["table1"], DetectorModel(p), DetectorModel(1 - p))
    tables = _sampler_tables(config)
    for prob, thresholds in ((p, tables.switch_a), (1 - p, tables.switch_b)):
        # 0 and 2^53 - 1 bring in the least and the greatest hash, 0 and 2^64 - 1.
        k, z = hashes(edges([*thresholds, 0, ONE - 1]))
        got = _add_switch_digits(
            z, thresholds, np.zeros(len(z), dtype=np.uint8), np.empty(len(z), dtype=bool)
        )
        assert np.array_equal(got, exact_digits(k, prob))
        # t_j is the least draw whose digit exceeds j.
        for j, t in enumerate(thresholds):
            assert t == ONE or exact_digits(np.array([t], dtype=U64), prob)[0] > j
            assert t == 0 or exact_digits(np.array([t - 1], dtype=U64), prob)[0] <= j


@pytest.mark.parametrize("t, digit", [(0, 1), (ONE, 0)])
def test_threshold_0_always_counts_and_2_53_never(t, digit):
    z = np.array([0, 1, 0x7FF, 0x800, 2**63, 2**64 - 1], dtype=U64)
    sw = np.full(len(z), 5, dtype=np.uint8)
    _add_switch_digits(z, (t,), sw, np.empty(len(z), dtype=bool))
    assert sw.tolist() == [5 + digit] * len(z)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(source=st.one_of(random_sources(), st.just(SKEWED)))
def test_at_most_k_minus_1_buckets_are_split(source):
    # A split bucket costs a search after the gather; each of the K - 1
    # inner thresholds lies inside at most one bucket.
    states = len(source.state_masses[0])
    tables = _sampler_tables(ExperimentConfig(source=source))
    assert len(tables.guide) >= _BUCKETS_PER_STATE * states
    assert np.count_nonzero(tables.guide < 0) <= states - 1


def test_scheme_2_differs_from_scheme_1_at_p_0_on_one_draw():
    # Scheme 1 set the digit to 1 + int(u * 3.0) in float64. Both digits
    # are non-decreasing steps in k, so agreeing on each side of t1 and
    # of t2 - 1 pins every step: (2^54 - 1) / 3 * 2^-53 * 3 = 2 - 2^-53
    # rounds up to 2.0, one draw below the exact t2 = ceil(2^54 / 3).
    t0, t1, t2 = _sampler_tables(ExperimentConfig(source=SOURCES["table1"])).switch_a
    assert (t0, t1, t2) == (0, -(-ONE // 3), -(-2 * ONE // 3))
    k = edges([t1, t2 - 1])
    scheme_1 = 1 + (k.astype(np.float64) * 2.0**-53 * 3.0).astype(np.int64)
    assert k[scheme_1 != exact_digits(k, Fraction(0))].tolist() == [(2**54 - 1) // 3]


def test_weights_not_summing_to_one_are_rejected(monkeypatch):
    config = ExperimentConfig(source=SOURCES["table1"])
    masses, total = config.source.state_masses
    short = property(lambda self: (masses[:-1], total))
    monkeypatch.setattr(SourceDistribution, "state_masses", short)
    with pytest.raises(ValueError, match="not 1"):
        _sampler_tables(config)
