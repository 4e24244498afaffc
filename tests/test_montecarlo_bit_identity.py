"""The integer-threshold engine against a reference sampler written from
the definitions, and the law its tables sample against the exact oracle.

Every draw is a 53-bit integer k, standing for u = k 2^-53: its top 16
bits are trial i's slice i mod 4 of the splitmix64 hash of counter
32 (i // 4) + 1, and its low 37 bits the top 37 bits of the hash of
counter 8 i + 2. The engine reads the low bits only where a threshold
splits the slice's guide bucket. The reference draws every k in full,
folds the Fraction weights of every (pair state, switch pair) into the
144 cells by instruction lookup, and draws the cell as one exact rational
partition of k, cut at those cell weights. These tests pin that the two
give the same tallies, draw for draw, that the four trials of one hash
are independent, and that the law of the tables is within 144 2^-53 of
enumerate_joint.
"""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim import montecarlo
from merminsim.exact import enumerate_joint
from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    CELLS,
    DetectorModel,
    ExperimentConfig,
    FAILURE,
    N_CELLS,
    NO_FLASH,
    SourceDistribution,
    builtin_distribution,
)
from merminsim.montecarlo import (
    MAX_TRIALS,
    _CHUNK,
    _GUIDE_BITS,
    _SPLIT,
    SimulationPlan,
    _guided_draw,
    _run_chunks,
    _sampler_tables,
    _slices,
    _split_draws,
    run_trials,
)

GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
U64 = np.uint64
ONE = 1 << 53


def exact_parts(k, weights):
    """Part of each draw k when [0, 1) is cut into parts of the Fraction
    weights in turn: the number of inner cumulative weights c with
    k 2^-53 >= c, that is with the integer k >= ceil(2^53 c)."""
    bounds = [math.ceil(c * ONE) for c in list(accumulate(weights))[:-1]]
    return np.searchsorted(np.array(bounds, dtype=U64), k, side="right").astype(np.int64)


def joint_weights(config):
    """Weights of the joint codes 16 * state + 4 * digit_a + digit_b: the
    state by its renormalized weight and, independently, each side's
    digit 0, its failure position, with probability p and each setting
    with probability (1 - p) / 3."""
    a, b = (
        [p] + [(1 - p) / 3] * 3
        for p in (config.detector_a.failure_probability, config.detector_b.failure_probability)
    )
    return [w * x * y for _, w in config.source.renormalized() for x in a for y in b]


def cell_weights(config):
    """joint_weights folded into the 144 cells in codec order: the weight
    of state s at digits (a, b) lands in the cell of (a, b) and the
    outcomes that s's instructions give there, digit 0 reading N."""
    index = {cell: i for i, cell in enumerate(CELLS)}
    states = [state.split("-") for state, _ in config.source.renormalized()]
    law = [Fraction(0)] * N_CELLS
    for code, weight in enumerate(joint_weights(config)):
        state, pair = divmod(code, 16)
        digits = divmod(pair, 4)
        outcomes = (NO_FLASH if d == FAILURE else s[d - 1] for d, s in zip(digits, states[state]))
        law[index[(*digits, *outcomes)]] += weight
    return law


def mix64(counter, seed):
    """The splitmix64 hash of each counter (uint64) at seed."""
    z = counter * U64(GAMMA) + U64(seed)
    for shift, mult in ((30, MIX1), (27, MIX2)):
        z = (z ^ (z >> U64(shift))) * U64(mult)
    return z ^ (z >> U64(31))


def reference_draws(lo, hi, seed):
    """The draw k of each trial i in [lo, hi): slice i mod 4, bits
    [16 (i mod 4), 16 (i mod 4) + 16), of the hash of counter
    32 (i // 4) + 1, then the top 37 bits of the hash of counter 8 i + 2."""
    i = np.arange(lo, hi, dtype=U64)
    group = mix64((i >> U64(2)) * U64(32) + U64(1), seed)
    top = (group >> (U64(16) * (i & U64(3)))) & U64(0xFFFF)
    return top << U64(37) | mix64(i * U64(8) + U64(2), seed) >> U64(27)


def reference_run_range(lo, hi, seed, config):
    """Reference form of the sampler, the oracle for the integer engine:
    the cell of each trial's draw k is exact_parts of k over cell_weights."""
    k = reference_draws(lo, hi, seed)
    return np.bincount(exact_parts(k, cell_weights(config)), minlength=N_CELLS)


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
    points = np.asarray(points, dtype=np.int64)
    ks = np.concatenate([points - 1, points, points + 1])
    return ks[(ks >= 0) & (ks < ONE)].astype(U64)


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
    got = _run_chunks(range(lo, lo + span, _CHUNK), lo + span, seed, _sampler_tables(config))
    assert np.array_equal(got, expected)


def probe_edges(table, weights):
    """Check the guided draw of table against exact_parts of weights at
    every threshold edge and every guide-bucket edge: the gather of each
    draw's slice k >> 37, and the search of k where the bucket is split.
    The thresholds are sorted, so the draw is a non-decreasing step in k
    and the edges pin it for all 2^53 draws."""
    inner = table.thresholds.astype(np.int64)
    assert np.all(np.diff(inner) >= 0)
    assert len(inner) == len(weights) - 1
    width = 1 << (53 - _GUIDE_BITS)
    buckets = np.arange(len(table.guide), dtype=np.int64) * width
    split = buckets[table.guide == _SPLIT]
    # ONE - 1 is the greatest draw; bucket 0 brings in the least.
    k = edges(np.concatenate([inner, buckets, split + width - 1, [ONE - 1]]))
    got = _guided_draw((k >> U64(53 - _GUIDE_BITS)).astype(np.uint16), table,
                       np.empty(len(k), dtype=np.int16))
    searched = got == _SPLIT
    got[searched] = np.searchsorted(table.thresholds, k[searched], side="right")
    assert np.array_equal(got, exact_parts(k, weights))


@pytest.mark.parametrize(
    "name, p",
    [("skewed", None), ("table1", None)]
    + [("table1", p) for p in [Fraction(0), Fraction(1), Fraction(1, 5), Fraction(1, 10),
                               Fraction(1, 3), Fraction(2, 3), Fraction(1, 10**9),
                               Fraction(99, 100)]],
)
def test_joint_draw_at_every_threshold_and_bucket_edge(name, p):
    # Side B runs at 1 - p, so a table with the sides swapped or the cell
    # transposed shows. p = 0 puts a threshold at 0, which every draw
    # passes, and p = 1 one at 2^53, which none does.
    detectors = () if p is None else (DetectorModel(p), DetectorModel(1 - p))
    config = ExperimentConfig(SOURCES[name], *detectors)
    probe_edges(_sampler_tables(config), cell_weights(config))


@pytest.mark.parametrize("name, moved", [("table1", 34), ("dense", 38), ("skewed", 38)])
def test_cell_thresholds_take_no_float64_step(name, moved):
    # t_c = ceil(2^53 acc_c / total) in integers, the threshold after cell
    # c of the oracle's law. Scheme 2 rounded each cumulative weight to
    # float64 first, which would move some thresholds by one draw.
    config = ExperimentConfig(source=SOURCES[name])
    law = enumerate_joint(config)
    cum = list(accumulate(law.weights))[:-1]
    exact = [-(-ONE * acc // law.total) for acc in cum]
    float64 = [math.ceil(Fraction(acc / law.total) * ONE) for acc in cum]
    assert _sampler_tables(config).thresholds.tolist() == exact
    assert sum(e != f for e, f in zip(exact, float64)) == moved


def bucketwide_guide(thresholds, buckets):
    """The guide of the sorted inner thresholds over buckets equal-width
    buckets, bucket by bucket in int64: the number of thresholds <= the
    least draw of each bucket, or 144 where its greatest draw passes more."""
    width = ONE // buckets
    starts = np.arange(buckets, dtype=np.int64) * width
    inner = thresholds.astype(np.int64)
    lo = np.searchsorted(inner, starts, side="right")
    hi = np.searchsorted(inner, starts + width - 1, side="right")
    return np.where(lo == hi, lo, N_CELLS)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    source=st.one_of(random_sources(), st.just(SKEWED)),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
)
def test_at_most_143_buckets_are_split(source, p_a, p_b):
    # A split bucket costs a search after the gather; each of the 143
    # inner thresholds of the 144 cells lies inside at most one bucket.
    # The guide is the one a bucket-by-bucket build gives.
    tables = _sampler_tables(ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b)))
    assert len(tables.guide) == 1 << 16
    assert np.count_nonzero(tables.guide == _SPLIT) <= N_CELLS - 1
    assert np.array_equal(tables.guide, bucketwide_guide(tables.thresholds, 1 << 16))


@pytest.mark.parametrize("name", list(SOURCES))
def test_guide_is_lean_and_in_range(name):
    # Every source gets 2^16 buckets over the 144 cells, one per value of
    # a 16-bit slice, so int16 holds the greatest cell, 143, and the split
    # mark, 144, in 128 KB. Scheme 4's guide of 16 K parts peaked near
    # 2.5 MB in its build on the dense source.
    source = SOURCES[name]
    config = ExperimentConfig(source, DetectorModel(Fraction(1, 5)), DetectorModel(Fraction(1, 10)))
    source.cell_masses  # cached on the source; the peak is the build's own
    tracemalloc.start()
    try:
        tables = _sampler_tables(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (128 + 32) << 10
    assert len(tables.guide) == 1 << 16
    assert _GUIDE_BITS == 16
    assert tables.guide.dtype == np.int16
    assert tables.guide.nbytes == 128 << 10
    assert tables.guide.max() <= _SPLIT == N_CELLS
    assert np.array_equal(tables.guide, bucketwide_guide(tables.thresholds, 1 << 16))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    source=st.one_of(random_sources(), st.just(SKEWED), st.just(DENSE)),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
)
def test_sampled_law_is_within_144_steps_of_the_oracle(source, p_a, p_b):
    # Each threshold is the ceiling of 2^53 times a rational cumulative
    # weight, so a partition of n parts is off by under n 2^-53 in L1. The
    # sampled law is the thresholds' widths, one per cell.
    config = ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))
    tables = _sampler_tables(config)
    law = np.diff([0, *(int(t) for t in tables.thresholds), ONE]).tolist()
    assert len(law) == N_CELLS
    assert sum(law) == ONE
    exact = enumerate_joint(config)
    l1 = sum(abs(Fraction(w, ONE) - Fraction(x, exact.total))
             for w, x in zip(law, exact.weights))
    assert l1 < Fraction(N_CELLS, ONE)


LINE = 64


def off_line_empty(empty):
    """np.empty whose data starts 16 bytes past a cache line, where a
    fresh mmap puts numpy's large buffers."""

    def wrapped(shape, dtype=float, *args, **kwargs):
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        raw = empty(nbytes + 2 * LINE, dtype=np.uint8)
        skip = (16 - raw.ctypes.data) % LINE
        return raw[skip : skip + nbytes].view(dtype).reshape(shape)

    return wrapped


@pytest.mark.parametrize("hi", [2 * _CHUNK + 4321, 1000])
def test_every_pass_runs_on_whole_cache_lines(hi, monkeypatch):
    # A vector load or store that straddles two lines costs twice; fresh
    # CLI processes paid about a fifth of their kernel time for it. Both a
    # full chunk and a short first pass, sized by hi, must start on a line,
    # and the tally must not see where the buffers lie. Every chunk hashes
    # and gathers before the split draws are finished.
    config = ExperimentConfig(DENSE, DetectorModel(Fraction(1, 5)), DetectorModel(Fraction(1, 10)))
    tables = _sampler_tables(config)
    starts = range(0, hi, _CHUNK)
    expected = _run_chunks(starts, hi, 11, tables)
    offsets = []
    mix64_pass = montecarlo._mix64

    def hashed(z, t):
        offsets.extend(a.ctypes.data % LINE for a in (z, t))
        return mix64_pass(z, t)

    def gathered(slices, table, out):
        offsets.extend(a.ctypes.data % LINE for a in (slices, out))
        return _guided_draw(slices, table, out)

    monkeypatch.setattr(montecarlo.np, "empty", off_line_empty(np.empty))
    monkeypatch.setattr(montecarlo, "_mix64", hashed)
    monkeypatch.setattr(montecarlo, "_guided_draw", gathered)
    assert np.empty(_CHUNK, dtype=U64).ctypes.data % LINE == 16
    got = _run_chunks(starts, hi, 11, tables)
    assert offsets[: 4 * len(starts)] == [0] * 4 * len(starts)
    assert np.array_equal(got, expected)


def test_a_run_keeps_to_the_chunks_cache_budget():
    # _CHUNK sizes the per-pass buffers to fit one core's L2: 9 bytes a
    # trial and the two 8-byte index casts of np.take and np.bincount,
    # about 0.8 MB, beside the 128 KB guide. Aligning them costs 64 bytes
    # a buffer, not a copy.
    config = ExperimentConfig(DENSE, DetectorModel(Fraction(1, 5)), DetectorModel(Fraction(1, 10)))
    plan = SimulationPlan(config, 1 << 20, 5)
    run_trials(plan)  # the law's caches on the source are built once
    tracemalloc.start()
    try:
        run_trials(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (1 << 20)


def test_slices_read_each_hash_16_bits_at_a_time():
    # Trial 4 w + s reads bits [16 s, 16 s + 16) of hash w, through a view
    # of the hash buffer on a little-endian host: no shift pass, no copy.
    z = np.random.default_rng(16).integers(0, 1 << 64, 1001, dtype=U64, endpoint=False)
    view = _slices(z)
    assert view.dtype == np.dtype("<u2") and len(view) == 4 * len(z)
    for s in range(4):
        assert np.array_equal(view[s::4], (z >> U64(16 * s)) & U64(0xFFFF))
    if sys.byteorder == "little":
        assert np.shares_memory(view, z)


def splitmix64(counter, seed):
    """The splitmix64 hash of counter at seed, in Python integers."""
    z = (counter * GAMMA + seed) & (1 << 64) - 1
    z = (z ^ z >> 30) * MIX1 & (1 << 64) - 1
    z = (z ^ z >> 27) * MIX2 & (1 << 64) - 1
    return z ^ z >> 31


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    draws=st.lists(st.tuples(st.integers(0, MAX_TRIALS - 1), st.integers(0, 0xFFFF)),
                   min_size=1, max_size=40),
)
def test_a_split_draw_extends_its_slice_by_its_lane_1_hash(seed, draws):
    trials = np.array([i for i, _ in draws], dtype=np.int64)
    slices = np.array([s for _, s in draws], dtype=np.uint16)
    expected = [s << 37 | splitmix64(8 * i + 2, seed) >> 27 for i, s in draws]
    assert _split_draws(trials, slices, seed).tolist() == expected


def test_the_four_trials_of_one_hash_are_independent(monkeypatch):
    # At p_a = 1/2, switch A fails in cells 0-35, the draws k < 2^52: the
    # trial's slice is below 2^15. Over 2^20 groups, the 2 x 2 table of
    # that event at trials 4 g and 4 g + s must pass a 1-dof chi-square.
    config = ExperimentConfig(builtin_distribution("table1_uniform"), DetectorModel(Fraction(1, 2)))
    tables = _sampler_tables(config)
    assert tables.thresholds[35] == ONE // 2
    failed = []

    def gathered(slices, table, out):
        failed.append(slices < 1 << 15)
        return _guided_draw(slices, table, out)

    monkeypatch.setattr(montecarlo, "_guided_draw", gathered)
    n = 4 << 20
    tally = _run_chunks(range(0, n, _CHUNK), n, 3, tables)
    groups = np.concatenate(failed).reshape(-1, 4)
    assert np.count_nonzero(groups) == tally[:36].sum()
    for s in (1, 2, 3):
        a, b = groups[:, 0], groups[:, s]
        both, a_only, b_only = (int(np.count_nonzero(x)) for x in (a & b, a & ~b, ~a & b))
        neither = len(a) - both - a_only - b_only
        rows, cols = (both + a_only, b_only + neither), (both + b_only, a_only + neither)
        chi2 = len(a) * (both * neither - a_only * b_only) ** 2 / math.prod(rows + cols)
        assert math.erfc(math.sqrt(chi2 / 2)) > 1e-6, s


@pytest.mark.parametrize("batch, searches", [(1, 3), (montecarlo._SPLIT_BATCH, 1)])
def test_split_draws_wait_in_batches(batch, searches, monkeypatch):
    # A chunk's few dozen split draws wait for their bits and their search
    # until _SPLIT_BATCH have gathered, or the run's last chunk is done;
    # where they are finished does not change the tally.
    config = ExperimentConfig(DENSE, DetectorModel(Fraction(1, 5)), DetectorModel(Fraction(1, 10)))
    tables = _sampler_tables(config)
    lo, hi = 12345, 12345 + 3 * _CHUNK
    expected = reference_run_range(lo, hi, 7, config)
    split_counts = montecarlo._split_counts
    calls = []

    def counted(trials, slices, seed, table):
        calls.append(sum(map(len, trials)))
        return split_counts(trials, slices, seed, table)

    monkeypatch.setattr(montecarlo, "_SPLIT_BATCH", batch)
    monkeypatch.setattr(montecarlo, "_split_counts", counted)
    got = _run_chunks(range(lo, hi, _CHUNK), hi, 7, tables)
    assert np.array_equal(got, expected)
    assert len(calls) == searches
