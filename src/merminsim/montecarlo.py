"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: draw j of trial i is a 64-bit avalanche hash
of (seed, 8 * i + j), the splitmix64 output function applied to a strided
counter. Trial i therefore owns its randomness regardless of scheduling,
so any partition of the trial range into streams produces bitwise
identical tallies, and tallies merge as a commutative monoid.

A draw is the top 53 bits k of a lane's hash and stands for u = k * 2^-53.
The state draw compares k with the exact integer form of each float64
comparison on u, so it is what comparing u in floating point gives. Each
side's switch digit cuts one draw at exact rational boundaries.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import CellWeights, ExperimentConfig, N_CELLS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Recorded in run manifests. Scheme 1 hashed a failure and a setting lane per side.
RNG_SCHEME = 2

# Counter stride per trial. Lane 0 draws the state and lanes 2 and 4 the
# switch digits of sides A and B; lanes 1, 3 and 5-7 are reserved headroom.
_LANES = 8
_STATE_LANE, _SIDE_A_LANE, _SIDE_B_LANE = 0, 2, 4
MAX_TRIALS = 1 << 60

# Draws k live in [0, _ONE); k stands for u = k / _ONE.
_ONE = 1 << 53

# Trials per pass. The per-pass buffers (about 3 MB) stay in the CPU
# caches, and each numpy call is long enough that worker threads do not
# stall on the interpreter lock (with 1 << 14, two streams run slower
# than one on two cores).
_CHUNK = 1 << 16

# Guide buckets per pair state, rounded up to a power of two. With 8, a
# bucket holds under one threshold on average, so the in-bucket search
# takes the same number of rounds for nearly every source of a given size
# (two for 399 of 400 random-weight 729-state sources, where 2 buckets
# per state gave one source in twelve a third round and ~10% more time).
_BUCKETS_PER_STATE = 8

@dataclass(frozen=True)
class SimulationPlan:
    """A fully reproducible run: results are a pure function of
    (config, n_trials, seed), independent of n_streams and scheduling."""

    config: ExperimentConfig
    n_trials: int
    seed: int
    n_streams: int = 1

    def __post_init__(self) -> None:
        if self.n_trials < 0:
            raise ValueError("n_trials must be >= 0")
        if self.n_trials >= MAX_TRIALS:
            raise ValueError(f"n_trials must be below 2^60, got {self.n_trials}")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")


def _ceil_k(num: int, den: int) -> int:
    """Least k with k / _ONE >= num / den, exactly: ceil(num * 2^53 / den)."""
    return -(-num * _ONE // den)


def _switch_thresholds(p) -> tuple[int, ...]:
    """t_j = ceil(2^53 (p + j (1 - p) / 3)) for j = 0, 1, 2, exactly, for
    the rational failure probability p: digit = #{j : k >= t_j}."""
    num, den = p.numerator, p.denominator
    return tuple(_ceil_k(3 * num + j * (den - num), 3 * den) for j in range(3))


@dataclass(frozen=True)
class _Sampler:
    """One config's draws as integer thresholds on k.

    The state is the number of inner cumulative thresholds <= k, found by
    a guide table over the top bits of k (bucket = k >> bucket_shift holds
    the state of its least k) and then search_steps rounds of branchless
    binary search. There are at least 8K buckets; search_steps is at
    most ceil(log2 K) and is 1 when no bucket holds two thresholds.
    switch_a and switch_b are _switch_thresholds. cells maps (state,
    switch_a * 4 + switch_b) to the cell code: the source's state_cells.
    """

    thresholds: np.ndarray
    guide: np.ndarray
    bucket_shift: int
    search_steps: int
    switch_a: tuple[int, ...]
    switch_b: tuple[int, ...]
    cells: np.ndarray


def _sampler_tables(config: ExperimentConfig) -> _Sampler:
    """Integer thresholds for the draws of config, built once per run.

    Each state threshold is the exact integer form of a comparison of u
    with a cumulative weight fraction rendered to float64. The fractions
    come from the source's integer state masses, which the exact oracle
    reads too; int / int is correctly rounded, so acc / total is that
    float64.
    """
    masses, total = config.source.state_masses
    acc = 0
    cum = []
    for mass in masses:
        acc += mass
        cum.append(_ceil_k(*(acc / total).as_integer_ratio()))
    if cum[-1] != _ONE:
        raise ValueError(f"source weights sum to {acc}/{total}, not 1")
    inner = cum[:-1]

    bucket_bits = (_BUCKETS_PER_STATE * len(masses) - 1).bit_length()
    shift = 53 - bucket_bits
    inner_k = np.array(inner, dtype=np.uint64)
    starts = np.arange(1 << bucket_bits, dtype=np.uint64) << np.uint64(shift)
    guide = np.searchsorted(inner_k, starts, side="right")
    ends = np.searchsorted(inner_k, starts + np.uint64((1 << shift) - 1), side="right")
    steps = int((ends - guide).max()).bit_length()

    return _Sampler(
        thresholds=np.array(inner + [_ONE] * (1 << steps), dtype=np.uint64),
        guide=guide,
        bucket_shift=shift,
        search_steps=steps,
        switch_a=_switch_thresholds(config.detector_a.failure_probability),
        switch_b=_switch_thresholds(config.detector_b.failure_probability),
        cells=np.array(config.source.state_cells),
    )


def _draw_state(k, tables: _Sampler, st, t, h, sc) -> np.ndarray:
    """State index of each draw in k: the number of inner thresholds <= k.

    st receives the result; t, h and sc are scratch buffers the size of k
    (uint64, bool and intp).
    """
    u64 = np.uint64
    np.right_shift(k, u64(tables.bucket_shift), out=t)
    # Indices are in range by construction; "wrap" skips the bounds check.
    np.take(tables.guide, t.view(np.intp), out=st, mode="wrap")
    for round_ in reversed(range(tables.search_steps)):
        step = 1 << round_
        probe = st if step == 1 else np.add(st, step - 1, out=sc)
        np.take(tables.thresholds, probe, out=t, mode="wrap")
        np.less_equal(t, k, out=h)
        np.add(st, h if step == 1 else np.multiply(h, np.intp(step), out=sc), out=st)
    return st


def _switch_digits(k, thresholds, sw, h) -> np.ndarray:
    """Switch digit #{j : k >= thresholds[j]} of each draw in k, into sw
    (uint8); h is a bool scratch buffer the size of k."""
    t0, t1, t2 = map(np.uint64, thresholds)
    np.greater_equal(k, t1, out=h)
    if t0:
        np.greater_equal(k, t0, out=sw.view(bool))
        np.add(sw, h, out=sw)
    else:  # p = 0: every k meets t0 = 0, so it is not compared
        np.add(h, 1, out=sw, dtype=np.uint8)
    np.greater_equal(k, t2, out=h)
    np.add(sw, h, out=sw)
    return sw


def _run_range(lo: int, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of trials [lo, hi) under the 64-bit seed."""
    return _run_chunks(iter(range(lo, hi, _CHUNK)), threading.Lock(), hi, seed, tables)


def _run_chunks(starts, lock, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of the trials [start, min(start + _CHUNK, hi)) for each
    start taken from the iterator starts, under lock, until it runs out.

    Worker threads share one iterator, so a thread that gets less CPU
    takes fewer chunks instead of holding up the run.
    """
    size = min(_CHUNK, hi)
    u64 = np.uint64
    stride = np.arange(size, dtype=u64) * u64(_LANES * _GAMMA & _MASK64)
    base, k, tmp = (np.empty(size, dtype=u64) for _ in range(3))
    state, scratch = (np.empty(size, dtype=np.intp) for _ in range(2))
    hit = np.empty(size, dtype=bool)
    sw_a, sw_b = (np.empty(size, dtype=np.uint8) for _ in range(2))
    hist = np.zeros(tables.cells.size, dtype=np.int64)

    def draw(lane, m):
        """k = mix64((8 i + lane + 1) * GAMMA + seed) >> 11 per trial i."""
        z, t = k[:m], tmp[:m]
        np.add(base[:m], u64(((lane + 1) * _GAMMA + seed) & _MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, u64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, u64(mult), out=z)
        np.right_shift(z, u64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, u64(11), out=z)
        return z

    while True:
        with lock:
            start = next(starts, None)
        if start is None:
            break
        m = min(_CHUNK, hi - start)
        h = hit[:m]
        np.add(stride[:m], u64(start * _LANES * _GAMMA & _MASK64), out=base[:m])
        pair = _switch_digits(draw(_SIDE_A_LANE, m), tables.switch_a, sw_a[:m], h)
        np.left_shift(pair, 2, out=pair)
        np.add(pair, _switch_digits(draw(_SIDE_B_LANE, m), tables.switch_b, sw_b[:m], h), out=pair)
        # Count (state, switch_a, switch_b) triples; cells folds the
        # histogram into the cell codec once, after the last chunk.
        z = draw(_STATE_LANE, m)
        st = _draw_state(z, tables, state[:m], tmp[:m], h, scratch[:m])
        np.left_shift(st, 4, out=st)
        np.add(st, pair, out=st)
        hist += np.bincount(st, minlength=hist.size)

    counts = np.zeros(N_CELLS, dtype=np.int64)
    np.add.at(counts, tables.cells.ravel(), hist)
    return counts


def run_trials(plan: SimulationPlan) -> CellWeights:
    """Simulate plan.n_trials independent trials into a tally: cell
    weights that count trials, over the total plan.n_trials.

    Per trial: a pair state is drawn by weight, then each side
    independently draws failure (probability p) or a uniform setting, and
    the outcome is the instruction lookup with failure forcing NoFlash.
    plan.n_streams workers (at most one per CPU) take chunks of the trial
    range in turn and their partial tallies are merged; the result is
    bitwise identical for any stream count because every trial owns its
    counters.
    """
    if plan.n_trials == 0:
        return CellWeights.empty()
    tables = _sampler_tables(plan.config)
    seed = plan.seed & _MASK64

    starts = iter(range(0, plan.n_trials, _CHUNK))
    lock = threading.Lock()
    chunks = -(-plan.n_trials // _CHUNK)
    workers = min(plan.n_streams, os.cpu_count() or 1, chunks)

    def work(_):
        return _run_chunks(starts, lock, plan.n_trials, seed, tables)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(work, range(workers)))

    counts = np.zeros(N_CELLS, dtype=np.int64)
    for partial in partials:
        counts += partial
    return CellWeights(tuple(counts.tolist()), plan.n_trials)

