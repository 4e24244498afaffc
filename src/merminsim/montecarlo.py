"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: draw j of trial i is a 64-bit avalanche hash
of (seed, 8 * i + j), the splitmix64 output function applied to a strided
counter. Trial i therefore owns its randomness regardless of scheduling,
so any partition of the trial range into streams produces bitwise
identical tallies, and tallies merge as a commutative monoid.

A draw is the top 53 bits k of a lane's hash and stands for the double
u = k * 2^-53. The engine never forms u: each float64 comparison on u is
made on k against the exact integer threshold it implies, so the lane
scheme, and with it every tally, is what comparing u in floating point
gives.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

from .model import (
    CellKey,
    ConfigurationError,
    ExperimentConfig,
    FAILURE,
    N_CELLS,
    Outcome,
    SETTINGS,
    STATISTICS,
    SettingPair,
    cell_at,
    cell_index,
    decode_cell,
    outcome_index,
    statistic_fields,
    statistic_sums,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Counter stride per trial; lanes 0-4 are consumed (state, A-failure,
# A-setting, B-failure, B-setting), the rest are reserved headroom.
_LANES = 8
_STATE_LANE, _FAIL_A_LANE, _SET_A_LANE, _FAIL_B_LANE, _SET_B_LANE = range(5)
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

_I64_MAX = (1 << 63) - 1

# Cells pairing a failed switch with a flash can never be produced.
_INVALID_CELLS = np.array(
    [
        (swa is FAILURE and oa.is_flash) or (swb is FAILURE and ob.is_flash)
        for (swa, swb, oa, ob) in (cell_at(i) for i in range(N_CELLS))
    ]
)


@dataclass(frozen=True, eq=False)
class TallyCounts:
    """Trial counts per (switch_a, switch_b, outcome_a, outcome_b) cell.

    counts is a read-only int64 vector over the 144-cell codec of
    model.cell_index; counts sum to n_trials and no failure-with-flash
    cell is ever nonzero. Tallies form a commutative monoid under merge
    with the empty tally as identity.
    """

    counts: np.ndarray
    n_trials: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if counts.shape != (N_CELLS,):
            raise ValueError(f"counts must have shape ({N_CELLS},)")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if int(counts.sum()) != self.n_trials:
            raise ValueError("counts do not sum to n_trials")
        if counts[_INVALID_CELLS].any():
            raise ValueError("a failed switch cannot coincide with a flash")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TallyCounts):
            return NotImplemented
        return self.n_trials == other.n_trials and bool(
            np.array_equal(self.counts, other.counts)
        )

    @classmethod
    def empty(cls) -> "TallyCounts":
        return cls(np.zeros(N_CELLS, dtype=np.int64), 0)

    @classmethod
    def from_mapping(cls, counts: Mapping[Union[CellKey, str], int]) -> "TallyCounts":
        arr = np.zeros(N_CELLS, dtype=np.int64)
        for key, value in counts.items():
            cell = decode_cell(key) if isinstance(key, str) else key
            arr[cell_index(*cell)] += value
        return cls(arr, int(arr.sum()))

    def count(self, swa, swb, oa, ob) -> int:
        return int(self.counts[cell_index(swa, swb, oa, ob)])


def merge(t1: TallyCounts, t2: TallyCounts) -> TallyCounts:
    """Entrywise sum; associative and commutative, identity = empty tally."""
    if t1.n_trials > _I64_MAX - t2.n_trials:
        raise OverflowError("merged tally would exceed 64-bit counts")
    return TallyCounts(t1.counts + t2.counts, t1.n_trials + t2.n_trials)


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


def _ceil_k(x: float) -> int:
    """Least k with k / _ONE >= x, exactly: ceil(x * 2^53)."""
    num, den = x.as_integer_ratio()
    return -(-num * _ONE // den)


# A setting is 1 + int(u * 3.0). The rounding of u * 3.0 moves its
# boundaries off ceil(j * 2^53 / 3) (k = (2^54 - 1) / 3 rounds up to 2.0),
# so the thresholds bisect that float expression itself.
_SET_1, _SET_2 = (
    bisect_left(range(_ONE), True, key=lambda k, j=j: k * 2.0**-53 * 3.0 >= j)
    for j in (1, 2)
)


@dataclass(frozen=True)
class _Sampler:
    """One config's draws as integer thresholds on k.

    The state is the number of inner cumulative thresholds <= k, found by
    a guide table over the top bits of k (bucket = k >> bucket_shift holds
    the state of its least k) and then search_steps rounds of branchless
    binary search. There are at least 8K buckets; search_steps is at
    most ceil(log2 K) and is 1 when no bucket holds two thresholds. A
    side fails when k < its fail threshold; otherwise its setting is
    1 + (k >= _SET_1) + (k >= _SET_2). cells maps (state, switch_a,
    switch_b) to the cell code.
    """

    thresholds: np.ndarray
    guide: np.ndarray
    bucket_shift: int
    search_steps: int
    fail_a: int
    fail_b: int
    cells: np.ndarray


def _sampler_tables(config: ExperimentConfig) -> _Sampler:
    """Integer thresholds for the draws of config, built once per run.

    Each threshold is the exact integer form of a comparison of u with a
    float64: the cumulative weight fractions and the failure
    probabilities, each rendered to float64.
    """
    entries = config.source.renormalized()
    acc = Fraction(0)
    cum = []
    for _, weight in entries:
        acc += weight
        cum.append(_ceil_k(float(acc)))
    if cum[-1] != _ONE:
        raise ValueError(f"renormalized source weights sum to {acc}, not 1")
    inner = cum[:-1]

    bucket_bits = (_BUCKETS_PER_STATE * len(entries) - 1).bit_length()
    shift = 53 - bucket_bits
    inner_k = np.array(inner, dtype=np.uint64)
    starts = np.arange(1 << bucket_bits, dtype=np.uint64) << np.uint64(shift)
    guide = np.searchsorted(inner_k, starts, side="right")
    ends = np.searchsorted(inner_k, starts + np.uint64((1 << shift) - 1), side="right")
    steps = int((ends - guide).max()).bit_length()

    # Outcome codes per (state, side, switch digit); digit 0 is NoFlash.
    no_flash = outcome_index(Outcome.NO_FLASH)
    codes = np.array(
        [
            [
                [no_flash] + [outcome_index(inst.outcome_at(s)) for s in SETTINGS]
                for inst in (state.alice, state.bob)
            ]
            for state, _ in entries
        ]
    )
    out_a, out_b = codes[:, 0], codes[:, 1]
    digit = np.arange(4)
    cells = ((digit[:, None] * 4 + digit) * 3 + out_a[:, :, None]) * 3 + out_b[:, None, :]

    return _Sampler(
        thresholds=np.array(inner + [_ONE] * (1 << steps), dtype=np.uint64),
        guide=guide,
        bucket_shift=shift,
        search_steps=steps,
        fail_a=_ceil_k(float(config.detector_a.failure_probability)),
        fail_b=_ceil_k(float(config.detector_b.failure_probability)),
        cells=cells,
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
    offsets = [u64(((lane + 1) * _GAMMA + seed) & _MASK64) for lane in range(5)]
    base, k, tmp = (np.empty(size, dtype=u64) for _ in range(3))
    state, scratch = (np.empty(size, dtype=np.intp) for _ in range(2))
    hit = np.empty(size, dtype=bool)
    sw_a, sw_b = (np.empty(size, dtype=np.uint8) for _ in range(2))
    hist = np.zeros(tables.cells.size, dtype=np.int64)

    def draw(lane, m):
        """k = mix64((8 i + lane + 1) * GAMMA + seed) >> 11 per trial i."""
        z, t = k[:m], tmp[:m]
        np.add(base[:m], offsets[lane], out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, u64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, u64(mult), out=z)
        np.right_shift(z, u64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        np.right_shift(z, u64(11), out=z)
        return z

    def switch(fail_lane, set_lane, fail, out, m):
        """Switch digits 0-3 of one side into out; at p = 0 the failure
        lane cannot change them and is not hashed."""
        sw = out[:m]
        z, h = draw(set_lane, m), hit[:m]
        np.greater_equal(z, u64(_SET_1), out=h)
        np.add(h, 1, out=sw, dtype=np.uint8)
        np.greater_equal(z, u64(_SET_2), out=h)
        np.add(sw, h, out=sw)
        if fail:
            z = draw(fail_lane, m)
            np.greater_equal(z, u64(fail), out=h)
            np.multiply(sw, h, out=sw)
        return sw

    while True:
        with lock:
            start = next(starts, None)
        if start is None:
            break
        m = min(_CHUNK, hi - start)
        np.add(stride[:m], u64(start * _LANES * _GAMMA & _MASK64), out=base[:m])
        pair = switch(_FAIL_A_LANE, _SET_A_LANE, tables.fail_a, sw_a, m)
        np.left_shift(pair, 2, out=pair)
        np.add(pair, switch(_FAIL_B_LANE, _SET_B_LANE, tables.fail_b, sw_b, m), out=pair)
        # Count (state, switch_a, switch_b) triples; cells folds the
        # histogram into the cell codec once, after the last chunk.
        z = draw(_STATE_LANE, m)
        st = _draw_state(z, tables, state[:m], tmp[:m], hit[:m], scratch[:m])
        np.left_shift(st, 4, out=st)
        np.add(st, pair, out=st)
        hist += np.bincount(st, minlength=hist.size)

    counts = np.zeros(N_CELLS, dtype=np.int64)
    np.add.at(counts, tables.cells.ravel(), hist)
    return counts


def _worker_cap() -> int:
    raw = os.environ.get("MERMIN_SIM_THREADS")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"MERMIN_SIM_THREADS must be an integer, got {raw!r}"
            ) from None
        if cap >= 1:
            return cap
    return os.cpu_count() or 1


def run_trials(plan: SimulationPlan) -> TallyCounts:
    """Simulate plan.n_trials independent trials into a tally.

    Per trial: a pair state is drawn by weight, then each side
    independently draws failure (probability p) before a uniform setting,
    and the outcome is the instruction lookup with failure forcing
    NoFlash. plan.n_streams workers take chunks of the trial range in
    turn and their partial tallies are merged; the result is bitwise
    identical for any stream count because every trial owns its counters.
    """
    plan.config.validate()
    if plan.n_trials == 0:
        return TallyCounts.empty()
    tables = _sampler_tables(plan.config)
    seed = plan.seed & _MASK64

    starts = iter(range(0, plan.n_trials, _CHUNK))
    lock = threading.Lock()
    chunks = -(-plan.n_trials // _CHUNK)
    workers = min(plan.n_streams, _worker_cap(), chunks)

    def work(_):
        return _run_chunks(starts, lock, plan.n_trials, seed, tables)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(work, range(workers)))
    else:
        partials = [work(0)]

    counts = np.zeros(N_CELLS, dtype=np.int64)
    for partial in partials:
        counts += partial
    return TallyCounts(counts, plan.n_trials)


# ---------------------------------------------------------------------------
# Frequency estimates with sampling uncertainty.
# ---------------------------------------------------------------------------

# Two-sided 95% normal quantile used by the Wilson score interval.
Z_95 = 1.959963984540054


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and behaves at the extremes: k = 0 gives a lower
    bound of exactly 0 and k = n an upper bound of exactly 1.
    """
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    )
    # The bounds are exactly 0 / 1 at the extremes; keep them free of
    # float round-off there.
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return (low, high)


@dataclass(frozen=True)
class Estimate:
    """A relative frequency with its standard error and Wilson 95% CI.

    value is None when the conditioning count is zero (undefined, not 0).
    """

    value: Union[float, None]
    se: Union[float, None]
    ci_low: Union[float, None]
    ci_high: Union[float, None]
    successes: int
    trials: int

    @property
    def defined(self) -> bool:
        return self.value is not None


def _undefined(successes: int = 0) -> Estimate:
    return Estimate(None, None, None, None, successes, 0)


def _proportion(successes: int, trials: int, scale: float = 1.0) -> Estimate:
    if trials == 0:
        return _undefined(successes)
    p_hat = successes / trials
    se = scale * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    lo, hi = wilson_interval(successes, trials)
    return Estimate(
        value=scale * p_hat,
        se=se,
        ci_low=min(1.0, scale * lo),
        ci_high=min(1.0, scale * hi),
        successes=successes,
        trials=trials,
    )


@dataclass(frozen=True)
class EstimatedCaseStats:
    """CaseStats estimated from a tally, field for field, with errors."""

    p_same_case_a: Estimate
    p_same_case_b: Estimate
    eta_a: Estimate
    eta_b: Estimate
    eta_u_a: Estimate
    eta_u_b: Estimate
    eta_f_a: Estimate
    eta_f_b: Estimate
    coincidence_rate: Mapping[SettingPair, Estimate]
    n_trials: int


def estimate_stats(tally: TallyCounts) -> EstimatedCaseStats:
    """Relative-frequency estimates of every CaseStats field.

    Each statistic is its numerator count over its denominator count, so
    conditionals are computed over double-flash events only and a field
    whose conditioning count is zero comes back undefined.
    coincidence_rate estimates use the known 1/9 aiming probability as
    denominator (the scaled estimator 9 k / n), matching the exact
    definition.
    """
    values = [
        _proportion(num, den, stat.scale)
        for stat, (num, den) in zip(STATISTICS, statistic_sums(tally.counts.tolist()))
    ]
    return EstimatedCaseStats(**statistic_fields(values), n_trials=tally.n_trials)
