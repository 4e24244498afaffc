"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: draw j of trial i is a 64-bit avalanche hash
of (seed, 8 * i + j), the splitmix64 output function applied to a strided
counter. Trial i therefore owns its randomness regardless of scheduling,
so any partition of the trial range into streams produces bitwise
identical tallies, and tallies merge as a commutative monoid. Several
streams run in forked worker processes, which do not share an
interpreter lock; each sends its counts back through a pipe.

A draw is the top 53 bits k = z >> 11 of a lane's hash z and stands for
u = k * 2^-53. The state draw compares k with the exact integer form of
each float64 comparison on u, so it is what comparing u in floating point
gives: one gather from a guide over the top bits of z, and a search for
the under 1/64 of draws whose bucket a threshold splits. Each side's
switch digit cuts z at exact rational boundaries (k >= t is z > 2^11 t - 1).
"""

from __future__ import annotations

import os
import threading
import warnings
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

# Trials per pass. The per-pass buffers (28 bytes a trial, about 1.8 MB)
# stay in the CPU caches. It is also the fastest chunk in one process: on the
# dense 729-state source, a 2-vCPU Xeon VM took a median 22.5 ns/trial,
# against 23.2 at 1 << 15 and 26.2 at 1 << 17.
_CHUNK = 1 << 16

# Workers take runs of chunks from one pipe of 8-byte start tokens. The
# caller writes them all before the first fork; 512 tokens are 4096 bytes,
# the least capacity of a pipe, so that write never blocks.
_TOKEN_BYTES = 8
_MAX_TOKENS = 4096 // _TOKEN_BYTES

# Guide buckets per pair state, rounded up to a power of two. Each of the
# K - 1 inner thresholds splits at most one bucket, so at most K - 1 of the
# 64 K or more equal-width buckets are split and under 1/64 of draws, for
# any weights, need the search after the gather.
_BUCKETS_PER_STATE = 64

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
    """One config's draws as integer thresholds on k = z >> 11.

    The state is the number of inner cumulative thresholds <= k. guide
    holds, for each of the _BUCKETS_PER_STATE * K or more buckets
    z >> (bucket_shift + 11), 16 * state if no inner threshold splits it,
    else -1; draws in a split bucket are searched in thresholds. switch_a
    and switch_b are _switch_thresholds. cells maps (state, switch_a * 4 +
    switch_b) to the cell code: the source's state_cells.
    """

    thresholds: np.ndarray
    guide: np.ndarray
    bucket_shift: int
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
    inner = np.array(cum[:-1], dtype=np.uint64)

    bucket_bits = (_BUCKETS_PER_STATE * len(masses) - 1).bit_length()
    buckets, shift = 1 << bucket_bits, 53 - bucket_bits
    # lo[b] and hi[b] count the inner thresholds <= the least and greatest k
    # of bucket b: t counts in lo from bucket ceil(t / 2^shift) on, in hi from
    # floor(t / 2^shift) on, and a t of 2^53 (zero weights last) in neither.
    ceil_b = ((inner + np.uint64((1 << shift) - 1)) >> np.uint64(shift)).astype(np.intp)
    floor_b = (inner >> np.uint64(shift)).astype(np.intp)
    lo = np.cumsum(np.bincount(ceil_b, minlength=buckets + 1)[:buckets])
    hi = np.cumsum(np.bincount(floor_b, minlength=buckets + 1)[:buckets])
    # int16 takes a quarter of intp's cache room and holds 16 * 728 + 15 (729 states at most).
    guide = (16 * lo).astype(np.int16)
    guide[lo != hi] = -1

    return _Sampler(
        thresholds=inner,
        guide=guide,
        bucket_shift=shift,
        switch_a=_switch_thresholds(config.detector_a.failure_probability),
        switch_b=_switch_thresholds(config.detector_b.failure_probability),
        cells=np.array(config.source.state_cells),
    )


def _draw_state(z, tables: _Sampler, st, t, h) -> np.ndarray:
    """16 * the state of each hash in z, the number of inner thresholds
    <= z >> 11, into st (int16); t (uint64) and h (bool) are scratch."""
    np.right_shift(z, np.uint64(tables.bucket_shift + 11), out=t)
    # Indices are in range by construction; "wrap" skips the bounds check.
    np.take(tables.guide, t.view(np.intp), out=st, mode="wrap")
    split = np.flatnonzero(np.less(st, 0, out=h))
    st[split] = np.searchsorted(tables.thresholds, z[split] >> np.uint64(11), side="right") * 16
    return st


def _add_switch_digits(z, thresholds, sw, h) -> np.ndarray:
    """Add the switch digit #{j : z >> 11 >= thresholds[j]} of each hash
    in z to sw (uint8), through the bool scratch buffer h. k >= t is
    z > (t << 11) - 1: t = 0 counts for every z and t = 2^53 for none.
    h is added as uint8: a bool + uint8 add casts, at a third the speed."""
    for t in thresholds:
        if t:
            np.greater(z, np.uint64((t << 11) - 1), out=h)
            np.add(sw, h.view(np.uint8), out=sw)
        else:
            np.add(sw, 1, out=sw)
    return sw


def _run_range(lo: int, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of trials [lo, hi) under the 64-bit seed."""
    return _run_chunks(range(lo, hi, _CHUNK), hi, seed, tables)


def _run_chunks(starts, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of the trials [start, min(start + _CHUNK, hi)) for each
    start of the iterable starts.

    Forked workers read their starts from one token pipe, so a worker that
    gets less CPU takes fewer chunks instead of holding up the run.
    """
    size = min(_CHUNK, hi)
    u64 = np.uint64
    stride = np.arange(size, dtype=u64) * u64(_LANES * _GAMMA & _MASK64)
    z_buf, tmp, state = (np.empty(size, dtype=dt) for dt in (u64, u64, np.int16))
    hit, digits = np.empty(size, dtype=bool), np.empty(size, dtype=np.uint8)
    hist = np.zeros(tables.cells.size, dtype=np.int64)

    def draw(lane, m):
        """z = mix64(counter + (8 i + lane) GAMMA) per trial start + i."""
        z, t = z_buf[:m], tmp[:m]
        np.add(stride[:m], u64((counter + lane * _GAMMA) & _MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, u64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, u64(mult), out=z)
        np.right_shift(z, u64(31), out=t)
        np.bitwise_xor(z, t, out=z)
        return z

    for start in starts:
        m = min(_CHUNK, hi - start)
        h, pair = hit[:m], digits[:m]
        counter = (start * _LANES + 1) * _GAMMA + seed
        pair.fill(0)
        _add_switch_digits(draw(_SIDE_A_LANE, m), tables.switch_a, pair, h)
        # 4 * digit_a in uint8 adds, which numpy vectorizes and a uint8 << does not.
        np.add(pair, pair, out=pair)
        np.add(pair, pair, out=pair)
        _add_switch_digits(draw(_SIDE_B_LANE, m), tables.switch_b, pair, h)
        # Count (state, switch_a, switch_b) triples; cells folds the
        # histogram into the cell codec once, after the last chunk.
        st = _draw_state(draw(_STATE_LANE, m), tables, state[:m], tmp[:m], h)
        np.add(st, pair, out=st)
        hist += np.bincount(st, minlength=hist.size)

    counts = np.zeros(N_CELLS, dtype=np.int64)
    np.add.at(counts, tables.cells.ravel(), hist)
    return counts


def _token_starts(tokens: int, span: int, hi: int):
    """Chunk starts of the run [start, min(start + span, hi)) for each
    token start read from the pipe fd tokens, until it is empty."""
    while token := os.read(tokens, _TOKEN_BYTES):
        start = int.from_bytes(token, "little")
        yield from range(start, min(start + span, hi), _CHUNK)


def _drain(tokens: int) -> None:
    """Empty the token pipe, so that every worker stops after its current chunk."""
    while os.read(tokens, _MAX_TOKENS * _TOKEN_BYTES):
        pass


def _child_share(tokens: int, out: int, span: int, hi: int, seed: int, tables: _Sampler):
    """A forked worker: write the counts of the chunks it takes into the
    pipe fd out and exit 0, or drain the token pipe, print the traceback
    of an error (not of an interrupt) and exit 1. os._exit flushes no
    stdio buffer inherited from the caller and runs no atexit handler."""
    status = 1
    try:
        counts = _run_chunks(_token_starts(tokens, span, hi), hi, seed, tables)
        # N_CELLS * 8 bytes fit in a pipe, so this write does not block.
        os.write(out, counts.tobytes())
        status = 0
    except BaseException as exc:
        _drain(tokens)
        if isinstance(exc, Exception):
            import traceback  # only a failing child pays for this import

            os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _forked_counts(workers: int, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of trials [0, hi), run by the caller and workers - 1
    forked children, which take runs of chunks from one token pipe in turn.

    Every child is reaped and every pipe closed before this returns or
    raises, also when the caller's own share raises.
    """
    chunks = -(-hi // _CHUNK)
    span = -(-chunks // _MAX_TOKENS) * _CHUNK
    tokens, token_w = os.pipe()
    fds, pids = [tokens], []  # fds[1:] are the children's counts pipes
    try:
        try:
            starts = range(0, hi, span)
            os.write(token_w, b"".join(s.to_bytes(_TOKEN_BYTES, "little") for s in starts))
        finally:
            os.close(token_w)
        for _ in range(workers - 1):
            out, out_w = os.pipe()
            fds.append(out)
            try:
                # A warning os.fork gives the caller (Python 3.12 warns where
                # other OS threads run) is re-issued, and may raise, once pid is kept.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    pid = os.fork()
                if pid == 0:
                    _child_share(tokens, out_w, span, hi, seed, tables)
            finally:
                os.close(out_w)
            pids.append(pid)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        # The caller is the first worker.
        counts = _run_chunks(_token_starts(tokens, span, hi), hi, seed, tables)
        parts = [os.read(out, counts.nbytes) for out in fds[1:]]
    except BaseException:
        _drain(tokens)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for fd in fds:
            os.close(fd)
    # A child writes its counts only once it has run its share.
    for status, part in zip(statuses, parts):
        if len(part) != counts.nbytes:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"a Monte Carlo worker process exited with status {code}")
        counts += np.frombuffer(part, dtype=np.int64)
    return counts


def run_trials(plan: SimulationPlan) -> CellWeights:
    """Simulate plan.n_trials independent trials into a tally: cell
    weights that count trials, over the total plan.n_trials.

    Per trial: a pair state is drawn by weight, then each side
    independently draws failure (probability p) or a uniform setting, and
    the outcome is the instruction lookup with failure forcing NoFlash.
    plan.n_streams workers, at most one per CPU this process may run on,
    take runs of chunks of the trial range in turn: the caller and forked
    child processes, whose counts are summed. The caller runs every chunk
    itself where os.fork is missing or another thread is alive. The result
    is bitwise identical for any stream count because every trial owns its
    counters.
    """
    if plan.n_trials == 0:
        return CellWeights.empty()
    tables = _sampler_tables(plan.config)
    seed = plan.seed & _MASK64
    hi = plan.n_trials
    # The CPUs in this process's affinity mask, where the OS keeps one.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(plan.n_streams, cpus or 1, -(-hi // _CHUNK))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        counts = _forked_counts(workers, hi, seed, tables)
    else:
        counts = _run_range(0, hi, seed, tables)
    return CellWeights(tuple(counts.tolist()), hi)
