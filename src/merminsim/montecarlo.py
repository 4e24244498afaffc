"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: draw j of trial i is a 64-bit avalanche hash
of (seed, 8 * i + j), the splitmix64 output function applied to a strided
counter. Trial i therefore owns its randomness regardless of scheduling,
so any partition of the trial range into streams produces bitwise
identical tallies, and tallies merge as a commutative monoid. Several
streams run in forked worker processes, which do not share an
interpreter lock; each stores its counts in a shared mapping.

A trial hashes one lane, which draws its cell: both sides' switch
positions and outcomes. The draw is the top 53 bits k = z >> 11 of the
lane's hash z and stands for u = k * 2^-53. It is one exact rational
partition of k into the 144 cells of the exact oracle's joint law,
model.joint_masses, cut at the ceilings of 2^53 times the cumulative
masses: one gather from a guide over the top bits of z (Chen and Asau's
guide table), and a search for the under 1% of draws whose bucket a
threshold splits. The tally counts the drawn cells, so it depends on the
law, the trial count and the seed alone, not on how the source lists its
pair states.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import CellWeights, ConfigurationError, ExperimentConfig, N_CELLS, joint_masses

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Recorded in run manifests: scheme 5 draws each trial's cell from one
# lane, through one exact partition of the draws into the 144 cells of
# model.joint_masses.
RNG_SCHEME = 5

# Counter stride per trial. Lane 0 draws the cell; lanes 1-7 are reserved
# headroom.
_LANES = 8
MAX_TRIALS = 1 << 60

# Draws k live in [0, _ONE); k stands for u = k / _ONE.
_ONE = 1 << 53

# Trials per pass. The per-pass buffers (27 bytes a trial, about 0.88 MB)
# and the 32 KB guide fit one core's 2 MB L2 on a 2-vCPU Xeon VM. There,
# in 21 interleaved fresh processes, each timing its first run of 10^7
# trials on line-aligned buffers, table1_uniform took a median 54.5 ms,
# against 57.5 at 1 << 14 and 57.6 at 1 << 16 (1 << 15 faster in 18 of 21
# runs against each); the dense 729-state source took 54.6, against 59.3
# and 58.1 (faster in 19 and 18 of 21). Warm loops in one process hide a
# misaligned buffer: once a first run frees its buffers, the heap serves
# later ones at other offsets, so time kernels in fresh processes.
_CHUNK = 1 << 15

# Bytes in a cache line. numpy takes a large buffer from a fresh mmap,
# which starts 16 bytes past a page boundary, and so off every line.
_LINE = 64

# Workers take runs of chunks from one pipe of 8-byte start tokens. The
# caller writes them all before the first fork; 512 tokens are 4096 bytes,
# the least capacity of a pipe, so that write never blocks.
_TOKEN_BYTES = 8
_MAX_TOKENS = 4096 // _TOKEN_BYTES

# The guide has 2^14 buckets, 64 per cell rounded up to a power of two.
# Each of the 143 inner thresholds splits at most one bucket, so at most
# 143 of the 16384 equal-width buckets are split and under 1% of draws,
# for any law, need the search after the gather.
_GUIDE_BITS = (64 * N_CELLS - 1).bit_length()


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
            raise ConfigurationError("n_trials must be >= 0")
        if self.n_trials >= MAX_TRIALS:
            raise ConfigurationError(f"n_trials must be below 2^60, got {self.n_trials}")
        if self.n_streams < 1:
            raise ConfigurationError("n_streams must be >= 1")


@dataclass(frozen=True)
class _Sampler:
    """One config's draw of a cell, a partition of the draws k = z >> 11
    into the 144 cells: the cell of k is the number of inner thresholds
    <= k. guide holds, for each of the 2^_GUIDE_BITS buckets
    z >> (64 - _GUIDE_BITS), the cell if no inner threshold splits it,
    else -1; draws in a split bucket are searched in thresholds."""

    thresholds: np.ndarray
    guide: np.ndarray


def _sampler_tables(config: ExperimentConfig) -> _Sampler:
    """The guide of config's draws, built once per run from the integer
    law the exact oracle reads, joint_masses: every inner threshold is the
    exact ceiling of 2^53 times a cumulative weight, with no float64 step."""
    p_a, p_b = config.detector_a.failure_probability, config.detector_b.failure_probability
    masses, total = joint_masses(config.source, p_a, p_b)
    cum = accumulate(masses[:-1])
    inner = np.fromiter((-(-acc * _ONE // total) for acc in cum), np.uint64, N_CELLS - 1)
    shift = 53 - _GUIDE_BITS
    # Bucket b holds the number of thresholds t with ceil(t / 2^shift) <= b,
    # the cell of its least draw, and -1 if some t has floor(t / 2^shift) = b
    # < ceil(t / 2^shift). A t of 2^53 (zero masses last) has floor = ceil =
    # 2^_GUIDE_BITS, so it needs no guard.
    ceil_b = ((inner + np.uint64((1 << shift) - 1)) >> np.uint64(shift)).astype(np.intp)
    floor_b = (inner >> np.uint64(shift)).astype(np.intp)
    # int16 holds the cells and the split mark -1.
    buckets = np.diff(ceil_b, prepend=0, append=1 << _GUIDE_BITS)
    guide = np.repeat(np.arange(N_CELLS, dtype=np.int16), buckets)
    guide[floor_b[floor_b < ceil_b]] = -1
    return _Sampler(inner, guide)


def _guided_draw(y, table: _Sampler, out, t, h) -> np.ndarray:
    """The number of inner thresholds <= z >> 11 for the hash
    z = y ^ (y >> 31) of each y, into out (int16); t (uint64) and h (bool)
    are scratch. z has y's top 31 bits and the guide reads its top
    _GUIDE_BITS, so only draws in a split bucket finish the hash."""
    np.right_shift(y, np.uint64(64 - _GUIDE_BITS), out=t)
    # Indices are in range by construction; "wrap" skips the bounds check.
    np.take(table.guide, t.view(np.intp), out=out, mode="wrap")
    split = np.flatnonzero(np.less(out, 0, out=h))
    z = y[split]
    z ^= z >> np.uint64(31)
    out[split] = np.searchsorted(table.thresholds, z >> np.uint64(11), side="right")
    return out


def _aligned_empty(size: int, dtype) -> np.ndarray:
    """An uninitialised array of size elements of dtype that starts on a
    cache line: a slice of one allocation _LINE bytes longer."""
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _LINE, dtype=np.uint8)
    skip = -raw.ctypes.data % _LINE
    return raw[skip : skip + nbytes].view(dtype)


def _run_chunks(starts, hi: int, seed: int, tables: _Sampler) -> np.ndarray:
    """Cell counts of the trials [start, min(start + _CHUNK, hi)) for each
    start of the iterable starts.

    Forked workers read their starts from one token pipe, so a worker that
    gets less CPU takes fewer chunks instead of holding up the run. Every
    per-pass buffer starts on a cache line, so no vector load or store of
    the in-place passes splits across two lines.
    """
    size = min(_CHUNK, hi)
    u64 = np.uint64
    stride = _aligned_empty(size, u64)
    np.multiply(np.arange(size, dtype=u64), u64(_LANES * _GAMMA & _MASK64), out=stride)
    z_buf, tmp, cells, hit = (_aligned_empty(size, dt) for dt in (u64, u64, np.int16, bool))
    counts = np.zeros(N_CELLS, dtype=np.int64)

    for start in starts:
        m = min(_CHUNK, hi - start)
        z, t = z_buf[:m], tmp[:m]
        # Lane 0 of trial start + i: mix64((8 (start + i) + 1) GAMMA + seed),
        # up to its last step z ^= z >> 31, which _guided_draw finishes.
        np.add(stride[:m], u64(((start * _LANES + 1) * _GAMMA + seed) & _MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, u64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, u64(mult), out=z)
        counts += np.bincount(_guided_draw(z, tables, cells[:m], t, hit[:m]), minlength=N_CELLS)
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


def _child_share(tokens: int, row, span: int, hi: int, seed: int, tables: _Sampler, mask):
    """A forked worker: restore the caller's signal mask, store the counts
    of the chunks it takes in row, its row of the shared mapping, and exit 0,
    or drain the token pipe, print the traceback of an error (not of an
    interrupt) and exit 1. os._exit flushes no stdio buffer inherited from
    the caller and runs no atexit handler."""
    import signal  # loaded by the caller already

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        row[:] = _run_chunks(_token_starts(tokens, span, hi), hi, seed, tables)
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
    forked children, which take runs of chunks from one token pipe in turn
    and store their counts in rows of one shared mapping, the caller's first.

    Every child is reaped and the token pipe closed before this returns or
    raises, also when the caller's own share raises or SIGINT arrives.
    """
    import mmap  # only the fork path pays for these imports
    import signal

    rows = np.frombuffer(mmap.mmap(-1, workers * N_CELLS * 8), np.int64).reshape(workers, N_CELLS)
    chunks = -(-hi // _CHUNK)
    span = -(-chunks // _MAX_TOKENS) * _CHUNK
    tokens, token_w = os.pipe()
    pids = []
    try:
        try:
            starts = range(0, hi, span)
            os.write(token_w, b"".join(s.to_bytes(_TOKEN_BYTES, "little") for s in starts))
        finally:
            os.close(token_w)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the caller's
        for row in rows[1:]:
            try:
                # SIGINT waits from before the fork until pid is kept. Python
                # 3.12+ warns where other OS threads run, such as numpy's BLAS
                # pool; it is ignored: the child runs only numpy and os calls.
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    pid = os.fork()
                if pid == 0:
                    _child_share(tokens, row, span, hi, seed, tables, mask)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # The caller is the first worker.
        rows[0] = _run_chunks(_token_starts(tokens, span, hi), hi, seed, tables)
    except BaseException:
        _drain(tokens)
        raise
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        os.close(tokens)
    # A child exits 0 only once it has stored its counts.
    for status in statuses:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"a Monte Carlo worker process exited with status {code}")
    return rows.sum(axis=0)


def run_trials(plan: SimulationPlan) -> CellWeights:
    """Simulate plan.n_trials independent trials into a tally: cell
    weights that count trials, over the total plan.n_trials.

    Per trial: one lane draws the trial's cell from the exact joint law,
    joint_masses: each side's switch fails (probability p) or lands on a
    uniform setting, and its outcome is the pair state's instruction
    there, N where the switch failed. plan.n_streams workers, at most one
    per CPU this process may run on, take runs of chunks of the trial
    range in turn: the caller and forked child processes, which store their
    counts in shared memory, summed once every child has exited. The
    caller runs every chunk itself where os.fork is missing or another
    thread is alive. The result is bitwise identical for any stream count
    because every trial owns its counters, and for any order of the
    source's entries because the draw reads only the law.
    """
    tables = _sampler_tables(plan.config)
    seed = plan.seed & _MASK64
    hi = plan.n_trials
    # The CPUs in this process's affinity mask, where the OS keeps one.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(plan.n_streams, cpus or 1, -(-hi // _CHUNK))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        counts = _forked_counts(workers, hi, seed, tables)
    else:
        counts = _run_chunks(range(0, hi, _CHUNK), hi, seed, tables)
    return CellWeights(tuple(counts.tolist()), hi)
