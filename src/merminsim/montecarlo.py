"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: every hash is the splitmix64 output function
of (seed, counter), and the counters of trial i's draw follow from i
alone, so any partition of the trial range into streams, even one that
splits a group of four trials, produces bitwise identical tallies, and
tallies merge as a commutative monoid. Several streams run in forked
worker processes, which do not share an interpreter lock; each stores its
counts in a shared mapping.

A trial draws its cell: both sides' switch positions and outcomes. Four
trials share one hash: trial i reads the 16-bit slice i mod 4 of the hash
of counter 32 (i // 4) + 1 through a uint16 view of the hash buffer, and
the slice is a bucket of a guide over the 144 cells (Chen and Asau's
guide table). The draw stands for u = k * 2^-53 with k = slice * 2^37 +
bits, and one exact rational partition of k gives the cell: the exact
oracle's joint law, model.joint_masses, cut at the ceilings of 2^53 times
the cumulative masses. A bucket that no threshold splits holds one cell
for all its k, so bits are drawn only for the under 0.22% of draws whose
bucket a threshold splits: the top 37 bits of the trial's own lane-1 hash,
counter 8 i + 2, with k searched in the thresholds. The tally counts the
drawn cells, so it depends on the law, the trial count and the seed
alone, not on how the source lists its pair states.
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

# Recorded in run manifests: scheme 6 draws each trial's cell through one
# exact partition of the draws into the 144 cells of model.joint_masses,
# reading its guide bucket from a 16-bit slice of a hash shared by four
# trials.
RNG_SCHEME = 6

# Counter stride per trial. Lane 0 of trial 4 g hashes the guide slices of
# trials 4 g to 4 g + 3, lane 1 of trial i draws the bits of its draw in a
# split bucket, and the other lanes are reserved headroom.
_LANES = 8
MAX_TRIALS = 1 << 60

# Draws k live in [0, _ONE); k stands for u = k / _ONE.
_ONE = 1 << 53

# Trials that share one hash, one 16-bit slice each.
_GROUP = 4

# Trials per pass. The per-pass buffers hold 9 bytes a trial (about
# 0.29 MB), and np.take and np.bincount each cast 8 bytes a trial to intp
# on the side; with the 128 KB guide they fit one core's 2 MB L2 on a
# 2-vCPU Xeon VM. There, fresh processes each timed a first run of 10^7
# trials, chunk sizes alternating. Over 21 rounds, 1 << 15 took a median
# 55.0 ms on table1_uniform and 43.3 ms on the dense 729-state source,
# against 58.8 and 50.1 at 1 << 14 (1 << 15 faster in 15 of 21 on each),
# 46.0 and 43.3 at 1 << 16 (in 5 and 11) and 49.6 and 44.4 at 1 << 17
# (in 9 and 8). Over 31 more rounds against 1 << 16 alone, 42.1 and 42.5
# against 40.9 and 40.5 (in 14 and 16 of 31): no gain beyond the VM's
# noise, for twice the memory. Warm loops in one process hide a
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

# The guide has one bucket per value of a slice, 2^16, and marks a split
# bucket with _SPLIT, one past the last cell. Each of the 143 inner
# thresholds splits at most one bucket, so at most 143 of the 65536
# equal-width buckets are split and under 0.22% of draws, for any law,
# need the bits and the search after the gather. A draw in a split bucket
# extends its slice by _EXTEND bits to k.
_GUIDE_BITS = 64 // _GROUP
_EXTEND = 53 - _GUIDE_BITS
_SPLIT = N_CELLS

# Split draws wait for their bits and search in batches of at least this
# many, so a chunk's few dozen cost no numpy calls of their own.
_SPLIT_BATCH = 1 << 15


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
    """One config's draw of a cell, a partition of the draws k in [0, 2^53)
    into the 144 cells: the cell of k is the number of inner thresholds
    <= k. guide holds, for each of the 2^_GUIDE_BITS buckets k >> _EXTEND,
    the cell if no inner threshold splits it, else _SPLIT; draws in a split
    bucket are searched in thresholds."""

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
    # Bucket b holds the number of thresholds t with ceil(t / 2^_EXTEND) <= b,
    # the cell of its least draw, and _SPLIT if some t has
    # floor(t / 2^_EXTEND) = b < ceil(t / 2^_EXTEND). A t of 2^53 (zero
    # masses last) has floor = ceil = 2^_GUIDE_BITS, so it needs no guard.
    ceil_b = (inner + np.uint64((1 << _EXTEND) - 1)) >> np.uint64(_EXTEND)
    floor_b = inner >> np.uint64(_EXTEND)
    # int16 holds the cells and the split mark.
    buckets = np.diff(ceil_b.astype(np.intp), prepend=0, append=1 << _GUIDE_BITS)
    guide = np.repeat(np.arange(N_CELLS, dtype=np.int16), buckets)
    guide[floor_b[floor_b < ceil_b]] = _SPLIT
    return _Sampler(inner, guide)


def _mix64(z, t) -> np.ndarray:
    """Finish the splitmix64 hash of each counter state in z, in place; t
    (uint64, z's size) is scratch."""
    u64 = np.uint64
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, u64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, u64(mult), out=z)
    np.right_shift(z, u64(31), out=t)
    return np.bitwise_xor(z, t, out=z)


def _slices(z) -> np.ndarray:
    """The 16-bit slices of the hashes z (uint64): slice s of z[w], bits
    [16 s, 16 s + 16), at 4 w + s. "<u8" makes no copy on a little-endian
    host, so the slices are a view of z there."""
    return z.astype("<u8", copy=False).view("<u2")


def _guided_draw(slices, table: _Sampler, out) -> np.ndarray:
    """The guide bucket of each 16-bit slice, into out (int16): its cell,
    or _SPLIT where a threshold splits it."""
    # Indices are in range by construction; "wrap" skips the bounds check.
    return np.take(table.guide, slices, out=out, mode="wrap")


def _split_draws(trials, slices, seed: int) -> np.ndarray:
    """The draws k = slice * 2^_EXTEND + bits of trials (int64) whose
    slices (uint16) fell in split buckets: bits are the top _EXTEND bits of
    trial i's lane-1 hash, of counter 8 i + 2."""
    u64 = np.uint64
    z = trials.astype(u64) * u64(_LANES * _GAMMA & _MASK64)
    z += u64((2 * _GAMMA + seed) & _MASK64)
    bits = _mix64(z, np.empty_like(z)) >> u64(64 - _EXTEND)
    return slices.astype(u64) << u64(_EXTEND) | bits


def _split_counts(trials, slices, seed: int, table: _Sampler) -> np.ndarray:
    """Cell counts of the split draws of trials and slices, lists of
    arrays in step."""
    k = _split_draws(np.concatenate(trials), np.concatenate(slices), seed)
    return np.bincount(np.searchsorted(table.thresholds, k, side="right"), minlength=N_CELLS)


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
    gets less CPU takes fewer chunks instead of holding up the run. A chunk
    may start inside a group of four trials; it hashes every group it
    touches. Every per-pass buffer starts on a cache line, so no vector
    load or store of the in-place passes splits across two lines.
    """
    size = min(_CHUNK, hi)
    # A chunk of size trials starting mid-group touches at most this many.
    words = size // _GROUP + 2
    u64 = np.uint64
    stride = _aligned_empty(words, u64)
    np.multiply(np.arange(words, dtype=u64), u64(_GROUP * _LANES * _GAMMA & _MASK64), out=stride)
    z_buf, tmp = _aligned_empty(words, u64), _aligned_empty(words, u64)
    cells, hit = _aligned_empty(size, np.int16), _aligned_empty(size, bool)
    # The last count is of split draws, which _split_counts recounts.
    counts = np.zeros(N_CELLS + 1, dtype=np.int64)
    trials, slices = [], []
    waiting = 0

    for start in starts:
        m = min(_CHUNK, hi - start)
        group, lead = divmod(start, _GROUP)
        n_words = (lead + m + _GROUP - 1) // _GROUP
        z, t = z_buf[:n_words], tmp[:n_words]
        # Lane 0 of trial 4 (group + w): mix64((32 (group + w) + 1) GAMMA + seed).
        np.add(stride[:n_words], u64(((group * _GROUP * _LANES + 1) * _GAMMA + seed) & _MASK64), out=z)
        s = _slices(_mix64(z, t))[lead : lead + m]
        out = _guided_draw(s, tables, cells[:m])
        part = np.bincount(out, minlength=N_CELLS + 1)
        counts += part
        if part[_SPLIT]:
            split = np.flatnonzero(np.equal(out, _SPLIT, out=hit[:m]))
            trials.append(np.add(split, start, dtype=np.int64))
            slices.append(s[split])
            waiting += len(split)
        if waiting >= _SPLIT_BATCH:
            counts[:N_CELLS] += _split_counts(trials, slices, seed, tables)
            trials, slices, waiting = [], [], 0
    if trials:
        counts[:N_CELLS] += _split_counts(trials, slices, seed, tables)
    return counts[:N_CELLS]


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

    Per trial: a 16-bit slice of a hash that four trials share, extended
    by the trial's own lane 1 in a split bucket, draws the trial's cell
    from the exact joint law, joint_masses: each side's switch fails
    (probability p) or lands on a uniform setting, and its outcome is the
    pair state's instruction there, N where the switch failed.
    plan.n_streams workers, at most one per CPU this process may run on,
    take runs of chunks of the trial range in turn: the caller and forked
    child processes, which store their counts in shared memory, summed
    once every child has exited. The caller runs every chunk itself where
    os.fork is missing or another thread is alive. The result is bitwise
    identical for any stream count because each trial's draw reads
    counters fixed by its index, and for any order of the source's entries
    because the draw reads only the law.
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
