"""Seeded Monte Carlo trial engine with deterministic parallel reduction.

Randomness is counter based: draw j of trial i is a 64-bit avalanche hash
of (seed, 8 * i + j), the splitmix64 output function applied to a strided
counter. Trial i therefore owns its randomness regardless of scheduling,
so any partition of the trial range into streams produces bitwise
identical tallies, and tallies merge as a commutative monoid. Several
streams run in forked worker processes, which do not share an
interpreter lock; each sends its counts back through a pipe.

A trial hashes two lanes: one draws the pair state, the other the code
4 * digit_a + digit_b of both sides' switch positions. A draw is the top
53 bits k = z >> 11 of a lane's hash z and stands for u = k * 2^-53. Both
draws are exact rational partitions of k, cut at the ceilings of 2^53
times the cumulative weights. Each is one gather from a
guide over the top bits of z (Chen and Asau's guide table), and a search
for the under 1/64 of draws whose bucket a threshold splits.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import CellWeights, DetectorModel, ExperimentConfig, N_CELLS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Recorded in run manifests. Scheme 2 drew each side's switch digit from
# its own lane and the state through float64 cumulative weights; scheme 1
# hashed a failure and a setting lane per side.
RNG_SCHEME = 3

# Counter stride per trial. Lane 0 draws the state and lane 1 the pair of
# switch digits; lanes 2-7 are reserved headroom.
_LANES = 8
_STATE_LANE, _PAIR_LANE = 0, 1
MAX_TRIALS = 1 << 60

# Draws k live in [0, _ONE); k stands for u = k / _ONE.
_ONE = 1 << 53

# Trials per pass. The per-pass buffers (29 bytes a trial, about 0.95 MB)
# and a guide fit in one core's 2 MB L2 on a 2-vCPU Xeon VM. There, in 21
# interleaved runs in one process, table1_uniform took a median 10.5
# ns/trial, against 11.6 at 1 << 16 (slower in 19 of 21) and 14.1 at 1 << 17;
# the dense 729-state source took 13.8, against 14.1 and 16.5.
_CHUNK = 1 << 15

# Workers take runs of chunks from one pipe of 8-byte start tokens. The
# caller writes them all before the first fork; 512 tokens are 4096 bytes,
# the least capacity of a pipe, so that write never blocks.
_TOKEN_BYTES = 8
_MAX_TOKENS = 4096 // _TOKEN_BYTES

# Guide buckets per part, rounded up to a power of two. Each of the K - 1
# inner thresholds of K parts splits at most one bucket, so at most K - 1
# of the 64 K or more equal-width buckets are split and under 1/64 of
# draws, for any weights, need the search after the gather.
_BUCKETS_PER_PART = 64

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


@dataclass(frozen=True)
class _Guide:
    """A draw from a partition of the draws k = z >> 11 into parts: the
    index of k's part is the number of inner thresholds <= k. guide holds,
    for each of the _BUCKETS_PER_PART * parts or more buckets
    z >> (bucket_shift + 11), step * index if no inner threshold splits
    it, else -1; draws in a split bucket are searched in thresholds."""

    thresholds: np.ndarray
    guide: np.ndarray
    bucket_shift: int
    step: int


def _guide(masses, step: int) -> _Guide:
    """The guide of the parts whose integer masses are masses, cut exactly
    at ceil(2^53 * cumulative mass / total mass)."""
    cum = list(accumulate(masses))
    inner = np.array([_ceil_k(acc, cum[-1]) for acc in cum[:-1]], dtype=np.uint64)
    bucket_bits = (_BUCKETS_PER_PART * len(cum) - 1).bit_length()
    buckets, shift = 1 << bucket_bits, 53 - bucket_bits
    # lo[b] and hi[b] count the inner thresholds <= the least and greatest k
    # of bucket b: t counts in lo from bucket ceil(t / 2^shift) on, in hi from
    # floor(t / 2^shift) on, and a t of 2^53 (zero masses last) in neither.
    ceil_b = ((inner + np.uint64((1 << shift) - 1)) >> np.uint64(shift)).astype(np.intp)
    floor_b = (inner >> np.uint64(shift)).astype(np.intp)
    lo = np.cumsum(np.bincount(ceil_b, minlength=buckets + 1)[:buckets])
    hi = np.cumsum(np.bincount(floor_b, minlength=buckets + 1)[:buckets])
    # int16 takes a quarter of intp's cache room and holds 16 * 728 + 15 (729 states at most).
    guide = (step * lo).astype(np.int16)
    guide[lo != hi] = -1
    return _Guide(inner, guide, shift, step)


def _switch_masses(detector: DetectorModel) -> tuple[int, ...]:
    """Masses of switch digits 0-3 over 3 * den(p), p the detector's failure
    probability: digit 0 (failed) weighs p and each setting (1 - p) / 3."""
    p = detector.failure_probability
    rest = p.denominator - p.numerator
    return (3 * p.numerator, rest, rest, rest)


@dataclass(frozen=True)
class _Sampler:
    """One config's draws: state draws 16 * the pair state, from the
    source's state masses, and pair draws the code 4 * digit_a + digit_b,
    from the product law of the two sides' switch digits. cells maps
    16 * state + code to the cell: the source's state_cells.
    """

    state: _Guide
    pair: _Guide
    cells: np.ndarray


def _sampler_tables(config: ExperimentConfig) -> _Sampler:
    """The guides of config's draws, built once per run from the integer
    masses that the exact oracle reads too: every threshold is the exact
    ceiling of a rational cumulative weight, with no float64 step."""
    masses, total = config.source.state_masses
    if sum(masses) != total:
        raise ValueError(f"source weights sum to {sum(masses)}/{total}, not 1")
    side_a, side_b = _switch_masses(config.detector_a), _switch_masses(config.detector_b)
    return _Sampler(
        state=_guide(masses, 16),
        pair=_guide([a * b for a in side_a for b in side_b], 1),
        cells=np.array(config.source.state_cells),
    )


def _guided_draw(y, table: _Guide, out, t, h) -> np.ndarray:
    """table.step * the number of inner thresholds <= z >> 11 for the hash
    z = y ^ (y >> 31) of each y, into out (int16); t (uint64) and h (bool)
    are scratch. z has y's top 31 bits and a guide under 2^17 buckets, so
    only draws in a split bucket finish the hash."""
    np.right_shift(y, np.uint64(table.bucket_shift + 11), out=t)
    # Indices are in range by construction; "wrap" skips the bounds check.
    np.take(table.guide, t.view(np.intp), out=out, mode="wrap")
    split = np.flatnonzero(np.less(out, 0, out=h))
    z = y[split]
    z ^= z >> np.uint64(31)
    out[split] = np.searchsorted(table.thresholds, z >> np.uint64(11), side="right") * table.step
    return out


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
    z_buf, tmp, state, codes = (np.empty(size, dtype=dt) for dt in (u64, u64, np.int16, np.int16))
    hit = np.empty(size, dtype=bool)
    hist = np.zeros(tables.cells.size, dtype=np.int64)

    def draw(lane, m):
        """mix64(counter + (8 i + lane) GAMMA) per trial start + i, up to
        its last step z ^= z >> 31, which _guided_draw finishes."""
        z, t = z_buf[:m], tmp[:m]
        np.add(stride[:m], u64((counter + lane * _GAMMA) & _MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, u64(shift), out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, u64(mult), out=z)
        return z

    for start in starts:
        m = min(_CHUNK, hi - start)
        h, t = hit[:m], tmp[:m]
        counter = (start * _LANES + 1) * _GAMMA + seed
        # Count (state, pair code) pairs; cells folds the histogram into
        # the cell codec once, after the last chunk.
        st = _guided_draw(draw(_STATE_LANE, m), tables.state, state[:m], t, h)
        pair = _guided_draw(draw(_PAIR_LANE, m), tables.pair, codes[:m], t, h)
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


def _child_share(tokens: int, out: int, span: int, hi: int, seed: int, tables: _Sampler, mask):
    """A forked worker: restore the caller's signal mask, write the counts
    of the chunks it takes into the pipe fd out and exit 0, or drain the
    token pipe, print the traceback of an error (not of an interrupt) and
    exit 1. os._exit flushes no stdio buffer inherited from the caller and
    runs no atexit handler."""
    import signal  # loaded by the caller already

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
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
    raises, also when the caller's own share raises or SIGINT arrives.
    """
    import signal  # only the fork path pays for this import

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
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the caller's
        for _ in range(workers - 1):
            out, out_w = os.pipe()
            fds.append(out)
            try:
                # SIGINT waits from before the fork until pid is kept, and a
                # warning os.fork gives the caller (Python 3.12 warns where
                # other OS threads run) is re-issued, and may raise, after that.
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    pid = os.fork()
                if pid == 0:
                    _child_share(tokens, out_w, span, hi, seed, tables, mask)
                pids.append(pid)
            finally:
                os.close(out_w)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
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

    Per trial: one lane draws a pair state by weight and one the switch
    pair, each side failure (probability p) or a uniform setting; the
    outcome is the instruction lookup with failure forcing NoFlash.
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
