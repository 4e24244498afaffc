"""Engine sweep through the public run_trials only.

    python3 sweep.py ROOT RESULT_JSON DENSE_CONFIG N NPROC REPEATS

Times run_trials on three sources that differ only in the number of
pair states the state draw searches (single: 1, table1_uniform: 12, the
dense source: 729), each at 1 stream and at NPROC streams, with the dense
source's detector failure probabilities on all three so the failure lanes
cost the same. Reports the median ns/trial of REPEATS calls per cell, and
the tracemalloc peak of one dense 1-stream call.
"""

import json
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

SINGLE_STATE = "GRG-GRG"
NOTE = (
    "the split of run_trials time between the splitmix64 hash lanes and the "
    "searchsorted state draw inside _run_range cannot be measured from outside "
    "the program; it waits for in-program phase tracing (ROADMAP: run telemetry)"
)


def main() -> None:
    root, result_path, dense_path, n, nproc, repeats = sys.argv[1:7]
    n, nproc, repeats = int(n), int(nproc), int(repeats)
    sys.path.insert(0, str(Path(root) / "src"))
    from merminsim import ExperimentConfig, SimulationPlan, builtin_distribution, run_trials
    from merminsim.cli import load_config

    dense, _ = load_config(dense_path)
    sources = {
        "single": builtin_distribution("single", SINGLE_STATE),
        "table1": builtin_distribution("table1_uniform"),
        "dense": dense.source,
    }
    configs = {
        name: ExperimentConfig(source, dense.detector_a, dense.detector_b)
        for name, source in sources.items()
    }
    streams = {"s1": 1, "snproc": nproc}
    cells = [(name, label) for name in configs for label in streams]

    def timed(name: str, label: str, trials: int) -> float:
        plan = SimulationPlan(
            configs[name], n_trials=trials, seed=1, n_streams=streams[label]
        )
        start = time.perf_counter()
        run_trials(plan)
        return time.perf_counter() - start

    for cell in cells:
        timed(*cell, min(n, 100_000))
    samples = {cell: [] for cell in cells}
    for _ in range(repeats):
        for cell in cells:
            samples[cell].append(timed(*cell, n))

    tracemalloc.start()
    run_trials(SimulationPlan(configs["dense"], n_trials=n, seed=1, n_streams=1))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    ns = {f"{name}.{label}": median(samples[(name, label)]) / n * 1e9 for name, label in cells}
    result = {
        "n_trials": n,
        "streams": streams,
        "repeats": repeats,
        "single_state": SINGLE_STATE,
        "ns_per_trial": ns,
        "state_draw_ns_per_trial": ns["dense.s1"] - ns["single.s1"],
        "stream_speedup": ns["dense.s1"] / ns["dense.snproc"],
        "dense_s1_peak_alloc_mb": peak / 2**20,
        "note": NOTE,
    }
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
