"""merminsim benchmark: one workload per call, through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every CLI call runs in a fresh
interpreter (users pay for one per call) started by child.py, with the
checkout's src/ first on sys.path. Inputs come from --seed only (see
workloads.py); every call's outputs are checked, and the outputs of all
calls of one run must be byte-identical (the manifest timestamp aside).

--trace 0 times untraced calls for --seconds and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 runs the engine sweep (sweep.py),
then alternates traced and untraced calls, and reports the per-layer
metrics; the difference of their median wall times is the tracing
overhead. The last stdout line is the JSON result; the full record,
samples and machine included, goes to .perfbench_runs/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 11  # the tail percentile needs ten samples beyond it
MIN_TRACE_PAIRS = 3
SWEEP_REPEATS = 5
CALL_TIMEOUT_S = 170
# Printed and saved, not in BENCHMARK.json: they read 0 on workloads that
# never call the layer.
SOME_WORKLOADS = {
    **{name: "s" for name in tracing.WORKLOAD_SPAN_TIMES},
    "montecarlo.run_trials.ns_per_trial": "ns",
    "montecarlo.run_trials.peak_alloc_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile). With fewer than 11 samples no percentile
    qualifies and the maximum is returned, labelled 100.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def machine_record(root: Path, nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "merminsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


class Runner:
    """Runs CLI calls of one workload and checks every output."""

    def __init__(self, root: Path, run_dir: Path, wl: workloads.Workload):
        self.root = root
        self.wl = wl
        self.work = run_dir / "work"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, MERMIN_SIM_THREADS=str(wl.threads))
        self.env.pop("PYTHONPATH", None)
        self.checks: list[tuple[str, bool, str]] = []
        self.reference: dict[str, bytes] | None = None
        self.output_hashes: dict[str, set[str]] = {}

    def call(self, argv: list[str], trace: bool) -> tuple[int, dict | None]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.work / "measure.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root), str(result_path),
               "1" if trace else "0"]
        with open(self.work / "stdout.txt", "wb") as stdout, \
                open(self.work / "stderr.txt", "wb") as stderr:
            # The spawn time is taken as late as possible; setup_s starts here.
            cmd += [repr(time.monotonic()), "--", *argv, "--out-dir", "out"]
            proc = subprocess.run(cmd, cwd=self.work, stdout=stdout, stderr=stderr,
                                  env=self.env, timeout=CALL_TIMEOUT_S)
        if not result_path.exists():
            return proc.returncode, None
        return proc.returncode, json.loads(result_path.read_text())

    def rep(self, trace: bool) -> dict | None:
        """One timed workload call; records its checks."""
        rc, measured = self.call(self.wl.command, trace)
        out = self.work / "out"
        stderr = (self.work / "stderr.txt").read_text()[-500:]
        self.checks.append(("child-reported", measured is not None, f"exit {rc}; {stderr}"))
        self.checks += workloads.check_rep(self.wl, rc, out)
        files = workloads.normalized_outputs(out, self.wl.outputs)
        for name, data in files.items():
            self.output_hashes.setdefault(f"{name} (trace {int(trace)})", set()).add(
                hashlib.sha256(data).hexdigest())
        if self.reference is None:
            if len(files) == len(self.wl.outputs):
                self.reference = files
        else:
            differ = sorted(n for n in self.reference.keys() | files.keys()
                            if self.reference.get(n) != files.get(n))
            self.checks.append(("outputs-identical-across-calls", not differ,
                                f"differ: {differ}" if differ else ""))
        if measured is None:
            return None
        measured["report_bytes"] = (self.work / "stdout.txt").stat().st_size + sum(
            (out / name).stat().st_size for name in files)
        return measured

    def table1_exact_check(self) -> None:
        """`enumerate` on the table1 config; case_stats.json must be exact."""
        rc, _ = self.call(["enumerate", "--config", str(self.wl.config)], trace=False)
        self.checks.append(("enumerate-exit-code", rc == 0, f"got {rc}"))
        if rc == 0:
            self.checks += workloads.check_table1_exact(self.work / "out")


def end_to_end(wl, reps: list[dict]) -> tuple[dict, dict]:
    walls = [r["cmd_wall_s"] for r in reps]
    wall = median(walls)
    tail_value, tail_pct = tail(walls)
    work = wl.n_trials or len(wl.grid)
    throughput = "trials_per_s" if wl.n_trials else "scan_points_per_s"
    metrics = {
        "setup_s": median(r["setup_s"] for r in reps),
        "cmd_wall_s": wall,
        "cmd_wall_s_tail": tail_value,
        "throughput_per_s": work / wall,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    info = {
        "samples": len(walls),
        "cmd_wall_s_tail_percentile": tail_pct,
        throughput: work / wall,
        "cmd_wall_s_samples": walls,
        "setup_s_samples": [r["setup_s"] for r in reps],
    }
    return metrics, info


def per_layer(traced: list[dict], untraced: list[dict], sweep: dict) -> tuple[dict, dict]:
    layer = tracing.median_metrics([tracing.summarize(r["spans"]) for r in traced])
    layer["cli.import_s"] = median(r["import_s"] for r in traced)
    layer["cli.load_config_s"] = median(r["load_config_s"] for r in traced)
    layer["cli.report_bytes"] = median(r["report_bytes"] for r in traced)
    traced_wall = median(r["cmd_wall_s"] for r in traced)
    untraced_wall = median(r["cmd_wall_s"] for r in untraced)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["montecarlo.state_draw_ns_per_trial"] = sweep["state_draw_ns_per_trial"]
    layer["montecarlo.stream_speedup"] = sweep["stream_speedup"]
    layer["montecarlo.sweep.dense.s1.peak_alloc_mb"] = sweep["dense_s1_peak_alloc_mb"]
    for cell, ns in sweep["ns_per_trial"].items():
        layer[f"montecarlo.sweep.{cell}.ns_per_trial"] = ns
    info = {
        "traced_calls": len(traced),
        "untraced_calls": len(untraced),
        "traced_cmd_wall_s": traced_wall,
        "untraced_cmd_wall_s": untraced_wall,
        "sweep": sweep,
    }
    return layer, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Smaller sizes for the benchmark's own tests; timed runs use the defaults.
    parser.add_argument("--n", type=int, default=workloads.MC_TRIALS)
    parser.add_argument("--grid-points", type=int, default=workloads.GRID_POINTS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "merminsim" / "cli.py").is_file():
        print(f"no merminsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    run_dir = root / ".perfbench_runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, run_dir, nproc, args.n, args.grid_points)
    runner = Runner(root, run_dir, wl)

    # Warm-up: compiles bytecode and fills the page cache; it also sets
    # the reference outputs every later call must reproduce.
    runner.rep(trace=False)
    if wl.name == "mc-table1-serial":
        runner.table1_exact_check()

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "command": ["merminsim", *wl.command], "MERMIN_SIM_THREADS": wl.threads,
              "machine": machine_record(root, nproc)}
    if args.trace == 0:
        reps, calls, start = [], 0, time.monotonic()
        while calls < MIN_REPS or time.monotonic() - start < args.seconds:
            calls += 1
            measured = runner.rep(trace=False)
            if measured is not None:
                reps.append(measured)
        if not reps:
            return fail(runner, "no call produced a measurement")
        metrics, info = end_to_end(wl, reps)
        wanted = spec["end_to_end"]
    else:
        sweep_path = run_dir / "sweep.json"
        dense_path = run_dir / "sweep-dense.json"
        dense_path.write_text(json.dumps(workloads.dense_config(args.seed)), encoding="utf-8")
        sweep_n = max(args.n // 5, 1000)
        subprocess.run(
            [sys.executable, str(HERE / "sweep.py"), str(root), str(sweep_path),
             str(dense_path), str(sweep_n), str(nproc), str(SWEEP_REPEATS)],
            env=dict(runner.env, MERMIN_SIM_THREADS=str(nproc)), timeout=CALL_TIMEOUT_S,
            stdout=subprocess.DEVNULL, check=False)
        runner.checks.append(("sweep-reported", sweep_path.exists(), ""))
        traced, untraced, pairs, start = [], [], 0, time.monotonic()
        while pairs < MIN_TRACE_PAIRS or time.monotonic() - start < args.seconds:
            pairs += 1
            for trace, bucket in ((False, untraced), (True, traced)):
                measured = runner.rep(trace=trace)
                if measured is not None:
                    bucket.append(measured)
        if not (traced and untraced and sweep_path.exists()):
            return fail(runner, "the sweep or every traced or untraced call failed")
        metrics, info = per_layer(traced, untraced, json.loads(sweep_path.read_text()))
        wanted = spec["per_layer"]

    failed = [c for c in runner.checks if not c[1]]
    record.update(info)
    record["metrics"] = metrics
    record["output_sha256"] = {k: sorted(v) for k, v in runner.output_hashes.items()}
    record["checks"] = [{"name": n, "passed": p, "detail": d} for n, p, d in runner.checks]
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print_report(record, metrics, wanted, runner.checks, failed)
    result = {
        "correct": not failed,
        "attempted": len(runner.checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def fail(runner: Runner, reason: str) -> int:
    """No result line: print the failed checks and the reason to stderr."""
    for name, passed, detail in runner.checks:
        if not passed:
            print(f"FAIL {name}: {detail}", file=sys.stderr)
    print(reason, file=sys.stderr)
    return 1


def print_report(record, metrics, wanted, checks, failed) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, MERMIN_SIM_THREADS={record['MERMIN_SIM_THREADS']}, "
          f"commit {m['git_commit'] or 'unknown'}, src sha256 {m['src_sha256'][:16]}")
    print(f"command: {' '.join(record['command'])}")
    for spec in wanted:
        print(f"  {spec['name']:<46} {metrics[spec['name']]:.6g} {spec['unit']}")
    if record["trace"] == 0:
        key = "trials_per_s" if "trials_per_s" in record else "scan_points_per_s"
        print(f"  {key:<46} {record[key]:.6g} 1/s")
        print(f"  cmd_wall_s_tail is the p{record['cmd_wall_s_tail_percentile']:.1f} "
              f"of {record['samples']} calls")
    else:
        print("  layers only some workloads call (0 when idle):")
        for name, unit in SOME_WORKLOADS.items():
            print(f"  {name:<46} {metrics[name]:.6g} {unit}")
        print(f"  traced {record['traced_calls']} calls, untraced {record['untraced_calls']}")
        print(f"  note: {record['sweep']['note']}")
    print(f"  fail_ratio {len(failed)}/{len(checks)} = {len(failed) / len(checks):.4g}")
    for name, _, detail in failed:
        print(f"  FAIL {name}: {detail}")


if __name__ == "__main__":
    sys.exit(main())
