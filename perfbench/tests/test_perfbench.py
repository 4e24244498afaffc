"""The benchmark's own tests: every workload once at a tiny size.

    python3 -m pytest perfbench/tests -q

Runs in a copy of the source tree, so a benchmark run in the working
tree is left alone.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# At seed 1 and this n the chi-square non-centrality of the dense source
# is about 130, enough for the independence verdict to be checked.
SEED = "1"
TINY = ["--seconds", "0", "--n", "1000000", "--grid-points", "3"]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric_with_no_failed_check(checkout, workload, trace):
    proc = bench(checkout, "--workload", workload, "--seed", SEED, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    else:
        # Traced calls write the same bytes as untraced ones.
        record = json.loads(
            (checkout / ".perfbench_runs" / workload / "result-trace1.json").read_text()
        )
        checks = {c["name"] for c in record["checks"]}
        if workload == "mc-dense-verify":
            assert "independence-verdict-matches-exact" in checks
        hashes = record["output_sha256"]
        for name in workloads.OUTPUTS[workload]:
            untraced, traced = hashes[f"{name} (trace 0)"], hashes[f"{name} (trace 1)"]
            assert len(untraced) == 1 and untraced == traced, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "mc-table1-serial", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(20)]
    assert run.tail(samples) == (9.0, 50.0)
    assert run.tail(samples[:11]) == (0.0, 100.0 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_inputs_depend_only_on_seed():
    dense = workloads.dense_config(5)
    assert dense == workloads.dense_config(5)
    assert dense != workloads.dense_config(6)
    entries = dense["source"]["entries"]
    assert len({e["state"] for e in entries}) == 27 * 27
    assert sum(Fraction(e["weight"]) for e in entries) == 1
    grid = workloads.scan_grid(5, 24)
    assert grid == workloads.scan_grid(5, 24)
    values = [Fraction(g) for g in grid]
    assert values == sorted(set(values)) and len(values) == 24
    assert all(0 <= v < 1 for v in values)
