"""Seeded workload inputs and the output checks behind `failed`.

Everything the program sees is generated here from the workload seed: a
config JSON and CLI flags. The same seed always gives the same files.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

MC_TRIALS = 10_000_000
GRID_POINTS = 24
DENSE_P_A = "1/5"
DENSE_P_B = "1/10"
# Integer weights k in [1, K_MAX] keep every one of the 729 pair states live.
K_MAX = 100
# Below this non-centrality the chi-square test lacks the power to be
# expected to fail at alpha = 1e-3, so the verdict is not checked.
MIN_NONCENTRALITY = 100.0
# Relative tolerance of the scan's float columns against exact values.
SCAN_REL_TOL = Fraction(1, 10**12)

INSTRUCTION_SETS = ["".join(p) for p in itertools.product("GRN", repeat=3)]
TABLE1_CONFIG = {
    "source": {"builtin": "table1_uniform"},
    "detector_a": {"failure_probability": 0},
    "detector_b": {"failure_probability": 0},
}


def dense_config(seed: int) -> dict:
    """All 27 x 27 pair states with weights k/D, k drawn from the seed."""
    rng = random.Random(f"dense-{seed}")
    states = [f"{a}-{b}" for a, b in itertools.product(INSTRUCTION_SETS, repeat=2)]
    ks = [rng.randint(1, K_MAX) for _ in states]
    total = sum(ks)
    return {
        "source": {
            "entries": [
                {"state": s, "weight": f"{k}/{total}"} for s, k in zip(states, ks)
            ]
        },
        "detector_a": {"failure_probability": DENSE_P_A},
        "detector_b": {"failure_probability": DENSE_P_B},
    }


def scan_grid(seed: int, points: int) -> list[str]:
    """`points` distinct failure probabilities k/100 in [0, 1), sorted.

    A fixed denominator keeps the Fraction cost of a grid point steady
    from seed to seed.
    """
    rng = random.Random(f"grid-{seed}")
    ks = sorted(rng.sample(range(100), points))
    return [f"{k / 100:g}" for k in ks]


WORKLOADS = ("mc-table1-serial", "mc-dense-verify", "exact-dense-scan")
OUTPUTS = {
    "mc-table1-serial": ("tally.csv", "mc_stats.json", "run_manifest.json"),
    "mc-dense-verify": ("verify_report.json",),
    "exact-dense-scan": ("scan.csv",),
}


@dataclass
class Workload:
    name: str
    config: Path
    command: list[str]  # merminsim arguments, --out-dir aside
    threads: int
    expected_exit: int
    n_trials: int = 0
    grid: list[str] = field(default_factory=list)

    @property
    def outputs(self) -> tuple[str, ...]:
        return OUTPUTS[self.name]


def build(name: str, seed: int, run_dir: Path, nproc: int, n: int, grid_points: int):
    """Write the workload's config into run_dir and return the Workload."""
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "config.json"

    def cli(command: str, *args: str) -> list[str]:
        return [command, "--config", str(config), *args]

    if name == "mc-table1-serial":
        doc = TABLE1_CONFIG
        wl = Workload(
            name,
            config,
            cli("simulate", "--n", str(n), "--seed", str(seed), "--streams", "1"),
            threads=1,
            expected_exit=0,
            n_trials=n,
        )
    elif name == "mc-dense-verify":
        doc = dense_config(seed)
        wl = Workload(
            name,
            config,
            cli("verify", "--n", str(n), "--seed", str(seed), "--streams", str(nproc)),
            threads=nproc,
            # With enough trials settings-independence FAILs on this source,
            # whose N instructions make the coincidence rates differ by
            # setting pair; the exit code is 0 only if every check passes.
            expected_exit=3,
            n_trials=n,
        )
    elif name == "exact-dense-scan":
        doc = dense_config(seed)
        grid = scan_grid(seed, grid_points)
        wl = Workload(
            name,
            config,
            cli("scan", "--parameter", "p_both", "--grid", ",".join(grid)),
            threads=1,
            expected_exit=0,
            grid=grid,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    config.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return wl


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of (name, passed, detail).
# ---------------------------------------------------------------------------


def normalized_outputs(out_dir: Path, names) -> dict[str, bytes]:
    """Output file bytes, with the manifest's run timestamp blanked."""
    files = {}
    for name in names:
        path = out_dir / name
        if not path.exists():
            continue
        data = path.read_bytes()
        if name == "run_manifest.json":
            doc = json.loads(data)
            doc["timestamp"] = None
            data = json.dumps(doc, sort_keys=True).encode()
        files[name] = data
    return files


def check_rep(wl: Workload, rc: int, out_dir: Path) -> list[tuple[str, bool, str]]:
    missing = [n for n in wl.outputs if not (out_dir / n).exists()]
    if missing:
        return [("outputs-written", False, f"missing {missing}")]
    expected_exit = wl.expected_exit
    if wl.name == "mc-table1-serial":
        checks = _check_table1_simulate(wl, out_dir)
    elif wl.name == "mc-dense-verify":
        report = json.loads((out_dir / "verify_report.json").read_text())
        if all(c["passed"] for c in report["checks"]):
            expected_exit = 0
        checks = _check_dense_verify(wl, report)
    else:
        checks = _check_scan(wl, out_dir)
    checks.append(("exit-code", rc == expected_exit, f"got {rc}, want {expected_exit}"))
    return checks


def _check_table1_simulate(wl: Workload, out_dir: Path):
    with open(out_dir / "tally.csv", newline="") as fh:
        total = sum(int(row["count"]) for row in csv.DictReader(fh))
    stats = json.loads((out_dir / "mc_stats.json").read_text())
    case_a = stats["p_same_case_a"]["value"]
    case_b = stats["p_same_case_b"]
    z = (case_b["value"] - 0.25) / case_b["se"]
    return [
        ("tally-sums-to-n", total == wl.n_trials, f"{total} vs {wl.n_trials}"),
        ("mc-case-a-is-1", case_a == 1.0, f"{case_a!r}"),
        ("mc-case-b-near-1/4", abs(z) <= 5.0, f"z = {z:.2f}"),
    ]


def check_table1_exact(out_dir: Path):
    """case_stats.json of `enumerate` on table1: case-a exactly 1, case-b exactly 1/4."""
    stats = json.loads((out_dir / "case_stats.json").read_text())
    case_a = Fraction(stats["p_same_case_a"]["fraction"])
    case_b = Fraction(stats["p_same_case_b"]["fraction"])
    return [
        ("exact-case-a-is-1", case_a == 1, str(case_a)),
        ("exact-case-b-is-1/4", case_b == Fraction(1, 4), str(case_b)),
    ]


def _check_dense_verify(wl: Workload, report: dict):
    verdict = {c["name"]: c["passed"] for c in report["checks"]}
    masses = [
        Fraction(row["exact"]) / 9
        for row in report["comparison"]
        if row["name"].startswith("coincidence_rate[")
    ]
    equal = len(set(masses)) == 1
    total = sum(masses)
    noncentrality = float(
        wl.n_trials * sum((m - total / 9) ** 2 for m in masses) / (total / 9)
    )
    checks = [
        ("mc-vs-exact-pass", verdict.get("mc-vs-exact") is True, ""),
        ("detector-invariance-pass", verdict.get("detector-invariance") is True, ""),
        ("nine-coincidence-rates", len(masses) == 9, f"{len(masses)} rows"),
    ]
    if equal or noncentrality >= MIN_NONCENTRALITY:
        checks.append(
            (
                "independence-verdict-matches-exact",
                verdict.get("settings-independence") is equal,
                f"rates equal: {equal}, non-centrality {noncentrality:.0f}, "
                f"verdict {verdict.get('settings-independence')}",
            )
        )
    return checks


def detector_free_rates(doc: dict) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (eta_u_a, eta_u_b, mean coincidence rate) of a config at p = 0.

    Computed from the entries alone, not through the program: with uniform
    settings a detector flashes on the 3 - (number of N) settings of its
    instruction set, and a setting pair coincides when both flash.
    """
    eta_u_a = eta_u_b = coincidence = Fraction(0)
    for entry in doc["source"]["entries"]:
        a, b = entry["state"].split("-")
        weight = Fraction(entry["weight"])
        flash_a = 3 - a.count("N")
        flash_b = 3 - b.count("N")
        eta_u_a += weight * flash_a / 3
        eta_u_b += weight * flash_b / 3
        coincidence += weight * flash_a * flash_b / 9
    return eta_u_a, eta_u_b, coincidence


def _close(text: str, exact: Fraction) -> bool:
    """A CSV float against an exact value, to a few float roundings."""
    return abs(Fraction(text) - exact) <= SCAN_REL_TOL * abs(exact)


def _check_scan(wl: Workload, out_dir: Path):
    with open(out_dir / "scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ps = [Fraction(r["p"]) for r in rows]
    checks = [
        ("grid-rows", ps == [Fraction(g) for g in wl.grid], f"{len(rows)} rows"),
    ]
    for column in ("eta_u", "p_same_case_a", "p_same_case_b"):
        values = {r[column] for r in rows}
        checks.append((f"{column}-constant", len(values) == 1, f"{len(values)} values"))
    # Detector loss at p on both sides scales eta_a and eta_b by (1 - p)
    # and every coincidence rate by (1 - p)^2 (detector_invariance_check's
    # invariants), here against rates derived from the config itself.
    eta_u_a, eta_u_b, coincidence = detector_free_rates(json.loads(wl.config.read_text()))
    expected = {
        "eta_u": lambda q: eta_u_a,
        "eta_a": lambda q: eta_u_a * q,
        "eta_b": lambda q: eta_u_b * q,
        "mean_coincidence_rate": lambda q: coincidence * q * q,
    }
    for column, value in expected.items():
        bad = [r["p"] for r, p in zip(rows, ps) if not _close(r[column], value(1 - p))]
        checks.append((f"{column}-matches-config", not bad, f"wrong at p = {bad}"))
    return checks
