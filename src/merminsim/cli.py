"""Command-line interface: enumerate, simulate, verify, scan.

Exit codes: 0 success, 1 I/O error, 2 configuration error, 3 verification
failure. Machine-readable outputs are byte-stable for identical inputs;
the run timestamp lives only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

from . import __version__
from .exact import conditional_stats, detector_invariance_check, enumerate_joint
from .model import (
    CELLS,
    ConfigurationError,
    DetectorModel,
    ExperimentConfig,
    STATISTICS,
    SourceDistribution,
    builtin_distribution,
    parse_rational,
)
from .montecarlo import MAX_TRIALS, RNG_SCHEME, SimulationPlan, run_trials
from .stats import (
    NoCoincidencesError,
    compare,
    estimate_stats,
    settings_independence_test,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

DEFAULT_N_TRIALS = 1_000_000
DEFAULT_SEED = 0
INDEPENDENCE_ALPHA = 1e-3
INVARIANCE_GRID = (Fraction(0), Fraction(1, 5), Fraction(1, 2))
TARGET_CASE_A = Fraction(1)
TARGET_CASE_B = Fraction(1, 4)
MAX_SEED = 1 << 64


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigurationError(f"{name}: expected an integer, got {value!r}")


def _field_path(where: str, key: str) -> str:
    """The path of field key of the object at where; a key that is not
    printable is quoted as JSON, so its diagnostic stays on one line."""
    if not key.isprintable():
        key = json.dumps(key)
    return f"{where}.{key}" if where else key


def _check_fields(spec: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse any field the loader would not read, naming its path."""
    for key in spec:
        if key not in known:
            path = _field_path(where, key)
            raise ConfigurationError(f"{path}: unknown field (known: {', '.join(known)})")


def _build_source(spec: Any) -> SourceDistribution:
    """The source a config's source object gives. Only the JSON structure
    is checked here; the model checks the values, and the field path of
    each of its faults gets its source prefix here."""
    if not isinstance(spec, dict):
        raise ConfigurationError("source: expected an object")
    _check_fields(spec, ("builtin", "state", "entries"), "source")
    if "state" in spec and spec.get("builtin") != "single":
        raise ConfigurationError('source.state: only the builtin "single" takes a state')
    if "builtin" in spec and "entries" in spec:
        raise ConfigurationError("source.entries: not allowed beside source.builtin")
    if "builtin" in spec:
        # Beside a state the builtin is "single", so only the state can be at fault.
        where = "source.state" if "state" in spec else "source.builtin"
        try:
            return builtin_distribution(spec["builtin"], spec.get("state"))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
    if "entries" not in spec:
        raise ConfigurationError("source: needs either a builtin name or an entries list")
    entries = spec["entries"]
    if not isinstance(entries, list):
        raise ConfigurationError("source.entries: expected a list")
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            _check_fields(entry, ("state", "weight"), f"source.entries[{i}]")
        if not isinstance(entry, dict) or "state" not in entry or "weight" not in entry:
            raise ConfigurationError(
                f"source.entries[{i}]: expected an object with state and weight"
            )
    try:
        return SourceDistribution([(entry["state"], entry["weight"]) for entry in entries])
    except ConfigurationError as exc:
        raise ConfigurationError(f"source.{exc}") from None


def _build_detector(spec: Any, name: str) -> DetectorModel:
    if spec is None:
        return DetectorModel()
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{name}: expected an object")
    _check_fields(spec, ("failure_probability",), name)
    try:
        return DetectorModel(spec.get("failure_probability", Fraction(0)))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}.failure_probability: {exc}") from None


class _DecimalLiteral(str):
    """A JSON decimal literal, kept as text until its field is known."""


class _Fields(list):
    """A JSON object as its (key, value) pairs, repeated keys included."""


def _exact_decimals(obj: Any, where: str) -> Any:
    """The document with each object a dict and each decimal literal parsed
    to an exact Fraction; a literal that cannot be parsed, or a field that
    appears twice in one object, is reported by its field path."""
    if isinstance(obj, _DecimalLiteral):
        try:
            return parse_rational(obj)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
    if isinstance(obj, _Fields):
        fields = {}
        for key, value in obj:
            path = _field_path(where, key)
            if key in fields:
                raise ConfigurationError(f"{path}: duplicate field")
            fields[key] = _exact_decimals(value, path)
        return fields
    if isinstance(obj, list):
        return [_exact_decimals(value, f"{where}[{i}]") for i, value in enumerate(obj)]
    return obj


def load_config(path: Union[str, Path]) -> tuple[ExperimentConfig, dict]:
    """Parse and check a JSON experiment description.

    Decimal literals are read exactly (0.1 means 1/10) and weights accept
    "num/den" strings. Returns the config and the raw document, which
    carries optional seed / n_trials defaults and feeds the run manifest.
    """
    try:
        # ValueError covers bad UTF-8 or JSON and integers past the digit
        # limit; RecursionError, here and in the walk, covers arrays nested
        # too deep.
        try:
            text = Path(path).read_text(encoding="utf-8")
            doc = json.loads(text, parse_float=_DecimalLiteral, object_pairs_hook=_Fields)
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
        doc = _exact_decimals(doc, "")
        if not isinstance(doc, dict):
            raise ConfigurationError("top level must be an object")
        _check_fields(doc, ("source", "detector_a", "detector_b", "seed", "n_trials"), "")
        if "source" not in doc:
            raise ConfigurationError("missing source")
        config = ExperimentConfig(
            source=_build_source(doc["source"]),
            detector_a=_build_detector(doc.get("detector_a"), "detector_a"),
            detector_b=_build_detector(doc.get("detector_b"), "detector_b"),
        )
    except (ConfigurationError, RecursionError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return config, doc


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _frac_str(value: Union[Fraction, None]) -> Union[str, None]:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


def _jsonable(obj: Any) -> Any:
    """Recursively convert Fractions to num/den strings for JSON output."""
    if isinstance(obj, Fraction):
        return _frac_str(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    return obj


def _exact_field_json(value: Union[Fraction, None]) -> dict:
    return {
        "fraction": _frac_str(value),
        "value": None if value is None else float(value),
    }


def _estimate_json(est) -> dict:
    return {
        "value": est.value,
        "se": est.se,
        "ci95": None if est.ci_low is None else [est.ci_low, est.ci_high],
        "successes": est.successes,
        "trials": est.trials,
    }


def _stats_json(stats, field_json: Callable[[Any], dict]) -> dict:
    """One JSON entry per declared statistic of a CaseStats;
    coincidence rates nest under their name, keyed by setting digits."""
    out: dict = {}
    for stat in STATISTICS:
        value = field_json(stat.read(stats))
        if stat.key is None:
            out[stat.name] = value
        else:
            out.setdefault(stat.name, {})[stat.key] = value
    return out


def _exact_cells(value: Union[Fraction, None]) -> str:
    if value is None:
        return f"{'undefined':>12}  undefined"
    return f"{float(value):>12.6f}  {_frac_str(value)}"


def _estimate_cells(est) -> str:
    if not est.defined:
        return f"{'undefined':>12}"
    return f"{est.value:>12.6f}{est.se:>12.2g}  [{est.ci_low:.6f}, {est.ci_high:.6f}]"


def _print_stats(header: str, stats, cells: Callable[[Any], str]) -> None:
    print(f"{'field':<24}{header}")
    for stat in STATISTICS:
        print(f"{stat.label:<24}{cells(stat.read(stats))}")


_CELL_COLUMNS = ["switch_a", "switch_b", "outcome_a", "outcome_b", "cell"]


def _cell_rows(values: Iterable[Any]) -> list[list[Any]]:
    """One CSV row per cell in codec order, ending in that cell's value."""
    return [[*cell, "".join(map(str, cell)), value] for cell, value in zip(CELLS, values)]


def _csv_num(value: Union[float, Fraction, None]) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_reports(reports: dict[Path, Any]) -> None:
    """Write each report to a temp file beside its target: a .csv path
    takes (header, rows), any other path a JSON document. The targets are
    replaced only once every temp file is written in full, so a failed
    write leaves no partial report and keeps the earlier set whole. Then
    names the targets on stdout, in order."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in reports}
    try:
        for path, content in reports.items():
            with open(temps[path], "w", encoding="utf-8", newline="") as fh:
                if path.suffix == ".csv":
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(content[0])
                    writer.writerows(content[1])
                else:
                    json.dump(content, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise
    *rest, last = reports
    print(f"wrote {', '.join(map(str, rest))} and {last}" if rest else f"wrote {last}")


def _run_fields(args, doc: dict, n: int, seed: int) -> dict:
    """The inputs of a Monte Carlo run, as the manifest and the verify
    report record them."""
    return {
        "config_path": str(args.config),
        "config": _jsonable(doc),
        "seed": seed,
        "n_trials": n,
        "n_streams": args.streams,
    }


def _manifest(args, doc: dict, n: int, seed: int, outputs: dict) -> dict:
    """Everything needed to reproduce a run's report files bit for bit
    (given the same build); the timestamp is the one non-reproducible
    field and lives only here."""
    return {
        "command": args.command,
        **_run_fields(args, doc, n, seed),
        "outputs": outputs,
        "rng_scheme": RNG_SCHEME,
        "tool": "merminsim",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_run_params(args, doc: dict) -> tuple[int, int]:
    if args.n is not None:
        n, n_name = args.n, "--n"
    else:
        n_name = f"{args.config}: n_trials"
        n = _as_int(doc.get("n_trials", DEFAULT_N_TRIALS), n_name)
    if args.seed is not None:
        seed, seed_name = args.seed, "--seed"
    else:
        seed_name = f"{args.config}: seed"
        seed = _as_int(doc.get("seed", DEFAULT_SEED), seed_name)
    if not 0 <= n < MAX_TRIALS:
        raise ConfigurationError(f"{n_name} must be in [0, 2^60), got {n}")
    if not 0 <= seed < MAX_SEED:
        raise ConfigurationError(f"{seed_name} must be in [0, 2^64), got {seed}")
    if args.streams < 1:
        raise ConfigurationError(f"--streams must be >= 1, got {args.streams}")
    return n, seed


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    config, _ = load_config(args.config)
    table = enumerate_joint(config)
    stats = conditional_stats(table)

    print(f"exact analysis of {args.config}")
    _print_stats(f"{'value':>12}  exact", stats, _exact_cells)

    out = _out_dir(args)
    stats_path = out / "case_stats.json"
    joint_path = out / "joint_table.csv"
    probabilities = (_csv_num(Fraction(w, table.total)) for w in table.weights)
    _write_reports(
        {
            stats_path: _stats_json(stats, _exact_field_json),
            joint_path: ([*_CELL_COLUMNS, "probability"], _cell_rows(probabilities)),
        }
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, doc = load_config(args.config)
    n, seed = _resolve_run_params(args, doc)
    plan = SimulationPlan(config, n_trials=n, seed=seed, n_streams=args.streams)
    tally = run_trials(plan)
    stats = estimate_stats(tally)

    print(f"simulated {n} trials (seed {seed}, {args.streams} stream(s))")
    _print_stats(f"{'estimate':>12}{'se':>12}  95% CI", stats, _estimate_cells)

    out = _out_dir(args)
    tally_path = out / "tally.csv"
    stats_path = out / "mc_stats.json"
    manifest_path = out / "run_manifest.json"
    outputs = {"tally_csv": str(tally_path), "stats_json": str(stats_path)}
    _write_reports(
        {
            tally_path: ([*_CELL_COLUMNS, "count"], _cell_rows(tally.weights)),
            stats_path: {**_stats_json(stats, _estimate_json), "n_trials": tally.total},
            manifest_path: _manifest(args, doc, n, seed, outputs),
        }
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    config, doc = load_config(args.config)
    n, seed = _resolve_run_params(args, doc)
    if not args.threshold > 0:
        raise ConfigurationError(f"--threshold must be positive, got {args.threshold}")

    exact = conditional_stats(enumerate_joint(config))
    tally = run_trials(SimulationPlan(config, n_trials=n, seed=seed, n_streams=args.streams))
    estimated = estimate_stats(tally)

    checks: list[tuple[str, bool, str]] = []

    report = compare(exact, estimated, threshold=args.threshold)
    zs = [abs(row.z) for row in report.rows if row.z is not None]
    worst = max(zs) if zs else 0.0
    checks.append(
        (
            "mc-vs-exact",
            report.all_pass,
            f"{len(report.rows)} fields, worst |z| = {worst:.2f}, threshold {args.threshold}",
        )
    )

    independence_json: Union[dict, None] = None
    try:
        independence = settings_independence_test(tally)
        checks.append(
            (
                "settings-independence",
                independence.p_value > INDEPENDENCE_ALPHA,
                f"chi2 = {independence.statistic:.3f}, dof {independence.degrees_of_freedom}, "
                f"p = {independence.p_value:.4g} (alpha {INDEPENDENCE_ALPHA})",
            )
        )
        independence_json = asdict(independence)
    except NoCoincidencesError:
        checks.append(("settings-independence", False, "no coincidences in tally"))

    invariance = detector_invariance_check(config, INVARIANCE_GRID)
    grid_text = ", ".join(_frac_str(p) for p in INVARIANCE_GRID)
    checks.append(
        (
            "detector-invariance",
            invariance.passed,
            f"failure probabilities {{{grid_text}}}; conditionals "
            f"{'unchanged' if invariance.conditionals_invariant else 'CHANGED'}, "
            f"coincidence scaling {'exact' if invariance.coincidence_scaling_exact else 'BROKEN'}, "
            f"eta = eta_u * eta_f {'exact' if invariance.eta_multiplicative else 'BROKEN'}",
        )
    )

    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    matches = exact.p_same_case_a == TARGET_CASE_A and exact.p_same_case_b == TARGET_CASE_B
    gap_text = (
        "matches the target device statistics"
        if matches
        else "deviates from the target device statistics (the conundrum gap)"
    )
    print(
        f"NOTE mermin-target: case-a same-colour = {_frac_str(exact.p_same_case_a) or 'undefined'}, "
        f"case-b same-colour = {_frac_str(exact.p_same_case_b) or 'undefined'} "
        f"vs targets {_frac_str(TARGET_CASE_A)} and {_frac_str(TARGET_CASE_B)}; {gap_text}"
    )

    out = _out_dir(args)
    report_path = out / "verify_report.json"
    report_json = {
        **_run_fields(args, doc, n, seed),
        "threshold": args.threshold,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "comparison": [{**asdict(row), "exact": _frac_str(row.exact)} for row in report.rows],
        "independence": independence_json,
        "mermin_target": {
            "case_a": _frac_str(exact.p_same_case_a),
            "case_b": _frac_str(exact.p_same_case_b),
            "target_case_a": _frac_str(TARGET_CASE_A),
            "target_case_b": _frac_str(TARGET_CASE_B),
            "matches": matches,
        },
    }
    _write_reports({report_path: report_json})

    return EXIT_OK if all(passed for _, passed, _ in checks) else EXIT_VERIFY


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(parse_rational(part) for part in text.split(",") if part.strip())
    except ConfigurationError as exc:
        raise ConfigurationError(f"--grid: {exc}") from None
    if not values:
        raise ConfigurationError("--grid: no values given")
    for value in values:
        if not 0 <= value < 1:
            raise ConfigurationError(f"--grid: value {value} outside [0, 1)")
    return values


def cmd_scan(args) -> int:
    config, _ = load_config(args.config)
    grid = _parse_grid(args.grid)

    header = [
        "p",
        "eta_a",
        "eta_b",
        "eta_u",
        "p_same_case_a",
        "p_same_case_b",
        "mean_coincidence_rate",
    ]
    rows = []
    print(",".join(header))
    for p in grid:
        if args.parameter == "p_a":
            swept = config.with_failure_probabilities(p, config.detector_b.failure_probability)
        elif args.parameter == "p_b":
            swept = config.with_failure_probabilities(config.detector_a.failure_probability, p)
        else:
            swept = config.with_failure_probabilities(p, p)
        stats = conditional_stats(enumerate_joint(swept))
        mean_rate = sum(stats.coincidence_rate.values(), Fraction(0)) / len(
            stats.coincidence_rate
        )
        row = [
            _csv_num(p),
            _csv_num(stats.eta_a),
            _csv_num(stats.eta_b),
            _csv_num(stats.eta_u_a),
            _csv_num(stats.p_same_case_a),
            _csv_num(stats.p_same_case_b),
            _csv_num(mean_rate),
        ]
        rows.append(row)
        print(",".join(row))

    out = _out_dir(args)
    scan_path = out / "scan.csv"
    _write_reports({scan_path: (header, rows)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merminsim",
        description=(
            "Exact analysis and Monte Carlo simulation of a three-setting, "
            "two-lamp correlation device with detector-failure and "
            "no-flash-instruction variants."
        ),
    )
    parser.add_argument("--version", action="version", version=f"merminsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="JSON experiment description")
        sp.add_argument("--out-dir", default=".", help="directory for report files")

    def add_run(sp):
        sp.add_argument("--n", type=int, default=None, help="number of trials")
        sp.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        sp.add_argument("--streams", type=int, default=1, help="parallel stream count")

    sp = sub.add_parser("enumerate", help="exact statistics by enumeration")
    add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("simulate", help="Monte Carlo run with estimates and CIs")
    add_common(sp)
    add_run(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="exact + simulation cross checks")
    add_common(sp)
    add_run(sp)
    sp.add_argument(
        "--threshold", type=float, default=5.0, help="|z| pass threshold for field comparisons"
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("scan", help="exact statistics over a failure-probability grid")
    add_common(sp)
    sp.add_argument(
        "--parameter",
        required=True,
        choices=("p_a", "p_b", "p_both"),
        help="which detector failure probability to sweep",
    )
    sp.add_argument(
        "--grid",
        required=True,
        help="comma-separated probabilities in [0, 1), e.g. 0,0.25,0.5 or 0,1/4,1/2",
    )
    sp.set_defaults(func=cmd_scan)

    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
