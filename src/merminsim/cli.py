"""Command-line interface: enumerate, simulate, verify, scan.

Exit codes: 0 success, 1 I/O error, 2 configuration error, 3 verification
failure. Machine-readable outputs are byte-stable for identical inputs;
the run timestamp lives only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

from . import __version__
from .exact import conditional_stats, detector_invariance_check, enumerate_joint
from .exact import failure_class_sums, sums_at
from .model import (
    CELLS,
    ConfigurationError,
    DetectorModel,
    ExperimentConfig,
    STATISTICS,
    SourceDistribution,
    builtin_distribution,
    exact_bit_bound,
    parse_rational,
    shown,
)
from .montecarlo import MAX_TRIALS, RNG_SCHEME, SimulationPlan, run_trials
from .stats import compare, estimate_stats, settings_independence_test

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

DEFAULT_N_TRIALS = 1_000_000
DEFAULT_SEED = 0
INDEPENDENCE_ALPHA = 1e-3
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
    text = shown(value, str if isinstance(value, Fraction) else repr)
    raise ConfigurationError(f"{name}: expected an integer, got {text}")


def _quoted(name: str) -> str:
    """A key or file name for a diagnostic: quoted as JSON when it is not
    printable, so the diagnostic stays on one line."""
    return name if name.isprintable() else json.dumps(name)


def _field_path(where: str, key: str) -> str:
    """The path of field key of the object at where, the key _quoted."""
    key = _quoted(key)
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
        # An entry holding just its state and weight is well formed; the
        # field path is built only for the diagnostic of any other.
        if isinstance(entry, dict) and len(entry) == 2 and "state" in entry and "weight" in entry:
            continue
        if isinstance(entry, dict):
            _check_fields(entry, ("state", "weight"), f"source.entries[{i}]")
        raise ConfigurationError(f"source.entries[{i}]: expected an object with state and weight")
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


# json.loads gives each object as the tuple of its (key, value) pairs,
# repeated keys included; no other JSON value is a tuple. The types
# _exact_decimals walks: objects, lists and decimal literals. json.loads
# makes no subclass of them, so a value's type is looked up as it is.
_WALKED = frozenset((tuple, list, _DecimalLiteral))

# Objects and lists nest at most this deep; the top level is level 1.
_MAX_DEPTH = 64


def _path(where: Union[tuple, None]) -> str:
    """The field path of where, a chain of (parent, key or list index)
    pairs from the top level; built only for a diagnostic."""
    steps = []
    while where is not None:
        where, step = where
        steps.append(step)
    path = ""
    for step in reversed(steps):
        path = f"{path}[{step}]" if isinstance(step, int) else _field_path(path, step)
    return path


def _exact_decimals(obj: Any, where: Union[tuple, None] = None, depth: int = 1) -> Any:
    """The document with each object a dict and each decimal literal parsed
    to an exact Fraction; other leaves are returned as they are. A literal
    that cannot be parsed, a field that appears twice in one object, or an
    object or list at a depth past _MAX_DEPTH is reported by its field
    path; where is obj's place, as _path reads it, and depth its level."""
    if isinstance(obj, _DecimalLiteral):
        try:
            return parse_rational(obj)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{_path(where)}: {exc}") from None
    if depth > _MAX_DEPTH:
        raise ConfigurationError(f"{_path(where)}: nested deeper than {_MAX_DEPTH} levels")
    if isinstance(obj, tuple):
        fields = {}
        for key, value in obj:
            if key in fields:
                raise ConfigurationError(f"{_path((where, key))}: duplicate field")
            if type(value) in _WALKED:
                value = _exact_decimals(value, (where, key), depth + 1)
            fields[key] = value
        return fields
    return [
        _exact_decimals(value, (where, i), depth + 1) if type(value) in _WALKED else value
        for i, value in enumerate(obj)
    ]


def load_config(path: Union[str, Path]) -> tuple[ExperimentConfig, dict]:
    """Parse and check a JSON experiment description.

    Decimal literals are read exactly (0.1 means 1/10) and weights accept
    "num/den" strings. Returns the config and the raw document, which
    carries optional seed / n_trials defaults and feeds the run manifest.
    """
    try:
        # ValueError covers bad UTF-8 or JSON and integers past the digit
        # limit. The parser recurses once per level, so it runs out of stack
        # only far past _MAX_DEPTH, before the walk can name a path.
        try:
            text = Path(path).read_text(encoding="utf-8")
            doc = json.loads(text, parse_float=_DecimalLiteral, object_pairs_hook=tuple)
        except ValueError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ConfigurationError(f"nested deeper than {_MAX_DEPTH} levels") from None
        doc = _exact_decimals(doc) if type(doc) in _WALKED else doc
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
    except ConfigurationError as exc:
        raise ConfigurationError(f"{_quoted(str(path))}: {exc}") from None
    return config, doc


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _frac_str(value: Union[Fraction, None]) -> Union[str, None]:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


def _json_default(value: Any) -> str:
    """A Fraction in a JSON report, the config's own, as num/den text; one
    past the int digit limit, only in a field a flag overrides, is shown
    by its order of magnitude."""
    if isinstance(value, Fraction):
        return shown(value, _frac_str)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    """One JSON entry per declared statistic of stats, a dict by label;
    coincidence rates nest under their name, keyed by setting digits."""
    out: dict = {}
    for stat in STATISTICS:
        value = field_json(stats[stat.label])
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
        print(f"{stat.label:<24}{cells(stats[stat.label])}")


_CELL_COLUMNS = ["switch_a", "switch_b", "outcome_a", "outcome_b", "cell"]


def _cell_rows(values: Iterable[Any]) -> list[list[Any]]:
    """One CSV row per cell in codec order, ending in that cell's value."""
    return [[*cell, "".join(map(str, cell)), value] for cell, value in zip(CELLS, values)]


def _csv_ratio(numerator: int, denominator: int) -> str:
    """numerator / denominator as a CSV float, or empty where the
    denominator is 0. int / int is correctly rounded, as float(Fraction)
    is, so no Fraction is built."""
    return repr(numerator / denominator) if denominator else ""


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
                    fh.write(json.dumps(content, indent=2, sort_keys=True, default=_json_default))
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
        "config": doc,
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
        n_name = f"{_quoted(args.config)}: n_trials"
        n = _as_int(doc.get("n_trials", DEFAULT_N_TRIALS), n_name)
    if args.seed is not None:
        seed, seed_name = args.seed, "--seed"
    else:
        seed_name = f"{_quoted(args.config)}: seed"
        seed = _as_int(doc.get("seed", DEFAULT_SEED), seed_name)
    if not 0 <= n < MAX_TRIALS:
        raise ConfigurationError(f"{n_name} must be in [0, 2^60), got {shown(n)}")
    if not 0 <= seed < MAX_SEED:
        raise ConfigurationError(f"{seed_name} must be in [0, 2^64), got {shown(seed)}")
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
    probabilities = (_csv_ratio(w, table.total) for w in table.weights)
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


# Each check of verify is a function of (config, exact stats, tally,
# threshold) that gives its verdict, its detail text and its fields of
# verify_report.json; VERIFY_CHECKS lists them by name, in output order.


def _mc_vs_exact(config, exact, tally, threshold: float) -> tuple[bool, str, dict]:
    rows = compare(exact, estimate_stats(tally), threshold=threshold)
    scored = [row for row in rows if row.z is not None]
    worst = max(scored, key=lambda row: abs(row.z), default=None)
    worst_text = f"{abs(worst.z):.2f} ({worst.name})" if worst else f"{0.0:.2f}"
    detail = f"{len(rows)} fields, worst |z| = {worst_text}, threshold {threshold}"
    comparison = [{**asdict(row), "exact": _frac_str(row.exact)} for row in rows]
    return all(row.passed for row in rows), detail, {"comparison": comparison}


def _settings_independence(config, exact, tally, threshold: float) -> tuple[bool, str, dict]:
    result = settings_independence_test(tally)
    if result is None:
        return False, "no coincidences in tally", {"independence": None}
    detail = (
        f"chi2 = {result['statistic']:.3f}, dof {result['degrees_of_freedom']}, "
        f"p = {result['p_value']:.4g} (alpha {INDEPENDENCE_ALPHA})"
    )
    return result["p_value"] > INDEPENDENCE_ALPHA, detail, {"independence": result}


def _detector_invariance(config, exact, tally, threshold: float) -> tuple[bool, str, dict]:
    broken = detector_invariance_check(config, exact)
    p_text = ", ".join(str(d.failure_probability) for d in (config.detector_a, config.detector_b))
    detail = (
        "conditionals and eta_u unchanged, coincidence rates scaled by (1 - p_a)(1 - p_b) "
        "and eta_f = 1 - p for all (p_a, p_b) in [0, 1]^2; failure classes match the "
        f"oracle at ({p_text})" + (f"; BROKEN: {', '.join(broken)}" if broken else "")
    )
    return not broken, detail, {}


VERIFY_CHECKS = {
    "mc-vs-exact": _mc_vs_exact,
    "settings-independence": _settings_independence,
    "detector-invariance": _detector_invariance,
}


def cmd_verify(args) -> int:
    config, doc = load_config(args.config)
    n, seed = _resolve_run_params(args, doc)
    # An infinite threshold (or 1e309, which float reads as inf) passes any tally.
    if not 0 < args.threshold < math.inf:
        raise ConfigurationError(f"--threshold must be positive and finite, got {args.threshold}")

    exact = conditional_stats(enumerate_joint(config))
    tally = run_trials(SimulationPlan(config, n_trials=n, seed=seed, n_streams=args.streams))

    checks: list[dict] = []
    report = {**_run_fields(args, doc, n, seed), "threshold": args.threshold, "checks": checks}
    for name, check in VERIFY_CHECKS.items():
        passed, detail, fields = check(config, exact, tally, args.threshold)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        checks.append({"name": name, "passed": passed, "detail": detail})
        report.update(fields)

    case_a, case_b = exact["p_same_case_a"], exact["p_same_case_b"]
    matches = case_a == TARGET_CASE_A and case_b == TARGET_CASE_B
    gap_text = (
        "matches the target device statistics"
        if matches
        else "deviates from the target device statistics (the conundrum gap)"
    )
    print(
        f"NOTE mermin-target: case-a same-colour = {_frac_str(case_a) or 'undefined'}, "
        f"case-b same-colour = {_frac_str(case_b) or 'undefined'} "
        f"vs targets {_frac_str(TARGET_CASE_A)} and {_frac_str(TARGET_CASE_B)}; {gap_text}"
    )
    report["mermin_target"] = {
        "case_a": _frac_str(case_a),
        "case_b": _frac_str(case_b),
        "target_case_a": _frac_str(TARGET_CASE_A),
        "target_case_b": _frac_str(TARGET_CASE_B),
        "matches": matches,
    }
    _write_reports({_out_dir(args) / "verify_report.json": report})

    return EXIT_OK if all(check["passed"] for check in checks) else EXIT_VERIFY


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(parse_rational(part) for part in text.split(",") if part.strip())
    except ConfigurationError as exc:
        raise ConfigurationError(f"--grid: {exc}") from None
    if not values:
        raise ConfigurationError("--grid: no values given")
    bound = exact_bit_bound()
    for value in values:
        if value.denominator.bit_length() > bound:
            raise ConfigurationError(
                f"--grid: value {shown(value)}: denominator has more than {bound} bits, "
                "the bound on exact input"
            )
        if not 0 <= value < 1:
            raise ConfigurationError(f"--grid: value {shown(value)} outside [0, 1)")
    return values


def cmd_scan(args) -> int:
    config, _ = load_config(args.config)
    grid = _parse_grid(args.grid)

    header = "p,eta_a,eta_b,eta_u,p_same_case_a,p_same_case_b,mean_coincidence_rate".split(",")
    # Each column's place and scale in STATISTICS, and the places of the
    # nine coincidence rates.
    places = {stat.label: (i, stat.scale) for i, stat in enumerate(STATISTICS)}
    columns = [
        places[name] for name in ("eta_a", "eta_b", "eta_u_a", "p_same_case_a", "p_same_case_b")
    ]
    rates = [i for i, stat in enumerate(STATISTICS) if stat.key is not None]
    classes = failure_class_sums(config.source)
    # The side that is not swept keeps its configured probability.
    keep_a, keep_b = args.parameter == "p_b", args.parameter == "p_a"
    p_a = config.detector_a.failure_probability
    p_b = config.detector_b.failure_probability
    rows = []
    print(",".join(header))
    for p in grid:
        sums = sums_at(classes, p_a if keep_a else p, p_b if keep_b else p)
        row = [_csv_ratio(p.numerator, p.denominator)]
        row += [_csv_ratio(scale * sums[i][0], sums[i][1]) for i, scale in columns]
        # The nine rates share the denominator of all cells, and each is
        # scaled by 9, so their mean is the sum of their numerators over it.
        row.append(_csv_ratio(sum(sums[i][0] for i in rates), sums[rates[0]][1]))
        rows.append(row)
        print(",".join(row))

    out = _out_dir(args)
    scan_path = out / "scan.csv"
    _write_reports({scan_path: (header, rows)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


# Each option of a command is its flag and add_argument's keywords.
_COMMON = (
    ("--config", {"required": True, "help": "JSON experiment description"}),
    ("--out-dir", {"default": ".", "help": "directory for report files"}),
)
_RUN = (
    ("--n", {"type": int, "default": None, "help": "number of trials"}),
    ("--seed", {"type": int, "default": None, "help": "64-bit RNG seed"}),
    ("--streams", {"type": int, "default": 1, "help": "parallel stream count"}),
)
# Each command's function, help text and options, in the order of the
# full parser's command list.
_COMMANDS = {
    "enumerate": (cmd_enumerate, "exact statistics by enumeration", _COMMON),
    "simulate": (cmd_simulate, "Monte Carlo run with estimates and CIs", _COMMON + _RUN),
    "verify": (
        cmd_verify,
        "exact + simulation cross checks",
        _COMMON + _RUN + (
            ("--threshold", {
                "type": float, "default": 5.0, "help": "|z| pass threshold for field comparisons",
            }),
        ),
    ),
    "scan": (
        cmd_scan,
        "exact statistics over a failure-probability grid",
        _COMMON + (
            ("--parameter", {
                "required": True, "choices": ("p_a", "p_b", "p_both"),
                "help": "which detector failure probability to sweep",
            }),
            ("--grid", {
                "required": True,
                "help": "comma-separated probabilities in [0, 1), e.g. 0,0.25,0.5 or 0,1/4,1/2",
            }),
        ),
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser with command name's options, and name and its function as
    the command and func of what it parses."""
    func, _, options = _COMMANDS[name]
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(command=name, func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of all four commands, as subcommands."""
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
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    """Run the command argv names (sys.argv[1:] by default) and return its
    exit code. Each call builds one parser: when argv starts with a
    command's name, that command's own, whose help, usage and errors read
    as those of its subcommand in build_parser (but an unrecognized
    argument is reported under the command's usage line, not merminsim's);
    else build_parser, for --help, --version and a missing or unknown
    command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"merminsim {argv[0]}"), argv[0])
        args = parser.parse_args(argv[1:])
    else:
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
