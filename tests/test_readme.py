"""The README's command lines and Library snippet must run against the
current CLI and API, the CSV reports they write must carry the header rows
the README documents, and the package exports exactly the names the README
documents."""

import re
import shlex
import types
from pathlib import Path

import pytest

import merminsim
from merminsim.cli import EXIT_OK, main
from merminsim.montecarlo import RNG_SCHEME

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
COMMANDS = re.findall(r"^merminsim (.*)$", README.read_text(encoding="utf-8"), re.MULTILINE)


# A "Report file columns" line: one or two report files, then their header.
REPORT_COLUMNS = re.compile(r"^((?:`\w+\.csv`(?: and )?)+):\s*`([^`]*)`", re.MULTILINE)


def documented_headers():
    """The header row of each CSV report, as the README's Report file
    columns lines give it; a last column a|b is a in the first file named
    and b in the second."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Report file columns\n", 1)[1].split("\n#", 1)[0]
    headers = {}
    for files, header in REPORT_COLUMNS.findall(section):
        *columns, last = header.split(",")
        names = re.findall(r"`(\w+\.csv)`", files)
        assert len(last.split("|")) == len(names), header
        for name, column in zip(names, last.split("|")):
            headers[name] = [*columns, column]
    return headers


HEADERS = documented_headers()

PUBLIC = {
    "ExperimentConfig",
    "SourceDistribution",
    "DetectorModel",
    "builtin_distribution",
    "CellWeights",
    "merge",
    "ConfigurationError",
    "enumerate_joint",
    "conditional_stats",
    "min_case_b_no_noflash",
    "case_b_same_fraction",
    "SimulationPlan",
    "run_trials",
    "estimate_stats",
    "compare",
}


def test_readme_shows_one_line_per_command():
    assert [line.split()[0] for line in COMMANDS] == ["enumerate", "simulate", "verify", "scan"]


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[0] for line in COMMANDS])
def test_command_line_runs(tmp_path, monkeypatch, capsys, line):
    argv = shlex.split(line)
    argv[argv.index("--out-dir") + 1] = str(tmp_path)
    monkeypatch.chdir(ROOT)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    for path in tmp_path.glob("*.csv"):
        assert path.read_text(encoding="utf-8").splitlines()[0].split(",") == HEADERS[path.name]


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_package_exports_the_documented_names():
    # The engine's names load on first use (PEP 562), so read what the
    # package lists, not what it has loaded so far.
    exported = {
        name
        for name in dir(merminsim)
        if not name.startswith("_") and not isinstance(getattr(merminsim, name), types.ModuleType)
    }
    assert exported == PUBLIC
    text = README.read_text(encoding="utf-8")
    assert [name for name in sorted(PUBLIC) if f"`{name}`" not in text] == []


def test_readme_names_the_recorded_rng_scheme():
    # The Determinism section describes the scheme run_manifest.json records.
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"This is\s+`rng_scheme` (\d+)", text) == [str(RNG_SCHEME)]
