"""Every CLI output on the six configs, diffed against captured files.

table1_uniform and explicit_entries were captured before the statistics
were declared over the cell codec; lossy_table1 (failure probabilities
1/5 and 1/10) pins the failure-position cells, eta_f < 1 and the switch
thresholds at p > 0. two_one_uniform, all_eight_uniform and
single_gnr_ggr were captured before the cell codec became digits and
letters; single_gnr_ggr fails its settings-independence check, so its
verify exits 3.

tests/golden/<config>/<command>/ holds stdout, the exit code and each
report file except run_manifest.json (its timestamp changes per run).
The out-dir and config paths are masked, so the files do not depend on
where the repository lives.
"""

from pathlib import Path

import pytest

from merminsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = (
    "table1_uniform",
    "explicit_entries",
    "lossy_table1",
    "two_one_uniform",
    "all_eight_uniform",
    "single_gnr_ggr",
)
COMMANDS = {
    "enumerate": [],
    "simulate": ["--n", "20000", "--seed", "1"],
    "verify": ["--n", "20000", "--seed", "1"],
    "scan": ["--parameter", "p_both", "--grid", "0,1/3,0.99"],
}


def run_command(config: str, command: str, tmp_path: Path, capsys) -> dict[str, str]:
    """stdout, exit code and report files of one command, paths masked."""
    cfg = ROOT / "configs" / f"{config}.json"
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out-dir", str(out), *COMMANDS[command]])

    def mask(text: str) -> str:
        return text.replace(str(out), "<OUT>").replace(str(cfg), "<CONFIG>")

    outputs = {"stdout": mask(capsys.readouterr().out), "exit": f"{code}\n"}
    for path in sorted(out.iterdir()):
        if path.name != "run_manifest.json":
            outputs[path.name] = mask(path.read_text(encoding="utf-8"))
    return outputs


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("config", CONFIGS)
def test_outputs_match_golden(tmp_path, capsys, config, command):
    golden = GOLDEN / config / command
    expected = {path.name: path.read_text(encoding="utf-8") for path in sorted(golden.iterdir())}
    assert run_command(config, command, tmp_path, capsys) == expected
