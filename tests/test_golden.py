"""Every CLI output on the ten configs, diffed against captured files.

table1_uniform and explicit_entries were captured before the statistics
were declared over the cell codec; lossy_table1 (failure probabilities
1/5 and 1/10) pins the failure-position cells, eta_f < 1 and the switch
thresholds at p > 0. two_one_uniform, all_eight_uniform and
single_gnr_ggr were captured before the cell codec became digits and
letters; single_gnr_ggr fails its settings-independence check, so its
verify exits 3. mixed_weights (27 entries, p_a = 1/6 and p_b = 0.05) was
captured before the source was built in one integer pass: its weights mix
"num/den" strings over different denominators, JSON decimals, decimal and
exponent strings and a zero, and its verify exits 3 too.
dense_all_states (all 27 x 27 pair states, integer weights over one
denominator, p_a = 1/5 and p_b = 1/10, like the benchmark's dense source)
was captured before a pair state became its text and the cell masses
were grouped by side A's instruction set. The scan_p_a and scan_p_b cases
sweep one detector while the other keeps its configured failure
probability; they were captured before scan evaluated each grid point
from the source's failure-class sums.
table1_lossy_99 (both failure probabilities 99/100) and single_nnn_nnn
(builtin single, state NNN-NNN) were captured before the comparison and
independence results became plain values. table1_lossy_99's verify
exits 3: eight of its comparison rows carry the note "zero variance but
values differ" (six under rng_scheme 4). single_nnn_nnn has no double flash, so p_same_case_a
and p_same_case_b are undefined: enumerate prints "undefined" and writes
a null fraction, scan leaves those cells empty, and verify exits 3 on
"no coincidences in tally".

The simulate and verify goldens of the eight sources with more than one
pair state were regenerated for rng_scheme 5, which draws each trial's
cell from the oracle's 144-cell law; every verdict and exit code stayed
as it was. single_gnr_ggr and single_nnn_nnn did not change: with one
pair state, scheme 4's joint codes were already the cells in codec order.

tests/golden/<config>/<case>/ holds stdout, the exit code and each
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
    "mixed_weights",
    "dense_all_states",
    "table1_lossy_99",
    "single_nnn_nnn",
)
# Each case's command and its arguments after --config and --out-dir.
CASES = {
    "enumerate": ("enumerate", []),
    "simulate": ("simulate", ["--n", "20000", "--seed", "1"]),
    "verify": ("verify", ["--n", "20000", "--seed", "1"]),
    "scan": ("scan", ["--parameter", "p_both", "--grid", "0,1/3,0.99"]),
    "scan_p_a": ("scan", ["--parameter", "p_a", "--grid", "0,1/7,0.3,0.5,0.99"]),
    "scan_p_b": ("scan", ["--parameter", "p_b", "--grid", "0,1/7,0.3,0.5,0.99"]),
}


def run_command(config: str, case: str, tmp_path: Path, capsys) -> dict[str, str]:
    """stdout, exit code and report files of one case, paths masked."""
    cfg = ROOT / "configs" / f"{config}.json"
    out = tmp_path / "out"
    command, extra = CASES[case]
    code = main([command, "--config", str(cfg), "--out-dir", str(out), *extra])

    def mask(text: str) -> str:
        return text.replace(str(out), "<OUT>").replace(str(cfg), "<CONFIG>")

    outputs = {"stdout": mask(capsys.readouterr().out), "exit": f"{code}\n"}
    for path in sorted(out.iterdir()):
        if path.name != "run_manifest.json":
            outputs[path.name] = mask(path.read_text(encoding="utf-8"))
    return outputs


@pytest.mark.parametrize("command", list(CASES))
@pytest.mark.parametrize("config", CONFIGS)
def test_outputs_match_golden(tmp_path, capsys, config, command):
    golden = GOLDEN / config / command
    expected = {path.name: path.read_text(encoding="utf-8") for path in sorted(golden.iterdir())}
    assert run_command(config, command, tmp_path, capsys) == expected
