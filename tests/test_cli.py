import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import random
import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from merminsim import __version__, cli
from merminsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    load_config,
    main,
)
from merminsim.exact import failure_class_sums, stats_of, sums_at
from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    STATISTICS,
    ConfigurationError,
    builtin_distribution,
    exact_bit_bound,
)
from test_exact_reference import failure_probabilities, random_sources


class Raw(str):
    """A JSON value that write_config writes as it is, such as the literal
    1e4300, which no float holds."""


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "source": {"builtin": "table1_uniform"},
        "detector_a": {"failure_probability": 0},
        "detector_b": {"failure_probability": 0},
        "seed": 1,
        "n_trials": 20000,
    }
    doc.update(overrides)
    path = tmp_path / name
    members = (
        f"{json.dumps(k)}: {v if isinstance(v, Raw) else json.dumps(v)}" for k, v in doc.items()
    )
    path.write_text("{" + ", ".join(members) + "}")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_builtin_and_defaults(self, tmp_path):
        path = write_config(tmp_path)
        config, doc = load_config(path)
        assert len(config.source.entries) == 12
        assert doc["seed"] == 1

    def test_entries_with_exact_decimals(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "source": {
                        "entries": [
                            {"state": "GNR-GGR", "weight": 0.5},
                            {"state": "GGR-GNR", "weight": "1/2"},
                        ]
                    }
                }
            )
        )
        config, _ = load_config(path)
        weights = [w for _, w in config.source.entries]
        assert weights == [Fraction(1, 2), Fraction(1, 2)]

    def test_decimal_detector_probability_is_exact(self, tmp_path):
        path = write_config(tmp_path, detector_a={"failure_probability": 0.1})
        config, _ = load_config(path)
        assert config.detector_a.failure_probability == Fraction(1, 10)

    def test_diagnostics_name_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="broken.json"):
            load_config(path)


class TestEnumerate:
    def test_writes_reports_with_exact_fractions(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["enumerate", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "1/1" in stdout and "1/4" in stdout and "5/6" in stdout

        stats = json.loads((out / "case_stats.json").read_text())
        assert stats["p_same_case_a"]["fraction"] == "1/1"
        assert stats["p_same_case_b"]["fraction"] == "1/4"
        assert stats["eta_a"]["fraction"] == "5/6"
        assert all(
            cell["fraction"] == "2/3" for cell in stats["coincidence_rate"].values()
        )

        rows = read_rows(out / "joint_table.csv")
        assert len(rows) == 144
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_one_case_b_one_third(self, tmp_path):
        cfg = write_config(tmp_path, source={"builtin": "two_one_uniform"})
        out = tmp_path / "out"
        assert main(["enumerate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        stats = json.loads((out / "case_stats.json").read_text())
        assert stats["p_same_case_b"]["fraction"] == "1/3"

    def test_weight_sum_mismatch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps({"source": {"entries": [{"state": "GGR-GGR", "weight": 0.5}]}})
        )
        code = main(["enumerate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: source.entries: weights sum to 1/2 ")

    def test_corrupt_json_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{]")
        assert main(["enumerate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["enumerate", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_unknown_builtin_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, source={"builtin": "mystery"})
        assert main(["enumerate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_bad_probability_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, detector_a={"failure_probability": 1.5})
        assert main(["enumerate", "--config", str(cfg)]) == EXIT_CONFIG


class TestSimulate:
    def test_reports_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(cfg), "--n", "50000", "--seed", "1",
             "--streams", "2", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        assert "simulated 50000 trials" in capsys.readouterr().out

        rows = read_rows(out / "tally.csv")
        assert len(rows) == 144
        assert sum(int(r["count"]) for r in rows) == 50000

        stats = json.loads((out / "mc_stats.json").read_text())
        ci = stats["p_same_case_b"]["ci95"]
        assert ci[0] < 0.25 < ci[1]
        assert stats["n_trials"] == 50000

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["n_trials"] == 50000
        assert manifest["n_streams"] == 2
        assert manifest["version"]
        assert manifest["timestamp"]
        assert manifest["config"]["source"]["builtin"] == "table1_uniform"
        assert set(manifest["outputs"]) == {"tally_csv", "stats_json"}
        assert manifest["rng_scheme"] == 5

    def test_n_zero_is_fine(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--n", "0", "--out-dir", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "tally.csv")
        assert sum(int(r["count"]) for r in rows) == 0
        stats = json.loads((out / "mc_stats.json").read_text())
        assert stats["p_same_case_b"]["value"] is None

    def test_stream_count_does_not_change_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out8 = tmp_path / "s1", tmp_path / "s8"
        for streams, out in (("1", out1), ("8", out8)):
            assert (
                main(
                    ["simulate", "--config", str(cfg), "--n", "30000", "--seed", "5",
                     "--streams", streams, "--out-dir", str(out)]
                )
                == EXIT_OK
            )
        assert (out1 / "tally.csv").read_bytes() == (out8 / "tally.csv").read_bytes()
        assert (out1 / "mc_stats.json").read_bytes() == (out8 / "mc_stats.json").read_bytes()

    def test_reruns_byte_identical_outside_manifest_timestamp(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        args = ["simulate", "--config", str(cfg), "--n", "10000", "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        first = {
            name: (out / name).read_bytes()
            for name in ("tally.csv", "mc_stats.json", "run_manifest.json")
        }
        assert main(args) == EXIT_OK
        assert (out / "tally.csv").read_bytes() == first["tally.csv"]
        assert (out / "mc_stats.json").read_bytes() == first["mc_stats.json"]
        m1 = json.loads(first["run_manifest.json"])
        m2 = json.loads((out / "run_manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_defaults_come_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_trials=1234, seed=99)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert "simulated 1234 trials (seed 99" in capsys.readouterr().out

    def test_a_flag_overrides_a_default_past_the_digit_limit(self, tmp_path):
        # The manifest records the overridden field by its order of magnitude.
        cfg = write_config(tmp_path, n_trials=Raw("1e4300"))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--n", "10", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["n_trials"] == 10
        assert manifest["config"]["n_trials"] == "about 10^4300"

    def test_integral_decimal_defaults_are_read_as_integers(self, tmp_path, capsys):
        # The loader reads 5.0 and 2e2 exactly, as the Fractions 5 and 200.
        cfg = write_config(tmp_path, n_trials=2e2, seed=5.0)
        assert '"seed": 5.0' in cfg.read_text() and '"n_trials": 200.0' in cfg.read_text()
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        assert "simulated 200 trials (seed 5," in capsys.readouterr().out


class TestVerify:
    def test_table1_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["verify", "--config", str(cfg), "--n", "100000", "--seed", "1",
             "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "PASS mc-vs-exact" in stdout
        assert "PASS settings-independence" in stdout
        assert "PASS detector-invariance" in stdout
        assert "NOTE mermin-target" in stdout and "matches" in stdout

        report = json.loads((out / "verify_report.json").read_text())
        assert all(check["passed"] for check in report["checks"])
        assert report["mermin_target"]["matches"] is True

    def test_two_one_flags_the_gap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, source={"builtin": "two_one_uniform"})
        out = tmp_path / "out"
        code = main(
            ["verify", "--config", str(cfg), "--n", "50000", "--out-dir", str(out)]
        )
        stdout = capsys.readouterr().out
        assert code == EXIT_OK  # pipeline checks pass; the gap is informational
        assert "conundrum" in stdout
        report = json.loads((out / "verify_report.json").read_text())
        assert report["mermin_target"]["case_b"] == "1/3"
        assert report["mermin_target"]["matches"] is False

    def test_unattainable_threshold_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(
            ["verify", "--config", str(cfg), "--n", "20000", "--seed", "1",
             "--threshold", "1e-9", "--out-dir", str(tmp_path / "out")]
        )
        assert code == EXIT_VERIFY
        assert "FAIL mc-vs-exact" in capsys.readouterr().out

    def test_independence_p_value_at_alpha_fails(self, tmp_path, capsys, monkeypatch):
        # A p-value equal to alpha is not above it.
        real = cli.settings_independence_test
        monkeypatch.setattr(
            cli,
            "settings_independence_test",
            lambda tally: {**real(tally), "p_value": cli.INDEPENDENCE_ALPHA},
        )
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert "FAIL settings-independence" in stdout
        assert "PASS mc-vs-exact" in stdout
        assert code == EXIT_VERIFY

    def test_no_coincidences_fails_settings_independence(self, tmp_path, capsys):
        # With both sides always failed, no trial is a double flash: there
        # is nothing for the chi-square test to read.
        cfg = write_config(
            tmp_path,
            detector_a={"failure_probability": 1},
            detector_b={"failure_probability": 1},
        )
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--n", "1000", "--seed", "1",
                     "--out-dir", str(out)])
        assert code == EXIT_VERIFY
        stdout = capsys.readouterr().out
        assert "PASS mc-vs-exact" in stdout
        assert "FAIL settings-independence: no coincidences in tally\n" in stdout
        assert "PASS detector-invariance" in stdout
        report = json.loads((out / "verify_report.json").read_text())
        assert report["independence"] is None
        assert [check["passed"] for check in report["checks"]] == [True, False, True]

    def test_lines_and_report_follow_the_check_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["verify", "--config", str(write_config(tmp_path)), "--n", "2000",
              "--out-dir", str(out)])
        lines = capsys.readouterr().out.splitlines()
        verdicts = [line.split(":")[0].split(" ") for line in lines
                    if line.startswith(("PASS ", "FAIL "))]
        report = json.loads((out / "verify_report.json").read_text())
        assert [name for _, name in verdicts] == list(cli.VERIFY_CHECKS)
        assert [check["name"] for check in report["checks"]] == list(cli.VERIFY_CHECKS)
        assert [verdict == "PASS" for verdict, _ in verdicts] == [
            check["passed"] for check in report["checks"]
        ]

    def test_corrupt_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[]")
        assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG

    def test_names_the_field_of_the_worst_z(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--config", str(write_config(tmp_path)), "--n", "20000",
                     "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        scored = [row for row in report["comparison"] if row["z"] is not None]
        worst = max(scored, key=lambda row: abs(row["z"]))
        detail = f"worst |z| = {abs(worst['z']):.2f} ({worst['name']}),"
        assert detail in report["checks"][0]["detail"]
        assert detail in capsys.readouterr().out

    def test_an_oracle_with_p_a_on_both_sides_fails_detector_invariance(
        self, tmp_path, capsys, monkeypatch
    ):
        # Such an oracle agrees with itself wherever p_a = p_b; at
        # lossy_table1's own (1/5, 1/10) the failure classes tell it apart.
        real = cli.enumerate_joint
        monkeypatch.setattr(
            cli,
            "enumerate_joint",
            lambda config: real(dataclasses.replace(config, detector_b=config.detector_a)),
        )
        cfg = Path(__file__).resolve().parents[1] / "configs" / "lossy_table1.json"
        code = main(["verify", "--config", str(cfg), "--n", "2000", "--seed", "1",
                     "--out-dir", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert "FAIL detector-invariance:" in stdout
        assert stdout.split("detector-invariance: ")[1].split("\n")[0].endswith("; BROKEN: oracle")
        assert code == EXIT_VERIFY


class TestScan:
    def test_p_both_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["scan", "--config", str(cfg), "--parameter", "p_both",
             "--grid", "0,0.25,0.5", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        rows = read_rows(out / "scan.csv")
        assert [r["p"] for r in rows] == ["0.0", "0.25", "0.5"]
        # case-b stays pinned while eta scales as (1 - p) * 5/6
        assert all(float(r["p_same_case_b"]) == 0.25 for r in rows)
        for row in rows:
            p = float(row["p"])
            assert float(row["eta_a"]) == pytest.approx((1 - p) * 5 / 6, abs=1e-15)
            assert float(row["eta_u"]) == pytest.approx(5 / 6, abs=1e-15)
        # overall detection peaks at p = 0 and never exceeds 5/6
        etas = [float(r["eta_a"]) for r in rows]
        assert max(etas) == etas[0] == pytest.approx(5 / 6, abs=1e-15)

    def test_two_one_conditionals_constant(self, tmp_path):
        cfg = write_config(tmp_path, source={"builtin": "two_one_uniform"})
        out = tmp_path / "out"
        assert (
            main(
                ["scan", "--config", str(cfg), "--parameter", "p_both",
                 "--grid", "0,1/2", "--out-dir", str(out)]
            )
            == EXIT_OK
        )
        rows = read_rows(out / "scan.csv")
        assert {r["p_same_case_b"] for r in rows} == {repr(1 / 3)}
        assert {r["p_same_case_a"] for r in rows} == {"1.0"}

    def test_one_sided_sweep(self, tmp_path):
        cfg = write_config(tmp_path, detector_b={"failure_probability": "1/10"})
        out = tmp_path / "out"
        assert (
            main(
                ["scan", "--config", str(cfg), "--parameter", "p_a",
                 "--grid", "0,0.5", "--out-dir", str(out)]
            )
            == EXIT_OK
        )
        rows = read_rows(out / "scan.csv")
        # detector B keeps its configured loss while A is swept
        assert all(float(r["eta_b"]) == pytest.approx(0.9 * 5 / 6, abs=1e-15) for r in rows)
        assert float(rows[1]["eta_a"]) == pytest.approx(0.5 * 5 / 6, abs=1e-15)

    def test_grid_value_at_or_above_one_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        for grid in ("0,1", "0,1.5", "0.2,-0.1"):
            assert (
                main(["scan", "--config", str(cfg), "--parameter", "p_both", "--grid", grid])
                == EXIT_CONFIG
            )

    def test_header_column_order(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["scan", "--config", str(cfg), "--parameter", "p_both", "--grid", "0", "--out-dir", str(out)])
        header = (out / "scan.csv").read_text().splitlines()[0]
        assert header == "p,eta_a,eta_b,eta_u,p_same_case_a,p_same_case_b,mean_coincidence_rate"


def oracle_cell(value):
    """A scan.csv cell as scan rendered an exact value through a Fraction:
    its float's repr, or empty where it is undefined."""
    return "" if value is None else repr(float(value))


def assert_scan_is_the_oracle(source, p_a, p_b, parameter, grid):
    """scan's stdout and scan.csv on source, at failure probabilities p_a
    and p_b, hold on every row each column's exact value from stats_of,
    rendered by oracle_cell. Returns the rows' cells."""
    doc = {
        "source": {"entries": [{"state": s, "weight": str(w)} for s, w in source.entries]},
        "detector_a": {"failure_probability": str(p_a)},
        "detector_b": {"failure_probability": str(p_b)},
    }
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["scan", "--config", str(cfg), "--parameter", parameter,
                f"--grid={','.join(map(str, grid))}", "--out-dir", tmp]
        assert main(argv) == EXIT_OK
        lines = (Path(tmp) / "scan.csv").read_text().splitlines()
    assert stdout.getvalue().splitlines()[:-1] == lines
    classes = failure_class_sums(source)
    for p, line in zip(grid, lines[1:], strict=True):
        stats = stats_of(sums_at(classes, p if parameter != "p_b" else p_a,
                                 p if parameter != "p_a" else p_b))
        rates = [stats[stat.label] for stat in STATISTICS if stat.key is not None]
        values = [p, *(stats[name] for name in
                       ("eta_a", "eta_b", "eta_u_a", "p_same_case_a", "p_same_case_b")),
                  sum(rates) / 9]
        assert line.split(",") == [oracle_cell(value) for value in values]
    return [line.split(",") for line in lines[1:]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    source=random_sources(),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
    parameter=st.sampled_from(("p_a", "p_b", "p_both")),
    grid=st.lists(failure_probabilities.filter(lambda p: p < 1), min_size=1, max_size=4),
)
def test_scan_cells_are_the_exact_values_as_floats(source, p_a, p_b, parameter, grid):
    assert_scan_is_the_oracle(source, p_a, p_b, parameter, grid)


def test_scan_leaves_eta_u_and_the_case_cells_empty_where_detector_a_always_fails():
    # At p_a = 1 detector A never selects a setting, so eta_u and both
    # case rates are undefined on every row.
    source = builtin_distribution("table1_uniform")
    grid = (Fraction(0), Fraction(1, 3))
    rows = assert_scan_is_the_oracle(source, Fraction(1), Fraction(0), "p_b", grid)
    assert [row[3:6] for row in rows] == [["", "", ""]] * len(grid)


class TestRunFlagErrors:
    # (command, extra argv, config fields, text the diagnostic must name)
    CASES = [
        ("simulate", ["--streams", "0"], {}, "--streams"),
        ("simulate", ["--n", str(1 << 60)], {}, "--n"),
        ("verify", ["--threshold", "0"], {}, "--threshold"),
        ("verify", ["--threshold", "inf"], {}, "--threshold must be positive and finite, got inf"),
        # argparse takes a bare -inf after --threshold for an option.
        ("verify", ["--threshold=-inf"], {}, "--threshold must be positive and finite, got -inf"),
        # float reads 1e309 as inf.
        ("verify", ["--threshold", "1e309"], {}, "--threshold must be positive and finite, got inf"),
        ("verify", ["--threshold", "nan"], {}, "--threshold must be positive and finite, got nan"),
        ("simulate", ["--seed", "-1"], {}, "--seed"),
        ("verify", ["--seed", str(1 << 64)], {}, "--seed"),
        ("simulate", [], {"seed": 1 << 64}, "cfg.json: seed"),
        ("simulate", [], {"seed": None}, "cfg.json: seed: expected an integer"),
        ("verify", [], {"n_trials": -1}, "cfg.json: n_trials"),
        ("simulate", [], {"seed": True}, "cfg.json: seed: expected an integer, got True"),
        ("verify", [], {"n_trials": False}, "cfg.json: n_trials: expected an integer, got False"),
        ("simulate", [], {"seed": 1.5}, "cfg.json: seed: expected an integer, got 3/2"),
        # Values with a part past the int digit limit read by their order of magnitude.
        ("simulate", [], {"seed": Raw("1e4300")},
         "cfg.json: seed must be in [0, 2^64), got about 10^4300"),
        ("simulate", [], {"n_trials": Raw("1e4300")},
         "cfg.json: n_trials must be in [0, 2^60), got about 10^4300"),
        ("simulate", [], {"seed": Raw("1e-4300")},
         "cfg.json: seed: expected an integer, got about 10^-4300"),
        ("verify", [], {"seed": Raw("[1e4300]")},
         "cfg.json: seed: expected an integer, got a list holding a number past the int digit"),
    ]

    @pytest.mark.parametrize(
        "command, extra, fields, named", CASES, ids=[case[-1] for case in CASES]
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, command, extra, fields, named):
        cfg = write_config(tmp_path, **{"n_trials": 1000, **fields})
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *extra]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out").exists()


class TestConfigFieldErrors:
    # (config text, text the diagnostic must name); the decimal exponents
    # would take hours to expand if parsed as written.
    CASES = [
        ('{"source": {"entries": [{"state": 123, "weight": 1}]}}', "source.entries[0].state"),
        ('{"source": {"builtin": "single", "state": 5}}', "source.state"),
        ('{"source": {"builtin": 5}}', "source.builtin"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": 1e999999999}]}}',
         "source.entries[0].weight"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": "1e999999999"}]}}',
         "source.entries[0].weight"),
        ('{"source": {"builtin": "table1_uniform"}, "n_trials": 1e-999999999}', "n_trials"),
        # The loader's nesting limit is 64 levels, the top-level object
        # being level 1: the 64th list inside source is the first too deep.
        ('{"source": ' + "[" * 64 + "]" * 64 + "}",
         "source" + "[0]" * 63 + ": nested deeper than 64 levels"),
        ('{"source": ' + "[" * 900 + "]" * 900 + "}",
         "source" + "[0]" * 63 + ": nested deeper than 64 levels"),
        ('{"source": {"entries": [' + '{"a": ' * 62 + "1" + "}" * 62 + "]}}",
         "source.entries[0]" + ".a" * 61 + ": nested deeper than 64 levels"),
        ('{"source": ' + "[" * 5000 + "]" * 5000 + "}", ": nested deeper than 64 levels"),
        ('{"source": ' + "[" * 63 + "]" * 63 + "}", "source: expected an object"),
        ('{"source": {"builtin": "table1_uniform"}, "n_trial": 5}', "n_trial: unknown field"),
        ('{"source": {"builtin": "table1_uniform"}, "detector_a": {"failure_probabilty": 0.5}}',
         "detector_a.failure_probabilty: unknown field"),
        ('{"source": {"entries": [' + '{"state": "GGR-GGR", "weight": "1/4"}, ' * 3
         + '{"state": "RRG-RRG", "wieght": "1/4"}]}}', "source.entries[3].wieght: unknown field"),
        ('{"source": {"bultin": "table1_uniform"}}', "source.bultin: unknown field"),
        ('{"source": {"builtin": "table1_uniform", "state": "GGR-GGR"}}', "source.state: only"),
        ('{"source": {"builtin": "table1_uniform", "entries": []}}', "source.entries: not allowed"),
        ('{"source": {"builtin": "table1_uniform"}, "seed": 3, "seed": 4}', "seed: duplicate field"),
        ('{"source": {"builtin": "table1_uniform"}, '
         '"detector_a": {"failure_probability": "1/2", "failure_probability": 0}}',
         "detector_a.failure_probability: duplicate field"),
        ('{"source": {"builtin": "single:GNR-GGR"}}',
         "unknown builtin distribution 'single:GNR-GGR'"),
        ('{"source": {"builtin": "nope"}}', "source.builtin: unknown builtin"),
        ('{"source": {"builtin": "single", "state": "GGX-GGG"}}',
         "source.state: unknown outcome letter 'X'"),
        ('{"source": {"entries": [{"state": "GGX-GGG", "weight": 1}]}}',
         "source.entries[0].state: unknown outcome letter 'X'"),
        ('{"source": {"entries": [{"state": "GG-GGG", "weight": 1}]}}',
         "source.entries[0].state: instruction set text must be 3 letters"),
        ('{"source": {"entries": [{"state": "GGGGGG", "weight": 1}]}}',
         "source.entries[0].state: pair state text must look like XXX-YYY"),
        ('{"source": {"entries": []}}', "source.entries: has no entries"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": "1/2"}]}}',
         "source.entries: weights sum to 1/2"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": "3/2"}, '
         '{"state": "GNR-GGR", "weight": "-1/2"}]}}', "source.entries[1].weight: has negative"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": "1/2"}, '
         '{"state": "GGR-GGR", "weight": "1/2"}]}}', "source.entries[1].state: duplicates"),
        ('{"source": {"builtin": "table1_uniform"}, "se\\ned": 1}', '"se\\ned": unknown field'),
        ('{"source": {"builtin": "table1_uniform"}, "se\\ned": 1, "se\\ned": 2}',
         '"se\\ned": duplicate field'),
        ('{"source": {"entries": {}}}', "source.entries: expected a list"),
        ('{"source": {"entries": [5]}}',
         "source.entries[0]: expected an object with state and weight"),
        ('{"source": {"builtin": "table1_uniform"}, "detector_a": {"failure_probability": null}}',
         "detector_a.failure_probability: cannot interpret None as a rational"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": null}]}}',
         "source.entries[0].weight: cannot interpret None as a rational"),
        # True == 1 and they hash alike; a bool is no weight beside a 1 either.
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": 1}, '
         '{"state": "RRG-RRG", "weight": true}]}}',
         "source.entries[1].weight: cannot interpret True as a probability"),
        # Values with a part past the int digit limit, or past the float
        # range, read by their order of magnitude.
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": 1e400}]}}',
         "source.entries: weights sum to about 10^400, expected 1"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": 1e4300}]}}',
         "source.entries: weights sum to about 10^4300, expected 1"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": -1e4300}]}}',
         "source.entries[0].weight: has negative weight about -10^4300"),
        ('{"source": {"builtin": "table1_uniform"}, "detector_a": {"failure_probability": 1e4300}}',
         "detector_a.failure_probability: failure probability about 10^4300 outside [0, 1]"),
        ('{"source": {"builtin": 1e4300}}', "source.builtin: unknown builtin distribution about"),
        ('{"source": {"entries": [{"state": [1e4300], "weight": 1}]}}',
         "source.entries[0].state: expected a pair state, got a list holding a number past"),
        ('{"source": {"entries": [{"state": "GGR-GGR", "weight": {"a": 1e-4300}}]}}',
         "source.entries[0].weight: cannot interpret a dict holding a number past"),
    ]
    SCAN = ["--parameter", "p_both", "--grid", "0,0.5"]

    @pytest.mark.parametrize("command", ["enumerate", "scan", "verify"])
    @pytest.mark.parametrize(
        "text, named", CASES, ids=[f"{i}-{case[-1].replace(' ', '-')}" for i, case in enumerate(CASES)]
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv + (self.SCAN if command == "scan" else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_huge_grid_exponent_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["scan", "--config", str(cfg), "--parameter", "p_both",
                "--grid", "0,1e-999999999", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --grid:") and "1e-999999999" in err
        assert not (tmp_path / "out").exists()

    def test_grid_value_past_the_digit_limit_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["scan", "--config", str(cfg), "--parameter", "p_both",
                "--grid", "0,1e4300", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: --grid: value about 10^4300 outside [0, 1)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grid, shown_as",
        [("1e-4300", "about 10^-4300"), (f"1/{1 << exact_bit_bound()}", None)],
        ids=["1e-4300", "one-bit-past"],
    )
    def test_grid_value_past_the_exact_input_bound_exits_2_naming_the_flag(
        self, tmp_path, capsys, grid, shown_as
    ):
        cfg = write_config(tmp_path)
        argv = ["scan", "--config", str(cfg), "--parameter", "p_a",
                f"--grid={grid}", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --grid: value {shown_as or grid}: denominator has more than "
            f"{exact_bit_bound()} bits, the bound on exact input\n"
        )
        assert not (tmp_path / "out").exists()

    def test_grid_value_at_the_exact_input_bound_is_swept(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        # An odd numerator over 2^(bound - 1): a denominator of bound bits.
        den = 1 << (exact_bit_bound() - 1)
        grid = f"{den // 3 | 1}/{den}"
        assert main(["scan", "--config", str(cfg), "--parameter", "p_a",
                     f"--grid={grid}", "--out-dir", str(out)]) == EXIT_OK
        assert [row["p"] for row in read_rows(out / "scan.csv")] == [repr(1 / 3)]

    def test_empty_grid_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["scan", "--config", str(cfg), "--parameter", "p_both",
                "--grid", ",", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --grid: no values given\n"
        assert not (tmp_path / "out").exists()


ALL_STATES = [f"{a}-{b}" for a, b in itertools.product(ALL_INSTRUCTION_SETS, repeat=2)]


def tiny_weights_source(count, digits, seed):
    """One pair state at weight 1 and count more at "1/d", each d a random
    number of the given digits: every weight reads, and the weights sum to
    1 within the tolerance, but their common denominator is about the
    product of the d's."""
    rng = random.Random(seed)
    entries = [{"state": ALL_STATES[0], "weight": 1}]
    entries += [
        {"state": state, "weight": f"1/{rng.randrange(10 ** (digits - 1), 10 ** digits)}"}
        for state in ALL_STATES[1 : count + 1]
    ]
    return {"entries": entries}


def random_denominator(rng, bits):
    return rng.getrandbits(bits) | 1 << (bits - 1) | 1


def source_of_bits(bits, seed):
    """All 729 pair states at weights k/d, the k's random cuts of d, a
    random odd number of the given bits: the weights' common denominator
    is d."""
    rng = random.Random(seed)
    d = random_denominator(rng, bits)
    cuts = sorted(rng.randrange(1, d) for _ in ALL_STATES[1:])
    ks = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
    return {"entries": [{"state": s, "weight": f"{k}/{d}"} for s, k in zip(ALL_STATES, ks)]}


def detector_of_bits(bits, seed):
    rng = random.Random(seed)
    return {"failure_probability": f"{rng.getrandbits(bits - 1)}/{random_denominator(rng, bits)}"}


class TestExactInputBound:
    # Each source below passed the loader before the bound. The first two
    # ended enumerate and verify in a traceback, as an exact field's
    # numerator passed the digit limit of str(int); enumerate ran past
    # 120 s on the third.
    PAST = [(50, 400, 4), (200, 1000, 2), (728, 4000, 1)]

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    @pytest.mark.parametrize("count, digits, index", PAST, ids=[f"{c}x{d}" for c, d, _ in PAST])
    def test_source_past_the_bound_exits_2_fast(
        self, tmp_path, capsys, command, count, digits, index
    ):
        cfg = write_config(tmp_path, source=tiny_weights_source(count, digits, seed=digits))
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        start = time.perf_counter()
        assert main(argv) == EXIT_CONFIG
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().err == (
            f"config error: {cfg}: source.entries: the weights' common denominator has more "
            f"than {exact_bit_bound()} bits at entries[{index}], the bound on exact input\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["detector_a", "detector_b"])
    def test_failure_probability_past_the_bound_exits_2(self, tmp_path, capsys, side):
        cfg = write_config(tmp_path, **{side: detector_of_bits(exact_bit_bound() + 1, seed=5)})
        argv = ["enumerate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {cfg}: {side}.failure_probability: denominator has more than "
            f"{exact_bit_bound()} bits, the bound on exact input\n"
        )

    @pytest.mark.parametrize("limit", [4300, 640], ids=["default-limit", "least-limit"])
    def test_input_at_the_bound_renders_every_exact_field(self, tmp_path, capsys, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            bits = exact_bit_bound()
            cfg = write_config(
                tmp_path,
                source=source_of_bits(bits, seed=4),
                detector_a=detector_of_bits(bits, seed=6),
                detector_b=detector_of_bits(bits, seed=7),
                seed=3,
            )
            for command in ("enumerate", "verify"):
                out = tmp_path / command
                assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
                text = next(out.glob("*.json")).read_text()
                parts = re.findall(r'"(\d+)/(\d+)"', text)
                longest = max(len(part) for pair in parts for part in pair)
                # The bound leaves under 1% of the limit unused.
                assert 0.99 * limit < longest <= limit
        finally:
            sys.set_int_max_str_digits(saved)
        capsys.readouterr()


class TestUnprintableConfigPath:
    # (command, config fields, text the diagnostic must name after the
    # path); a config path holding a newline is quoted as JSON, so the
    # diagnostic stays on one stderr line.
    CASES = [
        ("enumerate", {"source": {"builtin": "nope"}}, "source.builtin: unknown builtin"),
        ("simulate", {"seed": "x"}, "seed: expected an integer, got 'x'"),
    ]

    @pytest.mark.parametrize("command, fields, named", CASES, ids=[case[0] for case in CASES])
    def test_diagnostic_stays_on_one_line(self, tmp_path, capsys, command, fields, named):
        (tmp_path / "nl").mkdir()
        cfg = write_config(tmp_path, name="nl/a\nb.json", **fields)
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {json.dumps(str(cfg))}: {named}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestAtomicReports:
    def test_failed_write_keeps_the_earlier_report(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["enumerate", "--config", str(cfg), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        class HalfThenFail:
            """A report file whose first write stops half way."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        real_open = open
        monkeypatch.setattr(
            cli, "open", lambda *args, **kwargs: HalfThenFail(real_open(*args, **kwargs)),
            raising=False,
        )
        assert main(argv) == EXIT_IO
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_write_replaces_no_report_of_the_set(self, tmp_path, monkeypatch):
        # The second run writes case_stats.json (case-b 1/3) before its
        # joint_table.csv fails; neither may replace the first run's file.
        out = tmp_path / "out"
        first = write_config(tmp_path, "first.json", source={"builtin": "table1_uniform"})
        assert main(["enumerate", "--config", str(first), "--out-dir", str(out)]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def failing_writer(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("merminsim.cli.csv.writer", failing_writer)
        second = write_config(tmp_path, "second.json", source={"builtin": "two_one_uniform"})
        assert main(["enumerate", "--config", str(second), "--out-dir", str(out)]) == EXIT_IO
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestExitCodes:
    # (case, commands, expected exit code); every command runs on a
    # 20000-trial table1_uniform config unless the case changes it.
    COMMANDS = ("enumerate", "simulate", "verify", "scan")
    TABLE = [
        ("good-config", COMMANDS, EXIT_OK),
        ("missing-config", COMMANDS, EXIT_IO),
        ("out-dir-is-a-file", COMMANDS, EXIT_IO),
        ("bad-config", COMMANDS, EXIT_CONFIG),
        ("unattainable-threshold", ("verify",), EXIT_VERIFY),
    ]
    CASES = [(command, case, code) for case, commands, code in TABLE for command in commands]

    @pytest.mark.parametrize(
        "command, case, code", CASES, ids=[f"{command}-{case}" for command, case, _ in CASES]
    )
    def test_exit_code(self, tmp_path, command, case, code):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        extra = ["--parameter", "p_both", "--grid", "0,1/2"] if command == "scan" else []
        if case == "missing-config":
            cfg = tmp_path / "missing.json"
        elif case == "out-dir-is-a-file":
            out.write_text("")
        elif case == "bad-config":
            cfg.write_text('{"source": {"builtin": "nope"}}')
        elif case == "unattainable-threshold":
            extra = ["--threshold", "1e-9"]
        assert main([command, "--config", str(cfg), "--out-dir", str(out), *extra]) == code


# The error contract as a property: JSON documents over the loader's field
# names and junk, with exact and inexact numbers, bad texts and nesting,
# run under enumerate, simulate and scan. Every run must end in a
# documented exit code, never in a traceback, and a configuration error in
# one diagnostic line that names no exception class.
KEYS = ("source", "detector_a", "detector_b", "seed", "n_trials", "builtin", "state",
        "entries", "weight", "failure_probability", "n_trial", "", "se\ned")
TEXTS = ("table1_uniform", "two_one_uniform", "single", "GGR-GGR", "GNR-GGR", "NNN-NNN",
         "GGX-GGR", "GGR", "GGR-GGR-GGR", "0.1", "1/3", "-1/2", "1/0", "3/2", "1e-5",
         "1e999999999", "nan", "")
# 1e4300 and 1e-4300 read exactly, but a part of each has one digit more
# than the int digit limit lets str render.
LITERALS = ("null", "true", "false", "NaN", "Infinity", "-Infinity", "-0", "0.5", "1e400",
            "1e4300", "1e-4300", "1e999999999", "1e-999999999", str(1 << 64), "9" * 5000)
# Values that pass the loader, so that some documents reach the engine, and
# one source whose weight sum is past the float range.
GOOD = {
    "source": ('{"builtin": "table1_uniform"}', '{"builtin": "single", "state": "GNR-GGR"}',
               '{"entries": [{"state": "GGR-GGR", "weight": "1/3"}, '
               '{"state": "RRG-NRG", "weight": 0.6666666666666666666}]}',
               '{"entries": [{"state": "GGR-GGR", "weight": 1e400}]}'),
    "detector_a": ('{"failure_probability": "1/5"}', '{"failure_probability": 0.1}'),
    "detector_b": ('{}', '{"failure_probability": 0}'),
    "seed": ("0", "7", str((1 << 64) - 1)),
    "n_trials": ("0", "100"),
}
GRIDS = ("0,1/3,0.99", "0", "1", "0.5,0.5", "", ",", "-0", "1e4300", "1e-4300", "1e-999999999",
         "nan")


def json_texts():
    leaves = st.one_of(
        st.sampled_from(LITERALS),
        st.integers(-2, 1 << 65).map(str),
        st.sampled_from(TEXTS).map(json.dumps),
        st.text(max_size=8).map(json.dumps),
    )

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
            st.lists(st.tuples(st.sampled_from(KEYS), children), max_size=4).map(
                lambda kvs: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in kvs) + "}"
            ),
        )

    return st.recursive(leaves, containers, max_leaves=12)


def documents():
    fields = {key: st.one_of(st.sampled_from(good), json_texts()) for key, good in GOOD.items()}
    optional = {key: value for key, value in fields.items() if key != "source"}
    structured = st.fixed_dictionaries({"source": fields["source"]}, optional=optional).map(
        lambda doc: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in doc.items()) + "}"
    )
    return st.one_of(json_texts(), structured)


def argvs():
    simulate = st.builds(
        lambda n, streams: ["simulate", "--n", str(n), "--streams", str(streams)],
        st.integers(0, 1000),
        st.integers(1, 3),
    )
    scan = st.builds(
        lambda parameter, grid: ["scan", "--parameter", parameter, f"--grid={grid}"],
        st.sampled_from(("p_a", "p_b", "p_both")),
        st.one_of(st.sampled_from(GRIDS), st.text(max_size=8)),
    )
    return st.one_of(st.just(["enumerate"]), simulate, scan)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=documents(), argv=argvs())
def test_any_input_ends_in_a_documented_exit_code(doc, argv):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(doc, encoding="utf-8")
        code = main([argv[0], "--config", str(cfg), "--out-dir", str(Path(tmp) / "out"), *argv[1:]])
    assert code in (EXIT_OK, EXIT_IO, EXIT_CONFIG, EXIT_VERIFY)
    if code == EXIT_CONFIG:
        err = stderr.getvalue()
        assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Error: " not in err


# What each command's parser prints, at a terminal width of 80 columns.
USAGE = {
    "merminsim": "usage: merminsim [-h] [--version] {enumerate,simulate,verify,scan} ...\n",
    "enumerate": "usage: merminsim enumerate [-h] --config CONFIG [--out-dir OUT_DIR]\n",
    "simulate": (
        "usage: merminsim simulate [-h] --config CONFIG [--out-dir OUT_DIR] [--n N]\n"
        "                          [--seed SEED] [--streams STREAMS]\n"
    ),
    "verify": (
        "usage: merminsim verify [-h] --config CONFIG [--out-dir OUT_DIR] [--n N]\n"
        "                        [--seed SEED] [--streams STREAMS]\n"
        "                        [--threshold THRESHOLD]\n"
    ),
    "scan": (
        "usage: merminsim scan [-h] --config CONFIG [--out-dir OUT_DIR] --parameter\n"
        "                      {p_a,p_b,p_both} --grid GRID\n"
    ),
}
HELP = {
    "merminsim": USAGE["merminsim"] + (
        "\n"
        "Exact analysis and Monte Carlo simulation of a three-setting, two-lamp\n"
        "correlation device with detector-failure and no-flash-instruction variants.\n"
        "\n"
        "positional arguments:\n"
        "  {enumerate,simulate,verify,scan}\n"
        "    enumerate           exact statistics by enumeration\n"
        "    simulate            Monte Carlo run with estimates and CIs\n"
        "    verify              exact + simulation cross checks\n"
        "    scan                exact statistics over a failure-probability grid\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n"
    ),
    "enumerate": USAGE["enumerate"] + (
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --config CONFIG    JSON experiment description\n"
        "  --out-dir OUT_DIR  directory for report files\n"
    ),
    "simulate": USAGE["simulate"] + (
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --config CONFIG    JSON experiment description\n"
        "  --out-dir OUT_DIR  directory for report files\n"
        "  --n N              number of trials\n"
        "  --seed SEED        64-bit RNG seed\n"
        "  --streams STREAMS  parallel stream count\n"
    ),
    "verify": USAGE["verify"] + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       JSON experiment description\n"
        "  --out-dir OUT_DIR     directory for report files\n"
        "  --n N                 number of trials\n"
        "  --seed SEED           64-bit RNG seed\n"
        "  --streams STREAMS     parallel stream count\n"
        "  --threshold THRESHOLD\n"
        "                        |z| pass threshold for field comparisons\n"
    ),
    "scan": USAGE["scan"] + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --config CONFIG       JSON experiment description\n"
        "  --out-dir OUT_DIR     directory for report files\n"
        "  --parameter {p_a,p_b,p_both}\n"
        "                        which detector failure probability to sweep\n"
        "  --grid GRID           comma-separated probabilities in [0, 1), e.g.\n"
        "                        0,0.25,0.5 or 0,1/4,1/2\n"
    ),
}


def _error(prog, message):
    return USAGE[prog.rpartition(" ")[2]] + f"{prog}: error: {message}\n"


class TestParseTime:
    # (argv, exit code, stdout, stderr): what argparse does before any
    # command runs. No row reads a config file but the --conf one, which
    # names a missing file.
    CASES = [
        (["--version"], 0, f"merminsim {__version__}\n", ""),
        (["--help"], 0, HELP["merminsim"], ""),
        ([], 2, "", _error("merminsim", "the following arguments are required: command")),
        (["scna"], 2, "", _error(
            "merminsim",
            "argument command: invalid choice: 'scna' "
            "(choose from 'enumerate', 'simulate', 'verify', 'scan')",
        )),
        *[([command, "--help"], 0, HELP[command], "") for command in TestExitCodes.COMMANDS],
        *[
            ([command], 2, "", _error(
                f"merminsim {command}",
                "the following arguments are required: --config"
                + (", --parameter, --grid" if command == "scan" else ""),
            ))
            for command in TestExitCodes.COMMANDS
        ],
        (["scan", "--config", "cfg.json", "--parameter", "p_x", "--grid", "0"], 2, "", _error(
            "merminsim scan",
            "argument --parameter: invalid choice: 'p_x' (choose from 'p_a', 'p_b', 'p_both')",
        )),
        (["simulate", "--config", "cfg.json", "--n", "x"], 2, "",
         _error("merminsim simulate", "argument --n: invalid int value: 'x'")),
        (["verify", "--config", "cfg.json", "--threshold", "x"], 2, "",
         _error("merminsim verify", "argument --threshold: invalid float value: 'x'")),
        (["enumerate", "--conf", "missing.json"], EXIT_IO, "",
         "i/o error: [Errno 2] No such file or directory: 'missing.json'\n"),
        # Each command has its own parser, so this usage line is scan's.
        (["scan", "--config", "cfg.json", "--parameter", "p_a", "--grid", "0", "--bogus"], 2, "",
         _error("merminsim scan", "unrecognized arguments: --bogus")),
    ]

    @pytest.mark.parametrize(
        "argv, code, stdout, stderr", CASES, ids=[" ".join(case[0]) or "-" for case in CASES]
    )
    def test_exit_code_and_output(self, tmp_path, monkeypatch, capsys, argv, code, stdout, stderr):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert (got, *capsys.readouterr()) == (code, stdout, stderr)

    def test_a_command_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfg = write_config(tmp_path)
        argv = ["scan", "--config", str(cfg), "--parameter", "p_both", "--grid", "0,1/2",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert len(built) == 1
