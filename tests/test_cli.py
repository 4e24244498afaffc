import argparse
import contextlib
import csv
import dataclasses
import io
import json
import tempfile
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
from merminsim.model import ConfigurationError


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
    path.write_text(json.dumps(doc))
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
        assert manifest["rng_scheme"] == 3

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
            lambda tally: dataclasses.replace(real(tally), p_value=cli.INDEPENDENCE_ALPHA),
        )
        cfg = write_config(tmp_path)
        code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        stdout = capsys.readouterr().out
        assert "FAIL settings-independence" in stdout
        assert "PASS mc-vs-exact" in stdout
        assert code == EXIT_VERIFY

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
LITERALS = ("null", "true", "false", "NaN", "Infinity", "-Infinity", "-0", "0.5", "1e400",
            "1e999999999", "1e-999999999", str(1 << 64), "9" * 5000)
# Values that pass the loader, so that some documents reach the engine.
GOOD = {
    "source": ('{"builtin": "table1_uniform"}', '{"builtin": "single", "state": "GNR-GGR"}',
               '{"entries": [{"state": "GGR-GGR", "weight": "1/3"}, '
               '{"state": "RRG-NRG", "weight": 0.6666666666666666666}]}'),
    "detector_a": ('{"failure_probability": "1/5"}', '{"failure_probability": 0.1}'),
    "detector_b": ('{}', '{"failure_probability": 0}'),
    "seed": ("0", "7", str((1 << 64) - 1)),
    "n_trials": ("0", "100"),
}
GRIDS = ("0,1/3,0.99", "0", "1", "0.5,0.5", "", ",", "-0", "1e-999999999", "nan")


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
