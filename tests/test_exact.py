import dataclasses
import itertools
import json
import re
from fractions import Fraction

import pytest

from merminsim import exact as exact_module
from merminsim.exact import (
    case_b_same_fraction,
    conditional_stats,
    detector_invariance_check,
    enumerate_joint,
    min_case_b_no_noflash,
)
from merminsim.model import (
    ALL_EIGHT_SETS,
    ALL_INSTRUCTION_SETS,
    ALL_SETTING_PAIRS,
    CELLS,
    CellWeights,
    ConfigurationError,
    ExperimentConfig,
    FAILURE,
    InstructionSet,
    OUTCOMES,
    PairState,
    SETTINGS,
    SourceDistribution,
    TABLE1_PAIRS,
    builtin_distribution,
)

from cells import cell_weight


def config_for(name, state=None, p_a=0, p_b=0):
    cfg = ExperimentConfig(source=builtin_distribution(name, state))
    return cfg.with_failure_probabilities(p_a, p_b)


def stats_for(name, state=None, p_a=0, p_b=0):
    return conditional_stats(enumerate_joint(config_for(name, state, p_a, p_b)))


def brute_case_b_fraction(text):
    """Oracle: count equal letters over the six ordered index pairs."""
    same = sum(
        1 for i in range(3) for j in range(3) if i != j and text[i] == text[j]
    )
    return Fraction(same, 6)


S1, S2, S3 = SETTINGS
G, R, N = OUTCOMES


class TestEnumerateJoint:
    def test_single_ggr_identical_pair(self):
        t = enumerate_joint(config_for("single", "GGR-GGR"))
        assert Fraction(cell_weight(t, S1, S1, G, G), t.total) == Fraction(1, 9)
        assert Fraction(cell_weight(t, S1, S3, G, R), t.total) == Fraction(1, 9)
        noflash_mass = sum(
            w
            for (swa, swb, oa, ob), w in zip(CELLS, t.weights)
            if oa == N or ob == N or swa == FAILURE or swb == FAILURE
        )
        assert noflash_mass == 0

    def test_single_gnr_ggr(self):
        t = enumerate_joint(config_for("single", "GNR-GGR"))
        assert Fraction(cell_weight(t, S2, S1, N, G), t.total) == Fraction(1, 9)
        assert Fraction(cell_weight(t, S1, S2, G, G), t.total) == Fraction(1, 9)

    def test_table1_noflash_mass_on_a(self):
        # Oracle: count N instructions over the roster's A-side columns;
        # 6 N entries out of 12 states x 3 settings.
        n_count = sum(
            1
            for pair in TABLE1_PAIRS
            for s in SETTINGS
            if pair.alice.outcome_at(s) == N
        )
        expected = Fraction(n_count, len(TABLE1_PAIRS) * len(SETTINGS))
        assert expected == Fraction(1, 6)

        t = enumerate_joint(config_for("table1_uniform"))
        mass = sum(w for (_, _, oa, _), w in zip(CELLS, t.weights) if oa == N)
        assert Fraction(mass, t.total) == expected

    @pytest.mark.parametrize("name", ["table1_uniform", "two_one_uniform", "all_eight_uniform"])
    @pytest.mark.parametrize("p", [0, Fraction(1, 5), Fraction(1, 2), Fraction(9, 10), 1])
    def test_normalization_exact(self, name, p):
        t = enumerate_joint(config_for(name, p_a=p, p_b=p))
        assert Fraction(sum(t.weights), t.total) == 1

    def test_setting_pairs_equiprobable_without_failure(self):
        t = enumerate_joint(config_for("table1_uniform"))
        for sa, sb in ALL_SETTING_PAIRS:
            mass = sum(
                cell_weight(t, sa, sb, oa, ob)
                for oa in (G, R, N)
                for ob in (G, R, N)
            )
            assert Fraction(mass, t.total) == Fraction(1, 9)

    def test_failure_flash_cells_are_zero(self):
        t = enumerate_joint(config_for("table1_uniform", p_a=Fraction(1, 3), p_b=Fraction(1, 2)))
        for (swa, swb, oa, ob), w in zip(CELLS, t.weights):
            if (swa == FAILURE and oa != N) or (swb == FAILURE and ob != N):
                assert w == 0

    def test_invalid_distribution_rejected(self):
        from merminsim.model import SourceDistribution

        with pytest.raises(ConfigurationError):
            SourceDistribution([("GGR-GGR", "1/2")])


class TestConditionalStats:
    def test_table1_reproduces_device_statistics(self):
        st = stats_for("table1_uniform")
        assert st.p_same_case_a == 1
        assert st.p_same_case_b == Fraction(1, 4)
        assert st.eta_a == Fraction(5, 6)
        assert st.eta_b == Fraction(5, 6)
        assert st.eta_u_a == Fraction(5, 6)
        assert st.eta_f_a == 1

    def test_table1_coincidence_rate_settings_independent(self):
        # Oracle: per setting pair, count roster states with both
        # instructions flashing.
        st = stats_for("table1_uniform")
        for sa, sb in ALL_SETTING_PAIRS:
            kept = sum(
                1
                for pair in TABLE1_PAIRS
                if pair.alice.outcome_at(sa) != N and pair.bob.outcome_at(sb) != N
            )
            assert kept == 8
            assert st.coincidence_rate[f"{sa}{sb}"] == Fraction(kept, len(TABLE1_PAIRS))
            assert st.coincidence_rate[f"{sa}{sb}"] == Fraction(2, 3)

    def test_two_one_uniform_case_b(self):
        st = stats_for("two_one_uniform")
        assert st.p_same_case_a == 1
        assert st.p_same_case_b == Fraction(1, 3)

    def test_all_eight_uniform_case_b(self):
        # Oracle: brute-force the mixture over the eight identical pairs.
        same = total = 0
        for s in ALL_EIGHT_SETS:
            text = str(s)
            for i, j in itertools.permutations(range(3), 2):
                total += 1
                same += text[i] == text[j]
        assert Fraction(same, total) == Fraction(1, 2)

        st = stats_for("all_eight_uniform")
        assert st.p_same_case_b == Fraction(1, 2)

    def test_symmetry_under_particle_exchange(self):
        base = config_for("table1_uniform")
        swapped = ExperimentConfig(
            source=SourceDistribution(
                tuple((PairState(p.bob, p.alice), w) for p, w in base.source.entries)
            )
        )
        st1 = conditional_stats(enumerate_joint(base))
        st2 = conditional_stats(enumerate_joint(swapped))
        assert st1 == st2

    def test_all_noflash_source_flags_conditionals(self):
        st = stats_for("single", "NNN-NNN")
        assert st.p_same_case_a is None
        assert st.p_same_case_b is None
        assert st.eta_a == 0
        assert st.eta_u_a == 0
        assert all(v == 0 for v in st.coincidence_rate.values())

    def test_full_failure_flags_eta_u(self):
        st = stats_for("table1_uniform", p_a=1, p_b=1)
        assert st.eta_f_a == 0
        assert st.eta_u_a is None
        assert st.p_same_case_a is None

    def test_rejects_unnormalized_table(self):
        t = enumerate_joint(config_for("table1_uniform"))
        with pytest.raises(ValueError):
            CellWeights(t.weights, 2 * t.total)

    @pytest.mark.parametrize("name", ["table1_uniform", "two_one_uniform", "all_eight_uniform"])
    @pytest.mark.parametrize("p_a,p_b", [(0, 0), (Fraction(1, 5), 0), (Fraction(1, 5), Fraction(1, 2)), (Fraction(9, 10), Fraction(9, 10))])
    def test_eta_multiplicative_everywhere(self, name, p_a, p_b):
        st = stats_for(name, p_a=p_a, p_b=p_b)
        assert st.eta_a == st.eta_u_a * st.eta_f_a
        assert st.eta_b == st.eta_u_b * st.eta_f_b


class TestCaseBSameFraction:
    def test_ggr(self):
        assert case_b_same_fraction(InstructionSet.parse("GGR")) == Fraction(1, 3)

    def test_rrr(self):
        assert case_b_same_fraction(InstructionSet.parse("RRR")) == 1

    def test_rgr_against_oracle(self):
        assert brute_case_b_fraction("RGR") == Fraction(1, 3)
        assert case_b_same_fraction(InstructionSet.parse("RGR")) == Fraction(1, 3)

    def test_all_eight_against_oracle(self):
        for s in ALL_EIGHT_SETS:
            assert case_b_same_fraction(s) == brute_case_b_fraction(str(s))

    def test_noflash_set_rejected(self):
        with_no_flash = [s for s in ALL_INSTRUCTION_SETS if s not in ALL_EIGHT_SETS]
        assert len(with_no_flash) == 19
        for s in with_no_flash:
            with pytest.raises(ValueError, match="no-flash"):
                case_b_same_fraction(s)

    def test_agrees_with_enumeration_path(self):
        # Cross-validation of two independent code paths.
        for s in ALL_EIGHT_SETS:
            st = stats_for("single", f"{s}-{s}")
            assert st.p_same_case_b == case_b_same_fraction(s)


class TestMinCaseB:
    def test_minimum_is_one_third(self):
        result = min_case_b_no_noflash()
        assert result.minimum == Fraction(1, 3)

    def test_support_excludes_homogeneous_sets(self):
        result = min_case_b_no_noflash()
        names = {str(s) for s in result.support}
        assert names == {"RRG", "RGR", "RGG", "GRR", "GRG", "GGR"}
        assert "RRR" not in names and "GGG" not in names

    def test_homogeneous_vertices_sit_at_one(self):
        result = min_case_b_no_noflash()
        assert result.vertex_values[InstructionSet.parse("RRR")] == 1
        assert result.vertex_values[InstructionSet.parse("GGG")] == 1


class TestDetectorInvariance:
    def test_table1_sweep(self):
        report = detector_invariance_check(
            config_for("table1_uniform"), [0, Fraction(1, 5), Fraction(1, 2)]
        )
        assert report.passed
        assert report.conditionals_invariant
        assert report.coincidence_scaling_exact
        assert report.eta_multiplicative
        # eta scales as (1 - p) * eta_u while eta_u stays put
        st_half = report.stats_by_p[2]
        assert st_half.eta_a == Fraction(5, 12)
        assert st_half.eta_u_a == Fraction(5, 6)

    def test_two_one_sweep_keeps_case_b(self):
        report = detector_invariance_check(config_for("two_one_uniform"), [0, Fraction(1, 2)])
        assert report.passed
        for st in report.stats_by_p:
            assert st.p_same_case_b == Fraction(1, 3)

    def test_accepts_string_probabilities(self):
        report = detector_invariance_check(config_for("table1_uniform"), ["1/5", 0.5])
        assert report.passed

    @pytest.mark.parametrize("field", ["eta_a", "eta_b"])
    def test_broken_eta_product_fails(self, monkeypatch, field):
        # One side's eta no longer equals eta_u * eta_f: only
        # eta_multiplicative may notice, and it must.
        real = exact_module.conditional_stats

        def perturbed(table):
            st = real(table)
            return dataclasses.replace(st, **{field: getattr(st, field) + Fraction(1, 1000)})

        monkeypatch.setattr(exact_module, "conditional_stats", perturbed)
        report = detector_invariance_check(
            config_for("table1_uniform"), [0, Fraction(1, 5), Fraction(1, 2)]
        )
        assert report.conditionals_invariant and report.coincidence_scaling_exact
        assert not report.eta_multiplicative
        assert not report.passed

    def test_p_equal_one_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            detector_invariance_check(config_for("table1_uniform"), [0, 1])

    def test_p_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            detector_invariance_check(config_for("table1_uniform"), [Fraction(3, 2)])


class TestSourceMemo:
    @pytest.mark.parametrize(
        "entries, fault",
        [
            ([], "entries: has no entries"),
            ([("GGR-GGR", "1/2")], "entries: weights sum to 1/2"),
            ([("GGR-GGR", "3/2"), ("GNR-GGR", "-1/2")], "entries[1].weight: has negative weight"),
            ([("GGR-GGR", "1/2"), ("GGR-GGR", "1/2")], "entries[1].state: duplicates state"),
        ],
        ids=["empty", "sum", "negative", "duplicate"],
    )
    def test_invalid_source_is_refused_when_built(self, tmp_path, capsys, entries, fault):
        from merminsim.cli import EXIT_CONFIG, main

        with pytest.raises(ConfigurationError, match=f"^{re.escape(fault)}"):
            SourceDistribution(entries)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"source": {"entries": [{"state": s, "weight": w} for s, w in entries]}}
        ))
        argv = ["enumerate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: source.{fault}")

    def test_detector_settings_share_one_pass_per_source(self):
        config = config_for("table1_uniform")
        masses = config.source.cell_masses
        swept = config.with_failure_probabilities(Fraction(1, 3), Fraction(1, 7))
        assert swept.source.cell_masses is masses
        # 12 states at weight 1/12: 16 switch-digit pairs each, over total 12.
        assert masses[1] == 12 and sum(masses[0]) == 16 * 12
