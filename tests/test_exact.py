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
    failure_class_sums,
    min_case_b_no_noflash,
    stats_of,
    sums_at,
)
from merminsim.model import (
    ALL_EIGHT_SETS,
    ALL_INSTRUCTION_SETS,
    ALL_SETTING_PAIRS,
    CELLS,
    CellWeights,
    ConfigurationError,
    DetectorModel,
    ExperimentConfig,
    FAILURE,
    OUTCOMES,
    SETTINGS,
    STATISTICS,
    SourceDistribution,
    TABLE1_PAIRS,
    builtin_distribution,
    statistic_sums,
)

from cells import cell_weight


def config_for(name, state=None, p_a=0, p_b=0):
    source = builtin_distribution(name, state)
    return ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))


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
            if pair[s - 1] == N
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
        assert st["p_same_case_a"] == 1
        assert st["p_same_case_b"] == Fraction(1, 4)
        assert st["eta_a"] == Fraction(5, 6)
        assert st["eta_b"] == Fraction(5, 6)
        assert st["eta_u_a"] == Fraction(5, 6)
        assert st["eta_f_a"] == 1

    def test_table1_coincidence_rate_settings_independent(self):
        # Oracle: per setting pair, count roster states with both
        # instructions flashing.
        st = stats_for("table1_uniform")
        for sa, sb in ALL_SETTING_PAIRS:
            kept = sum(
                1
                for pair in TABLE1_PAIRS
                if pair[sa - 1] != N and pair[4 + sb - 1] != N
            )
            assert kept == 8
            assert st[f"coincidence_rate[{sa}{sb}]"] == Fraction(kept, len(TABLE1_PAIRS))
            assert st[f"coincidence_rate[{sa}{sb}]"] == Fraction(2, 3)

    def test_two_one_uniform_case_b(self):
        st = stats_for("two_one_uniform")
        assert st["p_same_case_a"] == 1
        assert st["p_same_case_b"] == Fraction(1, 3)

    def test_all_eight_uniform_case_b(self):
        # Oracle: brute-force the mixture over the eight identical pairs.
        same = total = 0
        for s in ALL_EIGHT_SETS:
            for i, j in itertools.permutations(range(3), 2):
                total += 1
                same += s[i] == s[j]
        assert Fraction(same, total) == Fraction(1, 2)

        st = stats_for("all_eight_uniform")
        assert st["p_same_case_b"] == Fraction(1, 2)

    def test_symmetry_under_particle_exchange(self):
        base = config_for("table1_uniform")
        swapped = ExperimentConfig(
            source=SourceDistribution(
                tuple((f"{p[4:]}-{p[:3]}", w) for p, w in base.source.entries)
            )
        )
        st1 = conditional_stats(enumerate_joint(base))
        st2 = conditional_stats(enumerate_joint(swapped))
        assert st1 == st2

    def test_all_noflash_source_flags_conditionals(self):
        st = stats_for("single", "NNN-NNN")
        assert st["p_same_case_a"] is None
        assert st["p_same_case_b"] is None
        assert st["eta_a"] == 0
        assert st["eta_u_a"] == 0
        assert all(v == 0 for label, v in st.items() if label.startswith("coincidence_rate["))

    def test_full_failure_flags_eta_u(self):
        st = stats_for("table1_uniform", p_a=1, p_b=1)
        assert st["eta_f_a"] == 0
        assert st["eta_u_a"] is None
        assert st["p_same_case_a"] is None

    def test_rejects_unnormalized_table(self):
        t = enumerate_joint(config_for("table1_uniform"))
        with pytest.raises(ConfigurationError):
            CellWeights(t.weights, 2 * t.total)

    @pytest.mark.parametrize("name", ["table1_uniform", "two_one_uniform", "all_eight_uniform"])
    @pytest.mark.parametrize("p_a,p_b", [(0, 0), (Fraction(1, 5), 0), (Fraction(1, 5), Fraction(1, 2)), (Fraction(9, 10), Fraction(9, 10))])
    def test_eta_multiplicative_everywhere(self, name, p_a, p_b):
        st = stats_for(name, p_a=p_a, p_b=p_b)
        assert st["eta_a"] == st["eta_u_a"] * st["eta_f_a"]
        assert st["eta_b"] == st["eta_u_b"] * st["eta_f_b"]


class TestCaseBSameFraction:
    def test_ggr(self):
        assert case_b_same_fraction("GGR") == Fraction(1, 3)

    def test_rrr(self):
        assert case_b_same_fraction("RRR") == 1

    def test_rgr_against_oracle(self):
        assert brute_case_b_fraction("RGR") == Fraction(1, 3)
        assert case_b_same_fraction("RGR") == Fraction(1, 3)

    def test_all_eight_against_oracle(self):
        for s in ALL_EIGHT_SETS:
            assert case_b_same_fraction(s) == brute_case_b_fraction(s)

    def test_noflash_set_rejected(self):
        with_no_flash = [s for s in ALL_INSTRUCTION_SETS if s not in ALL_EIGHT_SETS]
        assert len(with_no_flash) == 19
        for s in with_no_flash:
            with pytest.raises(ConfigurationError, match="no-flash"):
                case_b_same_fraction(s)

    def test_agrees_with_enumeration_path(self):
        # Cross-validation of two independent code paths.
        for s in ALL_EIGHT_SETS:
            st = stats_for("single", f"{s}-{s}")
            assert st["p_same_case_b"] == case_b_same_fraction(s)


class TestMinCaseB:
    def test_minimum_is_one_third(self):
        minimum, _ = min_case_b_no_noflash()
        assert minimum == Fraction(1, 3)

    def test_support_excludes_homogeneous_sets(self):
        _, support = min_case_b_no_noflash()
        assert set(support) == {"RRG", "RGR", "RGG", "GRR", "GRG", "GGR"}
        assert "RRR" not in support and "GGG" not in support

    def test_homogeneous_vertices_sit_at_one(self):
        assert case_b_same_fraction("RRR") == 1
        assert case_b_same_fraction("GGG") == 1


class TestDetectorInvariance:
    def test_table1_loss_moves_only_eta(self):
        base = stats_for("table1_uniform")
        st_half = stats_for("table1_uniform", p_a=Fraction(1, 2), p_b=Fraction(1, 2))
        assert detector_invariance_check(config_for("table1_uniform"), base) == ()
        # eta scales as (1 - p) * eta_u while eta_u stays put
        assert st_half["eta_a"] == Fraction(5, 12)
        assert st_half["eta_u_a"] == Fraction(5, 6)
        assert (st_half["p_same_case_a"], st_half["p_same_case_b"]) == (1, Fraction(1, 4))

    def test_two_one_loss_keeps_case_b(self):
        for p in (0, Fraction(1, 2)):
            config = config_for("two_one_uniform", p_a=p, p_b=p)
            st = conditional_stats(enumerate_joint(config))
            assert st["p_same_case_b"] == Fraction(1, 3)
            assert detector_invariance_check(config, st) == ()

    @pytest.mark.parametrize("p_a,p_b", [("1/5", 0.5), (1, 0), (0, 1), (1, 1)])
    def test_holds_at_any_failure_probabilities(self, p_a, p_b):
        config = config_for("table1_uniform", p_a=p_a, p_b=p_b)
        assert detector_invariance_check(config, conditional_stats(enumerate_joint(config))) == ()

    @pytest.mark.parametrize("name", ["table1_uniform", "two_one_uniform", "all_eight_uniform"])
    @pytest.mark.parametrize(
        "p_a,p_b", [(0, 0), (Fraction(1, 5), 0), (Fraction(1, 5), Fraction(1, 2)), (1, Fraction(9, 10))]
    )
    def test_eta_f_is_one_minus_p(self, name, p_a, p_b):
        st = stats_for(name, p_a=p_a, p_b=p_b)
        assert st["eta_f_a"] == 1 - Fraction(p_a)
        assert st["eta_f_b"] == 1 - Fraction(p_b)

    def test_stats_at_another_point_fail_the_oracle_claim(self):
        config = config_for("table1_uniform", p_a=Fraction(1, 5), p_b=Fraction(1, 10))
        swapped = stats_for("table1_uniform", p_a=Fraction(1, 10), p_b=Fraction(1, 5))
        assert detector_invariance_check(config, swapped) == ("oracle",)

    @pytest.mark.parametrize(
        "label,failure_class,claim",
        [
            ("p_same_case_a", 3, "conditionals"),
            ("p_same_case_b", 1, "conditionals"),
            ("eta_u_a", 1, "conditionals"),
            ("eta_u_b", 2, "conditionals"),
            ("coincidence_rate[12]", 1, "coincidence scaling"),
            ("coincidence_rate[33]", 3, "coincidence scaling"),
            ("eta_f_a", 2, "eta_f"),
            ("eta_f_b", 1, "eta_f"),
        ],
    )
    def test_each_identity_catches_a_shifted_class_sum(
        self, monkeypatch, label, failure_class, claim
    ):
        # One class sum's numerator off by one: the claim that reads it
        # must fail, whatever the oracle claim says.
        index = [stat.label for stat in STATISTICS].index(label)
        real = exact_module.failure_class_sums

        def shifted(source):
            classes = [list(per_class) for per_class in real(source)]
            num, den = classes[index][failure_class]
            classes[index][failure_class] = (num + 1, den)
            return tuple(map(tuple, classes))

        monkeypatch.setattr(exact_module, "failure_class_sums", shifted)
        config = config_for("table1_uniform", p_a=Fraction(1, 5), p_b=Fraction(1, 10))
        assert claim in detector_invariance_check(config, conditional_stats(enumerate_joint(config)))

    @pytest.mark.parametrize("name,state", [("table1_uniform", None), ("single", "NNN-NNN")])
    @pytest.mark.parametrize(
        "p_a,p_b", [(0, 0), (Fraction(1, 3), Fraction(1, 7)), (1, Fraction(1, 2)), (1, 1)]
    )
    def test_corner_sums_at_any_point_equal_the_table_sums(self, name, state, p_a, p_b):
        config = config_for(name, state, p_a, p_b)
        sums = sums_at(failure_class_sums(config.source), Fraction(p_a), Fraction(p_b))
        table = enumerate_joint(config)
        assert sums == statistic_sums(table.weights)
        assert stats_of(sums) == conditional_stats(table)


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
        swept = ExperimentConfig(
            config.source, DetectorModel(Fraction(1, 3)), DetectorModel(Fraction(1, 7))
        )
        assert swept.source.cell_masses is masses
        # 12 states at weight 1/12: 16 switch-digit pairs each, over total 12.
        assert masses[1] == 12 and sum(masses[0]) == 16 * 12
