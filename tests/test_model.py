import itertools
from fractions import Fraction

import pytest

from merminsim.model import (
    ALL_EIGHT_SETS,
    ALL_INSTRUCTION_SETS,
    CELLS,
    ConfigurationError,
    DetectorModel,
    InstructionSet,
    N_CELLS,
    NO_FLASH,
    PairState,
    SETTINGS,
    SourceDistribution,
    TABLE1_PAIRS,
    TWO_ONE_SETS,
    as_fraction,
    builtin_distribution,
)


GGR = InstructionSet.parse("GGR")
GNR = InstructionSet.parse("GNR")


class TestOutcomeFor:
    def test_ggr_setting_3_is_red(self):
        assert GGR.outcome_at(3) == "R"

    def test_homogeneous_rrr(self):
        assert InstructionSet.parse("RRR").outcome_at(2) == "R"

    def test_gnr_setting_2_is_noflash(self):
        assert GNR.outcome_at(2) == NO_FLASH

    def test_flash_only_sets_never_yield_noflash(self):
        for s in ALL_EIGHT_SETS:
            for k in SETTINGS:
                assert s.outcome_at(k) != NO_FLASH


class TestInstructionSets:
    def test_partition_of_all_27_sets(self):
        # Oracle: enumerate the 3^3 outcome maps directly and sort them by
        # pattern; the set constants must agree with that partition.
        homogeneous, two_one, with_no_flash = [], [], []
        for letters in itertools.product("GRN", repeat=3):
            s = InstructionSet.parse("".join(letters))
            if "N" in letters:
                with_no_flash.append(s)
            elif letters[0] == letters[1] == letters[2]:
                homogeneous.append(s)
            else:
                two_one.append(s)
        assert (len(homogeneous), len(two_one), len(with_no_flash)) == (2, 6, 19)
        assert set(TWO_ONE_SETS) == set(two_one)
        assert set(ALL_EIGHT_SETS) == set(homogeneous + two_one)
        assert len(ALL_INSTRUCTION_SETS) == 27
        assert set(ALL_INSTRUCTION_SETS) == set(homogeneous + two_one + with_no_flash)


class TestBuiltinDistributions:
    def test_table1_uniform(self):
        d = builtin_distribution("table1_uniform")
        assert len(d.entries) == 12
        assert all(w == Fraction(1, 12) for _, w in d.entries)
        assert d.entries[0][0] == PairState.parse("NRG-GRG")

    def test_two_one_uniform(self):
        d = builtin_distribution("two_one_uniform")
        assert len(d.entries) == 6
        assert all(w == Fraction(1, 6) for _, w in d.entries)
        assert all(state.alice == state.bob for state, _ in d.entries)
        assert tuple(state.alice for state, _ in d.entries) == TWO_ONE_SETS

    def test_all_eight_uniform(self):
        d = builtin_distribution("all_eight_uniform")
        assert len(d.entries) == 8
        assert sum(w for _, w in d.entries) == 1

    def test_single(self):
        d = builtin_distribution("single", "GNR-GGR")
        assert d.entries == ((PairState.parse("GNR-GGR"), Fraction(1)),)
        with pytest.raises(ConfigurationError, match="unknown builtin"):
            builtin_distribution("single:GNR-GGR")

    def test_single_without_state_rejected(self):
        with pytest.raises(ConfigurationError):
            builtin_distribution("single")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown builtin"):
            builtin_distribution("uniform_table")


class TestValidate:
    def test_builtins_validate(self):
        for name in ("table1_uniform", "two_one_uniform", "all_eight_uniform"):
            d = builtin_distribution(name)
            assert SourceDistribution(d.entries) == d

    def test_weight_sum_mismatch_names_total(self):
        with pytest.raises(ConfigurationError, match=r"^entries: weights sum to 1/2 "):
            SourceDistribution([("GGR-GGR", "1/2")])

    def test_negative_weight_names_entry(self):
        with pytest.raises(ConfigurationError, match=r"^entries\[1\]\.weight: has negative weight"):
            SourceDistribution(
                [("GGR-GGR", Fraction(11, 10)), ("RRR-RRR", Fraction(-1, 10))]
            )

    def test_empty_distribution(self):
        with pytest.raises(ConfigurationError, match=r"^entries: has no entries$"):
            SourceDistribution(())

    def test_duplicate_state_names_entry(self):
        with pytest.raises(ConfigurationError, match=r"^entries\[1\]\.state: duplicates state GGR"):
            SourceDistribution([("GGR-GGR", "1/2"), ("GGR-GGR", "1/2")])

    def test_tolerates_tiny_decimal_slack(self):
        weights = [Fraction("0.333333333333333")] * 3
        d = SourceDistribution(
            [(f"{t}-{t}", w) for t, w in zip(("RRG", "RGR", "RGG"), weights)]
        )
        total = sum(w for _, w in d.renormalized())
        assert total == 1

    def test_weight_sum_tolerance_edge(self):
        # 1/2 + 0.500000000001 misses 1 by exactly the tolerance, 1e-12.
        SourceDistribution([("GGR-GGR", "1/2"), ("RRG-RRG", "0.500000000001")])
        with pytest.raises(ConfigurationError, match="^entries: weights sum to"):
            SourceDistribution([("GGR-GGR", "1/2"), ("RRG-RRG", "0.500000000002")])


class TestTable1Balance:
    def test_columns_balanced_per_side(self):
        # Each switch column sees N exactly twice and G/R five times each,
        # identically for both particles of the roster.
        for side in ("alice", "bob"):
            for setting in SETTINGS:
                letters = [
                    getattr(pair, side).outcome_at(setting)
                    for pair in TABLE1_PAIRS
                ]
                assert letters.count("N") == 2
                assert letters.count("G") == 5
                assert letters.count("R") == 5

    def test_last_six_rows_are_first_six_swapped(self):
        assert TABLE1_PAIRS[6:] == tuple(PairState(p.bob, p.alice) for p in TABLE1_PAIRS[:6])


class TestEncodings:
    def test_instruction_set_round_trip(self):
        for letters in itertools.product("GRN", repeat=3):
            text = "".join(letters)
            assert str(InstructionSet.parse(text)) == text

    def test_pair_state_round_trip(self):
        assert str(PairState.parse("GNR-GGR")) == "GNR-GGR"

    def test_bad_texts_rejected(self):
        with pytest.raises(ConfigurationError):
            InstructionSet.parse("GG")
        with pytest.raises(ConfigurationError):
            InstructionSet.parse("GGX")
        with pytest.raises(ConfigurationError):
            PairState.parse("GGRGGR")

    def test_cell_codec_round_trip(self):
        cells = list(CELLS)
        texts = ["".join(map(str, key)) for key in cells]
        assert len(cells) == len(set(texts)) == N_CELLS
        for index, text in enumerate(texts):
            # The order the engine's index arithmetic assumes.
            d_a, d_b, o_a, o_b = int(text[0]), int(text[1]), *map("GRN".index, text[2:])
            assert index == ((d_a * 4 + d_b) * 3 + o_a) * 3 + o_b
        assert texts[cells.index((2, 1, "G", "R"))] == "21GR"
        assert texts[cells.index((0, 1, "N", "G"))] == "01NG"


class TestFractions:
    def test_string_forms(self):
        assert as_fraction("1/3") == Fraction(1, 3)
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_float_uses_decimal_reading(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            as_fraction("one third")
        with pytest.raises(ConfigurationError):
            as_fraction(float("nan"))


class TestDetectorAndConfig:
    def test_failure_probability_bounds(self):
        DetectorModel(Fraction(1))
        DetectorModel(0)
        with pytest.raises(ConfigurationError):
            DetectorModel(Fraction(3, 2))
        with pytest.raises(ConfigurationError):
            DetectorModel(-0.1)

    def test_with_failure_probabilities(self):
        from merminsim.model import ExperimentConfig

        cfg = ExperimentConfig(source=builtin_distribution("table1_uniform"))
        swept = cfg.with_failure_probabilities("1/5", 0.5)
        assert swept.detector_a.failure_probability == Fraction(1, 5)
        assert swept.detector_b.failure_probability == Fraction(1, 2)
        assert swept.source is cfg.source


class TestParseRational:
    @pytest.mark.parametrize(
        "text, expected",
        [("1e4300", Fraction(10**4300)), ("2.5E-4300", Fraction(25, 10**4301)),
         ("1e0_4300", Fraction(10**4300)), (" 0.1 ", Fraction(1, 10)), ("3/9", Fraction(1, 3))],
    )
    def test_exact_within_the_digit_limit(self, text, expected):
        assert as_fraction(text) == expected

    @pytest.mark.parametrize(
        "text", ["1e4301", "1e-4301", "1e999999999", "1E+9_999_999", "1e" + "9" * 5000]
    )
    def test_exponent_past_the_digit_limit_is_refused(self, text):
        with pytest.raises(ConfigurationError, match="exponent"):
            as_fraction(text)

    def test_non_state_entry_is_refused(self):
        with pytest.raises(ConfigurationError, match=r"^entries\[1\]\.state: expected a pair state"):
            SourceDistribution([("GGR-GGR", "1/2"), (5, "1/2")])
