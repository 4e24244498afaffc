import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from merminsim import model
from merminsim.model import (
    ALL_EIGHT_SETS,
    ALL_INSTRUCTION_SETS,
    CELLS,
    ConfigurationError,
    DetectorModel,
    N_CELLS,
    NO_FLASH,
    SETTINGS,
    STATISTICS,
    SourceDistribution,
    TABLE1_PAIRS,
    TWO_ONE_SETS,
    WEIGHT_SUM_TOLERANCE,
    _IMPOSSIBLE,
    _MASKS,
    _state_text,
    as_fraction,
    builtin_distribution,
    exact_bit_bound,
    parse_rational,
    shown,
    statistic_sums,
)


def outcome_at(text, setting):
    """The outcome instruction set text gives at a setting, as the model
    reads it: side A's letter of the one cell at switch digits (setting,
    setting) that the cell masses of a source of text-text give mass."""
    masses, _ = builtin_distribution("single", f"{text}-{text}").cell_masses
    (cell,) = (c for c, mass in zip(CELLS, masses) if mass and c[:2] == (setting, setting))
    return cell[2]


class TestOutcomeFor:
    def test_ggr_setting_3_is_red(self):
        assert outcome_at("GGR", 3) == "R"

    def test_homogeneous_rrr(self):
        assert outcome_at("RRR", 2) == "R"

    def test_gnr_setting_2_is_noflash(self):
        assert outcome_at("GNR", 2) == NO_FLASH

    def test_flash_only_sets_never_yield_noflash(self):
        for s in ALL_EIGHT_SETS:
            for k in SETTINGS:
                assert outcome_at(s, k) != NO_FLASH


class TestInstructionSets:
    def test_partition_of_all_27_sets(self):
        # Oracle: enumerate the 3^3 outcome maps directly and sort them by
        # pattern; the set constants must agree with that partition.
        homogeneous, two_one, with_no_flash = [], [], []
        for letters in itertools.product("GRN", repeat=3):
            s = "".join(letters)
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
        assert d.entries[0][0] == "NRG-GRG"

    def test_two_one_uniform(self):
        d = builtin_distribution("two_one_uniform")
        assert len(d.entries) == 6
        assert all(w == Fraction(1, 6) for _, w in d.entries)
        assert all(state[:3] == state[4:] for state, _ in d.entries)
        assert tuple(state[:3] for state, _ in d.entries) == TWO_ONE_SETS

    def test_all_eight_uniform(self):
        d = builtin_distribution("all_eight_uniform")
        assert len(d.entries) == 8
        assert sum(w for _, w in d.entries) == 1

    def test_single(self):
        d = builtin_distribution("single", "GNR-GGR")
        assert d.entries == (("GNR-GGR", Fraction(1)),)
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
        for side in (0, 1):
            for setting in SETTINGS:
                letters = [pair.split("-")[side][setting - 1] for pair in TABLE1_PAIRS]
                assert letters.count("N") == 2
                assert letters.count("G") == 5
                assert letters.count("R") == 5

    def test_last_six_rows_are_first_six_swapped(self):
        assert TABLE1_PAIRS[6:] == tuple(f"{p[4:]}-{p[:3]}" for p in TABLE1_PAIRS[:6])


class TestEncodings:
    def test_instruction_set_round_trip(self):
        for letters in itertools.product("GRN", repeat=3):
            text = "".join(letters)
            assert SourceDistribution([(f"{text}-GGR", 1)]).entries[0][0] == f"{text}-GGR"

    def test_pair_state_round_trip(self):
        assert builtin_distribution("single", "GNR-GGR").entries[0][0] == "GNR-GGR"

    def test_bad_texts_rejected(self):
        with pytest.raises(ConfigurationError, match="^instruction set text must be 3 letters"):
            builtin_distribution("single", "GG-GGR")
        with pytest.raises(ConfigurationError, match="^unknown outcome letter 'X'"):
            builtin_distribution("single", "GGR-GGX")
        with pytest.raises(ConfigurationError, match="^pair state text must look like XXX-YYY"):
            builtin_distribution("single", "GGRGGR")
        with pytest.raises(ConfigurationError, match="^expected a pair state, got 7$"):
            builtin_distribution("single", 7)

    @pytest.mark.parametrize(
        "text, message",
        [
            # Side A is sound, so side B's length is the first fault.
            ("GGG-GX", "instruction set text must be 3 letters, got 'GX'"),
            # Side A's bad letter comes before side B's.
            ("GXG-GG", "unknown outcome letter 'X' (expected G, R or N)"),
        ],
    )
    def test_first_fault_is_named(self, text, message):
        with pytest.raises(ConfigurationError) as info:
            _state_text(text)
        assert str(info.value) == message

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


class TestStatisticSums:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        weights=st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 10**30)),
            min_size=N_CELLS,
            max_size=N_CELLS,
        )
    )
    def test_matches_per_index_sums(self, weights):
        expected = [
            (sum(weights[i] for i in s.numerator), sum(weights[i] for i in s.denominator))
            for s in STATISTICS
        ]
        assert statistic_sums(weights) == expected
        assert statistic_sums(tuple(weights)) == expected

    def test_every_mask_holds_two_or_more_cells(self):
        # The sums read each mask through operator.itemgetter, which returns
        # the bare item, not a tuple, when given a single index.
        for mask in (*_MASKS, _IMPOSSIBLE):
            assert len(mask) >= 2


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


class TestExactBitBound:
    @pytest.mark.parametrize("limit", [4300, 640])
    def test_is_the_largest_bound_under_the_digit_limit(self, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            bound = exact_bit_bound()
        finally:
            sys.set_int_max_str_digits(saved)
        assert 2 ** (3 * bound + 8) <= 10**limit < 2 ** (3 * (bound + 1) + 8)

    def test_source_is_refused_at_the_first_entry_past_the_bound(self):
        bound = exact_bit_bound()
        at = 2**bound - 1
        weight = Fraction(1, at)
        source = SourceDistribution([("GGR-GGR", weight), ("RRG-RRG", 1 - weight)])
        assert source.state_masses == ((1, at - 1), at)
        past = [("GGR-GGR", "1/2"), ("RRG-RRG", 1 - Fraction(1, 2) - Fraction(1, 2**bound)),
                ("GRG-GRG", Fraction(1, 2**bound)), ("GGG-GGG", "x")]
        with pytest.raises(ConfigurationError) as info:
            SourceDistribution(past)
        assert str(info.value) == (
            f"entries: the weights' common denominator has more than {bound} bits at "
            "entries[1], the bound on exact input"
        )

    def test_failure_probability_is_refused_past_the_bound(self):
        bound = exact_bit_bound()
        DetectorModel(Fraction(1, 2**bound - 1))
        with pytest.raises(ConfigurationError, match=f"^denominator has more than {bound} bits"):
            DetectorModel(Fraction(1, 2**bound))
        # Refused before its range is checked, which would render it.
        with pytest.raises(ConfigurationError, match="^denominator"):
            DetectorModel(Fraction(-1, 10**4300))


# Digit runs with underscores and leading zeros, some in non-ASCII digits:
# Arabic-Indic and fullwidth digits are decimal, superscript two is not.
_DIGIT_RUNS = st.one_of(
    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
    st.text(st.sampled_from("00123456789_\u0661\uff15\u00b2"), max_size=5),
)
_SPACE = st.sampled_from(["", "", "", " ", "\t", "\n", "\u3000"])


@st.composite
def _rational_texts(draw):
    """num/den and decimal texts, each possibly malformed."""
    if draw(st.booleans()):
        return draw(_DIGIT_RUNS) + "/" + draw(_DIGIT_RUNS)
    sign = draw(st.sampled_from(["", "", "", "-", "+", "+-"]))
    body = draw(_DIGIT_RUNS)
    if draw(st.booleans()):
        body += draw(st.sampled_from(["/", " /", "/ "])) + draw(_DIGIT_RUNS)
    else:
        if draw(st.booleans()):
            body += "." + draw(_DIGIT_RUNS)
        if draw(st.booleans()):
            exponent = draw(st.integers(-30, 30))
            body += draw(st.sampled_from(["e", "E", "e+"])) + str(exponent)
    return draw(_SPACE) + sign + body + draw(_SPACE)


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

    @given(text=_rational_texts())
    def test_agrees_with_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ConfigurationError, match="cannot parse"):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    def test_non_state_entry_is_refused(self):
        with pytest.raises(ConfigurationError, match=r"^entries\[1\]\.state: expected a pair state"):
            SourceDistribution([("GGR-GGR", "1/2"), (5, "1/2")])


def reference_source(pairs):
    """(entries, state_masses) of a source, or its diagnostic text, with
    every weight coerced by as_fraction before anything else reads it,
    written out apart from SourceDistribution as the spec it must meet."""
    entries = []
    seen = set()
    for index, (state, weight) in enumerate(pairs):
        field = "state"
        try:
            state = _state_text(state)
            field = "weight"
            weight = as_fraction(weight)
            if weight.numerator < 0:
                raise ConfigurationError(f"has negative weight {weight}")
            field = "state"
            if state in seen:
                raise ConfigurationError(f"duplicates state {state}")
        except ConfigurationError as exc:
            return f"entries[{index}].{field}: {exc}"
        seen.add(state)
        entries.append((state, weight))
    if not entries:
        return "entries: has no entries"
    denominator = math.lcm(*(w.denominator for _, w in entries))
    masses = tuple(w.numerator * (denominator // w.denominator) for _, w in entries)
    total = sum(masses)
    weight_sum = Fraction(total, denominator)
    if abs(weight_sum - 1) > WEIGHT_SUM_TOLERANCE:
        return f"entries: weights sum to {weight_sum} (~{float(weight_sum):.12g}), expected 1"
    return tuple(entries), (masses, total)


_DIGIT_SETS = ("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
               "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
# Texts a num/den weight may be bent into; most are malformed, some only
# look so (Fraction reads surrounding whitespace and underscores).
_BENT = (" {n}/{d}", "{n}/{d}\n", "-{n}/{d}", "+{n}/{d}", "{n}/0", "0/0", "{n} /{d}",
         "{n}/{d}/1", "{n}/", "/{d}", "", "\u00b2/{d}", "{n}_0/{d}0", "-0/{d}", "{n}.0/{d}")
_HUGE = "9" * 4301


@st.composite
def _weight(draw, value, bent):
    """value, an exact weight, in one of the forms a source reads; when
    bent, it may also come out malformed, too long, or a bool."""
    decimal = (10**6 % value.denominator == 0)
    forms = ["text", "text", "text", "decimal", "int", "float", "fraction"]
    form = draw(st.sampled_from(forms + ["huge", "bent", "bent", "bool"] if bent else forms))
    if form == "fraction":
        return value
    if form == "bool":
        return draw(st.booleans())
    if form == "int" and value.denominator == 1:
        return int(value)
    if form == "float" and decimal:
        return float(value)
    if form == "decimal" and decimal:
        q = value.numerator * (10**6 // value.denominator)
        return draw(st.sampled_from([f"{q // 10**6}.{q % 10**6:06d}", f"{q}e-6", f" {q}E-6 "]))
    scale = draw(st.integers(1, 10**30))
    n, d = value.numerator * scale, value.denominator * scale
    if form == "huge":
        return draw(st.sampled_from([f"{_HUGE}/{d}", f"{n}/{_HUGE}", "0" * 4300 + f"{n}/{d}"]))
    if form == "bent":
        return draw(st.sampled_from(_BENT)).format(n=n, d=d)
    digits = draw(st.sampled_from(_DIGIT_SETS))
    zeros = draw(st.sampled_from(["", "", "0", "000"]))
    text = f"{zeros}{n}/{zeros}{d}"
    return text.translate(str.maketrans("0123456789", digits))


_STATES = tuple(f"{a}-{b}" for a, b in itertools.product(ALL_INSTRUCTION_SETS[::5], repeat=2))


@st.composite
def _weighted_sources(draw):
    """1-6 entries whose weights sum to 1 when each is read as meant. The
    states are distinct and valid but in about one source in ten, and the
    weights of about half the sources may be bent."""
    ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    if not any(ks):
        ks[0] = 1
    states = draw(st.lists(st.sampled_from(_STATES), min_size=len(ks), max_size=len(ks),
                           unique=True))
    if draw(st.sampled_from([False] * 9 + [True])):
        states[-1] = draw(st.sampled_from(["GGX-GGR", states[0]]))
    bent = draw(st.booleans())
    return [(state, draw(_weight(Fraction(k, sum(ks)), bent))) for state, k in zip(states, ks)]


@st.composite
def _repeating_sources(draw):
    """Up to 20 entries whose weights come from a pool of 1-4 weights,
    each drawn once in one of _weight's forms and repeated as drawn, so
    that a text recurs; they sum to 1 when each is read as meant."""
    ks = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    ks[0] = ks[0] or 1
    counts = draw(st.lists(st.integers(1, 5), min_size=len(ks), max_size=len(ks)))
    total = sum(k * count for k, count in zip(ks, counts))
    bent = draw(st.booleans())
    pool = [draw(_weight(Fraction(k, total), bent)) for k in ks]
    weights = draw(st.permutations([w for w, count in zip(pool, counts) for _ in range(count)]))
    states = draw(st.lists(st.sampled_from(_STATES), min_size=len(weights),
                           max_size=len(weights), unique=True))
    return list(zip(states, weights))


def assert_matches_reference(pairs):
    expected = reference_source(pairs)
    try:
        source = SourceDistribution(pairs)
    except ConfigurationError as exc:
        assert str(exc) == expected
        return
    entries, state_masses = expected
    assert source.entries == entries
    assert all(type(weight) is Fraction for _, weight in source.entries)
    # Equal as integers, not only in proportion: the sampler's
    # thresholds and every CellWeights total read them.
    assert source.state_masses == state_masses


class TestIntegerWeights:
    @settings(max_examples=300, deadline=None)
    @given(pairs=_weighted_sources())
    def test_matches_reading_every_weight_with_as_fraction(self, pairs):
        assert_matches_reference(pairs)

    @settings(max_examples=300, deadline=None)
    @given(pairs=_repeating_sources())
    def test_repeated_weights_match_reading_each_with_as_fraction(self, pairs):
        assert_matches_reference(pairs)


ALL_PAIRS = [f"{a}-{b}" for a, b in itertools.product(ALL_INSTRUCTION_SETS, repeat=2)]


class TestWeightTexts:
    """A source reads each distinct weight text once, and a repeat gives
    what reading it again would."""

    def test_each_distinct_text_is_read_once(self, monkeypatch):
        # All 729 pair states at weights k/D, k in [1, 100]: at most 100 texts.
        rng = random.Random(11)
        ks = [rng.randint(1, 100) for _ in ALL_PAIRS]
        pairs = [(state, f"{k}/{sum(ks)}") for state, k in zip(ALL_PAIRS, ks)]
        read = []
        monkeypatch.setattr(
            model, "as_fraction", lambda value: read.append(value) or as_fraction(value)
        )
        source = SourceDistribution(pairs)
        monkeypatch.undo()
        assert sorted(read) == sorted({weight for _, weight in pairs})
        assert len(read) <= 100
        # The same as a source of the weights read one by one, which the
        # memo never sees: it holds texts only.
        unread = SourceDistribution([(state, as_fraction(weight)) for state, weight in pairs])
        assert source.entries == unread.entries
        assert source.state_masses == unread.state_masses

    @pytest.mark.parametrize(
        "bad, message",
        [("1/x", "cannot parse '1/x' as a rational"), ("-1/4", "has negative weight -1/4")],
    )
    def test_a_bad_text_that_repeats_is_reported_at_its_first_entry(self, bad, message):
        pairs = [("GGR-GGR", "1/2"), ("RRG-RRG", bad), ("GGG-GGG", bad), ("RRR-RRR", bad)]
        with pytest.raises(ConfigurationError) as exc:
            SourceDistribution(pairs)
        assert str(exc.value) == f"entries[1].weight: {message}"

    @pytest.mark.parametrize(
        "weights, index", [((1, True), 1), ((True, 1), 0), (("1", True), 1)]
    )
    def test_a_bool_beside_an_equal_weight_is_refused(self, weights, index):
        # True == 1 and they hash alike, so a memo keyed by value would take it.
        pairs = list(zip(("GGR-GGR", "RRG-RRG"), weights))
        with pytest.raises(ConfigurationError) as exc:
            SourceDistribution(pairs)
        assert str(exc.value) == f"entries[{index}].weight: cannot interpret True as a probability"


class TestShown:
    @pytest.mark.parametrize(
        "value, render, text",
        [
            (Fraction(3, 2), str, "3/2"),
            (Fraction(3, 2), repr, "Fraction(3, 2)"),
            (10**4299, str, "1" + "0" * 4299),
            (10**4300, str, "about 10^4300"),
            (Fraction(-(10**4300)), repr, "about -10^4300"),
            (Fraction(1, 10**4300), str, "about 10^-4300"),
            (Fraction(10**400), lambda v: f"{float(v)}", "about 10^400"),
            ([Fraction(10**4300)], repr, "a list holding a number past the int digit limit"),
        ],
        ids=["str", "repr", "int-at-limit", "int-past-limit", "negative", "denominator",
             "past-float-range", "list"],
    )
    def test_renders_or_gives_the_order_of_magnitude(self, value, render, text):
        assert shown(value, render) == text
