"""Domain model for a three-setting, two-lamp correlation device.

A source fires particle pairs at two unconnected detectors. Each detector
has a switch with three measurement positions and two lamps (green and
red). Every particle carries a deterministic instruction set fixing the
lamp for each switch position; an instruction may also be "do not flash".
Detector-side unreliability is kept separate from the particle: it is a
fourth switch position (digit 0) that yields no flash whatever arrives,
so the same instruction-set types serve every model variant.

The model speaks the reports' spelling: a switch position is its digit
(FAILURE = 0, SETTINGS = 1, 2, 3), an outcome is one letter of OUTCOMES
(G green, R red, N no flash), and a setting pair's key is its two digits,
as in coincidence_rate[12].
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union


class ConfigurationError(ValueError):
    """An input is invalid: a source, a detector, a cell table, a config
    field or a flag. The one error type of every bad input."""


# Absolute slack allowed on the weight sum of a source distribution. The
# exact analyzer renormalizes by the exact rational sum, so tolerated
# decimal round-off never leaks into results.
WEIGHT_SUM_TOLERANCE = Fraction(1, 10**12)


# Outcome letters in codec order; N is a real outcome, never a missing value.
OUTCOMES = "GRN"
NO_FLASH = "N"

# Switch positions are digits: the three measurement settings, and the
# failure position 0 (apparatus failed to select a setting; the detector
# cannot flash), which is deliberately not a setting.
SETTINGS = (1, 2, 3)
FAILURE = 0

# An instruction set is its text: one outcome letter per setting, ordered
# by setting, e.g. "GGR" flashes green at settings 1 and 2, red at 3. A
# pair state is its text "XXX-YYY", detector A's instruction set first,
# e.g. "GNR-GGR".
ALL_INSTRUCTION_SETS = tuple("".join(s) for s in itertools.product(OUTCOMES, repeat=3))
_PAIR_STATES = frozenset(f"{a}-{b}" for a in ALL_INSTRUCTION_SETS for b in ALL_INSTRUCTION_SETS)

# The cell of switch digits (a, b) and outcomes (x, y) is
# ((a * 4 + b) * 3 + x) * 3 + y: 36a + 3x from side A plus 9b + y from
# side B. Each instruction set text maps to its side's 4 parts, one per
# digit, with digit 0 reading N.
_SIDE_A = {
    s: tuple(36 * a + 3 * OUTCOMES.index((NO_FLASH + s)[a]) for a in range(4))
    for s in ALL_INSTRUCTION_SETS
}
_SIDE_B = {
    s: tuple(9 * b + OUTCOMES.index((NO_FLASH + s)[b]) for b in range(4))
    for s in ALL_INSTRUCTION_SETS
}
# Side B's parts lie below this span, so side A's offset plus a span of
# side-B bins stays inside one switch_a digit's 36 cells.
_B_SPAN = 9 * 3 + 3


def shown(value: object, render: Callable[[object], str] = str) -> str:
    """render(value) for a diagnostic. A number it cannot render, a part
    past the int digit limit or a value past the float range, reads as
    its order of magnitude, like "about 10^4300"; a list or object
    holding one, as its type."""
    try:
        return render(value)
    except (ValueError, OverflowError):
        pass
    if not isinstance(value, (int, Fraction)):
        return f"a {type(value).__name__} holding a number past the int digit limit"
    magnitude = math.log10(abs(value.numerator)) - math.log10(value.denominator)
    return f"about {'-' if value < 0 else ''}10^{round(magnitude)}"


def _state_text(value: object) -> str:
    """value if it is a pair state's text; otherwise a ConfigurationError
    names the first fault: not text, not two parts joined by "-", a part
    that is not 3 letters, or a letter outside G, R and N."""
    if not isinstance(value, str):
        raise ConfigurationError(f"expected a pair state, got {shown(value, repr)}")
    if value in _PAIR_STATES:
        return value
    parts = value.split("-")
    if len(parts) != 2:
        raise ConfigurationError(f"pair state text must look like XXX-YYY, got {value!r}")
    # Two parts of 3 letters of OUTCOMES make a state of _PAIR_STATES, so
    # some part is at fault.
    text = next(text for text in parts if len(text) != 3 or set(text) - set(OUTCOMES))
    if len(text) != 3:
        raise ConfigurationError(f"instruction set text must be 3 letters, got {text!r}")
    letter = next(letter for letter in text if letter not in OUTCOMES)
    raise ConfigurationError(f"unknown outcome letter {letter!r} (expected G, R or N)")


WeightLike = Union[Fraction, int, float, str]


# The exponent of a decimal literal such as "1e-5" or "2.5E+3".
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*$", re.IGNORECASE)


def _digit_limit() -> int:
    """The digit limit Python puts on int() strings; 0, no limit, reads as
    the default of 4300."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def parse_rational(text: str) -> Fraction:
    """Exact Fraction of a decimal ("0.25", "1e-3") or "num/den" string.

    Fraction builds 10^exponent in full, so a decimal exponent beyond the
    digit limit Python puts on int() strings (4300 by default) is refused
    before parsing: "1e999999999" would otherwise run for hours.

    Plain "digits/digits" text (both parts str.isdecimal, as Fraction's \\d
    reads them), the form of most config weights, is read as two ints:
    that skips Fraction's regex match, which costs about as much again as
    the ints and their gcd. A part past the digit limit or a zero
    denominator falls through to Fraction(text), which gives the same
    diagnostic as for any other text.
    """
    num, _, den = text.partition("/")
    if num.isdecimal() and den.isdecimal():
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
    limit = _digit_limit()
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(limit)) or int(digits or 0) > limit:
        raise ConfigurationError(
            f"decimal exponent of {text!r} is beyond {limit}, the int digit limit"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"cannot parse {text!r} as a rational") from None


def exact_bit_bound() -> int:
    """The most bits a source's common denominator, and each failure
    probability's denominator, may have: 4758 at the default int digit
    limit of 4300 digits.

    Every exact field that enumerate and verify render is a ratio of sums
    of joint masses (model.joint_masses), reduced. So its numerator and
    denominator stay below 9 times the joint total, 9 * 9 * total *
    den(p_a) * den(p_b), and the source's total is under twice its common
    denominator. Three denominators of this many bits keep that product
    under 2^(3 bound + 8) <= 10^limit, so each part renders in at most
    limit digits and reads back through int().
    """
    # 3321928 / 10^6 is just under log2(10).
    return (_digit_limit() * 3321928 // 10**6 - 8) // 3


def as_fraction(value: WeightLike) -> Fraction:
    """Coerce a probability-like value to an exact Fraction.

    Floats go through their shortest decimal representation, so 0.1 means
    exactly 1/10. Strings accept both "0.25" and "num/den" forms.
    """
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigurationError(f"cannot interpret {value!r} as a probability")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return parse_rational(repr(value))
    raise ConfigurationError(f"cannot interpret {shown(value, repr)} as a rational")


def _read_weight(value: WeightLike) -> tuple[Fraction, int, int]:
    """A source weight as its Fraction and that Fraction's numerator and
    denominator; a negative weight raises a ConfigurationError."""
    weight = as_fraction(value)
    numerator, denominator = weight.as_integer_ratio()
    if numerator < 0:
        raise ConfigurationError(f"has negative weight {shown(weight)}")
    return weight, numerator, denominator


@dataclass(frozen=True)
class SourceDistribution:
    """Weighted list of pair states emitted by the source: each entry is a
    state's text and its weight, e.g. ("GNR-GGR", Fraction(1, 12)).

    Building one checks it, in one pass over the entries: weights may be
    given as anything as_fraction reads, and are kept as Fractions. A
    ConfigurationError names the field at fault: entries[i].state for a bad
    or repeated state, entries[i].weight for a bad or negative weight, and
    entries for a list that is empty or does not sum to 1 (within
    WEIGHT_SUM_TOLERANCE), or whose weights' common denominator has more
    than exact_bit_bound() bits; that is checked entry by entry, so a
    source past the bound is refused at its first entry past it. A weight
    text that repeats is read once. Building it also sets state_masses,
    the masses the sum is checked on: each entry's weight as an integer
    mass over the common denominator of the weights, and the total mass;
    entry i has probability masses[i] / total.
    """

    entries: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        entries = []
        ratios = []
        seen: set[str] = set()
        # Each weight text read so far, with its Fraction and integer ratio.
        # Keyed by text only: a key that is a number would take True for 1.
        texts: dict[str, tuple[Fraction, int, int]] = {}
        bound = exact_bit_bound()
        common = 1
        for index, (state, weight) in enumerate(self.entries):
            field = "state"
            try:
                state = _state_text(state)
                field = "weight"
                if not isinstance(weight, str):
                    read = _read_weight(weight)
                elif weight in texts:
                    read = texts[weight]
                else:
                    read = texts[weight] = _read_weight(weight)
                weight, numerator, denominator = read
                field = "state"
                if state in seen:
                    raise ConfigurationError(f"duplicates state {state}")
            except ConfigurationError as exc:
                raise ConfigurationError(f"entries[{index}].{field}: {exc}") from None
            if common % denominator:
                common = math.lcm(common, denominator)
                if common.bit_length() > bound:
                    raise ConfigurationError(
                        f"entries: the weights' common denominator has more than {bound} "
                        f"bits at entries[{index}], the bound on exact input"
                    )
            seen.add(state)
            entries.append((state, weight))
            ratios.append((numerator, denominator))
        if not entries:
            raise ConfigurationError("entries: has no entries")
        masses = tuple(n * (common // d) for n, d in ratios)
        total = sum(masses)
        weight_sum = Fraction(total, common)
        if abs(weight_sum - 1) > WEIGHT_SUM_TOLERANCE:
            text = shown(weight_sum, lambda total: f"{total} (~{float(total):.12g})")
            raise ConfigurationError(f"entries: weights sum to {text}, expected 1")
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "state_masses", (masses, total))

    @functools.cached_property
    def cell_masses(self) -> tuple[tuple[int, ...], int]:
        """Integer mass of each of the 144 cells, in codec order, and the
        total mass of state_masses.

        A state's mass lands once in each of its 16 cells: at each pair of
        switch digits, the outcomes its instructions give there, with digit
        0, the failure position, reading N on either side. joint_masses
        weighs each cell by the masses of its two switch positions.
        The masses are grouped by side A's instruction set: each state adds
        its mass to the group's bins at its 4 side-B parts, then each group
        adds its bins at its 4 side-A offsets.
        """
        state_masses, total = self.state_masses
        groups: dict[str, list[int]] = {}
        for (state, _), mass in zip(self.entries, state_masses):
            bins = groups.get(state[:3])
            if bins is None:
                bins = groups[state[:3]] = [0] * _B_SPAN
            b0, b1, b2, b3 = _SIDE_B[state[4:]]
            bins[b0] += mass
            bins[b1] += mass
            bins[b2] += mass
            bins[b3] += mass
        masses = [0] * N_CELLS
        for alice, bins in groups.items():
            for offset in _SIDE_A[alice]:
                end = offset + _B_SPAN
                masses[offset:end] = map(operator.add, masses[offset:end], bins)
        return tuple(masses), total

    def renormalized(self) -> tuple[tuple[str, Fraction], ...]:
        """Entries with weights divided by the exact total, summing to 1."""
        total = sum((w for _, w in self.entries), Fraction(0))
        return tuple((state, weight / total) for state, weight in self.entries)


@dataclass(frozen=True)
class DetectorModel:
    """Apparatus-side unreliability of one detector.

    With probability failure_probability the switch lands on position 0
    and the detector cannot flash; otherwise each of the three settings
    is selected with probability (1 - p) / 3. switch_masses states this
    law in integers, and the oracle and the sampler both read it. The
    denominator of p has at most exact_bit_bound() bits.
    """

    failure_probability: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        p = as_fraction(self.failure_probability)
        bound = exact_bit_bound()
        if p.denominator.bit_length() > bound:
            raise ConfigurationError(
                f"denominator has more than {bound} bits, the bound on exact input"
            )
        if not 0 <= p <= 1:
            raise ConfigurationError(f"failure probability {shown(p)} outside [0, 1]")
        object.__setattr__(self, "failure_probability", p)


def switch_masses(p: Fraction) -> tuple[int, int, int, int]:
    """Masses of switch digits 0-3 over 3 * den(p), for failure
    probability p: digit 0, the failure position, weighs p and each
    setting (1 - p) / 3."""
    rest = p.denominator - p.numerator
    return 3 * p.numerator, rest, rest, rest


def pair_masses(p_a: Fraction, p_b: Fraction) -> tuple[int, ...]:
    """Masses of the 16 switch digit pairs (a, b), at index 4 a + b, over
    9 * den(p_a) * den(p_b): the products of the two sides' switch_masses."""
    return tuple(qa * qb for qa in switch_masses(p_a) for qb in switch_masses(p_b))


def joint_masses(
    source: SourceDistribution, p_a: Fraction, p_b: Fraction
) -> tuple[list[int], int]:
    """The exact joint law of the 144 cells at failure probabilities p_a
    and p_b, in integers: each of the source's cell_masses times the
    pair_masses of its switch digit pair, and the total of all 144, so
    that cell i has probability masses[i] / total. The exact oracle and
    the Monte Carlo sampler both read it."""
    masses, total = source.cell_masses
    pairs = pair_masses(p_a, p_b)
    # The 9 cells from 9k share digit pair k = digit_a * 4 + digit_b.
    weighted = [m * q for k, q in enumerate(pairs) for m in masses[9 * k : 9 * k + 9]]
    return weighted, total * sum(pairs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines the statistics of one experiment.

    The three real settings are always independently uniform per
    detector, which makes the nine setting pairs equiprobable when both
    failure probabilities are zero.
    """

    source: SourceDistribution
    detector_a: DetectorModel = DetectorModel()
    detector_b: DetectorModel = DetectorModel()


# The six no-N sets where one colour appears once and the other twice.
TWO_ONE_SETS = ("RRG", "RGR", "RGG", "GRR", "GRG", "GGR")

# All eight instruction sets without a no-flash entry.
ALL_EIGHT_SETS = ("RRR", "RRG", "RGR", "RGG", "GRR", "GRG", "GGR", "GGG")

# The twelve-state roster that keeps case-a correlation perfect while
# bringing the detected case-b same-colour rate down to 1/4: each two-one
# set is paired with a copy whose doubled colour is replaced by N on one
# side, the last six rows being the first six after particle exchange.
TABLE1_PAIRS = (
    "NRG-GRG",
    "NGR-RGR",
    "RNG-RRG",
    "GNR-GGR",
    "RGN-RGG",
    "GRN-GRR",
    "GRG-NRG",
    "RGR-NGR",
    "RRG-RNG",
    "GGR-GNR",
    "RGG-RGN",
    "GRR-GRN",
)

BUILTIN_NAMES = ("table1_uniform", "two_one_uniform", "all_eight_uniform", "single")


def builtin_distribution(name: str, state: object = None) -> SourceDistribution:
    """One of the named source distributions.

    "single" takes the pair state's text as a second argument; the other
    builtins take no argument.
    """
    if name == "table1_uniform":
        weight = Fraction(1, 12)
        return SourceDistribution(tuple((p, weight) for p in TABLE1_PAIRS))
    if name == "two_one_uniform":
        weight = Fraction(1, 6)
        return SourceDistribution(tuple((f"{s}-{s}", weight) for s in TWO_ONE_SETS))
    if name == "all_eight_uniform":
        weight = Fraction(1, 8)
        return SourceDistribution(tuple((f"{s}-{s}", weight) for s in ALL_EIGHT_SETS))
    if name == "single":
        if state is None:
            raise ConfigurationError('builtin "single" requires a pair state')
        return SourceDistribution(((_state_text(state), Fraction(1)),))
    raise ConfigurationError(
        f"unknown builtin distribution {shown(name, repr)} "
        f"(expected one of {', '.join(BUILTIN_NAMES)})"
    )


# ---------------------------------------------------------------------------
# Cell codec shared by the exact analyzer, the tally engine and the reports.
# A cell is (switch_a, switch_b, outcome_a, outcome_b), two digits and two
# letters; its text is the four joined, like "21GR", with digit 0 for failure.
# ---------------------------------------------------------------------------

N_CELLS = 4 * 4 * 3 * 3

# Codec order: switch_a digit, switch_b digit, outcome_a, outcome_b.
CELLS = tuple(itertools.product(range(4), range(4), OUTCOMES, OUTCOMES))


# ---------------------------------------------------------------------------
# The statistics of an experiment, each declared once over the cell codec.
# The exact oracle, the Monte Carlo estimates, the comparison report and the
# CLI reports all read this declaration.
# ---------------------------------------------------------------------------

SettingPair = tuple[int, int]

CASE_A_PAIRS: tuple[SettingPair, ...] = tuple((s, s) for s in SETTINGS)

CASE_B_PAIRS: tuple[SettingPair, ...] = tuple(
    (a, b) for a in SETTINGS for b in SETTINGS if a != b
)

ALL_SETTING_PAIRS: tuple[SettingPair, ...] = tuple(
    (a, b) for a in SETTINGS for b in SETTINGS
)


@dataclass(frozen=True)
class Statistic:
    """scale * (weight of the numerator cells) / (weight of the denominator
    cells), over any nonnegative weights of the 144 cells: probabilities
    or trial counts. Each mask is the tuple of its cell indices.

    A coincidence rate carries the key of its setting pair, its two
    digits; its report label is name[key], e.g. coincidence_rate[12].
    """

    name: str
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    scale: int = 1
    key: Union[str, None] = None

    @property
    def label(self) -> str:
        return self.name if self.key is None else f"{self.name}[{self.key}]"


def _mask(test) -> tuple[int, ...]:
    return tuple(i for i, cell in enumerate(CELLS) if test(*cell))


def _both_flash(pairs: tuple[SettingPair, ...], same_color: bool = False) -> tuple[int, ...]:
    return _mask(
        lambda swa, swb, oa, ob: (swa, swb) in pairs
        and NO_FLASH not in (oa, ob)
        and (oa == ob or not same_color)
    )


_ALL = _mask(lambda swa, swb, oa, ob: True)
_FLASH_A = _mask(lambda swa, swb, oa, ob: oa != NO_FLASH)
_FLASH_B = _mask(lambda swa, swb, oa, ob: ob != NO_FLASH)
_SET_A = _mask(lambda swa, swb, oa, ob: swa != FAILURE)
_SET_B = _mask(lambda swa, swb, oa, ob: swb != FAILURE)

# p_same_case_a / p_same_case_b: same colour among double flashes at equal /
# different settings. eta = eta_u * eta_f per detector: eta is the flash
# rate, eta_f = 1 - p the chance the switch selects a setting and eta_u the
# flash rate given that it does (the instruction there is not N).
# coincidence_rate: both-flash rate of a setting pair over the 1/9 chance of
# aiming at it; at any (p_a, p_b) it is (1 - p_a)(1 - p_b) times its value at
# p = 0, while the case conditionals and eta_u do not move, as
# exact.detector_invariance_check proves per source. stats_of and
# estimate_stats key each value by its statistic's label.
STATISTICS: tuple[Statistic, ...] = (
    Statistic("p_same_case_a", _both_flash(CASE_A_PAIRS, True), _both_flash(CASE_A_PAIRS)),
    Statistic("p_same_case_b", _both_flash(CASE_B_PAIRS, True), _both_flash(CASE_B_PAIRS)),
    Statistic("eta_a", _FLASH_A, _ALL),
    Statistic("eta_b", _FLASH_B, _ALL),
    Statistic("eta_u_a", _FLASH_A, _SET_A),
    Statistic("eta_u_b", _FLASH_B, _SET_B),
    Statistic("eta_f_a", _SET_A, _ALL),
    Statistic("eta_f_b", _SET_B, _ALL),
) + tuple(
    Statistic("coincidence_rate", _both_flash(((a, b),)), _ALL, scale=9, key=f"{a}{b}")
    for a, b in ALL_SETTING_PAIRS
)

# Cells pairing a failed switch with a flash: no trial can land there.
_IMPOSSIBLE = _mask(
    lambda swa, swb, oa, ob: (swa == FAILURE and oa != NO_FLASH)
    or (swb == FAILURE and ob != NO_FLASH)
)
# Masks are read in one gather each; every mask holds 2 or more cells, so
# each gather returns a tuple, never a bare weight.
_read_impossible = operator.itemgetter(*_IMPOSSIBLE)


@dataclass(frozen=True)
class CellWeights:
    """Integer weights of the 144 cells in codec order, over their total:
    the exact joint law (cell i has probability weights[i] / total) or a
    tally (trial counts over the number of trials). The weights are
    non-negative, sum to the total and are 0 on impossible cells. They form
    a commutative monoid under merge, with empty() as identity.
    """

    weights: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        weights = tuple(self.weights)
        if len(weights) != N_CELLS:
            raise ConfigurationError(f"expected {N_CELLS} cell weights, got {len(weights)}")
        if min(weights) < 0:
            raise ConfigurationError("cell weights must be non-negative")
        total = sum(weights)
        if total != self.total:
            raise ConfigurationError(f"cell weights sum to {total}, not to the total {self.total}")
        if any(_read_impossible(weights)):
            raise ConfigurationError("a failed switch cannot coincide with a flash")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def empty(cls) -> "CellWeights":
        return cls((0,) * N_CELLS, 0)


def merge(a: CellWeights, b: CellWeights) -> CellWeights:
    """Cellwise sum; associative and commutative, identity CellWeights.empty()."""
    return CellWeights(tuple(x + y for x, y in zip(a.weights, b.weights)), a.total + b.total)


_MASKS = tuple(dict.fromkeys(m for s in STATISTICS for m in (s.numerator, s.denominator)))
_MASK_READS = tuple(operator.itemgetter(*mask) for mask in _MASKS)
# Per statistic, the places of its numerator and denominator in _MASKS.
_SUM_PLACES = tuple((_MASKS.index(s.numerator), _MASKS.index(s.denominator)) for s in STATISTICS)


def statistic_sums(weights: Sequence[int]) -> list[tuple[int, int]]:
    """(numerator, denominator) weight sums of every statistic, in
    declaration order, from the 144 cell weights in codec order."""
    sums = [sum(read(weights)) for read in _MASK_READS]
    return [(sums[num], sums[den]) for num, den in _SUM_PLACES]
