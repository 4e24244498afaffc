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
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Generic, Mapping, Sequence, TypeVar, Union


class ConfigurationError(ValueError):
    """An input is invalid: a source, a detector, a config field or a flag.
    The one error type of every bad input."""


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


@dataclass(frozen=True)
class InstructionSet:
    """Per-particle instructions: one outcome for each of the three settings,
    as three letters over {G,R,N} ordered by setting, e.g. "GGR" flashes
    green at settings 1 and 2, red at 3.
    """

    outcomes: str

    def __post_init__(self) -> None:
        if not isinstance(self.outcomes, str) or len(self.outcomes) != 3:
            raise ConfigurationError(
                f"instruction set text must be 3 letters, got {self.outcomes!r}"
            )
        for letter in self.outcomes:
            if letter not in OUTCOMES:
                raise ConfigurationError(
                    f"unknown outcome letter {letter!r} (expected G, R or N)"
                )

    @classmethod
    def parse(cls, text: str) -> "InstructionSet":
        # Each valid text maps to its prebuilt set; the constructor names a fault.
        return _SETS_BY_TEXT.get(text) or cls(text)

    def outcome_at(self, setting: int) -> str:
        return self.outcomes[setting - 1]

    def __str__(self) -> str:
        return self.outcomes


@dataclass(frozen=True)
class PairState:
    """Hidden state of one emitted pair: the two instruction sets.

    Text form "XXX-YYY" puts detector A's particle first, e.g. "GNR-GGR".
    """

    alice: InstructionSet
    bob: InstructionSet

    @classmethod
    def parse(cls, text: str) -> "PairState":
        parts = text.split("-")
        if len(parts) != 2:
            raise ConfigurationError(
                f"pair state text must look like XXX-YYY, got {text!r}"
            )
        return cls(InstructionSet.parse(parts[0]), InstructionSet.parse(parts[1]))

    def __str__(self) -> str:
        return f"{self.alice}-{self.bob}"


def _pair_state(value: Union[PairState, str]) -> PairState:
    if isinstance(value, PairState):
        return value
    if isinstance(value, str):
        return PairState.parse(value)
    raise ConfigurationError(f"expected a pair state, got {value!r}")


WeightLike = Union[Fraction, int, float, str]


# The exponent of a decimal literal such as "1e-5" or "2.5E+3".
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*$", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Exact Fraction of a decimal ("0.25", "1e-3") or "num/den" string.

    Fraction builds 10^exponent in full, so a decimal exponent beyond the
    digit limit Python puts on int() strings (4300 by default) is refused
    before parsing: "1e999999999" would otherwise run for hours.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
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


def as_fraction(value: WeightLike) -> Fraction:
    """Coerce a probability-like value to an exact Fraction.

    Floats go through their shortest decimal representation, so 0.1 means
    exactly 1/10. Strings accept both "0.25" and "num/den" forms.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ConfigurationError(f"cannot interpret {value!r} as a probability")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return parse_rational(repr(value))
    if isinstance(value, str):
        return parse_rational(value)
    raise ConfigurationError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class SourceDistribution:
    """Weighted list of pair states emitted by the source.

    Building one checks it, in one pass over the entries: states may be
    given as text ("GNR-GGR") and weights as anything as_fraction reads. A
    ConfigurationError names the field at fault: entries[i].state for a bad
    or repeated state, entries[i].weight for a bad or negative weight, and
    entries for a list that is empty or does not sum to 1 (within
    WEIGHT_SUM_TOLERANCE).
    """

    entries: tuple[tuple[PairState, Fraction], ...]

    def __post_init__(self) -> None:
        entries = []
        seen: set[PairState] = set()
        total = Fraction(0)
        for index, (state, weight) in enumerate(self.entries):
            field = "state"
            try:
                state = _pair_state(state)
                field = "weight"
                weight = as_fraction(weight)
                if weight < 0:
                    raise ConfigurationError(f"has negative weight {weight}")
                field = "state"
                if state in seen:
                    raise ConfigurationError(f"duplicates state {state}")
            except ConfigurationError as exc:
                raise ConfigurationError(f"entries[{index}].{field}: {exc}") from None
            seen.add(state)
            total += weight
            entries.append((state, weight))
        if not entries:
            raise ConfigurationError("entries: has no entries")
        if abs(total - 1) > WEIGHT_SUM_TOLERANCE:
            raise ConfigurationError(
                f"entries: weights sum to {total} (~{float(total):.12g}), expected 1"
            )
        object.__setattr__(self, "entries", tuple(entries))

    @functools.cached_property
    def state_masses(self) -> tuple[tuple[int, ...], int]:
        """Each entry's weight as an integer mass over the common
        denominator of the weights, and the total mass: entry i has
        probability masses[i] / total. Computed once per source."""
        denominator = math.lcm(*(w.denominator for _, w in self.entries))
        masses = tuple(w.numerator * (denominator // w.denominator) for _, w in self.entries)
        return masses, sum(masses)

    @functools.cached_property
    def state_cells(self) -> tuple[tuple[int, ...], ...]:
        """Per entry, the cell of each of the 16 (switch_a, switch_b) digit
        pairs, at index digit_a * 4 + digit_b: the outcomes its instructions
        give there, with digit 0, the failure position, reading N on either
        side. The exact oracle and the Monte Carlo engine both read it."""
        cells = []
        for state, _ in self.entries:
            a = [*map(OUTCOMES.index, NO_FLASH + state.alice.outcomes)]
            b = [*map(OUTCOMES.index, NO_FLASH + state.bob.outcomes)]
            cells.append(
                tuple(
                    [
                        ((digit_a * 4 + digit_b) * 3 + a[digit_a]) * 3 + b[digit_b]
                        for digit_a in range(4)
                        for digit_b in range(4)
                    ]
                )
            )
        return tuple(cells)

    @functools.cached_property
    def cell_masses(self) -> tuple[tuple[int, ...], int]:
        """Integer mass of each of the 144 cells, in codec order, and the
        total mass of state_masses.

        A state's mass lands once in each of its 16 state_cells. A cell's
        probability is then mass / total times the probabilities of its two
        switch positions, whatever the detectors.
        """
        state_masses, total = self.state_masses
        masses = [0] * N_CELLS
        for mass, cells in zip(state_masses, self.state_cells):
            for cell in cells:
                masses[cell] += mass
        return tuple(masses), total

    def renormalized(self) -> tuple[tuple[PairState, Fraction], ...]:
        """Entries with weights divided by the exact total, summing to 1."""
        total = sum((w for _, w in self.entries), Fraction(0))
        return tuple((state, weight / total) for state, weight in self.entries)


@dataclass(frozen=True)
class DetectorModel:
    """Apparatus-side unreliability of one detector.

    With probability failure_probability the switch lands on position 0
    and the detector cannot flash; otherwise each of the three settings
    is selected with probability (1 - p) / 3.
    """

    failure_probability: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        p = as_fraction(self.failure_probability)
        if not 0 <= p <= 1:
            raise ConfigurationError(f"failure probability {p} outside [0, 1]")
        object.__setattr__(self, "failure_probability", p)


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

    def with_failure_probabilities(
        self, p_a: WeightLike, p_b: WeightLike
    ) -> "ExperimentConfig":
        return ExperimentConfig(
            source=self.source,
            detector_a=DetectorModel(p_a),
            detector_b=DetectorModel(p_b),
        )


def _sets(*texts: str) -> tuple[InstructionSet, ...]:
    return tuple(InstructionSet.parse(t) for t in texts)


def _pairs(*texts: str) -> tuple[PairState, ...]:
    return tuple(PairState.parse(t) for t in texts)


ALL_INSTRUCTION_SETS = tuple(
    InstructionSet("".join(combo)) for combo in itertools.product(OUTCOMES, repeat=3)
)
_SETS_BY_TEXT = {s.outcomes: s for s in ALL_INSTRUCTION_SETS}

# The six no-N sets where one colour appears once and the other twice.
TWO_ONE_SETS = _sets("RRG", "RGR", "RGG", "GRR", "GRG", "GGR")

# All eight instruction sets without a no-flash entry.
ALL_EIGHT_SETS = _sets("RRR", "RRG", "RGR", "RGG", "GRR", "GRG", "GGR", "GGG")

# The twelve-state roster that keeps case-a correlation perfect while
# bringing the detected case-b same-colour rate down to 1/4: each two-one
# set is paired with a copy whose doubled colour is replaced by N on one
# side, the last six rows being the first six after particle exchange.
TABLE1_PAIRS = _pairs(
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


def builtin_distribution(
    name: str, state: Union[PairState, str, None] = None
) -> SourceDistribution:
    """One of the named source distributions.

    "single" takes the pair state as a second argument; the other
    builtins take no argument.
    """
    if name == "table1_uniform":
        weight = Fraction(1, 12)
        return SourceDistribution(tuple((p, weight) for p in TABLE1_PAIRS))
    if name == "two_one_uniform":
        weight = Fraction(1, 6)
        return SourceDistribution(
            tuple((PairState(s, s), weight) for s in TWO_ONE_SETS)
        )
    if name == "all_eight_uniform":
        weight = Fraction(1, 8)
        return SourceDistribution(
            tuple((PairState(s, s), weight) for s in ALL_EIGHT_SETS)
        )
    if name == "single":
        if state is None:
            raise ConfigurationError('builtin "single" requires a pair state')
        return SourceDistribution(((_pair_state(state), Fraction(1)),))
    raise ConfigurationError(
        f"unknown builtin distribution {name!r} (expected one of {', '.join(BUILTIN_NAMES)})"
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

    def read(self, stats):
        """This statistic's field of a CaseStats."""
        value = getattr(stats, self.name)
        return value if self.key is None else value[self.key]


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
# rate, eta_f the chance the switch selects a setting and eta_u the flash
# rate given that it does. coincidence_rate: both-flash rate of a setting
# pair over the 1/9 chance of aiming at it.
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
            raise ValueError(f"expected {N_CELLS} cell weights, got {len(weights)}")
        if min(weights) < 0:
            raise ValueError("cell weights must be non-negative")
        if sum(weights) != self.total:
            raise ValueError(f"cell weights sum to {sum(weights)}, not to the total {self.total}")
        if any([weights[i] for i in _IMPOSSIBLE]):
            raise ValueError("a failed switch cannot coincide with a flash")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def empty(cls) -> "CellWeights":
        return cls((0,) * N_CELLS, 0)


def merge(a: CellWeights, b: CellWeights) -> CellWeights:
    """Cellwise sum; associative and commutative, identity CellWeights.empty()."""
    return CellWeights(tuple(x + y for x, y in zip(a.weights, b.weights)), a.total + b.total)


_MASKS = tuple(dict.fromkeys(m for s in STATISTICS for m in (s.numerator, s.denominator)))


def statistic_sums(weights: Sequence[int]) -> list[tuple[int, int]]:
    """(numerator, denominator) weight sums of every statistic, in
    declaration order, from the 144 cell weights in codec order."""
    sums = {mask: sum([weights[i] for i in mask]) for mask in _MASKS}
    return [(sums[s.numerator], sums[s.denominator]) for s in STATISTICS]


T = TypeVar("T")


@dataclass(frozen=True)
class CaseStats(Generic[T]):
    """One value per declared statistic, each field as STATISTICS defines
    it: exact rationals from conditional_stats (CaseStats[Fraction | None])
    or estimates with errors from estimate_stats (CaseStats[Estimate]).

    eta = eta_u * eta_f per detector: eta_f = 1 - p is the apparatus part
    and eta_u the particle part (the chance the instruction at the selected
    setting is not N). A coincidence rate equals the realized-pair
    conditional when p_a = p_b = 0 and scales by (1 - p_a)(1 - p_b) under
    detector failure, while the case conditionals and eta_u do not move.

    An exact field is None (never zero), and an estimate undefined, when
    its conditioning event has probability or count zero.
    """

    p_same_case_a: T
    p_same_case_b: T
    eta_a: T
    eta_b: T
    eta_u_a: T
    eta_u_b: T
    eta_f_a: T
    eta_f_b: T
    coincidence_rate: Mapping[str, T]

    @classmethod
    def from_values(cls, values: Sequence[T]) -> "CaseStats[T]":
        """The record of one value per statistic in declaration order;
        coincidence rates map by the key of their setting pair, e.g. "12"."""
        scalars = {s.name: v for s, v in zip(STATISTICS, values) if s.key is None}
        rates = {s.key: v for s, v in zip(STATISTICS, values) if s.key is not None}
        return cls(**scalars, coincidence_rate=MappingProxyType(rates))
