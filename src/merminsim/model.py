"""Domain model for a three-setting, two-lamp correlation device.

A source fires particle pairs at two unconnected detectors. Each detector
has a switch with three measurement positions and two lamps (green and
red). Every particle carries a deterministic instruction set fixing the
lamp for each switch position; an instruction may also be "do not flash".
Detector-side unreliability is kept separate from the particle: it is a
fourth switch position (digit 0) that yields no flash whatever arrives,
so the same instruction-set types serve every model variant.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Generic, Iterator, Mapping, Sequence, TypeVar, Union


class ConfigurationError(ValueError):
    """An experiment description is invalid (source, detector, or name)."""


class DistributionError(ConfigurationError):
    """A source distribution violates one of its invariants."""


class EmptyDistributionError(DistributionError):
    pass


class NegativeWeightError(DistributionError):
    pass


class WeightSumMismatchError(DistributionError):
    pass


class DuplicateStateError(DistributionError):
    pass


# Absolute slack allowed on the weight sum of a source distribution. The
# exact analyzer renormalizes by the exact rational sum, so tolerated
# decimal round-off never leaks into results.
WEIGHT_SUM_TOLERANCE = Fraction(1, 10**12)


class Outcome(Enum):
    """Lamp behaviour of one detector on one trial. NoFlash is a real
    outcome, never a missing value."""

    GREEN = "G"
    RED = "R"
    NO_FLASH = "N"

    @property
    def letter(self) -> str:
        return self.value

    @property
    def is_flash(self) -> bool:
        return self is not Outcome.NO_FLASH

    @classmethod
    def from_letter(cls, letter: str) -> "Outcome":
        try:
            return cls(letter)
        except ValueError:
            raise ConfigurationError(
                f"unknown outcome letter {letter!r} (expected G, R or N)"
            ) from None


OUTCOMES = (Outcome.GREEN, Outcome.RED, Outcome.NO_FLASH)


class Setting(Enum):
    """One of the three measurement positions of a detector switch.

    The failure position 0 is deliberately not a Setting; see FAILURE.
    """

    S1 = 1
    S2 = 2
    S3 = 3

    @property
    def digit(self) -> int:
        return self.value


SETTINGS = (Setting.S1, Setting.S2, Setting.S3)


class _FailurePosition(Enum):
    """Singleton marker for switch position 0 (apparatus failed to select
    a measurement setting; the detector cannot flash)."""

    FAILURE = 0


FAILURE = _FailurePosition.FAILURE

SwitchPosition = Union[Setting, _FailurePosition]

SWITCH_POSITIONS: tuple[SwitchPosition, ...] = (FAILURE,) + SETTINGS


@dataclass(frozen=True)
class InstructionSet:
    """Per-particle instructions: one outcome for each of the three settings.

    The canonical text form is three letters over {G,R,N} ordered by
    setting, e.g. "GGR" flashes green at settings 1 and 2, red at 3.
    """

    outcomes: tuple[Outcome, Outcome, Outcome]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        if len(outcomes) != 3 or not all(isinstance(o, Outcome) for o in outcomes):
            raise ConfigurationError(
                f"instruction set needs exactly three outcomes, got {self.outcomes!r}"
            )
        object.__setattr__(self, "outcomes", outcomes)

    @classmethod
    def parse(cls, text: str) -> "InstructionSet":
        if len(text) != 3:
            raise ConfigurationError(
                f"instruction set text must be 3 letters, got {text!r}"
            )
        # Each valid text maps to its prebuilt set; from_letter names a bad letter.
        return _SETS_BY_TEXT.get(text) or cls(tuple(map(Outcome.from_letter, text)))

    def outcome_at(self, setting: Setting) -> Outcome:
        return self.outcomes[setting.value - 1]

    def encode(self) -> str:
        return "".join(o.letter for o in self.outcomes)

    def __str__(self) -> str:
        return self.encode()


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

    def encode(self) -> str:
        return f"{self.alice}-{self.bob}"

    def __str__(self) -> str:
        return self.encode()


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

    Building one checks it: states may be given as text ("GNR-GGR") and
    weights as anything as_fraction reads, and a list that is empty, has a
    negative weight, repeats a state or does not sum to 1 (within
    WEIGHT_SUM_TOLERANCE) raises the DistributionError naming the fault.
    """

    entries: tuple[tuple[PairState, Fraction], ...]

    def __post_init__(self) -> None:
        entries = []
        for index, (state, weight) in enumerate(self.entries):
            if isinstance(state, str):
                state = PairState.parse(state)
            elif not isinstance(state, PairState):
                raise ConfigurationError(
                    f"entry {index}: expected a pair state, got {state!r}"
                )
            entries.append((state, as_fraction(weight)))
        if not entries:
            raise EmptyDistributionError("source distribution has no entries")
        seen: set[PairState] = set()
        total = Fraction(0)
        for index, (state, weight) in enumerate(entries):
            if weight < 0:
                raise NegativeWeightError(
                    f"entry {index} ({state}) has negative weight {weight}"
                )
            if state in seen:
                raise DuplicateStateError(f"entry {index} duplicates state {state}")
            seen.add(state)
            total += weight
        if abs(total - 1) > WEIGHT_SUM_TOLERANCE:
            raise WeightSumMismatchError(
                f"weights sum to {total} (~{float(total):.12g}), expected 1"
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
        # Inline arithmetic over OUTCOMES.index, not a dict keyed by cell:
        # hashing an Enum member runs in Python, which costs about 2 ms on 729
        # states in this, the one per-state pass of a source.
        no_flash = OUTCOMES.index(Outcome.NO_FLASH)
        cells = []
        for state, _ in self.entries:
            a = (no_flash, *map(OUTCOMES.index, state.alice.outcomes))
            b = (no_flash, *map(OUTCOMES.index, state.bob.outcomes))
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
    InstructionSet(combo) for combo in itertools.product(OUTCOMES, repeat=3)
)
_SETS_BY_TEXT = {s.encode(): s for s in ALL_INSTRUCTION_SETS}

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
        return SourceDistribution(((state, Fraction(1)),))
    raise ConfigurationError(
        f"unknown builtin distribution {name!r} (expected one of {', '.join(BUILTIN_NAMES)})"
    )


# ---------------------------------------------------------------------------
# Cell codec shared by the exact analyzer, the tally engine and the reports.
# A cell is (switch_a, switch_b, outcome_a, outcome_b); its text form is the
# digit-digit-letter-letter quadruple like "21GR", with digit 0 for failure.
# ---------------------------------------------------------------------------

CellKey = tuple[SwitchPosition, SwitchPosition, Outcome, Outcome]

N_CELLS = 4 * 4 * 3 * 3

# Codec order: switch_a digit, switch_b digit, outcome_a, outcome_b.
_CELLS: tuple[CellKey, ...] = tuple(
    itertools.product(SWITCH_POSITIONS, SWITCH_POSITIONS, OUTCOMES, OUTCOMES)
)


def iter_cells() -> Iterator[CellKey]:
    """All 144 cells in index order."""
    return iter(_CELLS)


def encode_cell(
    swa: SwitchPosition, swb: SwitchPosition, oa: Outcome, ob: Outcome
) -> str:
    return f"{swa.value}{swb.value}{oa.letter}{ob.letter}"


# ---------------------------------------------------------------------------
# The statistics of an experiment, each declared once over the cell codec.
# The exact oracle, the Monte Carlo estimates, the comparison report and the
# CLI reports all read this declaration.
# ---------------------------------------------------------------------------

SettingPair = tuple[Setting, Setting]

CASE_A_PAIRS: tuple[SettingPair, ...] = tuple((s, s) for s in SETTINGS)

CASE_B_PAIRS: tuple[SettingPair, ...] = tuple(
    (a, b) for a in SETTINGS for b in SETTINGS if a is not b
)

ALL_SETTING_PAIRS: tuple[SettingPair, ...] = tuple(
    (a, b) for a in SETTINGS for b in SETTINGS
)


@dataclass(frozen=True)
class Statistic:
    """scale * (weight of the numerator cells) / (weight of the denominator
    cells), over any nonnegative weights of the 144 cells: probabilities
    or trial counts. Each mask is the tuple of its cell indices.

    A coincidence rate carries its setting pair; its report label is
    name[digits], e.g. coincidence_rate[12].
    """

    name: str
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    scale: int = 1
    pair: Union[SettingPair, None] = None

    @property
    def key(self) -> str:
        return f"{self.pair[0].digit}{self.pair[1].digit}"

    @property
    def label(self) -> str:
        return self.name if self.pair is None else f"{self.name}[{self.key}]"

    def read(self, stats):
        """This statistic's field of a CaseStats."""
        value = getattr(stats, self.name)
        return value if self.pair is None else value[self.pair]


def _mask(test) -> tuple[int, ...]:
    return tuple(i for i, cell in enumerate(iter_cells()) if test(*cell))


def _both_flash(pairs: tuple[SettingPair, ...], same_color: bool = False) -> tuple[int, ...]:
    return _mask(
        lambda swa, swb, oa, ob: (swa, swb) in pairs
        and oa.is_flash
        and ob.is_flash
        and (oa is ob or not same_color)
    )


_ALL = _mask(lambda swa, swb, oa, ob: True)
_FLASH_A = _mask(lambda swa, swb, oa, ob: oa.is_flash)
_FLASH_B = _mask(lambda swa, swb, oa, ob: ob.is_flash)
_SET_A = _mask(lambda swa, swb, oa, ob: swa is not FAILURE)
_SET_B = _mask(lambda swa, swb, oa, ob: swb is not FAILURE)

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
    Statistic("coincidence_rate", _both_flash((pair,)), _ALL, scale=9, pair=pair)
    for pair in ALL_SETTING_PAIRS
)

# Cells pairing a failed switch with a flash: no trial can land there.
_IMPOSSIBLE = _mask(
    lambda swa, swb, oa, ob: (swa is FAILURE and oa.is_flash) or (swb is FAILURE and ob.is_flash)
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
    coincidence_rate: Mapping[SettingPair, T]

    @classmethod
    def from_values(cls, values: Sequence[T]) -> "CaseStats[T]":
        """The record of one value per statistic in declaration order;
        coincidence rates map by setting pair."""
        scalars = {s.name: v for s, v in zip(STATISTICS, values) if s.pair is None}
        rates = {s.pair: v for s, v in zip(STATISTICS, values) if s.pair is not None}
        return cls(**scalars, coincidence_rate=MappingProxyType(rates))
