"""Exact statistics by full enumeration, in rational arithmetic.

Every quantity produced here is a Fraction obtained by summing finitely
many products of exact weights and switch probabilities, so equalities
like "the case-b same-colour rate is exactly 1/4" are decidable with no
tolerance. This module is the oracle the Monte Carlo engine is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .model import (
    ALL_EIGHT_SETS,
    CASE_B_PAIRS,
    CaseStats,
    CellWeights,
    ConfigurationError,
    ExperimentConfig,
    NO_FLASH,
    STATISTICS,
    WeightLike,
    as_fraction,
    statistic_sums,
)


def _switch_weights(p: Fraction) -> tuple[int, int, int, int]:
    """The switch law (p, (1-p)/3, (1-p)/3, (1-p)/3) of digits 0-3, times
    3 * p.denominator."""
    num, den = p.numerator, p.denominator
    return (3 * num,) + (den - num,) * 3


def enumerate_joint(config: ExperimentConfig) -> CellWeights:
    """Full joint distribution of one experiment.

    Each side's switch lands on the failure position (digit 0) with
    probability p and on each setting with probability (1 - p) / 3; a
    failed switch reads N, like an N instruction. The source's integer
    cell masses (one pass per source, shared by every detector setting)
    therefore give each of the 144 cells the weight
    mass * law_a[digit_a] * law_b[digit_b] in integers over one
    denominator, total * 9 * den(p_a) * den(p_b).
    """
    masses, total = config.source.cell_masses
    p_a = config.detector_a.failure_probability
    p_b = config.detector_b.failure_probability
    pair_law = [qa * qb for qa in _switch_weights(p_a) for qb in _switch_weights(p_b)]
    # The 9 cells from 9k share digit pair k = digit_a * 4 + digit_b.
    return CellWeights(
        tuple([m * q for k, q in enumerate(pair_law) for m in masses[9 * k : 9 * k + 9]]),
        total * 9 * p_a.denominator * p_b.denominator,
    )


def conditional_stats(table: CellWeights) -> CaseStats[Union[Fraction, None]]:
    """Exact CaseStats of cell weights, a law or a tally: each statistic is
    scale * numerator / denominator of its declared cell weights."""
    values = [
        Fraction(stat.scale * num, den) if den else None
        for stat, (num, den) in zip(STATISTICS, statistic_sums(table.weights))
    ]
    return CaseStats.from_values(values)


def case_b_same_fraction(s: str) -> Fraction:
    """Fraction of the six different-setting pairs giving equal colours
    when both particles carry instruction set s, e.g. "GGR".

    Only defined for sets without a no-flash entry; mixed cases belong to
    enumerate_joint.
    """
    if NO_FLASH in s:
        raise ValueError(
            f"{s} contains a no-flash instruction; case-b fraction is defined "
            "for flash-only sets"
        )
    same = sum(1 for sa, sb in CASE_B_PAIRS if s[sa - 1] == s[sb - 1])
    return Fraction(same, len(CASE_B_PAIRS))


@dataclass(frozen=True)
class MinCaseBResult:
    minimum: Fraction
    support: tuple[str, ...]


def min_case_b_no_noflash() -> MinCaseBResult:
    """Minimum case-b same-colour rate over sources of identical no-N pairs.

    The rate of a mixture is linear in the weights, so the minimum is
    attained on vertex classes: evaluate the eight flash-only instruction
    sets and keep those achieving the smallest value (the six two-one
    sets, at exactly 1/3; the two homogeneous sets sit at 1).
    """
    values = {s: case_b_same_fraction(s) for s in ALL_EIGHT_SETS}
    minimum = min(values.values())
    return MinCaseBResult(minimum, tuple(s for s in ALL_EIGHT_SETS if values[s] == minimum))


@dataclass(frozen=True)
class DetectorInvarianceReport:
    """Exact comparison of one source under a sweep of detector failure
    probabilities (applied to both detectors).

    conditionals_invariant: p_same_case_a, p_same_case_b, eta_u_a and
    eta_u_b are identical, as exact rationals, at every swept p and at the
    p = 0 baseline. coincidence_scaling_exact: every coincidence_rate cell
    equals (1 - p)^2 times its baseline value. eta_multiplicative:
    eta = eta_u * eta_f holds exactly per detector at every swept p.
    """

    stats_by_p: tuple[CaseStats, ...]
    conditionals_invariant: bool
    coincidence_scaling_exact: bool
    eta_multiplicative: bool

    @property
    def passed(self) -> bool:
        return (
            self.conditionals_invariant
            and self.coincidence_scaling_exact
            and self.eta_multiplicative
        )


def detector_invariance_check(
    config: ExperimentConfig, grid: Sequence[WeightLike]
) -> DetectorInvarianceReport:
    """Sweep both detectors' failure probabilities over grid, whose every
    point must lie in [0, 1), and report what moves.

    Detector-side loss must leave every conditional and the unfair
    efficiencies untouched, scaling only the coincidence rates; this is
    the exact statement behind "blaming the detectors keeps the statistics
    of the detected sample intact".
    """
    ps = tuple(as_fraction(p) for p in grid)
    for p in ps:
        if not 0 <= p < 1:
            raise ConfigurationError(f"failure probability {p} outside [0, 1)")

    baseline = conditional_stats(
        enumerate_joint(config.with_failure_probabilities(0, 0))
    )
    stats_by_p = tuple(
        conditional_stats(enumerate_joint(config.with_failure_probabilities(p, p)))
        for p in ps
    )

    conditionals_invariant = all(
        st.p_same_case_a == baseline.p_same_case_a
        and st.p_same_case_b == baseline.p_same_case_b
        and st.eta_u_a == baseline.eta_u_a
        and st.eta_u_b == baseline.eta_u_b
        for st in stats_by_p
    )
    coincidence_scaling_exact = all(
        rate == (1 - p) * (1 - p) * baseline.coincidence_rate[key]
        for p, st in zip(ps, stats_by_p)
        for key, rate in st.coincidence_rate.items()
    )
    eta_multiplicative = all(
        st.eta_a == st.eta_u_a * st.eta_f_a and st.eta_b == st.eta_u_b * st.eta_f_b
        for st in stats_by_p
    )

    return DetectorInvarianceReport(
        stats_by_p=stats_by_p,
        conditionals_invariant=conditionals_invariant,
        coincidence_scaling_exact=coincidence_scaling_exact,
        eta_multiplicative=eta_multiplicative,
    )
