"""Exact statistics by full enumeration, in rational arithmetic.

Every quantity produced here is a Fraction obtained by summing finitely
many products of exact weights and switch probabilities, so equalities
like "the case-b same-colour rate is exactly 1/4" are decidable with no
tolerance. This module is the oracle the Monte Carlo engine is checked
against.

Each statistic's numerator and denominator is a bilinear form in the
two sides' switch weights, with one integer coefficient per failure class
(failure_class_sums): sums_at evaluates it at any (p_a, p_b), and
detector_invariance_check proves detector invariance on all of [0, 1]^2.
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
    ExperimentConfig,
    NO_FLASH,
    STATISTICS,
    SourceDistribution,
    statistic_sums,
)

# Per statistic, its (numerator, denominator) weight sums in each failure
# class (A, B): (selected, selected), (selected, failed), (failed, selected)
# and (failed, failed), by whether each side's switch selected a setting.
ClassSums = tuple[tuple[tuple[int, int], ...], ...]


def _class_weights(p: Fraction) -> tuple[int, int]:
    """The switch law (p, (1-p)/3, (1-p)/3, (1-p)/3) of digits 0-3, times
    3 * p.denominator, on one setting and on the failure position: the
    factors of a side that selected a setting and of a failed side."""
    return p.denominator - p.numerator, 3 * p.numerator


def _weighted(masses: Sequence[int], law_a: Sequence[int], law_b: Sequence[int]) -> list[int]:
    """The 144 cell masses in codec order, each times law_a[digit_a] *
    law_b[digit_b]."""
    pair_law = [qa * qb for qa in law_a for qb in law_b]
    # The 9 cells from 9k share digit pair k = digit_a * 4 + digit_b.
    return [m * q for k, q in enumerate(pair_law) for m in masses[9 * k : 9 * k + 9]]


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
    (set_a, fail_a), (set_b, fail_b) = _class_weights(p_a), _class_weights(p_b)
    weights = _weighted(masses, (fail_a, set_a, set_a, set_a), (fail_b, set_b, set_b, set_b))
    return CellWeights(tuple(weights), total * 9 * p_a.denominator * p_b.denominator)


def stats_of(sums: Sequence[tuple[int, int]]) -> CaseStats[Union[Fraction, None]]:
    """Exact CaseStats of every statistic's (numerator, denominator) weight
    sums, in declaration order: scale * numerator / denominator, or None
    where the denominator is 0."""
    values = [Fraction(s.scale * n, d) if d else None for s, (n, d) in zip(STATISTICS, sums)]
    return CaseStats.from_values(values)


def conditional_stats(table: CellWeights) -> CaseStats[Union[Fraction, None]]:
    """Exact CaseStats of cell weights, a law or a tally: each statistic is
    scale * numerator / denominator of its declared cell weights."""
    return stats_of(statistic_sums(table.weights))


def failure_class_sums(source: SourceDistribution) -> ClassSums:
    """statistic_sums of the source's cell masses, once per failure class
    with the other classes' cells zeroed; see ClassSums."""
    masses, _ = source.cell_masses
    sides = ((0, 1, 1, 1), (1, 0, 0, 0))  # per switch digit: selected, failed
    return tuple(zip(*(statistic_sums(_weighted(masses, a, b)) for a in sides for b in sides)))


def sums_at(classes: ClassSums, p_a: Fraction, p_b: Fraction) -> list[tuple[int, int]]:
    """Every statistic's (numerator, denominator) weight sums in
    enumerate_joint's table at failure probabilities p_a and p_b: each
    class's sums times its two sides' factors, summed over the classes."""
    f0, f1, f2, f3 = (wa * wb for wa in _class_weights(p_a) for wb in _class_weights(p_b))
    return [
        (f0 * n0 + f1 * n1 + f2 * n2 + f3 * n3, f0 * d0 + f1 * d1 + f2 * d2 + f3 * d3)
        for (n0, d0), (n1, d1), (n2, d2), (n3, d3) in classes
    ]


def stats_at(
    classes: ClassSums, p_a: Fraction, p_b: Fraction
) -> CaseStats[Union[Fraction, None]]:
    """Exact CaseStats at failure probabilities p_a and p_b, from classes."""
    return stats_of(sums_at(classes, p_a, p_b))


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


def _unmoved(per_class: Sequence[tuple[int, int]]) -> bool:
    """Whether a statistic's class sums make numerator / denominator the
    same at every (p_a, p_b) where the denominator is not 0: N_c * D_0 ==
    N_0 * D_c for every class c, and no D_c is nonzero where D_0 is 0."""
    num_0, den_0 = per_class[0]
    return all(num * den_0 == num_0 * den and (den_0 or not den) for num, den in per_class)


def detector_invariance_check(
    config: ExperimentConfig, stats: CaseStats[Union[Fraction, None]]
) -> tuple[str, ...]:
    """The claims of detector invariance that fail on config, given stats,
    conditional_stats(enumerate_joint(config)); empty when all hold.

    The first three are identities of failure_class_sums, so each holds
    on all of [0, 1]^2 or nowhere. Class c is the c-th of ClassSums and S_c
    its sum over all its cells; class 0 has no failure.
    - "conditionals": p_same_case_a, p_same_case_b, eta_u_a and eta_u_b
      do not move wherever their conditioning event has mass (_unmoved).
    - "coincidence scaling": each coincidence rate is (1 - p_a)(1 - p_b)
      times its value at p = 0: its numerator is 0 outside class 0, and
      S_c = total * m_a * m_b, m = 3 on a selecting side and 1 on a failed.
    - "eta_f": eta_f = 1 - p per side: a side's selected-setting sum is
      S_c where it selected and 0 where it failed.
    - "oracle": at config's own (p_a, p_b), stats_at gives stats, which
      ties the class sums to enumerate_joint.
    """
    classes = failure_class_sums(config.source)
    per_stat = {stat.label: per_class for stat, per_class in zip(STATISTICS, classes)}
    s_0, s_1, s_2, s_3 = (config.source.cell_masses[1] * m for m in (9, 3, 3, 1))
    conditionals = ("p_same_case_a", "p_same_case_b", "eta_u_a", "eta_u_b")
    rates = [per_stat[stat.label] for stat in STATISTICS if stat.key is not None]
    p_a = config.detector_a.failure_probability
    p_b = config.detector_b.failure_probability
    claims = {
        "conditionals": all(_unmoved(per_stat[name]) for name in conditionals),
        "coincidence scaling": all(
            rate[0][1] == s_0 and rate[1:] == ((0, s_1), (0, s_2), (0, s_3)) for rate in rates
        ),
        "eta_f": per_stat["eta_f_a"] == ((s_0, s_0), (s_1, s_1), (0, s_2), (0, s_3))
        and per_stat["eta_f_b"] == ((s_0, s_0), (0, s_1), (s_2, s_2), (0, s_3)),
        "oracle": stats_at(classes, p_a, p_b) == stats,
    }
    return tuple(name for name, holds in claims.items() if not holds)
