"""Exact statistics by full enumeration, in rational arithmetic.

Every quantity produced here is a Fraction obtained by summing finitely
many products of exact weights and switch probabilities, so equalities
like "the case-b same-colour rate is exactly 1/4" are decidable with no
tolerance. This module is the oracle the Monte Carlo engine is checked
against.

Each side's switch law is (1 - p) times its law at p = 0 plus p times
its law at p = 1, so each statistic's numerator and denominator is a
bilinear form in (1 - p_a, p_a) and (1 - p_b, p_b), fixed by its values
at the four corners of [0, 1]^2 (failure_class_sums): sums_at evaluates
it at any (p_a, p_b), and detector_invariance_check proves detector
invariance on all of [0, 1]^2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .model import (
    ALL_EIGHT_SETS,
    CASE_B_PAIRS,
    CellWeights,
    ConfigurationError,
    ExperimentConfig,
    NO_FLASH,
    STATISTICS,
    SourceDistribution,
    joint_masses,
    statistic_sums,
)

# Per statistic, its (numerator, denominator) weight sums at the four
# corners (p_a, p_b) = (0, 0), (0, 1), (1, 0) and (1, 1) of [0, 1]^2: the
# failure classes (A, B) (selected, selected), (selected, failed),
# (failed, selected) and (failed, failed). Each corner weighs its cells by
# pair_masses there, so every corner's cells sum to 9 * total.
ClassSums = tuple[tuple[tuple[int, int], ...], ...]


def enumerate_joint(config: ExperimentConfig) -> CellWeights:
    """Full joint distribution of one experiment.

    Each side's switch lands on the failure position (digit 0) with
    probability p and on each setting with probability (1 - p) / 3; a
    failed switch reads N, like an N instruction. joint_masses therefore
    gives each of the 144 cells its cell mass (one pass per source, shared
    by every detector setting) times the pair_masses of its digit pair, in
    integers over one denominator, 9 * den(p_a) * den(p_b) * total.
    """
    p_a, p_b = config.detector_a.failure_probability, config.detector_b.failure_probability
    return CellWeights(*joint_masses(config.source, p_a, p_b))


def stats_of(sums: Sequence[tuple[int, int]]) -> dict[str, Union[Fraction, None]]:
    """Exact value of every statistic by label, in declaration order, from
    its (numerator, denominator) weight sums: scale * numerator /
    denominator, or None (never 0) where the denominator is 0."""
    return {s.label: Fraction(s.scale * n, d) if d else None for s, (n, d) in zip(STATISTICS, sums)}


def conditional_stats(table: CellWeights) -> dict[str, Union[Fraction, None]]:
    """stats_of cell weights, a law or a tally: each statistic is scale *
    numerator / denominator of its declared cell weights."""
    return stats_of(statistic_sums(table.weights))


def failure_class_sums(source: SourceDistribution) -> ClassSums:
    """statistic_sums of the source's joint_masses at each corner of
    [0, 1]^2; see ClassSums."""
    corners = [joint_masses(source, Fraction(a), Fraction(b))[0] for a in (0, 1) for b in (0, 1)]
    return tuple(zip(*(statistic_sums(masses) for masses in corners)))


def sums_at(classes: ClassSums, p_a: Fraction, p_b: Fraction) -> list[tuple[int, int]]:
    """Every statistic's (numerator, denominator) weight sums in
    enumerate_joint's table at failure probabilities p_a and p_b. A side's
    switch_masses are (den - num) times those at p = 0 plus num times those
    at p = 1, so each corner's sums weigh the product of its sides' factors."""
    (a0, a1), (b0, b1) = ((p.denominator - p.numerator, p.numerator) for p in (p_a, p_b))
    f0, f1, f2, f3 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    return [
        (f0 * n0 + f1 * n1 + f2 * n2 + f3 * n3, f0 * d0 + f1 * d1 + f2 * d2 + f3 * d3)
        for (n0, d0), (n1, d1), (n2, d2), (n3, d3) in classes
    ]


def case_b_same_fraction(s: str) -> Fraction:
    """Fraction of the six different-setting pairs giving equal colours
    when both particles carry instruction set s, e.g. "GGR".

    Only defined for sets without a no-flash entry; mixed cases belong to
    enumerate_joint.
    """
    if NO_FLASH in s:
        raise ConfigurationError(
            f"{s} contains a no-flash instruction; case-b fraction is defined "
            "for flash-only sets"
        )
    same = sum(1 for sa, sb in CASE_B_PAIRS if s[sa - 1] == s[sb - 1])
    return Fraction(same, len(CASE_B_PAIRS))


def min_case_b_no_noflash() -> tuple[Fraction, tuple[str, ...]]:
    """Minimum case-b same-colour rate over sources of identical no-N
    pairs, and its support: the instruction sets that attain it.

    The rate of a mixture is linear in the weights, so the minimum is
    attained on vertex classes: evaluate the eight flash-only instruction
    sets and keep those achieving the smallest value (the six two-one
    sets, at exactly 1/3; the two homogeneous sets sit at 1).
    """
    values = {s: case_b_same_fraction(s) for s in ALL_EIGHT_SETS}
    minimum = min(values.values())
    return minimum, tuple(s for s in ALL_EIGHT_SETS if values[s] == minimum)


def _unmoved(per_class: Sequence[tuple[int, int]]) -> bool:
    """Whether a statistic's class sums make numerator / denominator the
    same at every (p_a, p_b) where the denominator is not 0: N_c * D_0 ==
    N_0 * D_c for every class c, and no D_c is nonzero where D_0 is 0."""
    num_0, den_0 = per_class[0]
    return all(num * den_0 == num_0 * den and (den_0 or not den) for num, den in per_class)


def detector_invariance_check(
    config: ExperimentConfig, stats: dict[str, Union[Fraction, None]]
) -> tuple[str, ...]:
    """The claims of detector invariance that fail on config, given stats,
    conditional_stats(enumerate_joint(config)); empty when all hold.

    The first three are identities of failure_class_sums, so each holds
    on all of [0, 1]^2 or nowhere. Class c is the c-th corner of ClassSums,
    class 0 has no failure, and every class sums to S = 9 * total.
    - "conditionals": p_same_case_a, p_same_case_b, eta_u_a and eta_u_b
      do not move wherever their conditioning event has mass (_unmoved).
    - "coincidence scaling": each coincidence rate is (1 - p_a)(1 - p_b)
      times its value at p = 0: its numerator is 0 outside class 0, and
      its denominator S in every class.
    - "eta_f": eta_f = 1 - p per side: a side's selected-setting sum is
      S where it selects and 0 where it fails, over S.
    - "oracle": at config's own (p_a, p_b), stats_of(sums_at(...)) gives
      stats, which ties the class sums to enumerate_joint.
    """
    classes = failure_class_sums(config.source)
    per_stat = {stat.label: per_class for stat, per_class in zip(STATISTICS, classes)}
    s = 9 * config.source.cell_masses[1]
    conditionals = ("p_same_case_a", "p_same_case_b", "eta_u_a", "eta_u_b")
    rates = [per_stat[stat.label] for stat in STATISTICS if stat.key is not None]
    p_a = config.detector_a.failure_probability
    p_b = config.detector_b.failure_probability
    claims = {
        "conditionals": all(_unmoved(per_stat[name]) for name in conditionals),
        "coincidence scaling": all(r[0][1] == s and r[1:] == ((0, s),) * 3 for r in rates),
        "eta_f": per_stat["eta_f_a"] == ((s, s), (s, s), (0, s), (0, s))
        and per_stat["eta_f_b"] == ((s, s), (0, s), (s, s), (0, s)),
        "oracle": stats_of(sums_at(classes, p_a, p_b)) == stats,
    }
    return tuple(name for name, holds in claims.items() if not holds)
