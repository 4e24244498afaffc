"""The exact oracle against the triple loop it replaces.

enumerate_joint reads each cell off the source's integer cell masses; the
reference below spreads every renormalized weight over both switch laws,
one Fraction product at a time. The two must agree cell for cell, and
the exact properties the oracle promises must hold on random sources:
the failure-class form gives the same statistics, and its detector
invariance identities hold. The switch law that both read, pair_masses,
must be bilinear in its values at the four corners of [0, 1]^2.
The cell masses, grouped by side A's instruction set, must also equal a
per-state loop over each state's 16 cells, read from its text.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from merminsim.exact import (
    conditional_stats,
    detector_invariance_check,
    enumerate_joint,
    failure_class_sums,
    stats_of,
    sums_at,
)
from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    CELLS,
    DetectorModel,
    ExperimentConfig,
    FAILURE,
    N_CELLS,
    NO_FLASH,
    SETTINGS,
    SourceDistribution,
    builtin_distribution,
    pair_masses,
    switch_masses,
)

ALL_PAIRS = tuple(f"{a}-{b}" for a in ALL_INSTRUCTION_SETS for b in ALL_INSTRUCTION_SETS)


def reference_joint(config):
    """Joint law by full enumeration over states and both switch laws."""
    entries = config.source.renormalized()

    def switch_law(p):
        law = [(FAILURE, p)] + [(s, (1 - p) / 3) for s in SETTINGS]
        return [(sw, q) for sw, q in law if q != 0]

    law_a = switch_law(config.detector_a.failure_probability)
    law_b = switch_law(config.detector_b.failure_probability)
    prob = {key: Fraction(0) for key in CELLS}
    for state, weight in entries:
        alice, bob = state.split("-")
        for swa, qa in law_a:
            oa = NO_FLASH if swa == FAILURE else alice[swa - 1]
            for swb, qb in law_b:
                ob = NO_FLASH if swb == FAILURE else bob[swb - 1]
                prob[(swa, swb, oa, ob)] += weight * qa * qb
    return prob


@st.composite
def random_sources(draw):
    """1 to 729 distinct pair states, N instructions included, with integer
    weights of 2 or 30 digits (zeros allowed) scaled so that they sum to
    1 + delta, |delta| <= 1e-13, inside the validation tolerance."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, len(ALL_PAIRS)))
    picks = rng.sample(ALL_PAIRS, size)
    top = draw(st.sampled_from([100, 10**30]))
    weights = [rng.randrange(top) for _ in picks]
    weights[rng.randrange(size)] += 1
    delta = draw(st.fractions(min_value=Fraction(-1, 10**13), max_value=Fraction(1, 10**13)))
    scale = (1 + delta) / sum(weights)
    return SourceDistribution(tuple((s, w * scale) for s, w in zip(picks, weights)))


failure_probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1),
    st.integers(0, 10**9).map(lambda num: Fraction(num, 10**9)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p_a=failure_probabilities, p_b=failure_probabilities)
def test_pair_masses_are_the_switch_law_and_bilinear_in_its_corners(p_a, p_b):
    pairs = pair_masses(p_a, p_b)
    # Each side's law is (den - num) times its law at p = 0 plus num times
    # its law at p = 1, so the pair law is the four corner laws weighted by
    # the products of the two sides' factors.
    (a0, a1), (b0, b1) = ((p.denominator - p.numerator, p.numerator) for p in (p_a, p_b))
    corners = [pair_masses(Fraction(a), Fraction(b)) for a in (0, 1) for b in (0, 1)]
    factors = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    assert list(pairs) == [sum(f * c[k] for f, c in zip(factors, corners)) for k in range(16)]
    assert sum(pairs) == 9 * p_a.denominator * p_b.denominator
    side_a, side_b = switch_masses(p_a), switch_masses(p_b)
    assert pairs == tuple(side_a[k // 4] * side_b[k % 4] for k in range(16))
    for p, side in ((p_a, side_a), (p_b, side_b)):
        assert Fraction(side[0], sum(side)) == p
        assert all(Fraction(mass, sum(side)) == (1 - p) / 3 for mass in side[1:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=random_sources(), p_a=failure_probabilities, p_b=failure_probabilities)
def test_joint_table_matches_reference_and_exact_properties(source, p_a, p_b):
    config = ExperimentConfig(source, DetectorModel(p_a), DetectorModel(p_b))
    table = enumerate_joint(config)

    cells = [Fraction(w, table.total) for w in table.weights]
    assert list(zip(CELLS, cells)) == list(reference_joint(config).items())
    assert all(type(w) is int for w in table.weights) and type(table.total) is int
    assert sum(table.weights) == table.total
    assert all(
        w == 0
        for (swa, swb, oa, ob), w in zip(CELLS, table.weights)
        if (swa == FAILURE and oa != NO_FLASH) or (swb == FAILURE and ob != NO_FLASH)
    )

    stats = conditional_stats(table)
    for eta, eta_u, eta_f in (
        (stats["eta_a"], stats["eta_u_a"], stats["eta_f_a"]),
        (stats["eta_b"], stats["eta_u_b"], stats["eta_f_b"]),
    ):
        if eta_f == 0:
            assert eta == 0 and eta_u is None
        else:
            assert eta == eta_u * eta_f

    # The failure-class form gives the table's statistics at (p_a, p_b),
    # and its identities hold on every source.
    assert stats_of(sums_at(failure_class_sums(source), p_a, p_b)) == stats
    assert detector_invariance_check(config, stats) == ()


def state_cells(state):
    """The 16 cells of a pair state's text, one per switch digit pair
    (a, b): the outcomes its instructions give there, digit 0 reading N."""
    alice, bob = state.split("-")
    return [
        CELLS.index((a, b, NO_FLASH if a == FAILURE else alice[a - 1],
                     NO_FLASH if b == FAILURE else bob[b - 1]))
        for a in range(4)
        for b in range(4)
    ]


def per_state_cell_masses(source):
    """The cell masses by the loop the grouped pass replaced: each state's
    mass added once into each of its 16 cells."""
    state_masses, total = source.state_masses
    masses = [0] * N_CELLS
    for mass, (state, _) in zip(state_masses, source.entries):
        for cell in state_cells(state):
            masses[cell] += mass
    return tuple(masses), total


@st.composite
def sparse_sources(draw):
    """1 to 729 distinct pair states whose integer weights are 0 about
    half the time (one is kept positive), renormalized exactly."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    picks = rng.sample(ALL_PAIRS, draw(st.integers(1, len(ALL_PAIRS))))
    top = draw(st.sampled_from([100, 10**30]))
    weights = [rng.randrange(top) * rng.randrange(2) for _ in picks]
    weights[rng.randrange(len(picks))] += 1
    return SourceDistribution(
        tuple((s, Fraction(w, sum(weights))) for s, w in zip(picks, weights))
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=st.one_of(random_sources(), sparse_sources()))
def test_grouped_cell_masses_match_per_state_loop(source):
    assert source.cell_masses == per_state_cell_masses(source)


@pytest.mark.parametrize(
    "name,state",
    [("table1_uniform", None), ("two_one_uniform", None), ("all_eight_uniform", None),
     ("single", "GNR-GGR")],
)
def test_builtin_cell_masses_match_per_state_loop(name, state):
    source = builtin_distribution(name, state)
    assert source.cell_masses == per_state_cell_masses(source)
