"""The exact oracle against the triple loop it replaces.

enumerate_joint reads each cell off the source's integer cell masses; the
reference below spreads every renormalized weight over both switch laws,
one Fraction product at a time. The two must agree cell for cell, and
the exact properties the oracle promises must hold on random sources.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from merminsim.exact import conditional_stats, detector_invariance_check, enumerate_joint
from merminsim.model import (
    ALL_INSTRUCTION_SETS,
    CELLS,
    ExperimentConfig,
    FAILURE,
    NO_FLASH,
    PairState,
    SETTINGS,
    SourceDistribution,
)

ALL_PAIRS = tuple(
    PairState(a, b) for a in ALL_INSTRUCTION_SETS for b in ALL_INSTRUCTION_SETS
)


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
        for swa, qa in law_a:
            oa = NO_FLASH if swa == FAILURE else state.alice.outcome_at(swa)
            for swb, qb in law_b:
                ob = NO_FLASH if swb == FAILURE else state.bob.outcome_at(swb)
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=random_sources(), p_a=failure_probabilities, p_b=failure_probabilities)
def test_joint_table_matches_reference_and_exact_properties(source, p_a, p_b):
    config = ExperimentConfig(source=source).with_failure_probabilities(p_a, p_b)
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
        (stats.eta_a, stats.eta_u_a, stats.eta_f_a),
        (stats.eta_b, stats.eta_u_b, stats.eta_f_b),
    ):
        if eta_f == 0:
            assert eta == 0 and eta_u is None
        else:
            assert eta == eta_u * eta_f

    sweep = [p for p in (p_a, p_b) if p < 1]
    assert detector_invariance_check(config, sweep).passed
