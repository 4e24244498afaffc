"""The statistic declaration against the derivations it replaces.

conditional_stats, estimate_stats and the independence test's observed
counts each derived the case rates, efficiencies and coincidence rates by
hand before they all read model.STATISTICS; the references below keep
those derivations. On random sources and detector settings the
declaration must give the same Fractions and Nones, the same Estimates,
float for float, and the same counts.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from merminsim.exact import conditional_stats, enumerate_joint
from merminsim.model import (
    ALL_SETTING_PAIRS,
    CASE_B_PAIRS,
    ExperimentConfig,
    FAILURE,
    NO_FLASH,
    SETTINGS,
)
from merminsim.montecarlo import SimulationPlan, run_trials
from merminsim.stats import (
    NoCoincidencesError,
    _proportion,
    estimate_stats,
    settings_independence_test,
)
from test_exact_reference import failure_probabilities, random_sources, reference_joint

COLORS = ("G", "R")

SCALARS = (
    "p_same_case_a",
    "p_same_case_b",
    "eta_a",
    "eta_b",
    "eta_u_a",
    "eta_u_b",
    "eta_f_a",
    "eta_f_b",
)


def reference_conditional_stats(prob):
    """Exact statistics of a joint law given as {cell key: Fraction}."""

    def both_flash_mass(sa, sb):
        return sum((prob[(sa, sb, ca, cb)] for ca in COLORS for cb in COLORS), Fraction(0))

    def same_color_mass(sa, sb):
        return sum((prob[(sa, sb, c, c)] for c in COLORS), Fraction(0))

    same_a = sum((same_color_mass(s, s) for s in SETTINGS), Fraction(0))
    both_a = sum((both_flash_mass(s, s) for s in SETTINGS), Fraction(0))
    same_b = sum((same_color_mass(sa, sb) for sa, sb in CASE_B_PAIRS), Fraction(0))
    both_b = sum((both_flash_mass(sa, sb) for sa, sb in CASE_B_PAIRS), Fraction(0))
    eta_a = sum((p for (_, _, oa, _), p in prob.items() if oa != NO_FLASH), Fraction(0))
    eta_b = sum((p for (_, _, _, ob), p in prob.items() if ob != NO_FLASH), Fraction(0))
    eta_f_a = 1 - sum((p for (swa, _, _, _), p in prob.items() if swa == FAILURE), Fraction(0))
    eta_f_b = 1 - sum((p for (_, swb, _, _), p in prob.items() if swb == FAILURE), Fraction(0))
    return {
        "p_same_case_a": same_a / both_a if both_a else None,
        "p_same_case_b": same_b / both_b if both_b else None,
        "eta_a": eta_a,
        "eta_b": eta_b,
        "eta_u_a": eta_a / eta_f_a if eta_f_a else None,
        "eta_u_b": eta_b / eta_f_b if eta_f_b else None,
        "eta_f_a": eta_f_a,
        "eta_f_b": eta_f_b,
        "coincidence_rate": {
            f"{sa}{sb}": 9 * both_flash_mass(sa, sb) for sa, sb in ALL_SETTING_PAIRS
        },
    }


def reference_estimates(tally):
    """Estimates of every statistic, counted on the (4, 4, 3, 3) grid."""
    n = tally.total
    grid = np.array(tally.weights).reshape(4, 4, 3, 3)
    color_hi = len(COLORS)
    flash_a = int(grid[:, :, :color_hi, :].sum())
    flash_b = int(grid[:, :, :, :color_hi].sum())
    ok_a = n - int(grid[0, :, :, :].sum())
    ok_b = n - int(grid[:, 0, :, :].sum())
    same_a = both_a = 0
    for s in SETTINGS:
        d = s
        both_a += int(grid[d, d, :color_hi, :color_hi].sum())
        same_a += int(grid[d, d, 0, 0] + grid[d, d, 1, 1])
    same_b = both_b = 0
    coincidence = {}
    for sa in SETTINGS:
        for sb in SETTINGS:
            pair_both = int(grid[sa, sb, :color_hi, :color_hi].sum())
            coincidence[f"{sa}{sb}"] = _proportion(pair_both, n, scale=9.0)
            if sa != sb:
                both_b += pair_both
                same_b += int(grid[sa, sb, 0, 0] + grid[sa, sb, 1, 1])
    return {
        "p_same_case_a": _proportion(same_a, both_a),
        "p_same_case_b": _proportion(same_b, both_b),
        "eta_a": _proportion(flash_a, n),
        "eta_b": _proportion(flash_b, n),
        "eta_u_a": _proportion(flash_a, ok_a),
        "eta_u_b": _proportion(flash_b, ok_b),
        "eta_f_a": _proportion(ok_a, n),
        "eta_f_b": _proportion(ok_b, n),
        "coincidence_rate": coincidence,
    }


def reference_observed(tally):
    """Double flashes per realized setting pair."""
    grid = np.array(tally.weights).reshape(4, 4, 3, 3)
    color_hi = len(COLORS)
    return {
        f"{sa}{sb}": int(grid[sa, sb, :color_hi, :color_hi].sum())
        for sa in SETTINGS
        for sb in SETTINGS
    }


def assert_same_fields(stats, reference):
    for name in SCALARS:
        got, want = getattr(stats, name), reference[name]
        assert type(got) is type(want) and got == want, name
        assert repr(got) == repr(want), name
    assert list(stats.coincidence_rate.items()) == list(reference["coincidence_rate"].items())
    assert repr(list(stats.coincidence_rate.values())) == repr(
        list(reference["coincidence_rate"].values())
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    source=random_sources(),
    p_a=failure_probabilities,
    p_b=failure_probabilities,
    seed=st.integers(0, 2**64 - 1),
)
def test_declared_statistics_match_reference_derivations(source, p_a, p_b, seed):
    config = ExperimentConfig(source=source).with_failure_probabilities(p_a, p_b)

    exact = conditional_stats(enumerate_joint(config))
    assert_same_fields(exact, reference_conditional_stats(reference_joint(config)))

    tally = run_trials(SimulationPlan(config, n_trials=3000, seed=seed))
    estimated = estimate_stats(tally)
    assert_same_fields(estimated, reference_estimates(tally))
    assert tally.total == 3000

    observed = reference_observed(tally)
    if sum(observed.values()) == 0:
        with pytest.raises(NoCoincidencesError):
            settings_independence_test(tally)
    else:
        assert list(settings_independence_test(tally).observed.items()) == list(observed.items())
