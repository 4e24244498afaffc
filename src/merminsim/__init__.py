"""Exact analyzer and Monte Carlo simulator for a three-setting, two-lamp
correlation device, including detector-failure and no-flash-instruction
model variants."""

__version__ = "0.1.0"

from .model import (
    CellWeights,
    ConfigurationError,
    DetectorModel,
    ExperimentConfig,
    SourceDistribution,
    builtin_distribution,
    merge,
)
from .exact import (
    case_b_same_fraction,
    conditional_stats,
    enumerate_joint,
    min_case_b_no_noflash,
)
from .stats import compare, estimate_stats

# The engine's names load numpy, so they load on first use (PEP 562): the
# exact path imports no numpy.
_ENGINE = ("SimulationPlan", "run_trials")


def __getattr__(name):
    if name in _ENGINE:
        from . import montecarlo

        value = globals()[name] = getattr(montecarlo, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ENGINE})
