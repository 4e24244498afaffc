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
from .montecarlo import SimulationPlan, run_trials
from .stats import compare, estimate_stats
