"""Exact analyzer and Monte Carlo simulator for a three-setting, two-lamp
correlation device, including detector-failure and no-flash-instruction
model variants."""

__version__ = "0.1.0"

from .model import (
    ALL_EIGHT_SETS,
    CaseStats,
    CellWeights,
    ConfigurationError,
    DetectorModel,
    DistributionError,
    DuplicateStateError,
    EmptyDistributionError,
    ExperimentConfig,
    FAILURE,
    InstructionSet,
    NegativeWeightError,
    Outcome,
    PairState,
    SETTINGS,
    SetClass,
    Setting,
    SourceDistribution,
    TABLE1_PAIRS,
    TWO_ONE_SETS,
    WeightSumMismatchError,
    builtin_distribution,
    merge,
)
from .exact import (
    DegenerateConditioningError,
    case_b_same_fraction,
    conditional_stats,
    detector_invariance_check,
    enumerate_joint,
    min_case_b_no_noflash,
)
from .montecarlo import SimulationPlan, run_trials
from .stats import (
    ComparisonReport,
    Estimate,
    IndependenceTestResult,
    NoCoincidencesError,
    chi_square_tail_dof8,
    compare,
    estimate_stats,
    settings_independence_test,
    wilson_interval,
)
