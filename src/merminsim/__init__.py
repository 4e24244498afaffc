"""Exact analyzer and Monte Carlo simulator for a three-setting, two-lamp
correlation device, including detector-failure and no-flash-instruction
model variants."""

__version__ = "0.1.0"

from .model import (
    ALL_EIGHT_SETS,
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
)
from .exact import (
    CaseStats,
    DegenerateConditioningError,
    JointTable,
    case_b_same_fraction,
    conditional_stats,
    detector_invariance_check,
    enumerate_joint,
    min_case_b_no_noflash,
)
from .montecarlo import (
    Estimate,
    EstimatedCaseStats,
    SimulationPlan,
    TallyCounts,
    estimate_stats,
    merge,
    run_trials,
    wilson_interval,
)
from .stats import (
    ComparisonReport,
    IndependenceTestResult,
    NoCoincidencesError,
    compare,
    regularized_gamma_q,
    settings_independence_test,
)
