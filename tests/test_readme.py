"""The README's Library snippet must run against the current API, and the
package exports exactly the names the README documents."""

import re
import types
from pathlib import Path

import merminsim

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "ExperimentConfig",
    "SourceDistribution",
    "DetectorModel",
    "builtin_distribution",
    "CellWeights",
    "merge",
    "ConfigurationError",
    "DistributionError",
    "EmptyDistributionError",
    "NegativeWeightError",
    "WeightSumMismatchError",
    "DuplicateStateError",
    "enumerate_joint",
    "conditional_stats",
    "min_case_b_no_noflash",
    "case_b_same_fraction",
    "SimulationPlan",
    "run_trials",
    "estimate_stats",
    "compare",
}


def test_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_package_exports_the_documented_names():
    exported = {
        name
        for name, value in vars(merminsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    text = README.read_text(encoding="utf-8")
    assert [name for name in sorted(PUBLIC) if f"`{name}`" not in text] == []
