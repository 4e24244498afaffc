"""In-memory spans around calls into merminsim's public functions.

The wrappers live in the benchmark, not in the program: each public
function is replaced where it is looked up, so the program's code is
measured unchanged. A span records its name, start, end and the index of
the span that was open when it began. The traced functions all run on
the main thread (the engine's worker threads call none of them), so one
stack of open spans is enough.
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("cli", "model", "exact", "montecarlo", "stats")

# The public functions the commands look up in merminsim.cli, by layer.
CLI_CALLS = {
    "cli": ("load_config",),
    "exact": ("enumerate_joint", "conditional_stats", "detector_invariance_check"),
    "montecarlo": ("run_trials", "estimate_stats"),
    "stats": ("compare", "settings_independence_test"),
}
# detector_invariance_check looks these up in merminsim.exact.
EXACT_CALLS = ("enumerate_joint", "conditional_stats")

# Span times of layers that only some workloads call.
WORKLOAD_SPAN_TIMES = (
    "exact.enumerate_joint_s",
    "exact.conditional_stats_s",
    "exact.detector_invariance_check_s",
    "montecarlo.run_trials_s",
    "montecarlo.estimate_stats_s",
    "stats.compare_s",
    "stats.settings_independence_test_s",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure_alloc: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            if name == "montecarlo.run_trials":
                span["trials"] = args[0].n_trials
            self._open.append(len(self.spans))
            self.spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span["start"] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                if measure_alloc:
                    span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()

        return traced

    def install(self, merminsim) -> None:
        """Patch the public functions the CLI commands call."""
        cli, exact, model = merminsim.cli, merminsim.exact, merminsim.model
        for layer, names in CLI_CALLS.items():
            for fn_name in names:
                wrapped = self.wrap(
                    f"{layer}.{fn_name}",
                    getattr(cli, fn_name),
                    measure_alloc=fn_name == "run_trials",
                )
                setattr(cli, fn_name, wrapped)
        for fn_name in EXACT_CALLS:
            setattr(exact, fn_name, self.wrap(f"exact.{fn_name}", getattr(exact, fn_name)))
        source_cls = model.SourceDistribution
        source_cls.renormalized = self.wrap("model.renormalized", source_cls.renormalized)


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command; the root span is cli.main."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    out: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
    trials = 0
    peak_alloc = 0
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"]] += duration
        self_time[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] is not None:
            self_time[spans[span["parent"]]["name"]] -= duration
        if span.get("error"):
            out[f"{span['name'].split('.')[0]}.errors"] += 1
        trials += span.get("trials", 0)
        peak_alloc = max(peak_alloc, span.get("peak_alloc_bytes", 0))
    out["cli.self_s"] = self_time["cli.main"]
    out["model.renormalized_s"] = total["model.renormalized"]
    out["model.renormalized.calls"] = calls["model.renormalized"]
    out["exact.enumerate_joint.calls"] = calls["exact.enumerate_joint"]
    for metric in WORKLOAD_SPAN_TIMES:
        out[metric] = total[metric[: -len("_s")]]
    out["montecarlo.trials"] = trials
    out["montecarlo.run_trials.ns_per_trial"] = (
        total["montecarlo.run_trials"] / trials * 1e9 if trials else 0.0
    )
    out["montecarlo.run_trials.peak_alloc_mb"] = peak_alloc / 2**20
    for name in total:
        out[f"self.{name}_s"] = self_time[name]
    return out


def median_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*summaries)
    return {k: median(s.get(k, 0.0) for s in summaries) for k in sorted(keys)}
