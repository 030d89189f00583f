"""Timing and counting wrappers installed from outside the package.

``Tracer.install`` replaces each target function in every loaded
``featmatch`` module that binds it, whatever the local name, so a call made
through ``from .prob import pr_prefers`` in ``gda`` is counted as well as a
direct one.  Spans are aggregated in memory per function (calls, inclusive
seconds, self seconds) and read once when the run ends.  Self time is a
span's duration minus the durations of the spans it directly contains.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

import featmatch


def _rounds(counts, result, args, kwargs):
    counts["gda.run_gda.rounds"] += len(result[1].rounds)


def _examined(counts, result, args, kwargs):
    counts["oracle.optimal_pros.matchings_examined"] += result.matchings_examined


def _reruns(counts, result, args, kwargs):
    counts["oracle.improvement_scan.reruns"] += result[0]


def _estimated(fn):
    """Count the samples a call requests when it takes the Monte Carlo path:
    a non-discrete student on an instance without exactly two features."""
    signature = inspect.signature(fn)

    def hook(counts, result, args, kwargs):
        inst, s = args[0], args[1]
        dist = inst.weight_dists[s]
        if inst.num_features == 2 or isinstance(dist, featmatch.DiscreteWeights):
            return
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["prob.mc.samples"] += bound.arguments["samples"]

    return hook


def _requested(counts, result, args, kwargs):
    samples = kwargs["samples"] if "samples" in kwargs else args[2]
    counts["prob.mc.samples"] += samples


# (module, function, hook factory or None).  pros_exact and sample_weights
# are not reported as layers: pros_exact gives optimal_pros its child spans,
# and sample_weights shows how much of estimate-3f is weight sampling.
TARGETS = [
    ("model", "parse_instance", None),
    ("instances", "gen_random", None),
    ("prob", "pr_prefers", _estimated),
    ("prob", "pr_top", _estimated),
    ("prob", "expected_utility", None),
    ("prob", "pros_exact", None),
    ("prob", "pros_exact_2f", None),
    ("prob", "pros_exact_discrete", None),
    ("prob", "pros_monte_carlo", lambda fn: _requested),
    ("prob", "sample_weights", None),
    ("gda", "comparison_vector", None),
    ("gda", "next_college", None),
    ("gda", "run_gda", lambda fn: _rounds),
    ("oracle", "optimal_pros", lambda fn: _examined),
    ("oracle", "improvement_scan", lambda fn: _reruns),
]

COUNTERS = (
    "gda.run_gda.rounds",
    "oracle.optimal_pros.matchings_examined",
    "oracle.improvement_scan.reruns",
    "prob.mc.samples",
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # "module.function" -> [calls, seconds, self seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[float] = []  # child seconds of each open span

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items()) if name == "featmatch" or name.startswith("featmatch.")]
        for module_name, func_name, hook_factory in TARGETS:
            name = f"{module_name}.{func_name}"
            original = getattr(importlib.import_module(f"featmatch.{module_name}"), func_name, None)
            if original is None:
                self.missing.append(name)
                continue
            self.spans[name] = [0, 0.0, 0.0]
            wrapper = self._wrap(name, original, hook_factory(original) if hook_factory else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, hook):
        span = self.spans[name]
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        for span in self.spans.values():
            span[:] = [0, 0.0, 0.0]
        for key in self.counts:
            self.counts[key] = 0

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(span) for name, span in self.spans.items()},
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }
