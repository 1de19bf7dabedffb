"""Span tracer that wraps ksearch's public functions from outside the package.

Each traced function is replaced, on every ``ksearch`` module that binds it
(``from .core import ota_total`` makes ``ksearch.learner.ota_total`` its own
binding), by a wrapper that records one span per call.  Spans live in
memory as parallel arrays (name, start, end, parent) and are written to an
``.npz`` file when the run ends, together with the run id they share.

Self time is computed while the run goes: when a span closes, its duration
is added to the open parent's child total, so ``self = duration - time
covered by child spans``.  Calls are single-threaded, so children of one
span never overlap.

Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` restores every
binding.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (metric prefix, defining module, function name).  The prefix is the layer
# the per-layer metrics are reported under.
TRACED = (
    ("cli.main", "ksearch.cli", "main"),
    ("harness.run_cell", "ksearch.harness", "run_cell"),
    ("harness.evaluate_windows", "ksearch.harness", "evaluate_windows"),
    ("harness.stress_windows", "ksearch.harness", "stress_windows"),
    ("learner.run_learning", "ksearch.learner", "run_learning"),
    ("learner.round_ratios", "ksearch.learner", "round_ratios"),
    ("augmented.design", "ksearch.augmented", "design"),
    ("pareto.target_point", "ksearch.pareto", "target_point"),
    ("worstcase.solve_cr", "ksearch.worstcase", "solve_cr"),
    ("worstcase.worst_case_thresholds", "ksearch.worstcase", "worst_case_thresholds"),
    ("core.ota_total", "ksearch.core", "ota_total"),
    ("core.offline_opt", "ksearch.core", "offline_opt"),
    ("instances.ingest_csv", "ksearch.instances", "ingest_csv"),
    ("instances.gen_synthetic_series", "ksearch.instances", "gen_synthetic_series"),
    ("instances.sliding_windows", "ksearch.instances", "sliding_windows"),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_call(counters: Counter, name: str, binding: str, args, kwargs, result) -> None:
    """Work counters recorded at the same boundary as the span."""
    if name == "core.ota_total":
        schedule, prices = _arg(args, kwargs, 0, "schedule"), _arg(args, kwargs, 1, "prices")
        # computed (not measured) traffic: one float64 per price and threshold
        counters["core.replay_bytes_computed"] += 8 * (len(prices) + len(schedule.values))
    elif name == "learner.round_ratios":
        counters["learner.design_lookups"] += len(_arg(args, kwargs, 4, "grid"))
    elif name == "augmented.design" and binding == "ksearch.learner":
        # the learner binding is only reached on a _cached_design miss
        counters["learner.design_misses"] += 1
    elif name == "instances.sliding_windows" and result is not None:
        counters["instances.windows"] += len(result)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open: list[int] = []
        self._child_time: list[float] = []
        # name -> [calls, total seconds, self seconds, failures]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, binding: str, fn):
        name_id = len(self.names)
        self.names.append(f"{name}@{binding}")
        stats = self.stats[name]
        counters = self.counters
        clock = time.perf_counter
        opened, child_time = self._open, self._child_time
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(opened[-1] if opened else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            opened.append(idx)
            child_time.append(0.0)
            result = None
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = clock()
                opened.pop()
                children = child_time.pop()
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                span_start[idx] = start
                span_end[idx] = end
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children
                stats[3] += failed
                _count_call(counters, name, binding, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded ksearch modules."""
        modules = [
            (mod_name, mod) for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "ksearch" or mod_name.startswith("ksearch."))
        ]
        for name, home, attr in TRACED:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:  # gone from the library: its metrics read 0
                continue
            for mod_name, mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, mod_name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def total_s(self, name: str) -> float:
        return self.stats[name][1]

    def self_s(self, name: str) -> float:
        return self.stats[name][2]

    def failures(self, name: str) -> int:
        return self.stats[name][3]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers named as in BENCHMARK.json (without units)."""
        c = self.counters
        windows = c["instances.windows"]
        lookups = c["learner.design_lookups"]
        ota_calls = self.calls("core.ota_total")
        return {
            "core.ota_total_calls": ota_calls,
            "core.ota_total_s": self.total_s("core.ota_total"),
            "core.replays_per_window": ota_calls / windows if windows else 0.0,
            "core.replay_bytes_computed": c["core.replay_bytes_computed"],
            "core.offline_opt_calls": self.calls("core.offline_opt"),
            "core.offline_opt_s": self.total_s("core.offline_opt"),
            "augmented.design_calls": self.calls("augmented.design"),
            "augmented.design_self_s": self.self_s("augmented.design"),
            "augmented.design_failures": self.failures("augmented.design"),
            "learner.design_cache_hit_ratio": (
                1.0 - c["learner.design_misses"] / lookups if lookups else 0.0
            ),
            "learner.round_ratios_calls": self.calls("learner.round_ratios"),
            "learner.round_ratios_self_s": self.self_s("learner.round_ratios"),
            "learner.run_learning_self_s": self.self_s("learner.run_learning"),
            "pareto.target_point_calls": self.calls("pareto.target_point"),
            "pareto.target_point_s": self.total_s("pareto.target_point"),
            "worstcase.solve_cr_calls": self.calls("worstcase.solve_cr"),
            "worstcase.solve_cr_s": self.total_s("worstcase.solve_cr"),
            "worstcase.worst_case_thresholds_calls": self.calls(
                "worstcase.worst_case_thresholds"
            ),
            "harness.run_cell_calls": self.calls("harness.run_cell"),
            "harness.evaluate_windows_self_s": self.self_s("harness.evaluate_windows"),
            "harness.stress_windows_s": self.total_s("harness.stress_windows"),
            "instances.ingest_csv_s": self.total_s("instances.ingest_csv"),
            "instances.gen_synthetic_series_s": self.total_s(
                "instances.gen_synthetic_series"
            ),
            "instances.sliding_windows_s": self.total_s("instances.sliding_windows"),
            "instances.windows": windows,
            "cli.main_s": self.total_s("cli.main"),
            "cli.self_s": self.self_s("cli.main"),
        }

    def write(self, path: str) -> None:
        """Write every span of the run: a name@binding table and four columns."""
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
