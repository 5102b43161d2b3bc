"""Span tracer for the traced scoreboard run.

The tracer wraps public calls of each ``repro`` layer from the outside,
patching every name where its caller looks it up (for example the
drivers import ``mutate_population`` and ``extract_windows`` by name into
``repro.core.evolution``, so they are patched there).  Spans are kept in
memory as ``(name, start, end, parent, op)`` tuples and written out as
JSON lines when the run ends; :func:`layer_metrics` turns them into the
per-layer table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, int, str]


def _len_arg(index: int) -> Callable:
    """A ``pre`` hook that counts the items of positional argument ``index``.

    The argument is materialised as a list first, so an iterator is not
    consumed by the count.
    """

    def pre(args: tuple):
        items = list(args[index])
        return args[:index] + (items,) + args[index + 1:], len(items)

    return pre


def _pipeline_pre(args: tuple):
    pipeline = args[0]
    stats = pipeline.cache.stats
    return args, (pipeline, stats.hits, stats.misses, stats.bypasses,
                  pipeline.full_evaluations)


def _pipeline_post(tracer: "Tracer", state, result) -> None:
    pipeline, hits, misses, bypasses, full = state
    stats = pipeline.cache.stats
    tracer.count("ea.hits", stats.hits - hits)
    tracer.count("ea.misses", stats.misses - misses)
    tracer.count("ea.bypasses", stats.bypasses - bypasses)
    tracer.count("ea.full_evals", pipeline.full_evaluations - full)


def _persist_post(tracer: "Tracer", n_keys: int, result) -> None:
    tracer.count("backends.persist_keys", n_keys)
    tracer.count("backends.persist_hits", len(result))


#: (module, attribute path, span name, pre hook, post hook).  A ``pre`` hook
#: takes the positional arguments and returns ``(args, state)``; a ``post``
#: hook receives the tracer, that state and the call's result.
PATCHES: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("repro.core.evolution", "mutate_population", "ea.mutate", None, None),
    ("repro.core.evolution", "mutate", "ea.mutate", None, None),
    ("repro.core.evolution", "extract_windows", "array.windows", None, None),
    ("repro.core.evolution", "ArrayEvalContext.place_population", "core.place", None, None),
    ("repro.core.evolution", "ArrayEvalContext.place", "core.place", None, None),
    ("repro.ea.pipeline", "FitnessPipeline.evaluate_population", "ea.pipeline",
     _pipeline_pre, _pipeline_post),
    ("repro.array.systolic_array", "SystolicArray.evaluate_population", "backends.eval",
     _len_arg(2), lambda tracer, n, result: tracer.count("backends.candidates", n)),
    ("repro.core.acb", "ArrayControlBlock.shadow_process", "core.calibrate", None, None),
    ("repro.core.platform", "EvolvableHardwarePlatform.calibrate", "core.calibrate", None, None),
    ("repro.core.platform", "EvolvableHardwarePlatform.scrub_array", "fpga.scrub", None, None),
    ("repro.core.platform", "EvolvableHardwarePlatform.scrub_all", "fpga.scrub", None, None),
    ("repro.scenarios.runner", "ScenarioRunner.advance", "scenarios.advance", None,
     lambda tracer, state, result: tracer.count("scenarios.events", len(result))),
    ("repro.core.evolution", "IndependentEvolution.run", "core.recovery", None, None),
    ("repro.core.evolution", "ImitationEvolution.run", "core.recovery", None, None),
    ("repro.core.self_healing", "CascadedSelfHealing.check_and_heal", "core.heal", None, None),
    ("repro.backends.fitness_cache", "PersistentFitnessCache.lookup",
     "backends.persist_lookup", _len_arg(1), _persist_post),
    ("repro.backends.fitness_cache", "PersistentFitnessCache.publish",
     "backends.persist_publish", None, None),
    ("repro.runtime.store", "CampaignStore.record", "runtime.store_record", None, None),
    ("repro.runtime.engine", "execute_run_payload", "runtime.payload", None, None),
    ("repro.api.session", "EvolutionSession.evolve", "core.driver", None, None),
    ("repro.api.config", "PlatformConfig.build", "core.platform_build", None, None),
    ("repro.api.config", "TaskSpec.build", "imaging.task", None, None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the call wrappers."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.op = "setup"
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] += int(value)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (the workers' ``op`` root spans)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, fn: Callable, name: str, pre, post) -> Callable:
        # The body of span() inlined: this wrapper runs on every traced
        # call, and trace.overhead measures what it costs.
        tracer = self
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if pre is not None:
                args, state = pre(args)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if post is not None:
                post(tracer, state, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every call in :data:`PATCHES` for the duration of the block."""
        for module_name, path, name, pre, post in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, post))
        try:
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Layers whose metric is self time (span minus its direct child spans).
SELF_TIME = {"ea.pipeline", "core.heal", "runtime.payload", "core.driver"}

#: Every span name the patches record.
LAYERS = [
    "core.platform_build", "imaging.task", "array.windows", "ea.mutate", "core.place",
    "ea.pipeline", "backends.eval", "core.calibrate", "fpga.scrub", "scenarios.advance",
    "core.recovery", "core.heal", "backends.persist_lookup", "backends.persist_publish",
    "runtime.store_record", "runtime.payload", "core.driver",
]


def metric_name(layer: str) -> str:
    return f"{layer}_self_s" if layer in SELF_TIME else f"{layer}_s"


def layer_metrics(tracer: Tracer, ops: List[str]) -> Dict[str, float]:
    """Busy time and call count per layer over the spans of ``ops``.

    Busy time counts only the outermost span of each layer (a layer
    calling itself, such as ``calibrate`` running ``shadow_process``, is
    not counted twice); self time subtracts every direct child span.
    """
    wanted = set(ops)
    spans = tracer.spans
    child_time: Dict[int, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    op_wall = 0.0
    covered = 0.0
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op not in wanted:
            continue
        if name == "op":
            op_wall += end - start
            covered += child_time[index]
            continue
        calls[name] += 1
        if name in SELF_TIME:
            busy[name] += (end - start) - child_time[index]
        elif not _inside(spans, parent, name):
            busy[name] += end - start
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[metric_name(layer)] = busy[layer]
        metrics[f"{layer}_calls"] = calls[layer]
    counters = tracer.counters
    lookups = counters["ea.hits"] + counters["ea.misses"]
    requests = lookups + counters["ea.bypasses"]
    metrics.update({
        "ea.requests": requests,
        "ea.cache_lookups": lookups,
        "ea.cache_hit_ratio": _ratio(counters["ea.hits"], lookups),
        "ea.bypass_ratio": _ratio(counters["ea.bypasses"], requests),
        "ea.full_evals": counters["ea.full_evals"],
        "backends.candidates": counters["backends.candidates"],
        "backends.us_per_candidate": 1e6 * _ratio(busy["backends.eval"],
                                                  counters["backends.candidates"]),
        "scenarios.events": counters["scenarios.events"],
        "backends.persist_keys": counters["backends.persist_keys"],
        "backends.persist_hit_ratio": _ratio(counters["backends.persist_hits"],
                                             counters["backends.persist_keys"]),
        "trace.op_wall_s": op_wall,
        "trace.coverage": _ratio(covered, op_wall),
    })
    return metrics


def _inside(spans: List[Optional[Span]], parent: int, name: str) -> bool:
    """Whether some ancestor span (by index) has the same name."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def format_table(workload: str, metrics: Dict[str, Dict[str, Any]]) -> str:
    """The per-layer table: one row per layer, busy time beside its share of op time."""
    op_wall = metrics["trace.op_wall_s"]["value"] or 1.0
    rows = [f"per-layer breakdown: {workload}",
            f"{'metric':<32}{'value':>14}  {'unit':<6}{'% of op time':>13}"]
    for name, entry in sorted(metrics.items()):
        share = ""
        if entry["unit"] == "s" and not name.startswith(("setup.", "trace.")):
            share = f"{100.0 * entry['value'] / op_wall:12.1f}%"
        rows.append(f"{name:<32}{entry['value']:>14.6g}  {entry['unit']:<6}{share:>13}")
    return "\n".join(rows)
