"""Span tracing installed from the benchmark's own files.

The benchmark measures the program without editing it: :func:`install`
wraps each layer's public calls (the boundaries in ``_layer_targets``) so
that every call records one span — name, start, end, parent span and a
request id shared by all spans of one job or submission.  Spans stay in
memory, in flat arrays, until the run ends; :meth:`SpanRecorder.save`
writes them out and :func:`aggregate` turns them into per-layer counts,
self times and ratios.

A span's *self time* is its duration minus the part of that interval its
child spans cover (the union of the children, so overlapping children are
not counted twice).  :func:`install` returns a function that removes every
wrapper again, so an untraced phase can follow a traced one in the same
process.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SpanRecorder",
    "Trace",
    "aggregate",
    "coverage",
    "install",
    "interval_union",
    "layer_metrics",
    "self_times",
]


class SpanRecorder:
    """In-memory span store: one row per call, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_request = 0

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            with self._lock:
                found = self._name_ids.setdefault(name, len(self.names))
                if found == len(self.names):
                    self.names.append(name)
        return found

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name_id: int, new_request: bool = False) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if new_request:
                self._last_request += 1
                request = self._last_request
            else:
                request = self.requests[parent] if parent >= 0 else 0
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.requests.append(request)
            self.ends.append(float("nan"))
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a closed span for an interval observed rather than called
        (e.g. a ticket's queue wait), under the innermost open span."""
        name_id = self.name_id(name)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.requests.append(self.requests[parent] if parent >= 0 else 0)
            self.starts.append(float(start))
            self.ends.append(float(end))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def trace(self) -> "Trace":
        return Trace(
            names=list(self.names),
            name_ids=np.asarray(self.name_ids, dtype=np.int64),
            starts=np.asarray(self.starts, dtype=np.float64),
            ends=np.asarray(self.ends, dtype=np.float64),
            parents=np.asarray(self.parents, dtype=np.int64),
            requests=np.asarray(self.requests, dtype=np.int64),
            counters=dict(self.counters),
        )

    def save(self, path: str) -> None:
        self.trace().save(path)


class Trace:
    """A finished set of spans plus counters, as NumPy arrays."""

    def __init__(self, names: Sequence[str], name_ids: np.ndarray,
                 starts: np.ndarray, ends: np.ndarray, parents: np.ndarray,
                 requests: np.ndarray, counters: Dict[str, float]) -> None:
        self.names = list(names)
        self.name_ids = np.asarray(name_ids, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.requests = np.asarray(requests, dtype=np.int64)
        self.counters = dict(counters)

    def __len__(self) -> int:
        return int(self.starts.size)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names, dtype=str),
            name_ids=self.name_ids, starts=self.starts, ends=self.ends,
            parents=self.parents, requests=self.requests,
            counters=np.asarray(json.dumps(self.counters, sort_keys=True)),
        )

    @classmethod
    def load(cls, path: str) -> "Trace":
        with np.load(path) as data:
            return cls(names=[str(name) for name in data["names"]],
                       name_ids=data["name_ids"], starts=data["starts"],
                       ends=data["ends"], parents=data["parents"],
                       requests=data["requests"],
                       counters=json.loads(str(data["counters"])))


# ------------------------------------------------------------- arithmetic


def interval_union(starts: np.ndarray, ends: np.ndarray,
                   groups: np.ndarray) -> Dict[int, float]:
    """Length of the union of the intervals in each group."""
    keys, lengths = _union_by_group(starts, ends, groups)
    return {int(key): float(length) for key, length in zip(keys, lengths)}


def _union_by_group(starts: np.ndarray, ends: np.ndarray,
                    groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(group ids, union length per group).

    Sorting by (group, start) and offsetting each group far past the
    previous one lets a single running maximum of the end times measure
    how much of each interval is not already covered.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    groups = np.asarray(groups, dtype=np.int64)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    order = np.lexsort((starts, groups))
    s, e, g = starts[order], ends[order], groups[order]
    keys, dense = np.unique(g, return_inverse=True)
    base = float(s.min())
    width = float(e.max() - base) + 1.0
    so = (s - base) + dense * width
    eo = (e - base) + dense * width
    reach = np.maximum.accumulate(eo)
    previous = np.concatenate(([-np.inf], reach[:-1]))
    covered = np.clip(eo - np.maximum(so, previous), 0.0, None)
    return keys, np.bincount(dense, weights=covered, minlength=keys.size)


def self_times(starts: np.ndarray, ends: np.ndarray,
               parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span itself)."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    own = ends - starts
    child = np.flatnonzero(parents >= 0)
    if child.size == 0:
        return own
    owner = parents[child]
    lo = np.maximum(starts[child], starts[owner])
    hi = np.minimum(ends[child], ends[owner])
    keep = hi > lo
    keys, covered = _union_by_group(lo[keep], hi[keep], owner[keep])
    result = own.copy()
    result[keys] -= covered
    return result


def aggregate(trace: Trace, window: Optional[Tuple[float, float]] = None
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s``.

    Also returns, under the key ``""``, the union of root spans clipped to
    ``window`` as ``covered_s`` (the wall-clock the spans account for).
    """
    done = ~np.isnan(trace.ends)
    starts, ends = trace.starts[done], trace.ends[done]
    # Re-index parents onto the finished spans only.
    remap = np.full(trace.starts.size, -1, dtype=np.int64)
    remap[np.flatnonzero(done)] = np.arange(int(done.sum()))
    parents = trace.parents[done]
    parents = np.where(parents >= 0, remap[np.maximum(parents, 0)], -1)
    name_ids = trace.name_ids[done]
    selfs = self_times(starts, ends, parents)
    result: Dict[str, Dict[str, float]] = {}
    calls = np.bincount(name_ids, minlength=len(trace.names))
    self_sum = np.bincount(name_ids, weights=selfs, minlength=len(trace.names))
    total_sum = np.bincount(name_ids, weights=ends - starts,
                            minlength=len(trace.names))
    for index, name in enumerate(trace.names):
        if calls[index]:
            result[name] = {"calls": float(calls[index]),
                            "self_s": float(self_sum[index]),
                            "total_s": float(total_sum[index])}
    roots = parents < 0
    lo, hi = starts[roots], ends[roots]
    if window is not None:
        lo = np.maximum(lo, window[0])
        hi = np.minimum(hi, window[1])
    keep = hi > lo
    covered = interval_union(lo[keep], hi[keep], np.zeros(int(keep.sum()), dtype=np.int64))
    result[""] = {"covered_s": covered.get(0, 0.0)}
    return result


def coverage(trace: Trace, root: str = "experiments.run_experiment") -> float:
    """Share of the ``root`` spans' time spent inside a deeper layer's span:
    one minus their summed self time over their summed duration.

    Time a request spends in code no wrapper covers shows up as self time
    of its ``run_experiment`` span, so a missing layer lowers this share.
    """
    stats = aggregate(trace).get(root)
    if not stats or stats["total_s"] <= 0:
        return 0.0
    return 1.0 - stats["self_s"] / stats["total_s"]


def kernel_runs_under(trace: Trace, parent_name: str, prefix: str) -> int:
    """Spans whose name starts with ``prefix`` and whose direct parent is
    named ``parent_name`` (e.g. kernel executions inside evaluations)."""
    if parent_name not in trace.names:
        return 0
    parent_id = trace.names.index(parent_name)
    wanted = np.asarray([name.startswith(prefix) for name in trace.names], dtype=bool)
    has_parent = trace.parents >= 0
    parent_names = trace.name_ids[trace.parents[has_parent]]
    return int(np.count_nonzero(wanted[trace.name_ids[has_parent]]
                                & (parent_names == parent_id)))


# --------------------------------------------------------------- wrappers


def _wrap(function: Callable, recorder: SpanRecorder, name,
          after: Optional[Callable] = None, new_request: bool = False) -> Callable:
    """Wrap ``function`` so every call records a span.

    ``name`` is a span name, or a callable mapping the call's positional
    arguments to one; ``after(recorder, args, result)`` adds counters.
    """
    fixed = recorder.name_id(name) if isinstance(name, str) else None
    ids: Dict[str, int] = {}

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if fixed is not None:
            name_id = fixed
        else:
            label = name(*args)
            name_id = ids.get(label)
            if name_id is None:
                name_id = ids[label] = recorder.name_id(label)
        index = recorder.begin(name_id, new_request)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


def _subclasses(cls: type) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current not in found:
            found.append(current)
            pending.extend(current.__subclasses__())
    return found


def _count_elements(key: str) -> Callable:
    def after(recorder: SpanRecorder, args, result) -> None:
        recorder.count(key, int(getattr(result, "size", 1)))
    return after


def _count_lookup(recorder: SpanRecorder, args, result) -> None:
    recorder.count("runtime.store.hits" if result is not None
                   else "runtime.store.misses")


def _count_flush(recorder: SpanRecorder, args, result) -> None:
    recorder.count("runtime.store.rows_flushed", int(result or 0))


def _count_outcomes(recorder: SpanRecorder, args, result) -> None:
    for outcome in result:
        recorder.count("runtime.jobs.count")
        recorder.count("runtime.jobs.attempts", int(outcome.attempts))
        if not outcome.ok:
            recorder.count("runtime.jobs.failed")
        if outcome.retried:
            recorder.count("runtime.jobs.retried")


def _count_plan(recorder: SpanRecorder, args, plan) -> None:
    recorder.count("planner.units_evaluated", int(plan.evaluated_units))
    recorder.count("planner.units_replayed", int(plan.replayed_units))


def _layer_targets():
    """(owner, attribute, span name, after, new_request) per traced call.

    ``owner`` is a class (every class in its hierarchy that defines the
    attribute is wrapped) or a module (every loaded ``repro`` module that
    bound the same function object is rebound).
    """
    from repro.agents.base import Agent
    from repro.agents.vectorized import VectorizedAgent
    from repro.benchmarks.base import Benchmark
    from repro.dse import batched_env, environment, evaluator, explorer, frontier, sweep
    from repro.experiments import report, runner
    from repro.instrumentation.context import ApproxContext
    from repro.operators.base import Operator
    from repro.operators.catalog import OperatorCatalog
    from repro.operators.compiled import CompiledAdder, CompiledMultiplier
    from repro.planner import execute as plan_execute, planner
    from repro.runtime import executor, jobs, store

    compiled_types = (CompiledAdder, CompiledMultiplier)

    def operator_name(self, *args) -> str:
        return ("operators.apply.compiled" if isinstance(self, compiled_types)
                else "operators.apply.analytic")

    families: Dict[type, str] = {}

    def execute_name(self, *args) -> str:
        family = families.get(type(self))
        if family is None:
            family = families[type(self)] = (
                type(self).__name__.lower().replace("benchmark", "") or "other")
        return "benchmarks.execute." + family

    context_elements = _count_elements("instrumentation.ops.elements")

    def operator_after(recorder, args, result):
        kind = "compiled" if isinstance(args[0], compiled_types) else "analytic"
        recorder.count(f"operators.apply.{kind}.elements", int(result.size))

    return [
        (Operator, "apply", operator_name, operator_after, False),
        (Operator, "apply_trusted", operator_name, operator_after, False),
        (OperatorCatalog, "compiled_instance", "operators.compile", None, False),
        (ApproxContext, "add", "instrumentation.ops", context_elements, False),
        (ApproxContext, "sub", "instrumentation.ops", context_elements, False),
        (ApproxContext, "mul", "instrumentation.ops", context_elements, False),
        (ApproxContext, "accumulate", "instrumentation.ops", None, False),
        (Benchmark, "execute", execute_name, None, False),
        (evaluator.Evaluator, "__init__", "dse.evaluator.build", None, False),
        (evaluator.Evaluator, "evaluate", "dse.evaluator.evaluate", None, False),
        (batched_env.BatchedAxcDseEnv, "step_batch", "dse.env.step_batch", None, False),
        (environment.AxcDseEnv, "step", "dse.env.step", None, False),
        (batched_env.BatchedExplorer, "run", "dse.explorer.run", None, False),
        (explorer.Explorer, "run", "dse.explorer.run", None, False),
        (frontier.ParetoArchive, "add_many", "dse.frontier.add_many", None, False),
        (sweep, "execute_sweep_job", "dse.sweep.chunk", None, False),
        (VectorizedAgent, "select_actions", "agents.select_actions", None, False),
        (VectorizedAgent, "update", "agents.update", None, False),
        (Agent, "select_action", "agents.select_actions", None, False),
        (Agent, "update", "agents.update", None, False),
        (jobs, "expand_jobs", "runtime.expand", None, False),
        (jobs, "expand_sweep_jobs", "runtime.expand", None, False),
        (jobs, "execute_job", "runtime.job", None, True),
        (executor.Executor, "run", "runtime.executor.run", _count_outcomes, False),
        (store.EvaluationStore, "__init__", "runtime.store.open", None, False),
        (store.EvaluationStore, "lookup", "runtime.store.lookup", _count_lookup, False),
        (store.EvaluationStore, "put", "runtime.store.put", None, False),
        (store.EvaluationStore, "flush", "runtime.store.flush", _count_flush, False),
        (planner, "plan_experiments", "planner.plan", _count_plan, False),
        (plan_execute, "execute_plan", "planner.execute_plan", None, False),
        (runner, "run_experiment", "experiments.run_experiment", None, True),
        (report.ExperimentReport, "to_dict", "experiments.report.serialize", None, False),
        (report.ExperimentReport, "canonical_json", "experiments.report.serialize",
         None, False),
    ]


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that unwraps them."""
    restore: List[Tuple[object, str, object]] = []
    for owner, attribute, name, after, new_request in _layer_targets():
        if isinstance(owner, type):
            for cls in _subclasses(owner):
                if attribute in cls.__dict__:
                    original = cls.__dict__[attribute]
                    setattr(cls, attribute,
                            _wrap(original, recorder, name, after, new_request))
                    restore.append((cls, attribute, original))
            continue
        original = getattr(owner, attribute)
        wrapped = _wrap(original, recorder, name, after, new_request)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    restore.append((module, key, original))

    def uninstall() -> None:
        for target, attribute, original in reversed(restore):
            setattr(target, attribute, original)

    return uninstall


# ------------------------------------------------------------------ metrics

def layer_metrics(*traces: Trace) -> Dict[str, float]:
    """The per-layer metrics of one or more traces (summed across them)."""
    stats: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    kernel_runs = 0
    for trace in traces:
        for name, values in aggregate(trace).items():
            if not name:
                continue
            slot = stats.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            slot["calls"] += values["calls"]
            slot["self_s"] += values["self_s"]
        for key, value in trace.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        kernel_runs += kernel_runs_under(trace, "dse.evaluator.evaluate",
                                         "benchmarks.execute.")

    def calls(name: str) -> float:
        return stats.get(name, {}).get("calls", 0.0)

    def self_s(*names: str) -> float:
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    evaluations = calls("dse.evaluator.evaluate")
    lookups = calls("runtime.store.lookup")
    evaluated = counters.get("planner.units_evaluated", 0.0)
    replayed = counters.get("planner.units_replayed", 0.0)
    metrics = {
        "operators.apply.compiled.calls": calls("operators.apply.compiled"),
        "operators.apply.compiled.elements":
            counters.get("operators.apply.compiled.elements", 0.0),
        "operators.apply.compiled.s": self_s("operators.apply.compiled"),
        "operators.apply.analytic.calls": calls("operators.apply.analytic"),
        "operators.apply.analytic.elements":
            counters.get("operators.apply.analytic.elements", 0.0),
        "operators.apply.analytic.s": self_s("operators.apply.analytic"),
        "operators.compile_s": self_s("operators.compile"),
        "instrumentation.ops.calls": calls("instrumentation.ops"),
        "instrumentation.ops.elements":
            counters.get("instrumentation.ops.elements", 0.0),
        "instrumentation.ops.s": self_s("instrumentation.ops"),
        "benchmarks.execute.fir.calls": calls("benchmarks.execute.fir"),
        "benchmarks.execute.fir.s": self_s("benchmarks.execute.fir"),
        "benchmarks.execute.matmul.calls": calls("benchmarks.execute.matmul"),
        "benchmarks.execute.matmul.s": self_s("benchmarks.execute.matmul"),
        "dse.evaluator.builds": calls("dse.evaluator.build"),
        "dse.evaluator.build_s": self_s("dse.evaluator.build"),
        "dse.evaluator.evaluations": evaluations,
        "dse.evaluator.s": self_s("dse.evaluator.evaluate"),
        "dse.evaluator.share_ratio": ratio(evaluations - kernel_runs, evaluations),
        "dse.env.step_batch.calls": calls("dse.env.step_batch"),
        "dse.env.step_batch.s": self_s("dse.env.step_batch"),
        "dse.env.step.calls": calls("dse.env.step"),
        "dse.env.step.s": self_s("dse.env.step"),
        "dse.explorer.run.s": self_s("dse.explorer.run"),
        "dse.frontier.add_many.s": self_s("dse.frontier.add_many"),
        "dse.sweep.chunks": calls("dse.sweep.chunk"),
        "dse.sweep.s": self_s("dse.sweep.chunk"),
        "agents.select_actions.calls": calls("agents.select_actions"),
        "agents.select_actions.s": self_s("agents.select_actions"),
        "agents.update.s": self_s("agents.update"),
        "runtime.expand.s": self_s("runtime.expand"),
        "runtime.jobs.count": counters.get("runtime.jobs.count", 0.0),
        "runtime.jobs.failed": counters.get("runtime.jobs.failed", 0.0),
        "runtime.jobs.retried": counters.get("runtime.jobs.retried", 0.0),
        "runtime.jobs.attempts": counters.get("runtime.jobs.attempts", 0.0),
        "runtime.job.s": self_s("runtime.job", "runtime.executor.run"),
        "runtime.store.open_s": self_s("runtime.store.open"),
        "runtime.store.lookups": lookups,
        "runtime.store.hits": counters.get("runtime.store.hits", 0.0),
        "runtime.store.misses": counters.get("runtime.store.misses", 0.0),
        "runtime.store.hit_ratio":
            ratio(counters.get("runtime.store.hits", 0.0), lookups),
        "runtime.store.lookup_s": self_s("runtime.store.lookup"),
        "runtime.store.puts": calls("runtime.store.put"),
        "runtime.store.flush_s": self_s("runtime.store.flush"),
        "runtime.store.rows_flushed": counters.get("runtime.store.rows_flushed", 0.0),
        "planner.plan_s": self_s("planner.plan"),
        "planner.execute_plan.s": self_s("planner.execute_plan"),
        "planner.units_evaluated": evaluated,
        "planner.units_replayed": replayed,
        "planner.replay_ratio": ratio(replayed, evaluated + replayed),
        "experiments.run_experiment.s": self_s("experiments.run_experiment"),
        "experiments.report.serialize_s": self_s("experiments.report.serialize"),
    }
    return metrics
