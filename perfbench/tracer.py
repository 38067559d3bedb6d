"""In-memory span recorder that wraps the public ``repro`` entry points.

The traced run installs :class:`Tracer` over the names listed in
:data:`TARGETS`.  Each name is replaced wherever a caller looks it up:
every loaded ``repro.*`` module attribute that *is* the original
function, or the method on its class.  Nothing under ``src/`` changes,
and the untimed wrappers are removed again by :meth:`Tracer.uninstall`.

A span carries a name, its layer, start and end (``perf_counter``
seconds), its parent span id and the request id of the request it ran
under.  High-frequency calls (enumeration steps, store lookups and
writes, composition calls) are *leaf* intervals: their time and count
are folded into the enclosing span instead of being stored one by
one, which keeps the recorder's own cost and memory small.

Self time of a span is its duration minus the time its direct child
spans and leaf intervals cover.  Layer busy time counts only the
outermost span of a layer, so a layer that calls itself (for example
``ProgramEvaluator.explore`` -> ``evaluate_batch``) is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(module, attribute, class-or-None, span name, layer, leaf)`` rows.
#: A class name means the attribute is a method patched on that class.
#: A leaf call (or, for the enumeration generators, each ``next()``)
#: is folded into its caller's span instead of recorded on its own.
TARGETS: Tuple[Tuple[str, str, Optional[str], str, str, bool], ...] = (
    # candidate enumeration (generators: each next() is a leaf step)
    ("repro.dse.optimizer", "full_space_candidates", None,
     "full_space_candidates", "dse.enumerate", True),
    ("repro.program.dse", "program_candidates", None,
     "program_candidates", "dse.enumerate", True),
    # Tier-0 screen and Tier-1 exact scoring
    ("repro.dse.evaluator", "screen_batch", "CandidateEvaluator",
     "CandidateEvaluator.screen_batch", "dse.tier0", False),
    ("repro.program.evaluator", "screen_batch", "ProgramEvaluator",
     "ProgramEvaluator.screen_batch", "dse.tier0", False),
    ("repro.dse.evaluator", "evaluate_batch", "CandidateEvaluator",
     "CandidateEvaluator.evaluate_batch", "dse.tier1", False),
    ("repro.dse.evaluator", "explore", "CandidateEvaluator",
     "CandidateEvaluator.explore", "dse.tier1", False),
    ("repro.program.evaluator", "evaluate_batch", "ProgramEvaluator",
     "ProgramEvaluator.evaluate_batch", "dse.tier1", False),
    ("repro.program.evaluator", "explore", "ProgramEvaluator",
     "ProgramEvaluator.explore", "dse.tier1", False),
    # vectorized batch engines
    ("repro.model.batch", "predict_batch", None,
     "predict_batch", "model.predict_batch", False),
    ("repro.model.batch", "lower_bound_batch", None,
     "lower_bound_batch", "model.lower_bound_batch", False),
    ("repro.fpga.batch", "estimate_batch", None,
     "estimate_batch", "fpga.estimate_batch", False),
    # program composition model
    ("repro.program.model", "compose_cycles", None,
     "compose_cycles", "program.compose", True),
    ("repro.program.model", "compose_resources", None,
     "compose_resources", "program.compose", True),
    ("repro.program.model", "predict_program_batch", None,
     "predict_program_batch", "program.compose", False),
    ("repro.program.model", "lower_bound_program_batch", None,
     "lower_bound_program_batch", "program.compose", False),
    # design store
    ("repro.store.backing", "lookup_design", "DesignStore",
     "DesignStore.lookup_design", "store.lookup", True),
    ("repro.store.backing", "record_design", "DesignStore",
     "DesignStore.record_design", "store.record", True),
    ("repro.store.backing", "flush", "DesignStore",
     "DesignStore.flush", "store.flush", False),
    # frontend and codegen
    ("repro.frontend.extractor", "extract_features", None,
     "extract_features", "frontend", False),
    ("repro.codegen", "generate_program", None,
     "generate_program", "codegen", False),
    ("repro.codegen", "generate_program_pipeline", None,
     "generate_program_pipeline", "codegen", False),
    # simulation: JIT build/load, functional run, cycle simulation
    ("repro.sim.jit.backend", "get_kernel", None,
     "get_kernel", "sim.compile", False),
    ("repro.sim.jit.cache", "build", "KernelCache",
     "KernelCache.build", "sim.build", False),
    ("repro.sim.functional", "run", "FunctionalExecutor",
     "run_functional", "sim.run", False),
    ("repro.sim.executor", "simulate", None,
     "simulate", "sim.cycle", False),
    # client side of the service
    ("repro.service.client", "submit", "ServiceClient",
     "ServiceClient.submit", "service.submit", False),
    ("repro.service.client", "result", "ServiceClient",
     "ServiceClient.result", "service.result", False),
    ("repro.service.client", "wait", "ServiceClient",
     "ServiceClient.wait", "service.wait", False),
)

#: Layer of the per-request root span the harness opens.
REQUEST_LAYER = "request"


class Span:
    """One recorded call (or one request)."""

    __slots__ = (
        "sid", "name", "layer", "start", "end", "parent", "request",
        "child_s", "nested", "attrs", "leaves",
    )

    def __init__(self, sid, name, layer, start, parent, request, nested):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.nested = nested
        self.attrs: Dict[str, Any] = {}
        #: layer -> [count, seconds] of leaf intervals directly inside.
        self.leaves: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return (self.end or self.start) - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.sid if self.parent else None,
            "request": self.request,
            "self_s": self.self_s,
            "attrs": self.attrs,
            "leaves": self.leaves,
        }


class Tracer:
    """Thread-aware span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counters the wrappers fill (candidates, bytes, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, request: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = any(s.layer == layer for s in stack)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        span = Span(
            sid, name, layer, time.perf_counter(), parent,
            request if request is not None
            else (parent.request if parent else None),
            nested,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = span.duration
        if span.parent is not None:
            span.parent.child_s += duration
        with self._lock:
            self.spans.append(span)
            self.calls[span.layer] += 1
            self.self_time[span.layer] += span.self_s
            if not span.nested:
                self.busy[span.layer] += duration

    def leaf(self, layer: str, seconds: float) -> None:
        """Fold one short interval into the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = any(s.layer == layer for s in stack)
        if parent is not None:
            parent.child_s += seconds
            entry = parent.leaves.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        with self._lock:
            self.calls[layer] += 1
            self.self_time[layer] += seconds
            if not nested:
                self.busy[layer] += seconds

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def within(self, layer: str) -> bool:
        return any(s.layer == layer for s in self._stack())

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn: Callable, name: str, layer: str, leaf: bool):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if leaf:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leaf(layer, time.perf_counter() - start)
                if observe is not None:
                    observe(tracer, None, args, kwargs, result)
                return result
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs))

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Patch every target wherever its callers look it up."""
        for module_name, attr, cls_name, name, layer, leaf in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap_call(original, name, layer, leaf)
                self._patch(cls, attr, wrapper)
                continue
            original = getattr(module, attr)
            if layer == "dse.enumerate":
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap_call(original, name, layer, leaf)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "repro" and not loaded_name.startswith(
                    "repro."
                ):
                    continue
                if getattr(loaded, attr, None) is original:
                    self._patch(loaded, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), default=str))
                handle.write("\n")

    def request_spans(self) -> List[Span]:
        return [s for s in self.spans if s.layer == REQUEST_LAYER]


class _TimedIterator:
    """Iterator proxy that times every ``next()`` as a leaf interval.

    Each yielded item is counted under ``enumerate.<generator name>``.
    """

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._key = "enumerate." + name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            item = next(self._inner)
        except StopIteration:
            self._tracer.leaf("dse.enumerate", time.perf_counter() - start)
            raise
        self._tracer.leaf("dse.enumerate", time.perf_counter() - start)
        self._tracer.add(self._key)
        return item


# -- per-call observers: counters measured where the work happens --------


def _observe_tier1(tracer, span, args, kwargs, result) -> None:
    candidates = args[1] if len(args) > 1 else kwargs.get("candidates", ())
    if span.nested:
        return
    count = len(candidates)
    tracer.add("dse.tier1.evaluations", count)
    if span.name.endswith("evaluate_batch"):
        # Outside an explore, evaluate_batch only ever receives the
        # candidates the Tier-0 screen promoted.
        tracer.add("dse.tier0.promoted", count)
    slots = sum(
        len(getattr(c, "stage_designs", ())) or 1 for c in candidates
    )
    tracer.add("dse.tier1.stage_slots", slots)


def _observe_tier0(tracer, span, args, kwargs, result) -> None:
    candidates = args[1] if len(args) > 1 else kwargs.get("candidates", ())
    feasible = result[0]
    tracer.add("dse.tier0.candidates", len(candidates))
    tracer.add("dse.tier0.feasible", sum(1 for f in feasible if f))


def _observe_predict(tracer, span, args, kwargs, result) -> None:
    designs = args[0] if args else kwargs.get("designs", ())
    if tracer.within("dse.tier1"):
        tracer.add("dse.tier1.scored", len(designs))


def _observe_codegen(tracer, span, args, kwargs, result) -> None:
    tracer.add("codegen.bytes", generated_bytes(result))


def _observe_run(tracer, span, args, kwargs, result) -> None:
    executor = args[0]
    spec = executor.spec
    cells = 1
    for extent in spec.grid_shape:
        cells *= extent
    iterations = kwargs.get("iterations")
    if iterations is None and len(args) > 3:
        iterations = args[3]
    tracer.add(
        "sim.cell_updates",
        cells * (spec.iterations if iterations is None else iterations),
    )
    if executor.active_backend != "jit":
        tracer.add("sim.numpy_runs")


def _observe_lookup(tracer, span, args, kwargs, result) -> None:
    if result is not None:
        tracer.add("store.hits")


def _observe_result(tracer, span, args, kwargs, result) -> None:
    tracer.add("service.result_calls")


def _observe_submit(tracer, span, args, kwargs, result) -> None:
    root = span
    while root.parent is not None:
        root = root.parent
    root.attrs["job_id"] = result["id"]
    root.attrs["coalesced"] = bool(result.get("coalesced"))


_OBSERVERS = {
    "CandidateEvaluator.evaluate_batch": _observe_tier1,
    "CandidateEvaluator.explore": _observe_tier1,
    "ProgramEvaluator.evaluate_batch": _observe_tier1,
    "ProgramEvaluator.explore": _observe_tier1,
    "CandidateEvaluator.screen_batch": _observe_tier0,
    "ProgramEvaluator.screen_batch": _observe_tier0,
    "predict_batch": _observe_predict,
    "generate_program": _observe_codegen,
    "generate_program_pipeline": _observe_codegen,
    "run_functional": _observe_run,
    "ServiceClient.result": _observe_result,
    "ServiceClient.submit": _observe_submit,
    "DesignStore.lookup_design": _observe_lookup,
}


def generated_bytes(program) -> int:
    """Size in bytes of a generated program's kernel and host sources."""
    return len(program.kernel_source.encode("utf-8")) + len(
        program.host_source.encode("utf-8")
    )
