"""The unified candidate-evaluation engine behind every DSE caller.

The paper's whole optimization story (Section 5.1) rests on the
analytical model making exhaustive enumeration cheap.  This module is
the single path from a candidate :class:`StencilDesign` to its scored
:class:`EvaluatedDesign`, shared by the ``optimize_*`` entry points,
the sensitivity sweeps, the Pareto utilities, the experiment CLI, and
the benchmarks.  Every entry point runs the same four steps:

1. **Memo** — results are cached under the design's key, its
   canonical signature
   (:meth:`~repro.tiling.design.StencilDesign.signature`); designs
   recur across the baseline/pipe-shared/heterogeneous sweeps and
   across repeated experiment runs, and equal signatures guarantee
   equal results.  It is the engine's only cache, optionally
   LRU-bounded.
2. **Store** — with a :class:`~repro.store.backing.BackingStore`
   attached, a memo miss consults the store, so results survive the
   process and warm-start the next run (see ``docs/STORE.md``).
3. **Batch scoring** — the designs neither can answer are scored in
   one pass of the vectorized model and resource estimator
   (:func:`~repro.model.batch.predict_batch`,
   :func:`~repro.fpga.batch.estimate_batch`), whose numbers equal the
   scalar Eq. 1-11 model's bitwise.  A batch holding a design outside
   their exact-parity range is scored by the scalar model instead.
4. **Epilogue** — each candidate gets the budget check, its counters
   and trace event, and write-through of fresh results to the store.

Every run emits an :class:`EvaluationStats` record and can stream
per-candidate :class:`CandidateTrace` events to an observer hook.

:class:`~repro.program.evaluator.ProgramEvaluator` runs program
candidates through this same path: it overrides only the key
(:meth:`CandidateEvaluator._key`), the scoring hooks
(:meth:`~CandidateEvaluator._score`,
:meth:`~CandidateEvaluator._estimate`,
:meth:`~CandidateEvaluator._bounds`) and
:meth:`~CandidateEvaluator.lower_bound`.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import obs
from repro.dse.constraints import ResourceBudget
from repro.errors import DesignSpaceError
from repro.fpga.batch import estimate_batch
from repro.fpga.estimator import DesignResources, ResourceEstimator
from repro.fpga.flexcl import FlexCLEstimator
from repro.model.batch import (
    BatchRangeError,
    lower_bound_batch,
    predict_batch,
)
from repro.model.predictor import Fidelity, PerformanceModel
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.store.backing import BackingStore, StoredResult, evaluation_context
from repro.tiling.design import StencilDesign

_log = obs.get_logger("dse")

#: Store answer for a design the store does not hold.
_NOT_STORED = StoredResult()


@dataclass(frozen=True)
class EvaluatedDesign:
    """One candidate with its predicted latency and resources."""

    design: StencilDesign
    predicted_cycles: float
    resources: DesignResources


@dataclass(frozen=True)
class DSEResult:
    """Outcome of one exploration run."""

    best: EvaluatedDesign
    evaluated: int
    feasible: int
    #: All feasible candidates, fastest first (for Pareto analysis).
    #: A tiered search (``SearchDriver`` with screening on) returns
    #: only the promoted survivors here — O(frontier), not O(space).
    candidates: Tuple[EvaluatedDesign, ...]
    #: Engine counters for this run (``None`` for hand-built results).
    stats: Optional["EvaluationStats"] = field(default=None, compare=False)
    #: The (cycles, BRAM) Pareto band maintained during a tiered
    #: search; ``None`` for plain exhaustive explorations.
    frontier: Optional[Tuple[EvaluatedDesign, ...]] = field(
        default=None, compare=False
    )


@dataclass
class EvaluationStats:
    """Counters describing what the engine did for a batch of work.

    Attributes:
        candidates: designs submitted.
        evaluated: full model evaluations actually performed.
        cache_hits: designs answered from the signature cache.
        store_hits: designs whose prediction was answered by the
            persistent backing store (no model evaluation ran).
        infeasible: designs rejected by the resource-budget check.
        screened: designs rejected by the tiered search's vectorized
            Tier-0 screen (never reached exact scoring).
        promoted: designs the Tier-0 screen passed through to Tier-1
            exact scoring.
        wall_time_s: wall-clock seconds spent in the engine.
    """

    candidates: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    infeasible: int = 0
    screened: int = 0
    promoted: int = 0
    wall_time_s: float = 0.0

    def merge(self, other: "EvaluationStats") -> None:
        """Accumulate another stats record into this one."""
        self.candidates += other.candidates
        self.evaluated += other.evaluated
        self.cache_hits += other.cache_hits
        self.store_hits += other.store_hits
        self.infeasible += other.infeasible
        self.screened += other.screened
        self.promoted += other.promoted
        self.wall_time_s += other.wall_time_s

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view."""
        return {
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "infeasible": self.infeasible,
            "screened": self.screened,
            "promoted": self.promoted,
            "wall_time_s": self.wall_time_s,
        }

    def summary(self) -> str:
        """One-line human-readable rendering."""
        tiered = (
            f"{self.screened} screened, {self.promoted} promoted, "
            if (self.screened or self.promoted)
            else ""
        )
        return (
            f"{self.candidates} candidates: {self.evaluated} evaluated, "
            f"{self.cache_hits} cache hits, {self.store_hits} store hits, "
            f"{tiered}"
            f"{self.infeasible} infeasible, {self.wall_time_s:.2f}s"
        )


@dataclass(frozen=True)
class CandidateTrace:
    """One per-candidate observability event.

    Attributes:
        design: the candidate.
        outcome: ``"evaluated"``, ``"cache-hit"``, ``"store-hit"`` or
            ``"infeasible"``.
        predicted_cycles: model prediction when one was produced.
        seq: monotonic per-evaluator sequence id, assigned under the
            engine lock at emit time — when several threads share one
            engine, sorting by ``seq`` recovers a total order.
    """

    design: StencilDesign
    outcome: str
    predicted_cycles: Optional[float] = None
    seq: int = -1


TraceHook = Callable[[CandidateTrace], None]


def _fits(resources: DesignResources, budget: Optional[ResourceBudget]) -> bool:
    return budget is None or resources.total.fits_within(budget.limit)


class CandidateEvaluator:
    """Memoized, store-backed, batch-scoring engine for candidate designs.

    One evaluator is bound to a board, a model fidelity, and an
    estimator pair (the performance model and the resource estimator
    share one FlexCL pipeline analyzer so its reports are computed once
    per pattern).  The memo lives for the evaluator's lifetime, so
    sharing one instance across sweeps shares its work; one instance
    may be shared by several threads.

    Args:
        board: platform the model evaluates against.
        fidelity: analytical-model variant.
        estimator: scalar resource estimator (one is built when
            omitted); scores batches the vectorized engine cannot.
        model: scalar performance model (one is built when omitted);
            same role.
        trace: optional per-candidate observer hook.
        store: optional persistent backing store — consulted on every
            memo miss, written through on every fresh evaluation.
            Entries are content-addressed under this evaluator's board,
            fidelity, and FlexCL configuration, so a store shared
            across differently-configured evaluators never serves a
            stale result.
        max_memo_entries: bound on the in-memory signature memo; when
            set, the least-recently-used entries are evicted past the
            bound (an evicted design re-evaluates — or, with a store
            attached, reloads — on its next appearance).  ``None``
            keeps the memo unbounded.
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        fidelity: Fidelity = Fidelity.REFINED,
        estimator: Optional[ResourceEstimator] = None,
        model: Optional[PerformanceModel] = None,
        trace: Optional[TraceHook] = None,
        store: Optional[BackingStore] = None,
        max_memo_entries: Optional[int] = None,
    ):
        if estimator is None:
            flexcl = model.estimator if model is not None else FlexCLEstimator()
            estimator = ResourceEstimator(flexcl)
        if model is None:
            model = PerformanceModel(board, fidelity, estimator.flexcl)
        if max_memo_entries is not None and max_memo_entries < 1:
            raise DesignSpaceError(
                f"max_memo_entries must be >= 1, got {max_memo_entries}"
            )
        self.board = board
        self.fidelity = model.fidelity
        self.estimator = estimator
        self.model = model
        self.trace = trace
        self.store = store
        self.max_memo_entries = max_memo_entries
        self.store_context = (
            evaluation_context(board, self.fidelity, estimator.flexcl)
            if store is not None
            else None
        )
        #: Lifetime aggregate over every evaluate/explore call.
        self.stats = EvaluationStats()
        self._results: "OrderedDict[Hashable, EvaluatedDesign]" = OrderedDict()
        self._lock = threading.Lock()
        self._emit_seq = 0

    # -- store + memo plumbing -------------------------------------------------

    def _store_lookup(self, design: StencilDesign) -> Optional[StoredResult]:
        """Consult the backing store; ``None`` without one (or on miss)."""
        if self.store is None:
            return None
        return self.store.lookup_design(design, self.store_context)

    def _store_record(
        self,
        design: StencilDesign,
        cycles: Optional[float] = None,
        resources: Optional[DesignResources] = None,
    ) -> None:
        """Write a fresh result through to the backing store."""
        if self.store is None:
            return
        self.store.record_design(
            design, self.store_context, cycles=cycles, resources=resources
        )

    def _key(self, design: StencilDesign) -> Hashable:
        """The memo key of a design: its canonical signature."""
        return design.signature()

    def _memo_get(self, key: Hashable) -> Optional[EvaluatedDesign]:
        """LRU-aware memo read (call under ``self._lock``)."""
        result = self._results.get(key)
        if result is not None and self.max_memo_entries is not None:
            self._results.move_to_end(key)
        return result

    def _memo_put(
        self, key: Hashable, result: EvaluatedDesign
    ) -> EvaluatedDesign:
        """LRU-aware memo insert (call under ``self._lock``).

        Returns the canonical result object for the key: another
        thread may have stored one first, in which case its object is
        kept (same key → same values).
        """
        existing = self._results.get(key)
        if existing is not None:
            return existing
        self._results[key] = result
        if (
            self.max_memo_entries is not None
            and len(self._results) > self.max_memo_entries
        ):
            self._results.popitem(last=False)
        return result

    # -- the scoring path ------------------------------------------------------

    def _predict(self, designs: Sequence[StencilDesign]) -> List[float]:
        """Exact total cycles per design: batch model, scalar fallback."""
        if not designs:
            return []
        try:
            prediction = predict_batch(
                designs,
                board=self.board,
                fidelity=self.fidelity,
                flexcl=self.model.estimator,
            )
        except BatchRangeError:
            return [self.model.predict_cycles(d) for d in designs]
        return prediction.total.tolist()

    def _estimate(
        self, designs: Sequence[StencilDesign]
    ) -> List[DesignResources]:
        """Exact resources per design: batch estimator, scalar fallback."""
        if not designs:
            return []
        try:
            return estimate_batch(
                designs, flexcl=self.estimator.flexcl
            ).rows()
        except BatchRangeError:
            return [self.estimator.estimate(d) for d in designs]

    def _bounds(self, designs: Sequence[StencilDesign]) -> List[float]:
        """:meth:`lower_bound` per design: batch bound, scalar fallback."""
        try:
            return lower_bound_batch(
                designs,
                fidelity=self.fidelity,
                flexcl=self.model.estimator,
            ).tolist()
        except BatchRangeError:
            return [self.lower_bound(d) for d in designs]

    def _score(
        self,
        designs: Sequence[StencilDesign],
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Tuple[float, DesignResources]]:
        """Exact ``(total_cycles, resources)`` per design, in order.

        One pass of the vectorized engines; a batch holding a design
        outside their exact-parity range (:class:`BatchRangeError`) is
        scored by the scalar model or estimator instead — same
        numbers, bitwise.  ``resources``, when given, are the designs'
        estimates already in hand (Tier-0's), so only the model runs.
        Touches no memo, store, stats or trace.
        """
        if resources is None:
            resources = self._estimate(designs)
        return list(zip(self._predict(designs), resources))

    def _run_batch(
        self,
        candidates: Sequence[StencilDesign],
        budget: Optional[ResourceBudget],
        stats: EvaluationStats,
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Optional[EvaluatedDesign]]:
        """Memo, then store, then one :meth:`_score` call, then epilogue.

        Each candidate's :meth:`_key` is computed once, and each
        distinct key is resolved once, up front; the memo answers
        captured here stay valid for the whole batch even if the LRU
        bound evicts them meanwhile.  ``budget=None`` skips the budget
        check (the :meth:`predict_cycles` / :meth:`resources` lookups).
        ``resources`` (aligned with ``candidates``) spares the fresh
        designs the resource estimator.
        """
        keys = [self._key(design) for design in candidates]
        known: Dict[Hashable, EvaluatedDesign] = {}
        stored: Dict[Hashable, Optional[StoredResult]] = {}
        fresh: Dict[Hashable, int] = {}  # key -> first position
        for j, key in enumerate(keys):
            if key in known or key in stored:
                continue
            with self._lock:
                cached = self._memo_get(key)
            if cached is not None:
                known[key] = cached
                continue
            entry = stored[key] = self._store_lookup(candidates[j])
            if entry is None or not entry.complete:
                fresh[key] = j
        first = list(fresh.values())
        known_resources = (
            None if resources is None else [resources[j] for j in first]
        )
        scored = dict(
            zip(
                fresh,
                self._score([candidates[j] for j in first], known_resources),
            )
        )
        return [
            self._finish(design, key, budget, stats, known, stored, scored)
            for design, key in zip(candidates, keys)
        ]

    def _finish(
        self,
        design: StencilDesign,
        key: Hashable,
        budget: Optional[ResourceBudget],
        stats: EvaluationStats,
        known: Dict[Hashable, EvaluatedDesign],
        stored: Dict[Hashable, Optional[StoredResult]],
        scored: Dict[Hashable, Tuple[float, DesignResources]],
    ) -> Optional[EvaluatedDesign]:
        """Per-candidate epilogue: budget check, stats, trace, store.

        A fresh result that fails the budget is written through
        (resources only) but not memoized; every other result enters
        the memo, and ``known``, so repeats later in the batch are
        cache hits.  A stored entry holding resources only (an earlier
        infeasible verdict) is reused, not rewritten.
        """
        stats.candidates += 1
        result = known.get(key)
        if result is not None:
            stats.cache_hits += 1
            return self._admit(design, result, "cache-hit", budget, stats)
        entry = stored.get(key) or _NOT_STORED
        if entry.complete:
            stats.store_hits += 1
            result = self._remember(
                key, EvaluatedDesign(design, entry.cycles, entry.resources),
                known,
            )
            return self._admit(design, result, "store-hit", budget, stats)
        cycles, resources = scored[key]
        new_resources = entry.resources is None
        if not new_resources:
            resources = entry.resources
        if not _fits(resources, budget):
            stats.infeasible += 1
            if new_resources:
                self._store_record(design, resources=resources)
            self._emit(design, "infeasible")
            return None
        if entry.cycles is None:
            stats.evaluated += 1
            self._store_record(design, cycles=cycles, resources=resources)
        else:
            cycles = entry.cycles
            stats.store_hits += 1
            if new_resources:
                self._store_record(design, resources=resources)
        result = self._remember(
            key, EvaluatedDesign(design, cycles, resources), known
        )
        self._emit(design, "evaluated", cycles)
        return result

    def _remember(
        self,
        key: Hashable,
        result: EvaluatedDesign,
        known: Dict[Hashable, EvaluatedDesign],
    ) -> EvaluatedDesign:
        with self._lock:
            result = self._memo_put(key, result)
        known[key] = result
        return result

    def _admit(
        self,
        design: StencilDesign,
        result: EvaluatedDesign,
        outcome: str,
        budget: Optional[ResourceBudget],
        stats: EvaluationStats,
    ) -> Optional[EvaluatedDesign]:
        """Budget check and trace event for a memo or store answer."""
        if not _fits(result.resources, budget):
            stats.infeasible += 1
            self._emit(design, "infeasible")
            return None
        self._emit(design, outcome, result.predicted_cycles)
        return result

    def _emit(
        self,
        design: StencilDesign,
        outcome: str,
        predicted_cycles: Optional[float] = None,
    ) -> None:
        """Send one :class:`CandidateTrace` to the hook, if there is one.

        The event is built only when a hook listens, so untraced
        scoring creates no per-candidate trace objects.
        """
        if self.trace is None:
            return
        with self._lock:
            seq = self._emit_seq
            self._emit_seq += 1
        self.trace(CandidateTrace(design, outcome, predicted_cycles, seq))

    # -- single-design lookups -------------------------------------------------

    def _lookup(self, design: StencilDesign) -> EvaluatedDesign:
        """One design through the scoring path, with no budget."""
        stats = EvaluationStats()
        start = time.perf_counter()
        [result] = self._run_batch([design], None, stats)
        stats.wall_time_s = time.perf_counter() - start
        self.absorb_stats(stats)
        return result

    def predict_cycles(self, design: StencilDesign) -> float:
        """Model prediction (total cycles): memo, store, then the model."""
        return self._lookup(design).predicted_cycles

    def resources(self, design: StencilDesign) -> DesignResources:
        """Resource estimate: memo, store, then the estimator."""
        return self._lookup(design).resources

    def lower_bound(self, design: StencilDesign) -> float:
        """Admissible compute-only latency lower bound (cycles).

        Counts only computation cycles — launch, memory, and pipe
        overheads are all non-negative, so the bound never exceeds the
        full prediction at either fidelity:

        - ``REFINED``: the slowest kernel's total latency is at least
          its computation ``C_element · Σ_i workload_i``, maximized
          over kernels and scaled by the integer block count.
        - ``PAPER``: Eq. 7's ``L_comp`` is at least the useful part
          ``C_element · h · Π w_d`` of the slowest kernel, scaled by
          the real-valued ``N_region`` of Eq. 2.
        """
        report = self.model.pipeline_report(design)
        c_elem = report.cycles_per_element
        if self.fidelity is Fidelity.PAPER:
            per_block = (
                c_elem
                * design.fused_depth
                * math.prod(design.slowest_tile().shape)
            )
            return per_block * design.num_blocks_paper()
        per_block = c_elem * max(
            design.tile_compute_cells(t) for t in design.tiles
        )
        return per_block * design.num_blocks()

    # -- single-candidate evaluation -------------------------------------------

    def evaluate(
        self, design: StencilDesign, budget: ResourceBudget
    ) -> Optional[EvaluatedDesign]:
        """Score one candidate against a budget.

        Returns the cached :class:`EvaluatedDesign` when the signature
        was seen before (same signature → same result object); the
        budget check always re-runs, so the same design can be feasible
        under one budget and rejected under another.  Returns ``None``
        for infeasible candidates.
        """
        stats = EvaluationStats()
        start = time.perf_counter()
        with obs.span("dse.evaluate", budget=budget.label):
            [result] = self._run_batch([design], budget, stats)
        stats.wall_time_s = time.perf_counter() - start
        self.absorb_stats(stats)
        return result

    def absorb_stats(
        self, delta: EvaluationStats, publish: bool = True
    ) -> None:
        """Fold externally-collected counters into the lifetime stats.

        The tiered :class:`~repro.dse.search.SearchDriver` tallies its
        Tier-0 screen counters outside the engine and folds them in
        here; ``publish=False`` skips the metrics registry for deltas
        whose counters were already published (e.g. by
        :meth:`evaluate_batch`'s ``stats`` path).
        """
        with self._lock:
            self.stats.merge(delta)
        if publish:
            self._publish(delta)

    def _publish(self, delta: EvaluationStats) -> None:
        """Feed a batch's counters to the metrics registry."""
        if obs.enabled():
            obs.inc("dse.candidates", delta.candidates)
            obs.inc("dse.evaluated", delta.evaluated)
            obs.inc("dse.cache_hits", delta.cache_hits)
            obs.inc("dse.store_hits", delta.store_hits)
            obs.inc("dse.infeasible", delta.infeasible)
            obs.inc("search.screened", delta.screened)
            obs.inc("search.promoted", delta.promoted)
            obs.observe("dse.batch_wall_s", delta.wall_time_s)
            obs.set_gauge("dse.cache_size", self.cache_size())

    # -- tier-0 screening (the tiered search's vectorized gate) ----------------

    def screen_batch(
        self,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
    ) -> Tuple[List[bool], List[float], List[DesignResources]]:
        """Cheap per-candidate screen data for one chunk.

        Returns ``(feasible, bounds, resources)``: the exact
        resource-budget verdict, the admissible compute-only latency
        lower bound (see :meth:`lower_bound` — never exceeds the full
        prediction), and the exact resource estimate, one entry per
        candidate.  The tiered driver hands the estimates of the
        candidates it promotes to :meth:`evaluate_batch`, so Tier-1
        does not estimate them again.

        The vectorized estimators
        (:func:`~repro.fpga.batch.estimate_batch` /
        :func:`~repro.model.batch.lower_bound_batch`) do the work;
        chunks out of their exact-parity range fall back to the scalar
        estimator and bound.  Nothing is memoized — screening a huge
        space leaves the memo untouched, so peak residency stays
        O(chunk), not O(space).
        """
        return self._screen_batch(candidates, budget)

    def _screen_batch(
        self,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
    ) -> Tuple[List[bool], List[float], List[DesignResources]]:
        """:meth:`screen_batch`'s body, over the :meth:`_estimate` and
        :meth:`_bounds` hooks."""
        candidates = list(candidates)
        if not candidates:
            return [], [], []
        resources = self._estimate(candidates)
        bounds = self._bounds(candidates)
        feasible = [r.total.fits_within(budget.limit) for r in resources]
        return feasible, bounds, resources

    # -- batch evaluation ------------------------------------------------------

    def evaluate_batch(
        self,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
        stats: Optional[EvaluationStats] = None,
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch; the result list always matches input order.

        ``resources`` are the candidates' estimates when the caller
        already holds them (the tiered driver passes Tier-0's,
        aligned with ``candidates``); memo and store answers still
        take precedence.
        """
        return self._evaluate_batch(
            "dse.evaluate_batch", candidates, budget, stats, resources
        )

    def _evaluate_batch(
        self,
        span: str,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
        stats: Optional[EvaluationStats],
        resources: Optional[Sequence[DesignResources]],
    ) -> List[Optional[EvaluatedDesign]]:
        """:meth:`evaluate_batch`'s body, under the span ``span``."""
        delta = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            span, candidates=len(candidates), budget=budget.label
        ):
            results = self._run_batch(candidates, budget, delta, resources)
        delta.wall_time_s = time.perf_counter() - start
        if stats is not None:
            stats.merge(delta)
            self._publish(delta)
        else:
            self.absorb_stats(delta)
        return results

    # -- exploration (the optimizer entry point) -------------------------------

    def explore(
        self,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """Evaluate candidates against a budget; return the fastest.

        ``DSEResult.candidates`` holds every feasible candidate sorted
        by predicted cycles (stable, so equal-latency designs keep
        their input order and the first one wins).
        """
        return self._explore("dse.explore", candidates, budget)

    def _explore(
        self,
        span: str,
        candidates: Sequence[StencilDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """:meth:`explore`'s body, under the span ``span``."""
        candidates = list(candidates)
        stats = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            span, candidates=len(candidates), budget=budget.label
        ) as explore_span:
            results = self._run_batch(candidates, budget, stats)
            feasible = [r for r in results if r is not None]
            explore_span.set(feasible=len(feasible))
        stats.wall_time_s = time.perf_counter() - start
        self.absorb_stats(stats)
        if obs.enabled():
            _log.debug("explore: %s", stats.summary())
        if not feasible:
            raise DesignSpaceError(
                f"No feasible design within budget {budget.label} "
                f"({len(candidates)} candidates evaluated)"
            )
        feasible.sort(key=lambda e: e.predicted_cycles)
        return DSEResult(
            best=feasible[0],
            evaluated=len(candidates),
            feasible=len(feasible),
            candidates=tuple(feasible),
            stats=stats,
        )

    # -- cache management ------------------------------------------------------

    def cache_size(self) -> int:
        """Number of memoized candidate evaluations."""
        with self._lock:
            return len(self._results)

    def clear_cache(self) -> None:
        """Drop every memoized evaluation (stats are preserved)."""
        with self._lock:
            self._results.clear()

    def reset_stats(self) -> None:
        """Zero the lifetime counters."""
        with self._lock:
            self.stats = EvaluationStats()
