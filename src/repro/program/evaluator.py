"""Program-candidate scoring through the single-stencil engine.

:class:`ProgramEvaluator` presents the same duck-typed surface the
tiered :class:`~repro.dse.search.SearchDriver` drives —
``screen_batch`` / ``evaluate_batch`` / ``explore`` / ``absorb_stats``
plus the ``board`` / ``fidelity`` / ``estimator`` attributes — but
over :class:`~repro.program.design.ProgramDesign` candidates.  A batch
is scored by the program batch engines of :mod:`repro.program.model`
(:func:`~repro.program.model.predict_program_batch`,
:func:`~repro.program.model.lower_bound_program_batch`) under the
wrapped :class:`~repro.dse.evaluator.CandidateEvaluator`'s board,
fidelity and FlexCL analyzer (its model and estimator share one, as
the engine builds them): each distinct stage design is scored once,
by the same scoring functions the stage engine uses, and every
candidate is composed with array operations.

Program-level results are themselves memoized and store-backed under
the store key of :meth:`~repro.program.design.ProgramDesign.signature`,
so a program search warm-starts exactly like a single-stencil one.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.errors import DesignSpaceError
from repro.fpga.estimator import DesignResources
from repro.model.predictor import Fidelity
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.model import (
    compose_cycles,
    compose_resources,
    lower_bound_program_batch,
    predict_program_batch,
    program_lower_bound,
)
from repro.store.backing import (
    BackingStore,
    StoredResult,
    evaluation_context,
    store_key,
)

_log = obs.get_logger("program")

#: ``(total_cycles, resources)`` of one design; the resources are
#: ``None`` when the caller supplied composed program resources.
Numbers = Tuple[float, Optional[DesignResources]]


class ProgramEvaluator:
    """Cached scorer for :class:`ProgramDesign` candidates.

    Args:
        board: platform the stage models evaluate against (ignored
            when ``stage_engine`` is given — the engine's board wins).
        fidelity: analytical-model variant (same caveat).
        stage_engine: the single-stencil evaluator whose scoring
            function produces stage numbers; one is built when omitted.
            Passing the service's resident evaluator shares its board,
            fidelity, store, and per-candidate trace hook.
        store: optional persistent backing store for *program-level*
            entries; defaults to the stage engine's store, so one
            store serves both granularities.
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        fidelity: Fidelity = Fidelity.REFINED,
        stage_engine: Optional[CandidateEvaluator] = None,
        store: Optional[BackingStore] = None,
    ):
        if stage_engine is None:
            stage_engine = CandidateEvaluator(board=board, fidelity=fidelity)
        self.stage_engine = stage_engine
        self.board = stage_engine.board
        self.fidelity = stage_engine.fidelity
        self.estimator = stage_engine.estimator
        self.model = stage_engine.model
        self.store = store if store is not None else stage_engine.store
        self.store_context = (
            evaluation_context(self.board, self.fidelity, self.estimator.flexcl)
            if self.store is not None
            else None
        )
        #: Lifetime aggregate over every evaluate/explore call.
        self.stats = EvaluationStats()
        #: Memo keyed by each program design's store key under
        #: ``store_context`` (``None`` without a store).
        self._results: "OrderedDict[str, EvaluatedDesign]" = OrderedDict()
        self._lock = threading.Lock()

    # -- composed primitives ---------------------------------------------------

    def _stage_numbers(self, design: ProgramDesign) -> List[Numbers]:
        return self.stage_engine._score(
            [d for _name, d in design.stage_designs]
        )

    def resources(self, design: ProgramDesign) -> DesignResources:
        """Composed program resources."""
        return compose_resources(
            design.schedule, [r for _c, r in self._stage_numbers(design)]
        )

    def predict_cycles(self, design: ProgramDesign) -> float:
        """Composed program latency."""
        return compose_cycles(
            design, [c for c, _r in self._stage_numbers(design)], self.board
        )

    def lower_bound(self, design: ProgramDesign) -> float:
        """Admissible composed program lower bound (cycles)."""
        bounds = [
            self.stage_engine.lower_bound(d)
            for _name, d in design.stage_designs
        ]
        return program_lower_bound(design, bounds, self.board)

    def _compose(
        self, designs: Sequence[ProgramDesign], with_resources: bool
    ) -> List[Numbers]:
        """Composed ``(cycles, resources)`` per design, in order: one
        :func:`~repro.program.model.predict_program_batch` call, which
        scores each distinct stage once.  Resources are ``None``, and
        never estimated, unless ``with_resources``."""
        if not designs:
            return []
        batch = predict_program_batch(
            designs,
            board=self.board,
            fidelity=self.fidelity,
            flexcl=self.model.estimator,
        )
        cycles = batch.total.tolist()
        if not with_resources:
            return [(c, None) for c in cycles]
        return list(zip(cycles, batch.resources.rows()))

    # -- store + memo plumbing -------------------------------------------------

    def _store_lookup(self, design: ProgramDesign):
        if self.store is None:
            return None
        return self.store.lookup_design(design, self.store_context)

    def _store_record(
        self,
        design: ProgramDesign,
        cycles: Optional[float] = None,
        resources: Optional[DesignResources] = None,
    ) -> None:
        if self.store is None:
            return
        self.store.record_design(
            design, self.store_context, cycles=cycles, resources=resources
        )

    # -- tier-0 screening ------------------------------------------------------

    def screen_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> Tuple[List[bool], List[float], List[DesignResources]]:
        """Cheap composed screen data for one chunk.

        Returns ``(feasible, bounds, resources)`` exactly as
        :meth:`CandidateEvaluator.screen_batch` does, but composed
        along each candidate's DAG: the shared-budget feasibility
        verdict, the admissible composed lower bound, and the composed
        resources (which the tiered driver hands to
        :meth:`evaluate_batch`).  Each distinct stage design is scored
        once, however many candidates share it, and the chunk is
        composed with array operations
        (:func:`~repro.program.model.predict_program_batch`, of which
        only the resources are read, and
        :func:`~repro.program.model.lower_bound_program_batch`).
        Nothing is memoized — screening a huge product space leaves
        the caches O(chunk).
        """
        candidates = list(candidates)
        if not candidates:
            return [], [], []
        composed = predict_program_batch(
            candidates,
            board=self.board,
            fidelity=self.fidelity,
            flexcl=self.model.estimator,
        ).resources
        bounds = lower_bound_program_batch(
            candidates,
            board=self.board,
            fidelity=self.fidelity,
            flexcl=self.model.estimator,
        ).tolist()
        feasible = composed.feasible(budget.limit).tolist()
        return feasible, bounds, composed.rows()

    # -- tier-1 evaluation -----------------------------------------------------

    def _evaluate_one(
        self,
        design: ProgramDesign,
        key: str,
        budget: ResourceBudget,
        stats: EvaluationStats,
        stored: Dict[str, Optional[StoredResult]],
        scored: Dict[str, Numbers],
        resources: Optional[DesignResources],
    ) -> Optional[EvaluatedDesign]:
        result, outcome = self._score_one(
            design, key, budget, stats, stored, scored, resources
        )
        # Every composed candidate flows through the stage engine's
        # per-candidate hook, exactly like single-stencil candidates
        # do — the synthesis service's cancellation point lives there,
        # so a program exploration aborts within one candidate too.
        self.stage_engine._emit(
            design,
            outcome,
            result.predicted_cycles if result is not None else None,
        )
        return result

    def _score_one(
        self,
        design: ProgramDesign,
        key: str,
        budget: ResourceBudget,
        stats: EvaluationStats,
        stored: Dict[str, Optional[StoredResult]],
        scored: Dict[str, Numbers],
        resources: Optional[DesignResources],
    ) -> Tuple[Optional[EvaluatedDesign], str]:
        stats.candidates += 1
        with self._lock:
            cached = self._results.get(key)
        if cached is not None:
            stats.cache_hits += 1
            if not cached.resources.total.fits_within(budget.limit):
                stats.infeasible += 1
                return None, "infeasible"
            return cached, "cache-hit"
        entry = stored.get(key)
        if entry is not None and entry.complete:
            result = EvaluatedDesign(design, entry.cycles, entry.resources)
            with self._lock:
                result = self._results.setdefault(key, result)
            stats.store_hits += 1
            if not result.resources.total.fits_within(budget.limit):
                stats.infeasible += 1
                return None, "infeasible"
            return result, "store-hit"
        cycles, composed = scored[key]
        if resources is None:
            resources = composed
        if not resources.total.fits_within(budget.limit):
            stats.infeasible += 1
            self._store_record(design, resources=resources)
            return None, "infeasible"
        stats.evaluated += 1
        self._store_record(design, cycles=cycles, resources=resources)
        result = EvaluatedDesign(design, cycles, resources)
        with self._lock:
            result = self._results.setdefault(key, result)
        return result, "evaluated"

    def evaluate_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
        stats: Optional[EvaluationStats] = None,
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch of programs; results match input order.

        Each distinct program the memo cannot answer is looked up in
        the store once; those the store cannot answer either are
        composed in one :meth:`_compose` pass, which scores each of
        their distinct stage designs once.  Stage scoring adds no
        stage-level memo entries, store traffic, stats or trace events.
        The memo, the store and this batch's bookkeeping all key a
        program design by its store key, which it hashes once from
        cached stage encodings.

        ``resources`` are the candidates' composed resources when the
        caller already holds them (the tiered driver passes Tier-0's,
        aligned with ``candidates``): only cycles are composed then.
        Memo and store answers still take precedence.
        """
        delta = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            "program.evaluate_batch",
            candidates=len(candidates),
            budget=budget.label,
        ):
            keys = [
                store_key(design, self.store_context) for design in candidates
            ]
            stored: Dict[str, Optional[StoredResult]] = {}
            fresh: Dict[str, ProgramDesign] = {}
            for design, key in zip(candidates, keys):
                with self._lock:
                    known = key in self._results
                if known or key in stored:
                    continue
                entry = stored[key] = self._store_lookup(design)
                if entry is None or not entry.complete:
                    fresh[key] = design
            scored = dict(
                zip(
                    fresh,
                    self._compose(list(fresh.values()), resources is None),
                )
            )
            if resources is None:
                resources = [None] * len(candidates)
            results = [
                self._evaluate_one(
                    design, key, budget, delta, stored, scored, composed
                )
                for design, key, composed in zip(
                    candidates, keys, resources
                )
            ]
        delta.wall_time_s = time.perf_counter() - start
        if stats is not None:
            stats.merge(delta)
            self.absorb_stats(delta, publish=True, merge=False)
        else:
            self.absorb_stats(delta)
        return results

    def absorb_stats(
        self,
        delta: EvaluationStats,
        publish: bool = True,
        merge: bool = True,
    ) -> None:
        """Fold externally-collected counters into the lifetime stats."""
        if merge:
            with self._lock:
                self.stats.merge(delta)
        if publish and obs.enabled():
            obs.inc("program.candidates", delta.candidates)
            obs.inc("program.evaluated", delta.evaluated)
            obs.inc("program.cache_hits", delta.cache_hits)
            obs.inc("program.store_hits", delta.store_hits)
            obs.inc("program.infeasible", delta.infeasible)
            obs.inc("search.screened", delta.screened)
            obs.inc("search.promoted", delta.promoted)

    # -- exploration (passthrough / optimizer entry point) ---------------------

    def explore(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """Evaluate program candidates; return the fastest feasible."""
        candidates = list(candidates)
        stats = EvaluationStats()
        start = time.perf_counter()
        with obs.span(
            "program.explore",
            candidates=len(candidates),
            budget=budget.label,
        ):
            results = self.evaluate_batch(candidates, budget, stats)
            feasible = [r for r in results if r is not None]
        stats.wall_time_s = time.perf_counter() - start
        with self._lock:
            self.stats.merge(stats)
        if obs.enabled():
            _log.debug("program explore: %s", stats.summary())
        if not feasible:
            raise DesignSpaceError(
                f"No feasible program design within budget {budget.label} "
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
        """Number of memoized program evaluations."""
        with self._lock:
            return len(self._results)

    def clear_cache(self) -> None:
        """Drop every memoized program evaluation (stats preserved)."""
        with self._lock:
            self._results.clear()
