"""Program-candidate scoring through the single-stencil engine.

:class:`ProgramEvaluator` is a
:class:`~repro.dse.evaluator.CandidateEvaluator` over
:class:`~repro.program.design.ProgramDesign` candidates.  It supplies
only what is program-specific:

- the memo key: a program design's store key, which it hashes once
  from cached stage encodings;
- batch scoring, the composed Tier-0 resources and the composed bound,
  through the program batch engines of :mod:`repro.program.model`
  (:func:`~repro.program.model.predict_program_batch`,
  :func:`~repro.program.model.lower_bound_program_batch`): each
  distinct stage design is scored once, by the same scoring functions
  the stage engine uses, and every candidate is composed with array
  operations.

Memo, store lookup and write-through, budget check, stats, trace
events, ``explore`` and cache management are the stencil engine's, so
a program search warm-starts, bounds its memo and counts its work
exactly like a single-stencil one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.fpga.estimator import DesignResources
from repro.model.predictor import Fidelity
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.model import (
    ProgramBatchPrediction,
    lower_bound_program_batch,
    predict_program_batch,
)
from repro.store.backing import BackingStore, store_key


class ProgramEvaluator(CandidateEvaluator):
    """Cached, store-backed scorer for :class:`ProgramDesign` candidates.

    Args:
        board: platform the stage models evaluate against (ignored
            when ``stage_engine`` is given — the engine's board wins).
        fidelity: analytical-model variant (same caveat).
        stage_engine: the single-stencil evaluator whose board,
            fidelity, FlexCL analyzer, per-candidate trace hook, store
            and memo bound this engine takes; one is built when
            omitted.  Passing the service's resident evaluator shares
            all of them, its cancellation point included.
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
        super().__init__(
            board=stage_engine.board,
            fidelity=stage_engine.fidelity,
            estimator=stage_engine.estimator,
            model=stage_engine.model,
            trace=stage_engine.trace,
            store=store if store is not None else stage_engine.store,
            max_memo_entries=stage_engine.max_memo_entries,
        )
        self.stage_engine = stage_engine

    # -- the program-specific hooks --------------------------------------------

    def _key(self, design: ProgramDesign) -> str:
        """The design's store key under this engine's context."""
        return store_key(design, self.store_context)

    def _predict_batch(
        self, designs: Sequence[ProgramDesign]
    ) -> ProgramBatchPrediction:
        return predict_program_batch(
            designs,
            board=self.board,
            fidelity=self.fidelity,
            flexcl=self.model.estimator,
        )

    def _score(
        self,
        designs: Sequence[ProgramDesign],
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Tuple[float, DesignResources]]:
        """Composed ``(cycles, resources)`` per design, from one
        :func:`~repro.program.model.predict_program_batch` pass; the
        resources are composed only when not given."""
        if not designs:
            return []
        batch = self._predict_batch(designs)
        if resources is None:
            resources = batch.resources.rows()
        return list(zip(batch.total.tolist(), resources))

    def _estimate(
        self, designs: Sequence[ProgramDesign]
    ) -> List[DesignResources]:
        """Composed resources per design (the Tier-0 screen's)."""
        return self._predict_batch(designs).resources.rows()

    def _bounds(self, designs: Sequence[ProgramDesign]) -> List[float]:
        """Admissible composed lower bound per design."""
        return lower_bound_program_batch(
            designs,
            board=self.board,
            fidelity=self.fidelity,
            flexcl=self.model.estimator,
        ).tolist()

    def lower_bound(self, design: ProgramDesign) -> float:
        """Admissible composed lower bound (cycles) of one program."""
        return self._bounds([design])[0]

    # -- the engine's entry points, under program span names -------------------
    #
    # perfbench's tracer patches these three from each class's own
    # namespace, so they are defined here; none calls the base method
    # of the same name, which would record every candidate twice.

    def screen_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> Tuple[List[bool], List[float], List[DesignResources]]:
        """:meth:`CandidateEvaluator.screen_batch`, composed along each
        candidate's DAG: shared-budget verdicts, admissible composed
        bounds and composed resources."""
        return self._screen_batch(candidates, budget)

    def evaluate_batch(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
        stats: Optional[EvaluationStats] = None,
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Optional[EvaluatedDesign]]:
        """:meth:`CandidateEvaluator.evaluate_batch` over programs;
        ``resources`` are composed program resources."""
        return self._evaluate_batch(
            "program.evaluate_batch", candidates, budget, stats, resources
        )

    def explore(
        self,
        candidates: Sequence[ProgramDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """Evaluate program candidates; return the fastest feasible."""
        return self._explore("program.explore", candidates, budget)
