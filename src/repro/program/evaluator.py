"""Program-candidate scoring through the single-stencil engine.

:class:`ProgramEvaluator` is a
:class:`~repro.dse.evaluator.CandidateEvaluator` over
:class:`~repro.program.design.ProgramDesign` candidates, configured
entirely by one stage engine.  It supplies only what is
program-specific:

- the memo key: a program design's store key, which it hashes once
  from cached stage encodings;
- batch scoring, the Tier-0 screen and the composed bound, through
  the program batch engines of :mod:`repro.program.model`
  (:func:`~repro.program.model.predict_program_batch`,
  :func:`~repro.program.model.screen_program_batch`,
  :func:`~repro.program.model.lower_bound_program_batch`): the stage
  engine scores each distinct stage design once, with its own batch
  engines and scalar fallback, and every candidate is composed with
  array operations.

Memo, store lookup and write-through, budget check, stats, the
batch checkpoints, ``explore`` and cache management are the stencil
engine's, so a program search warm-starts, bounds its memo, counts its
work and stops at a cancel exactly like a single-stencil one.
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
from repro.program.design import ProgramDesign
from repro.program.model import (
    lower_bound_program_batch,
    predict_program_batch,
    screen_program_batch,
)
from repro.store.backing import store_key


class ProgramEvaluator(CandidateEvaluator):
    """Cached, store-backed scorer for :class:`ProgramDesign` candidates.

    Args:
        stage_engine: the single-stencil evaluator that scores every
            stage design, and whose board, resource estimator (with
            its FlexCL analyzer), checkpoint, store and memo bound this
            engine takes; a default one is built when omitted.  Passing
            the service's resident evaluator shares all of them, its
            cancellation point included.  Program entries sit in its
            store beside single-stencil ones.
    """

    def __init__(self, stage_engine: Optional[CandidateEvaluator] = None):
        if stage_engine is None:
            stage_engine = CandidateEvaluator()
        super().__init__(
            board=stage_engine.board,
            estimator=stage_engine.estimator,
            checkpoint=stage_engine.checkpoint,
            store=stage_engine.store,
            max_memo_entries=stage_engine.max_memo_entries,
        )
        self.stage_engine = stage_engine

    # -- the program-specific hooks --------------------------------------------

    def _key(self, design: ProgramDesign) -> str:
        """The design's store key under this engine's context."""
        return store_key(design, self.store_context)

    # Stage designs are scored by the stage engine's hooks, never by
    # the ones this class inherits: the inherited ``_bounds`` falls
    # back to ``self.lower_bound``, which here expects a program.

    def _score(
        self,
        designs: Sequence[ProgramDesign],
        resources: Optional[Sequence[DesignResources]] = None,
    ) -> List[Tuple[float, DesignResources]]:
        """Composed ``(cycles, resources)`` per design; the resources
        are composed only when not given."""
        if not designs:
            return []
        return predict_program_batch(designs, self.stage_engine, resources)

    def _bounds(self, designs: Sequence[ProgramDesign]) -> List[float]:
        """Admissible composed lower bound per design."""
        bounds = lower_bound_program_batch(designs, self.stage_engine)
        return bounds.tolist()

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
        bounds and composed resources, from one stage index."""
        self.checkpoint()
        candidates = list(candidates)
        if not candidates:
            return [], [], []
        columns, bounds = screen_program_batch(candidates, self.stage_engine)
        resources = columns.rows()
        feasible = [r.total.fits_within(budget.limit) for r in resources]
        return feasible, bounds.tolist(), resources

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
