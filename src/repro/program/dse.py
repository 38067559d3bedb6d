"""Program-level design-space exploration.

The program space is the product of per-stage single-stencil spaces:
every stage independently picks a ``(parallelism, tile shape, fusion
depth, balancing)`` point from the same enumerations the paper's
single-stencil searches use (:func:`~repro.dse.optimizer.full_space_candidates`
with tighter caps — the product grows multiplicatively).  Candidates
stream lazily, either into one exhaustive ``explore`` or through the
tiered :class:`~repro.dse.search.SearchDriver`, so program searches get
the vectorized Tier-0 screen (per-stage admissible bounds composed
along the DAG), chunked O(chunk) residency and store-backed resume for
free.

:func:`optimize_program` is the program analogue of ``optimize_full``;
:func:`optimize_stages_independently` is the ablation baseline the
benchmark suite compares against — each stage optimized alone under
the same shared budget, then composed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator, DSEResult, EvaluatedDesign
from repro.dse.optimizer import _run_search, full_space_candidates
from repro.dse.search import SearchDriver
from repro.errors import DesignSpaceError
from repro.fpga.resources import FpgaDevice, VIRTEX7_690T
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import SCHEDULES, ProgramDesign
from repro.program.evaluator import ProgramEvaluator
from repro.program.spec import ProgramSpec
from repro.stencil.spec import StencilSpec
from repro.tiling.design import DesignKind, StencilDesign

__all__ = [
    "optimize_program",
    "optimize_stages_independently",
    "program_candidates",
    "stage_design_options",
]

#: Default per-stage design kinds explored by ``optimize_program``.
DEFAULT_KINDS: Tuple[DesignKind, ...] = (
    DesignKind.BASELINE,
    DesignKind.PIPE_SHARED,
)


def stage_design_options(
    spec: StencilSpec,
    kinds: Sequence[DesignKind] = DEFAULT_KINDS,
    unroll: int = 1,
    max_kernels: int = 2,
    max_fused_depth: int = 4,
    max_tile_options: int = 1,
) -> Tuple[StencilDesign, ...]:
    """Materialize one stage's bounded design options, in stable order.

    Reuses the single-stencil full-space enumeration with tight caps
    (the program space is the *product* of these per-stage lists, so
    each list must stay small).  The order is deterministic across
    runs, so equal-latency ties resolve to the same design every run.
    """
    options = []
    for kind in kinds:
        options.extend(
            full_space_candidates(
                spec,
                kind,
                unroll=unroll,
                max_kernels=max_kernels,
                max_fused_depth=max_fused_depth,
                max_tile_options=max_tile_options,
            )
        )
    if not options:
        raise DesignSpaceError(
            f"No stage design options for workload {spec.name!r} under "
            f"kinds {[k.value for k in kinds]}"
        )
    return tuple(options)


def program_candidates(
    program: ProgramSpec,
    options: Dict[str, Sequence[StencilDesign]],
    schedule: str = "coresident",
) -> Iterator[ProgramDesign]:
    """Lazily enumerate the product space of per-stage options.

    Stages vary in topological order with the last stage innermost;
    the stream is deterministic given deterministic option lists.
    """
    order = program.topo_order()
    for name in order:
        if name not in options:
            raise DesignSpaceError(
                f"No design options supplied for stage {name!r}"
            )
    per_stage = [tuple(options[name]) for name in order]
    for combo in itertools.product(*per_stage):
        yield ProgramDesign(
            program=program,
            stage_designs=tuple(zip(order, combo)),
            schedule=schedule,
        )


def _resolve_program_evaluator(
    evaluator: Optional[ProgramEvaluator],
    board: BoardSpec,
    driver: Optional[SearchDriver],
) -> ProgramEvaluator:
    if driver is not None:
        engine = driver.evaluator
        if not isinstance(engine, ProgramEvaluator):
            raise DesignSpaceError(
                "optimize_program needs a driver built on a "
                "ProgramEvaluator; wrap the driver's engine with "
                "ProgramEvaluator(stage_engine=...) first"
            )
        return engine
    if evaluator is not None:
        return evaluator
    return ProgramEvaluator(CandidateEvaluator(board=board))


def optimize_program(
    program: ProgramSpec,
    device: FpgaDevice = VIRTEX7_690T,
    board: BoardSpec = ADM_PCIE_7V3,
    budget: Optional[ResourceBudget] = None,
    schedule: str = "coresident",
    kinds: Sequence[DesignKind] = DEFAULT_KINDS,
    unroll: int = 1,
    max_kernels: int = 2,
    max_fused_depth: int = 4,
    max_tile_options: int = 1,
    evaluator: Optional[ProgramEvaluator] = None,
    driver: Optional[SearchDriver] = None,
) -> DSEResult:
    """Co-optimize every stage's design under one shared budget.

    Args:
        program: the validated program DAG.
        device: budget source when ``budget`` is omitted.
        board: platform the stage models evaluate against.
        budget: shared resource budget the *composed* program must fit.
        schedule: ``"coresident"`` or ``"timeshared"``.
        kinds: per-stage design kinds to enumerate.
        unroll, max_kernels, max_fused_depth, max_tile_options:
            per-stage enumeration caps (the program space is their
            product across stages — keep them tight).
        evaluator: a shared :class:`ProgramEvaluator` (one is built
            when omitted; ignored when ``driver`` carries its own).
        driver: a tiered :class:`~repro.dse.search.SearchDriver` built
            on a :class:`ProgramEvaluator` for chunked screening;
            without one the search is exhaustive.

    Returns:
        The usual :class:`~repro.dse.evaluator.DSEResult`, with
        ``best.design`` a :class:`ProgramDesign`.
    """
    if schedule not in SCHEDULES:
        raise DesignSpaceError(
            f"Unknown program schedule {schedule!r}; supported: {SCHEDULES}"
        )
    engine = _resolve_program_evaluator(evaluator, board, driver)
    if budget is None:
        budget = ResourceBudget.from_device(device)
    options = {
        stage.name: stage_design_options(
            stage.spec,
            kinds=kinds,
            unroll=unroll,
            max_kernels=max_kernels,
            max_fused_depth=max_fused_depth,
            max_tile_options=max_tile_options,
        )
        for stage in program.stages
    }
    return _run_search(
        engine, driver, program_candidates(program, options, schedule), budget
    )


def optimize_stages_independently(
    program: ProgramSpec,
    device: FpgaDevice = VIRTEX7_690T,
    board: BoardSpec = ADM_PCIE_7V3,
    budget: Optional[ResourceBudget] = None,
    schedule: str = "coresident",
    kinds: Sequence[DesignKind] = DEFAULT_KINDS,
    unroll: int = 1,
    max_kernels: int = 2,
    max_fused_depth: int = 4,
    max_tile_options: int = 1,
    evaluator: Optional[ProgramEvaluator] = None,
) -> Tuple[Optional[EvaluatedDesign], Dict[str, DSEResult]]:
    """Ablation baseline: optimize each stage alone, then compose.

    Each stage is optimized in isolation under the *full* shared
    budget (the greedy strategy a user without program-level DSE would
    apply), and the per-stage winners are composed into one
    :class:`ProgramDesign` scored by the program evaluator.

    Returns:
        ``(composed, per_stage)`` — the composed program's evaluation
        (``None`` when the greedy composition violates the shared
        budget) and each stage's own :class:`DSEResult`.
    """
    engine = evaluator or ProgramEvaluator(CandidateEvaluator(board=board))
    if budget is None:
        budget = ResourceBudget.from_device(device)
    per_stage: Dict[str, DSEResult] = {}
    chosen = []
    for name in program.topo_order():
        spec = program.stage(name).spec
        options = stage_design_options(
            spec,
            kinds=kinds,
            unroll=unroll,
            max_kernels=max_kernels,
            max_fused_depth=max_fused_depth,
            max_tile_options=max_tile_options,
        )
        result = engine.stage_engine.explore(list(options), budget)
        per_stage[name] = result
        chosen.append((name, result.best.design))
    composed_design = ProgramDesign(
        program=program, stage_designs=tuple(chosen), schedule=schedule
    )
    resources = engine.resources(composed_design)
    if not resources.total.fits_within(budget.limit):
        return None, per_stage
    composed = EvaluatedDesign(
        design=composed_design,
        predicted_cycles=engine.predict_cycles(composed_design),
        resources=resources,
    )
    return composed, per_stage
