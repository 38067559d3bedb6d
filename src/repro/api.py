"""One-call synthesis facade: stencil in, optimized FPGA design out.

The paper's framework is push-button (Fig. 5): the user hands over an
OpenCL stencil kernel and gets back an optimized, generated design.
:func:`synthesize` is that button — it chains the frontend feature
extractor, the baseline constructor, the model-driven design-space
exploration, and the code generator into one call:

    from repro.api import synthesize

    synth = synthesize(benchmark="jacobi-2d")
    print(synth.design.describe())
    print(synth.program.kernel_source)

Both the long-running synthesis service (:mod:`repro.service`) and the
runnable examples sit on this facade, so the pipeline exists in exactly
one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.codegen import (
    GeneratedPipeline,
    GeneratedProgram,
    generate_program,
    generate_program_pipeline,
)
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator, DSEResult
from repro.dse.optimizer import (
    optimize_heterogeneous,
    optimize_pipe_shared,
)
from repro.errors import SpecificationError
from repro.fpga.estimator import DesignResources
from repro.frontend import extract_features
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.dse import optimize_program
from repro.program.evaluator import ProgramEvaluator
from repro.program.spec import ProgramSpec
from repro.stencil.library import get_benchmark
from repro.stencil.spec import StencilSpec
from repro.tiling.baseline import make_baseline_design
from repro.tiling.design import StencilDesign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dse.search import SearchDriver

_log = obs.get_logger("api")

#: Design styles :func:`synthesize` can target.
DESIGN_KINDS = ("baseline", "pipe-shared", "heterogeneous")


@dataclass(frozen=True)
class SynthesisResult:
    """Everything :func:`synthesize` produced for one request.

    Attributes:
        spec: the resolved workload.
        baseline: the reference (overlapped-tiling) design whose
            resource footprint bounded the exploration.
        dse: the full exploration outcome (``dse.candidates`` feeds
            Pareto analysis, ``dse.stats`` the engine counters).
        design: the chosen design (``dse.best.design``).
        predicted_cycles: the model's latency prediction for it.
        resources: its estimated resource utilization.
        program: the generated OpenCL kernel + host program
            (``None`` when ``emit=False``).
        evaluator: the engine that scored the candidates; reuse it
            across calls to share its memo and backing store.
    """

    spec: StencilSpec
    baseline: StencilDesign
    dse: DSEResult
    design: StencilDesign
    predicted_cycles: float
    resources: DesignResources
    program: Optional[GeneratedProgram]
    evaluator: CandidateEvaluator


@dataclass(frozen=True)
class ProgramSynthesisResult:
    """Everything :func:`synthesize` produced for one program request.

    Attributes:
        program_spec: the validated multi-stage program DAG.
        dse: the program-level exploration outcome.
        design: the chosen :class:`~repro.program.design.ProgramDesign`
            (one concrete design point per stage plus the schedule).
        predicted_cycles: the composed latency prediction for it.
        resources: its composed resource utilization.
        pipeline: the generated fused OpenCL pipeline (``None`` when
            ``emit=False``).
        evaluator: the program engine that scored the candidates;
            reuse it across calls to share its memo and backing store.
    """

    program_spec: ProgramSpec
    dse: DSEResult
    design: ProgramDesign
    predicted_cycles: float
    resources: DesignResources
    pipeline: Optional[GeneratedPipeline]
    evaluator: ProgramEvaluator


def default_baseline_parameters(
    spec: StencilSpec,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Heuristic ``(tile_shape, counts, fused_depth)`` for a workload.

    Small enough to be feasible on the default device for any spec the
    test suite builds, large enough to leave the optimizer a real
    space: two tiles per dimension (four for 1-D), tile extents sized
    to the region the grid affords, and a cone depth capped by the
    iteration count.
    """
    counts = tuple(
        (4 if spec.ndim == 1 else 2) if extent >= 8 else 1
        for extent in spec.grid_shape
    )
    tile_shape = tuple(
        max(
            2 * radius + 1,
            min(64, extent // (2 * count) or 1),
        )
        for extent, count, radius in zip(
            spec.grid_shape, counts, spec.pattern.radius
        )
    )
    fused_depth = max(1, min(8, spec.iterations))
    return tile_shape, counts, fused_depth


def _resolve_spec(
    source: Optional[str],
    benchmark: Optional[str],
    name: str,
    field_map: Optional[Mapping[str, str]],
    aux: Sequence[str],
    grid_shape: Optional[Sequence[int]],
    iterations: Optional[int],
) -> StencilSpec:
    if (source is None) == (benchmark is None):
        raise SpecificationError(
            "synthesize() needs exactly one of `source` (OpenCL kernel "
            "text) or `benchmark` (library name)"
        )
    if benchmark is not None:
        overrides = {}
        if grid_shape is not None:
            overrides["grid"] = tuple(grid_shape)
        if iterations is not None:
            overrides["iterations"] = iterations
        return get_benchmark(benchmark, **overrides)
    if grid_shape is None or iterations is None:
        raise SpecificationError(
            "synthesize(source=...) needs grid_shape= and iterations= "
            "to scope the workload"
        )
    features = extract_features(
        source, name=name, field_map=field_map, aux=tuple(aux)
    )
    return StencilSpec(
        name=name,
        pattern=features.pattern,
        grid_shape=tuple(grid_shape),
        iterations=iterations,
        dtype=features.dtype,
    )


def _synthesize_program(
    program: ProgramSpec,
    *,
    board: BoardSpec,
    schedule: str,
    evaluator: Optional[CandidateEvaluator],
    driver: Optional["SearchDriver"],
    emit: bool,
) -> ProgramSynthesisResult:
    """The multi-stage arm of :func:`synthesize`."""
    with obs.span("api.synthesize", design="program", schedule=schedule):
        if driver is not None:
            # optimize_program rejects a driver whose engine is not a
            # ProgramEvaluator.
            engine = driver.evaluator
        elif isinstance(evaluator, ProgramEvaluator):
            engine = evaluator
        elif evaluator is not None:
            engine = ProgramEvaluator(stage_engine=evaluator)
        else:
            engine = ProgramEvaluator(board=board)
        dse = optimize_program(
            program,
            board=engine.board,
            schedule=schedule,
            evaluator=engine,
            driver=driver,
        )
        if engine.stage_engine is evaluator:
            # The caller's engine (a service's, say) counts this
            # search's work too; the program engine already published
            # it under dse.*.
            evaluator.absorb_stats(dse.stats, publish=False)
        best = dse.best
        pipeline = generate_program_pipeline(best.design) if emit else None
        _log.debug(
            "synthesized program %s: %d stages, %s schedule "
            "(%d candidates, %d feasible)",
            program.name, program.num_stages, schedule, dse.evaluated,
            dse.feasible,
        )
    return ProgramSynthesisResult(
        program_spec=program,
        dse=dse,
        design=best.design,
        predicted_cycles=best.predicted_cycles,
        resources=best.resources,
        pipeline=pipeline,
        evaluator=engine,
    )


def synthesize(
    source: Optional[str] = None,
    *,
    benchmark: Optional[str] = None,
    program: Optional[ProgramSpec] = None,
    schedule: str = "coresident",
    board: BoardSpec = ADM_PCIE_7V3,
    name: str = "user-stencil",
    field_map: Optional[Mapping[str, str]] = None,
    aux: Sequence[str] = (),
    grid_shape: Optional[Sequence[int]] = None,
    iterations: Optional[int] = None,
    tile_shape: Optional[Sequence[int]] = None,
    counts: Optional[Sequence[int]] = None,
    fused_depth: Optional[int] = None,
    unroll: int = 1,
    design: str = "heterogeneous",
    evaluator: Optional[CandidateEvaluator] = None,
    driver: Optional["SearchDriver"] = None,
    emit: bool = True,
) -> "SynthesisResult | ProgramSynthesisResult":
    """Extract → optimize → codegen, as one call.

    Args:
        source: OpenCL-C stencil kernel text (the paper's input form).
            Mutually exclusive with ``benchmark`` and ``program``.
        benchmark: name in the stencil library (e.g. ``"jacobi-2d"``).
        program: a multi-stage
            :class:`~repro.program.spec.ProgramSpec` DAG; routes the
            call through the program-level search and the fused
            pipeline generator, returning a
            :class:`ProgramSynthesisResult` instead.  Mutually
            exclusive with ``source`` and ``benchmark``.
        schedule: program schedule (``"coresident"`` or
            ``"timeshared"``); only meaningful with ``program``.
        board: target platform.
        name: workload name used when building a spec from ``source``.
        field_map: written-array → state-field mapping for ping-pong
            kernels (see :class:`repro.frontend.FeatureExtractor`).
        aux: read-only auxiliary array names (e.g. HotSpot's power).
        grid_shape: grid extents; required with ``source``, an
            override with ``benchmark``.
        iterations: stencil iteration count; same rules as
            ``grid_shape``.
        tile_shape: baseline tile extents; derived via
            :func:`default_baseline_parameters` when omitted.
        counts: tiles per dimension; derived when omitted.
        fused_depth: baseline cone depth; derived when omitted.
        unroll: processing elements per kernel.
        design: ``"baseline"``, ``"pipe-shared"`` or
            ``"heterogeneous"`` — which style the optimizer targets.
            ``"baseline"`` skips the re-exploration and scores the
            baseline itself.
        evaluator: a shared :class:`CandidateEvaluator`; one is built
            against ``board`` when omitted.  Passing the service's (or
            a previous call's) engine reuses its memo and persistent
            store.
        driver: optional :class:`~repro.dse.search.SearchDriver` for
            tiered (screen-then-refine) exploration; its evaluator
            takes precedence over ``evaluator``.  Ignored for the
            ``"baseline"`` design kind, which scores one candidate.
            With ``program``, it must be built on a
            :class:`~repro.program.evaluator.ProgramEvaluator`.
        emit: generate the OpenCL program for the chosen design.

    Returns:
        A :class:`SynthesisResult`, or a
        :class:`ProgramSynthesisResult` when ``program`` is given.
    """
    if program is not None:
        if source is not None or benchmark is not None:
            raise SpecificationError(
                "synthesize() takes exactly one of `source`, "
                "`benchmark`, or `program`"
            )
        if not isinstance(program, ProgramSpec):
            raise SpecificationError(
                f"`program` must be a ProgramSpec, got {program!r}; "
                "build a library program with "
                "repro.program.get_program(name)"
            )
        return _synthesize_program(
            program,
            board=board,
            schedule=schedule,
            evaluator=evaluator,
            driver=driver,
            emit=emit,
        )
    if design not in DESIGN_KINDS:
        raise SpecificationError(
            f"Unknown design kind {design!r}; expected one of "
            f"{DESIGN_KINDS}"
        )
    with obs.span("api.synthesize", design=design):
        spec = _resolve_spec(
            source, benchmark, name, field_map, aux, grid_shape,
            iterations,
        )
        defaults = default_baseline_parameters(spec)
        baseline = make_baseline_design(
            spec,
            tuple(tile_shape) if tile_shape is not None else defaults[0],
            tuple(counts) if counts is not None else defaults[1],
            fused_depth if fused_depth is not None else defaults[2],
            unroll=unroll,
        )
        if driver is not None:
            engine = driver.evaluator
        else:
            engine = evaluator or CandidateEvaluator(board=board)
        if design == "heterogeneous":
            dse = optimize_heterogeneous(
                spec, baseline, board=engine.board, evaluator=engine,
                driver=driver,
            )
        elif design == "pipe-shared":
            dse = optimize_pipe_shared(
                spec, baseline, board=engine.board, evaluator=engine,
                driver=driver,
            )
        else:
            dse = engine.explore(
                [baseline],
                ResourceBudget.from_design(baseline, engine.estimator),
            )
        best = dse.best
        program = generate_program(best.design) if emit else None
        _log.debug(
            "synthesized %s: %s (%d candidates, %d feasible)",
            spec.name, best.design.describe(), dse.evaluated,
            dse.feasible,
        )
    return SynthesisResult(
        spec=spec,
        baseline=baseline,
        dse=dse,
        design=best.design,
        predicted_cycles=best.predicted_cycles,
        resources=best.resources,
        program=program,
        evaluator=engine,
    )
