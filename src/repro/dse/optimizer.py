"""The performance optimizer (Section 5.1).

Enumerates candidate designs, scores each through the shared
:class:`~repro.dse.evaluator.CandidateEvaluator` engine (that is the
point of having a model: the search never synthesizes or simulates),
discards candidates that exceed the resource budget, and returns the
fastest feasible design.

All four ``optimize_*`` entry points accept an optional ``evaluator``
so callers can share one engine — and therefore its signature memo —
across searches.

Candidate enumeration is *streaming*: every entry point builds a lazy
generator.  Without a ``driver`` the engine scores the whole stream
exhaustively (``engine.explore``), drawing it first with the engine's
checkpoint called after every 1,024 candidates, so a cancel does not
wait for a large space to be enumerated; passing a tiered
:class:`~repro.dse.search.SearchDriver` turns the same search into a
chunked screen-then-refine sweep with O(chunk) candidate residency
(see ``docs/SEARCH.md``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.dse.search import SearchDriver
from repro.dse.space import DesignSpace, fused_depth_candidates
from repro.errors import DesignSpaceError
from repro.fpga.resources import FpgaDevice, VIRTEX7_690T
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.stencil.spec import StencilSpec
from repro.tiling.baseline import make_baseline_design
from repro.tiling.design import DesignKind, StencilDesign
from repro.tiling.heterogeneous import make_heterogeneous_design
from repro.tiling.pipeshared import make_pipe_shared_design

__all__ = [
    "DSEResult",
    "EvaluatedDesign",
    "EvaluationStats",
    "baseline_candidates",
    "full_space_candidates",
    "optimize_baseline",
    "optimize_full",
    "optimize_heterogeneous",
    "optimize_pipe_shared",
]


def _resolve_evaluator(
    evaluator: Optional[CandidateEvaluator],
    board: BoardSpec,
    driver: Optional[SearchDriver] = None,
) -> CandidateEvaluator:
    if driver is not None:
        return driver.evaluator
    if evaluator is not None:
        return evaluator
    return CandidateEvaluator(board=board)


#: Candidates an exhaustive search draws between two checkpoints of
#: its engine (the tiered driver's default chunk size).
_DRAW_CHUNK = 1024


def _run_search(
    engine: CandidateEvaluator,
    driver: Optional[SearchDriver],
    candidates: Iterator[StencilDesign],
    budget: ResourceBudget,
) -> DSEResult:
    """Score the stream exhaustively, or through ``driver`` when given."""
    if driver is not None:
        return driver.run(candidates, budget)
    drawn: List[StencilDesign] = []
    for design in candidates:
        drawn.append(design)
        if len(drawn) % _DRAW_CHUNK == 0:
            engine.checkpoint()
    return engine.explore(drawn, budget)


def baseline_candidates(space: DesignSpace) -> Iterator[StencilDesign]:
    """Lazily enumerate a space's baseline designs (tile-major order)."""
    for tile_shape in space.tile_shapes():
        for h in space.depth_candidates():
            yield make_baseline_design(
                space.spec, tile_shape, space.counts, h, space.unroll
            )


def optimize_baseline(
    spec: StencilSpec,
    counts: Sequence[int],
    unroll: int = 1,
    device: FpgaDevice = VIRTEX7_690T,
    board: BoardSpec = ADM_PCIE_7V3,
    space: Optional[DesignSpace] = None,
    max_fused_depth: int = 256,
    evaluator: Optional[CandidateEvaluator] = None,
    driver: Optional[SearchDriver] = None,
) -> DSEResult:
    """Best baseline (overlapped-tiling) design on a device.

    Mirrors the paper's baseline setup: explore iteration-fusion depth
    and tile size at fixed parallelism under the device budget.
    """
    if space is None:
        space = DesignSpace.default(
            spec, counts, unroll, max_fused_depth=max_fused_depth
        )
    engine = _resolve_evaluator(evaluator, board, driver=driver)
    return _run_search(
        engine,
        driver,
        baseline_candidates(space),
        ResourceBudget.from_device(device),
    )


def optimize_pipe_shared(
    spec: StencilSpec,
    baseline: StencilDesign,
    board: BoardSpec = ADM_PCIE_7V3,
    evaluator: Optional[CandidateEvaluator] = None,
    driver: Optional[SearchDriver] = None,
) -> DSEResult:
    """Best equal-tile pipe-shared design within the baseline's budget.

    Parallelism, tile shape, and region layout stay equal to the
    baseline (Section 5.4); only the fusion depth is re-explored — the
    BRAM freed by eliminating overlap storage admits deeper cones.
    """
    engine = _resolve_evaluator(evaluator, board, driver=driver)
    budget = ResourceBudget.from_design(baseline, engine.estimator)
    slowest = baseline.slowest_tile()
    depths = fused_depth_candidates(
        min(4 * baseline.fused_depth + 64, spec.iterations),
        spec.iterations,
    )
    candidates = (
        make_pipe_shared_design(
            spec,
            slowest.shape,
            baseline.tile_grid.counts,
            h,
            baseline.unroll,
        )
        for h in depths
    )
    return _run_search(engine, driver, candidates, budget)


def full_space_candidates(
    spec: StencilSpec,
    kind: DesignKind,
    unroll: int = 1,
    max_kernels: int = 16,
    max_fused_depth: int = 64,
    max_tile_options: int = 3,
    dense_until: int = 8,
    sparse_step: int = 8,
) -> Iterator[StencilDesign]:
    """Lazily enumerate one design kind over the joint full space.

    One generator serves all three of :func:`optimize_full`'s sweeps
    (parallelism x tile shape x depth, identical nesting order per
    kind), so the candidate-construction loop exists once and no
    design-kind list is ever materialized.  Heterogeneous layouts the
    balancing solver rejects are skipped, as before.
    """
    from repro.dse.space import parallelism_candidates

    depth_ladder = fused_depth_candidates(
        max_fused_depth,
        spec.iterations,
        dense_until=dense_until,
        sparse_step=sparse_step,
    )
    for counts in parallelism_candidates(spec, max_kernels):
        try:
            space = DesignSpace.default(
                spec, counts, unroll, max_fused_depth=max_fused_depth
            )
        except DesignSpaceError:
            continue
        tile_options = [
            tuple(sorted(options)[-max_tile_options:])
            for options in space.tile_candidates
        ]
        pruned = DesignSpace(
            spec=spec,
            counts=space.counts,
            tile_candidates=tuple(tile_options),
            max_fused_depth=max_fused_depth,
            unroll=unroll,
        )
        for tile_shape in pruned.tile_shapes():
            for h in depth_ladder:
                if kind is DesignKind.BASELINE:
                    yield make_baseline_design(
                        spec, tile_shape, counts, h, unroll
                    )
                elif kind is DesignKind.PIPE_SHARED:
                    yield make_pipe_shared_design(
                        spec, tile_shape, counts, h, unroll
                    )
                else:
                    region = tuple(
                        t * c for t, c in zip(tile_shape, counts)
                    )
                    try:
                        yield make_heterogeneous_design(
                            spec, region, counts, h, unroll
                        )
                    except DesignSpaceError:
                        continue


def optimize_full(
    spec: StencilSpec,
    device: FpgaDevice = VIRTEX7_690T,
    board: BoardSpec = ADM_PCIE_7V3,
    unroll: int = 1,
    max_kernels: int = 16,
    max_fused_depth: int = 64,
    max_tile_options: int = 3,
    evaluator: Optional[CandidateEvaluator] = None,
    driver: Optional[SearchDriver] = None,
) -> dict:
    """Coarse global search over parallelism, tile shape, and depth.

    Explores, for each design kind, the joint space the paper's
    baseline setup describes ("iteration fusion depth, tile size, and
    the number of simultaneous executing tiles") under the *device*
    budget, and returns the best design per kind.

    The space is pruned for tractability: power-of-two counts, the
    ``max_tile_options`` largest feasible power-of-two tile extents per
    dimension, and a thinned depth ladder.  One evaluator instance
    scores all three sweeps, so pipeline reports and recurring designs
    are shared across them; pass a tiered ``driver`` to stream all
    three sweeps chunk by chunk.

    Returns:
        ``{"baseline": DSEResult, "pipe-shared": DSEResult,
        "heterogeneous": DSEResult}``.
    """
    budget = ResourceBudget.from_device(device)
    engine = _resolve_evaluator(evaluator, board, driver=driver)
    results = {}
    for label, kind in (
        ("baseline", DesignKind.BASELINE),
        ("pipe-shared", DesignKind.PIPE_SHARED),
        ("heterogeneous", DesignKind.HETEROGENEOUS),
    ):
        results[label] = _run_search(
            engine,
            driver,
            full_space_candidates(
                spec,
                kind,
                unroll=unroll,
                max_kernels=max_kernels,
                max_fused_depth=max_fused_depth,
                max_tile_options=max_tile_options,
            ),
            budget,
        )
    return results


def optimize_heterogeneous(
    spec: StencilSpec,
    baseline: StencilDesign,
    board: BoardSpec = ADM_PCIE_7V3,
    evaluator: Optional[CandidateEvaluator] = None,
    driver: Optional[SearchDriver] = None,
) -> DSEResult:
    """Best heterogeneous design within the baseline's budget.

    For each candidate fusion depth the balancing solver derives the
    optimal tile extents (the paper's ``f_k_d`` enumeration collapses
    to this closed form), the region layout matching the baseline's.
    """
    engine = _resolve_evaluator(evaluator, board, driver=driver)
    budget = ResourceBudget.from_design(baseline, engine.estimator)
    region = baseline.tile_grid.region_shape
    depths = fused_depth_candidates(
        min(4 * baseline.fused_depth + 64, spec.iterations),
        spec.iterations,
    )

    def candidates() -> Iterator[StencilDesign]:
        for h in depths:
            try:
                yield make_heterogeneous_design(
                    spec,
                    region,
                    baseline.tile_grid.counts,
                    h,
                    baseline.unroll,
                )
            except DesignSpaceError:  # pragma: no cover - defensive
                continue

    return _run_search(engine, driver, candidates(), budget)
