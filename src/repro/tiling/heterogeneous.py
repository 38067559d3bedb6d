"""Heterogeneous design: pipe sharing + workload-balanced tile sizes.

This is the paper's proposed architecture (Fig. 1(d)): the pipe-shared
region layout with the tile extents rebalanced so the region-boundary
kernels (which still pay outer cone expansion) are no longer the
barrier-setting stragglers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SpecificationError
from repro.stencil.spec import StencilSpec
from repro.tiling.balancing import balanced_tile_grid
from repro.tiling.design import (
    DesignKind,
    StencilDesign,
    fifo_depth,
    peak_face_transfer,
)


def make_heterogeneous_design(
    spec: StencilSpec,
    region_shape: Sequence[int],
    counts: Sequence[int],
    fused_depth: int,
    unroll: int = 1,
    pipe_depth: Optional[int] = None,
    min_extent: Optional[int] = None,
) -> StencilDesign:
    """Build a balanced heterogeneous design over a fixed region.

    The region extents are kept identical to the equal-tiling design it
    replaces (so the region grid still covers the stencil array the
    same way); only the internal partition changes.

    Args:
        spec: the stencil workload.
        region_shape: region extents ``R_d`` (e.g. ``k_d * w_d`` of the
            design being rebalanced).
        counts: tiles per dimension (parallelism is preserved).
        fused_depth: cone depth ``h``.
        unroll: processing elements per kernel.
        pipe_depth: FIFO depth of each generated pipe; sized to the
            design's largest single-face halo transfer when omitted.
        min_extent: smallest admissible tile extent (default: the
            stencil radius, so every tile can source a full halo).

    Returns:
        A :class:`StencilDesign` of kind ``HETEROGENEOUS``.
    """
    if len(region_shape) != spec.ndim or len(counts) != spec.ndim:
        raise SpecificationError(
            f"region_shape {region_shape} / counts {counts} must have "
            f"rank {spec.ndim}"
        )
    if min_extent is None:
        min_extent = max(1, max(spec.pattern.radius))
    grid = balanced_tile_grid(
        region_shape,
        counts,
        spec.pattern.radius,
        fused_depth,
        min_extent=min_extent,
    )
    if pipe_depth is None:
        pipe_depth = fifo_depth(
            peak_face_transfer(grid, spec.pattern.radius, fused_depth)
        )
    return StencilDesign(
        kind=DesignKind.HETEROGENEOUS,
        spec=spec,
        fused_depth=fused_depth,
        tile_grid=grid,
        unroll=unroll,
        pipe_depth=pipe_depth,
    )
