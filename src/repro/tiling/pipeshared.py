"""Pipe-shared design: equal tiles bridged by OpenCL pipes (Fig. 1(c)).

Tiles within a region exchange boundary halos through pipes every fused
iteration, eliminating the redundant computation across *interior*
faces.  Cone expansion remains only across region-outer faces, whose
neighboring regions' intermediate values are unavailable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SpecificationError
from repro.stencil.spec import StencilSpec
from repro.tiling.design import (
    DesignKind,
    StencilDesign,
    fifo_depth,
    peak_face_transfer,
)
from repro.tiling.tile import TileGrid


def make_pipe_shared_design(
    spec: StencilSpec,
    tile_shape: Sequence[int],
    counts: Sequence[int],
    fused_depth: int,
    unroll: int = 1,
    pipe_depth: Optional[int] = None,
) -> StencilDesign:
    """Build an equal-tile pipe-sharing design.

    Args:
        spec: the stencil workload.
        tile_shape: output tile extents (equal for all tiles).
        counts: tiles per dimension.
        fused_depth: cone depth ``h``.
        unroll: processing elements per kernel.
        pipe_depth: FIFO depth of each generated pipe; sized to the
            design's largest single-face halo transfer when omitted.

    Returns:
        A :class:`StencilDesign` of kind ``PIPE_SHARED``.
    """
    if len(tile_shape) != spec.ndim or len(counts) != spec.ndim:
        raise SpecificationError(
            f"tile_shape {tile_shape} / counts {counts} must have "
            f"rank {spec.ndim}"
        )
    grid = TileGrid.uniform(tile_shape, counts)
    if pipe_depth is None:
        pipe_depth = fifo_depth(
            peak_face_transfer(grid, spec.pattern.radius, fused_depth)
        )
    return StencilDesign(
        kind=DesignKind.PIPE_SHARED,
        spec=spec,
        fused_depth=fused_depth,
        tile_grid=grid,
        unroll=unroll,
        pipe_depth=pipe_depth,
    )
