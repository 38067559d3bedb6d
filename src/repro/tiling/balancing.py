"""Workload-balancing solver for heterogeneous tiling (Section 3.2).

In the pipe-shared design, region-boundary tiles still pay cone
expansion across their outer faces, so at the per-iteration barrier the
interior kernels wait for them.  The heterogeneous design rebalances by
shrinking boundary tiles and growing interior ones.

The balance criterion: at fused iteration ``i`` a tile at position
``j`` computes (per dimension) an effective extent
``e_j + r * (h - i) * n_j`` where ``n_j`` is its outer-side count.
Averaged over ``i = 1..h`` the growth term is ``r * (h - 1) / 2 * n_j``,
so choosing extents with ``e_j + r * (h - 1) / 2 * n_j`` equal across
positions equalizes the *average* per-iteration workload dimension by
dimension, and hence (as a product across dimensions) across all tiles.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

from repro.errors import SpecificationError
from repro.tiling.tile import TileGrid
from repro.utils.validation import check_positive


def _outer_multiplicities(count: int) -> List[int]:
    """Outer-side count per tile position along one dimension."""
    if count == 1:
        return [2]
    return [1] + [0] * (count - 2) + [1]


def balanced_extents(
    region_extent: int,
    count: int,
    radius: int,
    fused_depth: int,
    min_extent: int = 1,
) -> List[int]:
    """Balanced tile extents along one dimension.

    Args:
        region_extent: total region length ``R_d`` to partition.
        count: number of tiles ``k_d``.
        radius: stencil radius ``r_d``.
        fused_depth: cone depth ``h``.
        min_extent: smallest admissible tile extent.

    Returns:
        Per-position extents summing exactly to ``region_extent``, with
        boundary positions shrunk by the mean cone growth.

    Raises:
        SpecificationError: when the region cannot accommodate
            ``count`` tiles of at least ``min_extent``.
    """
    check_positive("region_extent", region_extent)
    check_positive("count", count)
    check_positive("fused_depth", fused_depth)
    if radius < 0:
        raise SpecificationError(f"radius must be >= 0: {radius}")
    if region_extent < count * min_extent:
        raise SpecificationError(
            f"Region extent {region_extent} cannot hold {count} tiles of "
            f"at least {min_extent}"
        )
    growth = radius * (fused_depth - 1) / 2.0
    outers = _outer_multiplicities(count)
    # Solve e_j = A - growth * n_j with sum(e_j) = region_extent.
    target = (region_extent + growth * sum(outers)) / count
    raw = [target - growth * n for n in outers]
    extents = [max(min_extent, int(round(e))) for e in raw]
    _fix_sum(extents, region_extent, min_extent)
    return extents


def _fix_sum(extents: List[int], total: int, min_extent: int) -> None:
    """Adjust rounded extents in place so they sum to ``total``.

    Surplus is removed from the largest entries and deficit added to
    the smallest, preserving the balanced ordering as far as possible.
    """
    delta = total - sum(extents)
    guard = 0
    while delta != 0:
        if delta > 0:
            i = min(range(len(extents)), key=lambda j: extents[j])
            extents[i] += 1
            delta -= 1
        else:
            candidates = [
                j for j in range(len(extents)) if extents[j] > min_extent
            ]
            if not candidates:
                raise SpecificationError(
                    f"Cannot shrink extents {extents} to sum {total} with "
                    f"min extent {min_extent}"
                )
            i = max(candidates, key=lambda j: extents[j])
            extents[i] -= 1
            delta += 1
        guard += 1
        if guard > 10_000_000:  # pragma: no cover - safety net
            raise SpecificationError("Extent adjustment did not converge")


def balanced_tile_grid(
    region_shape: Sequence[int],
    counts: Sequence[int],
    radius: Sequence[int],
    fused_depth: int,
    min_extent: int = 1,
) -> TileGrid:
    """Balanced rectilinear tile grid over a region."""
    if not len(region_shape) == len(counts) == len(radius):
        raise SpecificationError(
            f"Rank mismatch: region {region_shape}, counts {counts}, "
            f"radius {radius}"
        )
    extents = [
        _balanced_extents(
            int(region_shape[d]),
            int(counts[d]),
            int(radius[d]),
            fused_depth,
            min_extent,
        )
        for d in range(len(counts))
    ]
    return TileGrid(extents)


@functools.lru_cache(maxsize=4096)
def _balanced_extents(
    region_extent: int,
    count: int,
    radius: int,
    fused_depth: int,
    min_extent: int,
) -> Tuple[int, ...]:
    """:func:`balanced_extents`, memoized (bounded) for the DSE.

    A sweep asks for the same few (extent, count, depth) solutions for
    every heterogeneous candidate that shares them, and again when it
    is searched twice (exhaustively, then tiered).
    """
    return tuple(
        balanced_extents(
            region_extent, count, radius, fused_depth, min_extent
        )
    )


def balancing_factors(grid: TileGrid) -> List[Tuple[float, ...]]:
    """Per-dimension balancing factors ``f_d(j)`` of a tile grid.

    Factors are relative to the equal-tiling extent
    ``R_d / k_d``; the paper's ``f^k_d`` for a kernel is the factor of
    its position along each dimension.
    """
    factors: List[Tuple[float, ...]] = []
    for dim_extents, region_extent in zip(
        grid.extents, grid.region_shape
    ):
        base = region_extent / len(dim_extents)
        factors.append(tuple(e / base for e in dim_extents))
    return factors
