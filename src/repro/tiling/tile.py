"""Rectilinear tile grids within a region.

A *region* is the patch of the stencil grid processed by ``K`` parallel
kernels during one fused block of ``h`` iterations (Fig. 4 of the
paper).  The region is partitioned into a rectilinear grid of tiles —
equal extents for the baseline and pipe-shared designs, per-position
extents for the heterogeneous design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.utils.grids import Box, iter_boxes


@dataclass(frozen=True)
class TileInfo:
    """One tile's geometry and role within the region.

    Attributes:
        index: position in the region's tile grid (per dimension).
        offset: region-local lower corner of the tile's output box.
        shape: tile extents ``w_d``.
        outer: per-dimension count of *region-outer* sides (0, 1 or 2).
            An outer side faces a neighboring region, whose intermediate
            iteration values are unavailable, so the fusion cone must
            expand redundantly across it.  An inner side faces a sibling
            tile in the same region.
        shared: per-dimension count of sides shared with sibling tiles
            (served by pipes in the sharing designs, or recomputed
            redundantly in the baseline).
    """

    index: Tuple[int, ...]
    offset: Tuple[int, ...]
    shape: Tuple[int, ...]
    outer: Tuple[int, ...]
    shared: Tuple[int, ...]

    @property
    def ndim(self) -> int:
        """Grid dimensionality."""
        return len(self.shape)

    @property
    def cells(self) -> int:
        """Output cells of the tile (``Π w_d``)."""
        return math.prod(self.shape)

    @property
    def box(self) -> Box:
        """Region-local output box."""
        return Box(
            self.offset, tuple(o + s for o, s in zip(self.offset, self.shape))
        )

    @property
    def is_corner(self) -> bool:
        """True when the tile touches the region boundary in every dim."""
        return all(n >= 1 for n in self.outer)


class TileGrid:
    """A rectilinear partition of the region into tiles.

    A grid is immutable once built, so designs may share one instance.

    Attributes:
        extents: per dimension, the tuple of consecutive tile extents.
        counts: tiles per dimension ``k_d``.
        parallelism: total kernels per region ``K = Π k_d``.
        region_shape: region extents (sum of tile extents per dimension).
        max_extent: the largest tile extent in any dimension.
    """

    def __init__(self, extents: Sequence[Sequence[int]]):
        if not extents:
            raise SpecificationError("TileGrid needs at least one dimension")
        self.extents: Tuple[Tuple[int, ...], ...] = tuple(
            [tuple(map(int, dim_extents)) for dim_extents in extents]
        )
        for d, dim_extents in enumerate(self.extents):
            if not dim_extents:
                raise SpecificationError(
                    f"TileGrid dimension {d} has no tiles"
                )
            if min(dim_extents) <= 0:
                extent = next(e for e in dim_extents if e <= 0)
                raise SpecificationError(
                    f"TileGrid extent must be positive, got {extent} "
                    f"in dimension {d}"
                )
        self.counts: Tuple[int, ...] = tuple(map(len, self.extents))
        self.parallelism: int = math.prod(self.counts)
        self.region_shape: Tuple[int, ...] = tuple(map(sum, self.extents))
        self.max_extent: int = max(map(max, self.extents))

    @classmethod
    def uniform(
        cls, tile_shape: Sequence[int], counts: Sequence[int]
    ) -> "TileGrid":
        """Equal-size grid: ``counts_d`` tiles of extent ``tile_shape_d``.

        Recent equal requests share one instance from a small memo: a
        sweep asks for the same grid at every fused depth it tries, one
        tile shape after another.
        """
        if len(tile_shape) != len(counts):
            raise SpecificationError(
                f"tile_shape {tile_shape} and counts {counts} rank mismatch"
            )
        return _uniform_grid(
            cls, tuple(map(int, tile_shape)), tuple(map(int, counts))
        )

    @property
    def ndim(self) -> int:
        """Grid dimensionality."""
        return len(self.extents)

    @property
    def is_uniform(self) -> bool:
        """True when all tiles share the same shape."""
        return all(len(set(e)) == 1 for e in self.extents)

    def tiles(self) -> List[TileInfo]:
        """All tiles with positions, offsets, and boundary roles."""
        counts = self.counts
        result: List[TileInfo] = []
        origin = (0,) * self.ndim
        for index, box in iter_boxes(origin, self.extents):
            outer = tuple(
                (1 if index[d] == 0 else 0)
                + (1 if index[d] == counts[d] - 1 else 0)
                for d in range(self.ndim)
            )
            shared = tuple(2 - n for n in outer)
            result.append(
                TileInfo(
                    index=index,
                    offset=box.lo,
                    shape=box.shape,
                    outer=outer,
                    shared=shared,
                )
            )
        return result

    def tile_at(self, index: Sequence[int]) -> TileInfo:
        """The tile at a given grid position."""
        target = tuple(int(i) for i in index)
        for tile in self.tiles():
            if tile.index == target:
                return tile
        raise SpecificationError(
            f"No tile at index {target} in grid with counts {self.counts}"
        )

    def neighbors(
        self,
    ) -> Iterator[Tuple[TileInfo, TileInfo, int]]:
        """Adjacent tile pairs ``(low, high, dim)`` sharing a face."""
        tiles = {t.index: t for t in self.tiles()}
        counts = self.counts
        for index, tile in tiles.items():
            for d in range(self.ndim):
                if index[d] + 1 < counts[d]:
                    nbr_index = tuple(
                        v + 1 if i == d else v for i, v in enumerate(index)
                    )
                    yield tile, tiles[nbr_index], d

    def signature(self) -> Tuple[Tuple[int, ...], ...]:
        """Canonical hashable identity (the per-dimension extents)."""
        return self.extents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileGrid):
            return NotImplemented
        return self.extents == other.extents

    def __hash__(self) -> int:
        return hash(self.extents)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TileGrid(counts={self.counts}, region={self.region_shape})"


@functools.lru_cache(maxsize=64)
def _uniform_grid(
    cls: type, tile_shape: Tuple[int, ...], counts: Tuple[int, ...]
) -> TileGrid:
    return cls([[w] * k for w, k in zip(tile_shape, counts)])


@dataclass(frozen=True)
class TileColumns:
    """Per-tile geometry of many grids as ``int64`` columns.

    Row ``m`` is one tile.  Each grid's tiles fill one contiguous
    segment, in :meth:`TileGrid.tiles` order (last dimension fastest).

    Attributes:
        shape: ``(m, ndim)`` tile extents ``w_d``.
        outer: ``(m, ndim)`` region-outer side counts (see
            :class:`TileInfo`).
        owner: ``(m,)`` index of the grid each tile belongs to.
        starts: ``(n,)`` first row of each grid's segment.
    """

    shape: np.ndarray
    outer: np.ndarray
    owner: np.ndarray
    starts: np.ndarray

    def sides(self, sharing: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-tile cone-side and halo-side multiplicities.

        ``sharing`` holds one flag per grid.  A sharing design expands
        its cone across region-outer sides only and receives a pipe
        halo across the others; a baseline design expands across both
        sides of every dimension (``StencilDesign.cone_sides`` and
        ``halo_sides``).
        """
        share = sharing[self.owner][:, None]
        cone = np.where(share, self.outer, 2)
        halo = np.where(share, 2 - self.outer, 0)
        return cone, halo


def tile_columns(grids: Sequence[TileGrid]) -> TileColumns:
    """Tile columns of equal-rank grids, derived from their extents.

    Grids sharing a ``counts`` tuple are stacked into per-dimension
    ``(g, k_d)`` extent arrays and broadcast over their tile lattice,
    so no :class:`TileInfo` is built.  Row order within each grid's
    segment equals :meth:`TileGrid.tiles`.
    """
    n = len(grids)
    ndim = grids[0].ndim if n else 0
    sizes = np.fromiter(
        (grid.parallelism for grid in grids), dtype=np.int64, count=n
    )
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    m = int(sizes.sum())
    shape = np.empty((m, ndim), dtype=np.int64)
    outer = np.empty((m, ndim), dtype=np.int64)
    by_counts: Dict[Tuple[int, ...], List[int]] = {}
    for i, grid in enumerate(grids):
        if grid.ndim != ndim:
            raise SpecificationError(
                f"tile_columns needs equal-rank grids, got ranks "
                f"{ndim} and {grid.ndim}"
            )
        by_counts.setdefault(grid.counts, []).append(i)
    for counts, members in by_counts.items():
        g = len(members)
        lattice = (g,) + counts
        rows = (
            starts[members][:, None] + np.arange(math.prod(counts))
        ).ravel()
        for d, k in enumerate(counts):
            axis = [1] * (ndim + 1)
            axis[d + 1] = k
            position = np.arange(k)
            sides = (position == 0).astype(np.int64) + (position == k - 1)
            outer[rows, d] = np.broadcast_to(
                sides.reshape(axis), lattice
            ).ravel()
            axis[0] = g
            extents = np.array(
                [grids[i].extents[d] for i in members], dtype=np.int64
            )
            shape[rows, d] = np.broadcast_to(
                extents.reshape(axis), lattice
            ).ravel()
    owner = np.repeat(np.arange(n, dtype=np.int64), sizes)
    return TileColumns(shape=shape, outer=outer, owner=owner, starts=starts)
