"""The central design description: :class:`StencilDesign`.

A design fixes everything the paper's framework explores: the design
style (baseline overlapped tiling vs pipe-shared vs heterogeneous), the
fused iteration depth ``h``, the region's tile grid (``K`` parallel
kernels and their tile extents), and the per-kernel unroll ``N_PE``.

The analytical model, the cycle simulator, the resource estimator, and
the code generator all consume this one object, so its derived
quantities (per-iteration workloads, read/write footprints, pipe
traffic, local-buffer sizes) are the single source of geometric truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.errors import SpecificationError
from repro.stencil.spec import StencilSpec
from repro.tiling.cone import (
    cone_footprint_shape,
    cone_read_shape,
    cone_redundant_cells,
    cone_total_cells,
    cone_workloads,
)
from repro.tiling.tile import TileGrid, TileInfo
from repro.utils.validation import check_positive


class DesignKind(enum.Enum):
    """Which architecture a design instantiates (Fig. 1 of the paper)."""

    #: Overlapped tiling with fully independent cones (Nacci, DAC'13).
    BASELINE = "baseline"

    #: Equal tiles bridged by pipes (Fig. 1(c)).
    PIPE_SHARED = "pipe-shared"

    #: Pipe sharing plus workload-balanced tile sizes (Fig. 1(d)).
    HETEROGENEOUS = "heterogeneous"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PipeFace:
    """A shared face between two adjacent tiles, served by a pipe pair.

    Attributes:
        low_index: grid index of the lower tile.
        high_index: grid index of the upper tile.
        dim: dimension across which the tiles are adjacent.
        halo_width: stencil radius along ``dim`` (strip width exchanged).
        face_cells: cells in one halo strip at the tiles' base shape.
    """

    low_index: Tuple[int, ...]
    high_index: Tuple[int, ...]
    dim: int
    halo_width: int
    face_cells: int


@dataclass(frozen=True)
class StencilDesign:
    """A fully-parameterized FPGA stencil accelerator design.

    Attributes:
        kind: architecture style.
        spec: the stencil workload.
        fused_depth: ``h``, iterations fused on-chip per block.
        tile_grid: region partition into ``K`` kernels.
        unroll: processing elements per kernel (``N_PE``).
        pipe_depth: FIFO depth of each generated pipe (packets).
    """

    kind: DesignKind
    spec: StencilSpec
    fused_depth: int
    tile_grid: TileGrid
    unroll: int = 1
    pipe_depth: int = 512

    def __post_init__(self) -> None:
        check_positive("fused_depth", self.fused_depth)
        check_positive("unroll", self.unroll)
        check_positive("pipe_depth", self.pipe_depth)
        if self.tile_grid.ndim != self.spec.ndim:
            raise SpecificationError(
                f"Tile grid rank {self.tile_grid.ndim} != stencil rank "
                f"{self.spec.ndim}"
            )
        if self.fused_depth > self.spec.iterations:
            raise SpecificationError(
                f"fused_depth {self.fused_depth} exceeds total iterations "
                f"{self.spec.iterations}"
            )
        for region_extent, grid_extent in zip(
            self.tile_grid.region_shape, self.spec.grid_shape
        ):
            if region_extent > grid_extent:
                raise SpecificationError(
                    f"Region {self.tile_grid.region_shape} larger than "
                    f"grid {self.spec.grid_shape}"
                )
        if self.kind is DesignKind.BASELINE and not self.tile_grid.is_uniform:
            raise SpecificationError(
                "Baseline designs use uniform tile grids"
            )

    # -- basic properties ----------------------------------------------------

    @property
    def sharing(self) -> bool:
        """True when tiles exchange halos through pipes."""
        return self.kind is not DesignKind.BASELINE

    @property
    def parallelism(self) -> int:
        """``K``: kernels working in parallel."""
        return self.tile_grid.parallelism

    @property
    def radius(self) -> Tuple[int, ...]:
        """Stencil radius ``r_d``."""
        return self.spec.pattern.radius

    @cached_property
    def tiles(self) -> Tuple[TileInfo, ...]:
        """All tiles of the region."""
        return tuple(self.tile_grid.tiles())

    def signature(self) -> Tuple:
        """Canonical hashable identity of the design.

        Two designs with equal signatures are indistinguishable to the
        analytical model, the resource estimator, and the simulator, so
        the signature is the memoization key for all of them.  The
        tuple is cached on the instance (the dataclass is frozen, so it
        can never go stale).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = (
                self.kind.value,
                self.spec.signature(),
                self.fused_depth,
                self.tile_grid.signature(),
                self.unroll,
                self.pipe_depth,
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def signature_json_parts(self) -> Tuple[bytes]:
        """:meth:`signature` as canonical JSON (UTF-8), in one piece.

        Encoded once and cached like the signature.  The store hashes
        these bytes into the design's key, and a program design hashes
        them into its own for every stage bound to this design, so a
        design is encoded once however many keys include it.
        """
        cached = self.__dict__.get("_signature_json")
        if cached is None:
            # Imported here: the store imports this module.
            from repro.store.journal import canonical_json

            cached = (canonical_json(self.signature()).encode("utf-8"),)
            object.__setattr__(self, "_signature_json", cached)
        return cached

    def describe(self) -> str:
        """Short human-readable design summary."""
        counts = "x".join(str(c) for c in self.tile_grid.counts)
        slowest = self.slowest_tile()
        size = "x".join(str(w) for w in slowest.shape)
        return (
            f"{self.kind} h={self.fused_depth} tile={size} "
            f"parallelism={counts} unroll={self.unroll}"
        )

    # -- per-tile cone geometry ------------------------------------------------

    def cone_sides(self, tile: TileInfo) -> Tuple[int, ...]:
        """Per-dim number of sides requiring cone expansion.

        In the baseline every side expands (tiles are independent); in
        the sharing designs only region-outer sides do.
        """
        if self.sharing:
            return tile.outer
        return (2,) * self.spec.ndim

    def halo_sides(self, tile: TileInfo) -> Tuple[int, ...]:
        """Per-dim number of single-halo (pipe-served) sides."""
        if self.sharing:
            return tile.shared
        return (0,) * self.spec.ndim

    def footprint_shape(
        self, tile: TileInfo, iteration: int
    ) -> Tuple[int, ...]:
        """Cells computed at fused iteration ``iteration`` (1-based)."""
        return cone_footprint_shape(
            tile.shape,
            self.radius,
            self.cone_sides(tile),
            self.fused_depth,
            iteration,
        )

    def tile_workloads(self, tile: TileInfo) -> List[int]:
        """Cells computed per fused iteration, ``i = 1..h``."""
        return cone_workloads(
            tile.shape, self.radius, self.cone_sides(tile), self.fused_depth
        )

    def tile_compute_cells(self, tile: TileInfo) -> int:
        """Total cells computed by one tile over a fused block."""
        return cone_total_cells(
            tile.shape, self.radius, self.cone_sides(tile), self.fused_depth
        )

    def tile_redundant_cells(self, tile: TileInfo) -> int:
        """Redundant cells of one tile over a fused block."""
        return cone_redundant_cells(
            tile.shape, self.radius, self.cone_sides(tile), self.fused_depth
        )

    def tile_read_shape(self, tile: TileInfo) -> Tuple[int, ...]:
        """Extent of the tile's initial global-memory read."""
        return cone_read_shape(
            tile.shape,
            self.radius,
            self.cone_sides(tile),
            self.fused_depth,
            self.halo_sides(tile),
        )

    def tile_read_cells(self, tile: TileInfo) -> int:
        """Cells loaded from global memory per block."""
        return math.prod(self.tile_read_shape(tile))

    def tile_read_bytes(self, tile: TileInfo) -> int:
        """Bytes loaded per block (all fields plus aux inputs)."""
        per_cell = self.spec.cell_state_bytes + self.spec.element_bytes * len(
            self.spec.pattern.aux
        )
        return self.tile_read_cells(tile) * per_cell

    def tile_write_bytes(self, tile: TileInfo) -> int:
        """Bytes written back per block (output cells, all fields)."""
        return tile.cells * self.spec.cell_state_bytes

    def tile_local_cells(self, tile: TileInfo) -> int:
        """Local-buffer capacity in cells (covers the read footprint)."""
        return self.tile_read_cells(tile)

    # -- pipe traffic ----------------------------------------------------------

    def tile_share_cells(self, tile: TileInfo, iteration: int) -> int:
        """Cells this tile *receives* through pipes before iteration ``i``.

        Iteration 1 consumes the globally-read halo, so it receives
        nothing; iterations ``2..h`` each receive a radius-wide strip
        along every pipe-served face, sized to that iteration's
        footprint in the transverse dimensions.
        """
        if not self.sharing or iteration <= 1:
            return 0
        footprint = self.footprint_shape(tile, iteration)
        total = 0
        for d, (r, n_shared) in enumerate(
            zip(self.radius, self.halo_sides(tile))
        ):
            if n_shared == 0 or r == 0:
                continue
            transverse = math.prod(
                footprint[j] for j in range(self.spec.ndim) if j != d
            )
            total += n_shared * r * transverse
        return total * self.spec.pattern.num_fields

    def tile_share_total(self, tile: TileInfo) -> int:
        """Total cells received through pipes over one fused block."""
        return sum(
            self.tile_share_cells(tile, i)
            for i in range(1, self.fused_depth + 1)
        )

    @cached_property
    def pipe_faces(self) -> Tuple[PipeFace, ...]:
        """All shared faces (each served by a read/write pipe pair)."""
        if not self.sharing:
            return ()
        faces: List[PipeFace] = []
        for low, high, d in self.tile_grid.neighbors():
            r = self.radius[d]
            if r == 0:
                continue
            transverse = math.prod(
                min(low.shape[j], high.shape[j])
                for j in range(self.spec.ndim)
                if j != d
            )
            faces.append(
                PipeFace(
                    low_index=low.index,
                    high_index=high.index,
                    dim=d,
                    halo_width=r,
                    face_cells=r * transverse,
                )
            )
        return tuple(faces)

    @property
    def num_pipes(self) -> int:
        """Total one-directional pipes (two per shared face)."""
        return 2 * len(self.pipe_faces)

    def peak_face_transfer_cells(self) -> int:
        """Largest single-face halo transfer across all tiles/iterations.

        Used to size pipe FIFO depths: the deepest a single pipe
        fills is one face's strip for the earliest (widest-footprint)
        shared iteration.  Each field travels through its own pipe, so
        the count is per field.  Computed in closed form from the tile
        grid (:func:`peak_face_transfer`).
        """
        if not self.sharing:
            return 0
        return peak_face_transfer(
            self.tile_grid, self.radius, self.fused_depth
        )

    # -- region/block aggregation ------------------------------------------------

    def region_compute_cells(self) -> int:
        """Cells computed by all kernels in one fused block."""
        return sum(self.tile_compute_cells(t) for t in self.tiles)

    def region_useful_cells(self) -> int:
        """Useful cell-updates per block (``h * region cells``)."""
        return self.fused_depth * math.prod(self.tile_grid.region_shape)

    def region_redundant_cells(self) -> int:
        """Redundant cell-updates per block."""
        return sum(self.tile_redundant_cells(t) for t in self.tiles)

    def redundancy_ratio(self) -> float:
        """Redundant / useful computation (the paper's motivation metric)."""
        useful = self.region_useful_cells()
        return self.region_redundant_cells() / useful if useful else 0.0

    def slowest_tile(self) -> TileInfo:
        """The kernel with the largest total computation (sets the barrier)."""
        return max(self.tiles, key=self.tile_compute_cells)

    def num_spatial_regions(self) -> int:
        """Regions needed to cover the grid (ceil per dimension)."""
        return math.prod(
            math.ceil(w / r)
            for w, r in zip(self.spec.grid_shape, self.tile_grid.region_shape)
        )

    def num_temporal_blocks(self) -> int:
        """Fused blocks needed to reach ``H`` iterations."""
        return math.ceil(self.spec.iterations / self.fused_depth)

    def num_blocks(self) -> int:
        """Total region-blocks executed (``N_region``, integer form)."""
        return self.num_spatial_regions() * self.num_temporal_blocks()

    def num_blocks_paper(self) -> float:
        """``N_region`` exactly as Eq. 2 computes it (real-valued)."""
        grid_cells = math.prod(self.spec.grid_shape)
        slowest = self.slowest_tile()
        tile_cells = math.prod(slowest.shape)
        return (
            self.spec.iterations
            * grid_cells
            / (self.fused_depth * self.parallelism * tile_cells)
        )

    # -- convenience -----------------------------------------------------------

    def with_fused_depth(self, fused_depth: int) -> "StencilDesign":
        """Copy with a different cone depth ``h``."""
        return replace(self, fused_depth=fused_depth)


def peak_face_transfer(
    grid: TileGrid, radius: Sequence[int], fused_depth: int
) -> int:
    """Largest single-face halo strip of a sharing design on ``grid``.

    Iteration 2's footprint along ``j`` is ``w_j + r_j (h - 2) outer_j``.
    Along a dimension ``d`` with at least two tiles and ``r_d > 0``,
    every tile has a pipe-served side, whose strip holds ``r_d`` times
    the footprint's transverse product.  Each factor depends on the
    tile's position along one dimension only, and all factors are
    positive, so the largest strip over all tiles is ``r_d`` times the
    product of the per-dimension largest footprints — exact integers,
    no tile walk.  Dimensions without such faces contribute nothing.
    """
    if fused_depth < 2:
        return 0
    growth = fused_depth - 2
    widest = [
        # A lone tile has two outer sides, end tiles one, interior none.
        extents[0] + 2 * r * growth
        if len(extents) == 1
        else max(max(extents), max(extents[0], extents[-1]) + r * growth)
        for extents, r in zip(grid.extents, radius)
    ]
    footprint = math.prod(widest)
    return max(
        (
            r * (footprint // w)  # the transverse product, exactly
            for w, r, k in zip(widest, radius, grid.counts)
            if k >= 2 and r > 0
        ),
        default=0,
    )


def fifo_depth(peak_cells: int, minimum: int = 8, maximum: int = 32) -> int:
    """FIFO depth for halo streams whose largest strip is ``peak_cells``.

    Rounded up to a power of two (how HLS implements FIFO depths) and
    capped so the FIFOs stay in SRL/LUTRAM territory: a pipe never
    needs to hold a whole strip — the consumer drains it during its
    interior phase, so the depth only covers producer/consumer rate
    slack, and keeping it shallow is what makes pipes "consume much
    fewer on-chip memory resources" than the overlap storage they
    replace.
    """
    peak = max(minimum, min(maximum, peak_cells))
    depth = 1
    while depth < peak:
        depth *= 2
    return depth


def auto_pipe_depth(
    design: StencilDesign, minimum: int = 8, maximum: int = 32
) -> int:
    """FIFO depth sized for a design's halo streams (:func:`fifo_depth`)."""
    return fifo_depth(design.peak_face_transfer_cells(), minimum, maximum)
