"""Functional (value-level) execution of stencil designs.

Runs a :class:`~repro.tiling.design.StencilDesign` on real numpy data,
faithfully following the generated architecture: per-tile local
buffers, fused iteration cones that shrink toward the tile, halo
exchange between sibling tiles through :class:`~repro.opencl.pipes.Pipe`
objects each fused iteration, redundant cone computation across
region-outer faces, and global-memory double buffering between fused
blocks.

Under the FROZEN and PERIODIC boundary policies the result must equal
the naive reference executor **bitwise** (same tap order, same dtype)
for every design kind — this is the framework's primary correctness
invariant and is enforced by the integration and property-based test
suites.

PERIODIC works because a tile's redundant "ghost" computations beyond
the domain edge operate on wrapped gathers of real cells, so the ghost
values it produces are exactly the wrapped cells' own values.  CLAMP is
*not* supported for tiled execution: a clamped ghost cell's recomputed
value differs from the edge cell's true update (its neighborhood
collapses onto the edge), so fused redundant computation would diverge
from the reference after the first iteration.

Halo exchange uses the standard per-dimension sequential scheme: after
computing iteration ``i``, tiles exchange radius-wide slabs dimension
by dimension, each send spanning the extents already extended by the
earlier dimensions' receives, so corner data propagates through edge
neighbors without diagonal pipes (matching the paper's pipes between
*adjacent* kernels only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import (
    BackendUnavailable,
    SimulationError,
    SpecificationError,
)
from repro.opencl.pipes import Pipe
from repro.stencil.boundary import BoundaryPolicy
from repro.stencil.reference import apply_update_interior
from repro.tiling.design import StencilDesign
from repro.tiling.tile import TileInfo
from repro.utils.grids import Box, box_from_shape, shrink_box

State = Dict[str, np.ndarray]
Index = Tuple[int, ...]

_log = obs.get_logger("sim")


@dataclass
class _TileContext:
    """Per-tile execution state within one region block."""

    tile: TileInfo
    #: Global-coordinate box of the tile's output cells.
    out_box: Box
    #: Global-coordinate box covered by the local buffers.
    buffer_box: Box
    #: Local field buffers (read footprint), keyed by field name.
    fields: State
    #: Local aux buffers.
    aux: State
    #: Box of cells currently holding up-to-date iteration values.
    valid: Box


class FunctionalExecutor:
    """Executes a design on numpy grids, matching the reference exactly.

    :meth:`run` executes the compiled C kernel from :mod:`repro.sim.jit`
    (bitwise-identical by contract) when
    :func:`~repro.sim.jit.resolve_backend` answers ``"jit"`` and the
    JIT supports this design and these inputs, and :meth:`interpret`
    — the numpy oracle the JIT is tested against — otherwise.  Only
    :meth:`interpret` populates :attr:`pipes`; the JIT moves halos
    through C buffers.

    Args:
        design: the design to execute.
    """

    def __init__(self, design: StencilDesign):
        if design.spec.boundary is BoundaryPolicy.CLAMP:
            raise SpecificationError(
                "Functional design execution supports FROZEN and PERIODIC "
                "boundaries; CLAMP ghost recomputation is inexact (see "
                "module docstring)"
            )
        for grid_extent, region_extent in zip(
            design.spec.grid_shape, design.tile_grid.region_shape
        ):
            if grid_extent % region_extent != 0:
                raise SpecificationError(
                    f"Grid {design.spec.grid_shape} not divisible by region "
                    f"{design.tile_grid.region_shape}"
                )
        self.design = design
        self.spec = design.spec
        self.pattern = design.spec.pattern
        self.periodic = design.spec.boundary is BoundaryPolicy.PERIODIC
        self.domain = box_from_shape(self.spec.grid_shape)
        self.interior = shrink_box(self.domain, self.pattern.radius)
        #: Backend that executed the most recent run.
        self.active_backend = "numpy"
        #: Pipes created during interpreted runs, keyed by name.
        self.pipes: Dict[str, Pipe] = {}

    # -- public API -----------------------------------------------------------

    def run(
        self,
        state: Optional[State] = None,
        aux: Optional[State] = None,
        iterations: Optional[int] = None,
    ) -> State:
        """Execute the design and return the final field grids.

        Every :class:`~repro.errors.BackendUnavailable` from the JIT is
        swallowed here (counted in ``sim.jit.fallbacks``): the JIT is
        an accelerator, never a correctness or availability risk.

        Args:
            state: initial fields (default: the spec's).
            aux: auxiliary inputs (default: the spec's).
            iterations: total iterations (default: the spec's ``H``).
        """
        from repro.sim import jit

        total = self.spec.iterations if iterations is None else iterations
        if jit.resolve_backend() == "jit":
            try:
                result = jit.run_jit(self.design, state, aux, total)
            except BackendUnavailable as exc:
                obs.inc("sim.jit.fallbacks")
                _log.debug("jit fallback for %s: %s", self.spec.name, exc)
            else:
                self.active_backend = "jit"
                return result
        return self.interpret(state, aux, total)

    def interpret(
        self,
        state: Optional[State] = None,
        aux: Optional[State] = None,
        iterations: Optional[int] = None,
    ) -> State:
        """:meth:`run` on the numpy interpreter, whatever the backend."""
        total = self.spec.iterations if iterations is None else iterations
        current = {
            k: v.astype(self.spec.dtype, copy=True)
            for k, v in (state or self.spec.initial_state()).items()
        }
        aux_arrays = dict(aux or self.spec.aux_state())
        done = 0
        while done < total:
            h_block = min(self.design.fused_depth, total - done)
            current = self._run_temporal_block(current, aux_arrays, h_block)
            done += h_block
        self.active_backend = "numpy"
        obs.inc("sim.numpy.runs")
        return current

    # -- block execution ----------------------------------------------------------

    def _run_temporal_block(
        self, current: State, aux: State, h_block: int
    ) -> State:
        next_state = {k: v.copy() for k, v in current.items()}
        counts = [
            g // r
            for g, r in zip(
                self.spec.grid_shape, self.design.tile_grid.region_shape
            )
        ]
        region_shape = self.design.tile_grid.region_shape
        for flat in range(math.prod(counts)):
            origin = []
            rem = flat
            for count, extent in zip(reversed(counts), reversed(region_shape)):
                origin.append((rem % count) * extent)
                rem //= count
            origin.reverse()
            self._run_region_block(
                current, next_state, aux, tuple(origin), h_block
            )
        return next_state

    def _run_region_block(
        self,
        current: State,
        next_state: State,
        aux: State,
        origin: Tuple[int, ...],
        h_block: int,
    ) -> None:
        contexts = {
            t.index: self._load_tile(current, aux, t, origin, h_block)
            for t in self.design.tiles
        }
        for i in range(1, h_block + 1):
            for ctx in contexts.values():
                self._compute_iteration(ctx, i, h_block)
            if self.design.sharing and i < h_block:
                self._exchange_halos(contexts, origin, i)
        for ctx in contexts.values():
            self._write_back(next_state, ctx)

    # -- per-tile steps ----------------------------------------------------------

    def _tile_buffer_box(
        self, tile: TileInfo, origin: Tuple[int, ...], h_block: int
    ) -> Box:
        radius = self.pattern.radius
        lo = []
        hi = []
        for d in range(self.spec.ndim):
            low_outer = tile.index[d] == 0
            high_outer = tile.index[d] == self.design.tile_grid.counts[d] - 1
            if self.design.sharing:
                low_margin = radius[d] * (h_block if low_outer else 1)
                high_margin = radius[d] * (h_block if high_outer else 1)
            else:
                low_margin = high_margin = radius[d] * h_block
            lo.append(origin[d] + tile.offset[d] - low_margin)
            hi.append(
                origin[d] + tile.offset[d] + tile.shape[d] + high_margin
            )
        box = Box(tuple(lo), tuple(hi))
        if self.periodic:
            # Virtual coordinates: ghost ranges wrap at load time.
            return box
        return box.intersect(self.domain)

    def _load_tile(
        self,
        current: State,
        aux: State,
        tile: TileInfo,
        origin: Tuple[int, ...],
        h_block: int,
    ) -> _TileContext:
        buffer_box = self._tile_buffer_box(tile, origin, h_block)
        out_box = Box(
            tuple(o + t for o, t in zip(origin, tile.offset)),
            tuple(
                o + t + s
                for o, t, s in zip(origin, tile.offset, tile.shape)
            ),
        )
        fields = {
            name: self._gather(current[name], buffer_box)
            for name in self.pattern.fields
        }
        aux_local = {
            name: self._gather(aux[name], buffer_box)
            for name in self.pattern.aux
        }
        return _TileContext(
            tile=tile,
            out_box=out_box,
            buffer_box=buffer_box,
            fields=fields,
            aux=aux_local,
            valid=buffer_box,
        )

    def _gather(self, array: np.ndarray, box: Box) -> np.ndarray:
        """Copy ``box`` out of a grid, wrapping indices when periodic."""
        if self.domain.contains_box(box):
            return array[box.slices()].copy()
        index_vectors = [
            np.arange(lo, hi) % extent
            for lo, hi, extent in zip(
                box.lo, box.hi, self.spec.grid_shape
            )
        ]
        return array[np.ix_(*index_vectors)].copy()

    def _footprint_box(
        self, ctx: _TileContext, iteration: int, h_block: int
    ) -> Box:
        radius = self.pattern.radius
        remaining = h_block - iteration
        sides_lo = []
        sides_hi = []
        counts = self.design.tile_grid.counts
        for d in range(self.spec.ndim):
            low_outer = ctx.tile.index[d] == 0
            high_outer = ctx.tile.index[d] == counts[d] - 1
            if self.design.sharing:
                grow_lo = radius[d] * remaining if low_outer else 0
                grow_hi = radius[d] * remaining if high_outer else 0
            else:
                grow_lo = grow_hi = radius[d] * remaining
            sides_lo.append(ctx.out_box.lo[d] - grow_lo)
            sides_hi.append(ctx.out_box.hi[d] + grow_hi)
        box = Box(tuple(sides_lo), tuple(sides_hi))
        if self.periodic:
            return box
        return box.intersect(self.domain)

    def _compute_iteration(
        self, ctx: _TileContext, iteration: int, h_block: int
    ) -> None:
        footprint = self._footprint_box(ctx, iteration, h_block)
        computed = (
            footprint
            if self.periodic
            else footprint.intersect(self.interior)
        )
        new_fields = {k: v.copy() for k, v in ctx.fields.items()}
        if not computed.is_empty:
            # Shift global coordinates into the local buffer frame.
            local_box = Box(
                computed.lo, computed.hi
            ).translate(tuple(-o for o in ctx.buffer_box.lo))
            for fname in self.pattern.fields:
                update = self.pattern.updates[fname]
                new_fields[fname][local_box.slices()] = (
                    apply_update_interior(
                        update,
                        ctx.fields,
                        ctx.aux,
                        local_box,
                        self.spec.dtype,
                    )
                )
        ctx.fields = new_fields
        ctx.valid = footprint

    def _write_back(self, next_state: State, ctx: _TileContext) -> None:
        local_box = ctx.out_box.translate(
            tuple(-o for o in ctx.buffer_box.lo)
        )
        for fname in self.pattern.fields:
            next_state[fname][ctx.out_box.slices()] = ctx.fields[fname][
                local_box.slices()
            ]

    # -- halo exchange ------------------------------------------------------------

    def _exchange_halos(
        self,
        contexts: Dict[Index, _TileContext],
        origin: Tuple[int, ...],
        iteration: int,
    ) -> None:
        """Per-dimension sequential halo exchange through pipes.

        Dimensions are exchanged in ascending order.  A slab sent across
        a dim-``d`` face spans, in every transverse dimension ``t``, the
        sender's computed footprint — extended across its shared sides
        by the halos already received in dimensions ``t < d`` of this
        round.  This is the classic corner-propagation scheme: diagonal
        data reaches its destination through a chain of face neighbors.
        """
        for d in range(self.spec.ndim):
            transfers: List[Tuple[_TileContext, _TileContext, Box]] = []
            for low, high, dim in self.design.tile_grid.neighbors():
                if dim != d:
                    continue
                r = self.pattern.radius[d]
                if r == 0:
                    continue
                ctx_low = contexts[low.index]
                ctx_high = contexts[high.index]
                face = origin[d] + high.offset[d]
                # Low tile sends its top slab up; high tile sends its
                # bottom slab down.
                transfers.append(
                    (ctx_low, ctx_high, self._slab(ctx_low, d, face - r, r))
                )
                transfers.append(
                    (ctx_high, ctx_low, self._slab(ctx_high, d, face, r))
                )
            for src, dst, slab in transfers:
                self._send_through_pipe(src, dst, slab, d, iteration)

    def _slab(
        self, src: _TileContext, dim: int, start: int, width: int
    ) -> Box:
        """The slab ``src`` contributes across a face in ``dim``.

        Transverse extents follow ``src``'s computed footprint
        (``src.valid``), widened by one radius across shared sides of
        dimensions already exchanged this round (``t < dim``), where the
        received halos are guaranteed present in ``src``'s buffer.
        """
        counts = self.design.tile_grid.counts
        radius = self.pattern.radius
        lo = list(src.valid.lo)
        hi = list(src.valid.hi)
        for t in range(dim):
            low_shared = src.tile.index[t] > 0
            high_shared = src.tile.index[t] < counts[t] - 1
            if low_shared:
                lo[t] -= radius[t]
            if high_shared:
                hi[t] += radius[t]
        lo[dim] = start
        hi[dim] = start + width
        return Box(tuple(lo), tuple(hi)).intersect(src.buffer_box)

    def _send_through_pipe(
        self,
        src: _TileContext,
        dst: _TileContext,
        slab: Box,
        dim: int,
        iteration: int,
    ) -> None:
        region = slab.intersect(dst.buffer_box)
        if region.is_empty:
            return
        name = (
            f"pipe_{_fmt(src.tile.index)}_to_{_fmt(dst.tile.index)}_d{dim}"
        )
        pipe = self.pipes.get(name)
        if pipe is None:
            pipe = Pipe(name, depth=self.design.pipe_depth)
            self.pipes[name] = pipe
        src_box = region.translate(tuple(-o for o in src.buffer_box.lo))
        dst_box = region.translate(tuple(-o for o in dst.buffer_box.lo))
        for fname in self.pattern.fields:
            payload = src.fields[fname][src_box.slices()].copy()
            pipe.write((iteration, fname, payload))
            tag, recv_field, received = pipe.read()
            if tag != iteration or recv_field != fname:
                raise SimulationError(
                    f"Pipe {name!r} delivered out-of-order packet"
                )
            dst.fields[fname][dst_box.slices()] = received


def _fmt(index: Index) -> str:
    return "x".join(str(i) for i in index)


def run_functional(
    design: StencilDesign,
    state: Optional[State] = None,
    aux: Optional[State] = None,
    iterations: Optional[int] = None,
) -> State:
    """Convenience wrapper around :meth:`FunctionalExecutor.run`."""
    return FunctionalExecutor(design).run(state, aux, iterations)
