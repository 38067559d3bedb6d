"""NumPy-vectorized batch resource estimation.

Companion to :mod:`repro.model.batch`: estimates FF/LUT/DSP/BRAM for a
whole array of candidate designs in one pass, with the same parity
contract — component ``i`` of every array is bitwise-equal (here:
integer-equal) to :meth:`ResourceEstimator.estimate`'s result for
``designs[i]``.

The estimator's arithmetic is almost entirely integer (exact in any
order), so vectorization is straightforward; the one rounding-sensitive
step is the BRAM packing model's ``math.ceil(a / b)``, which divides
through ``float``.  The shared :func:`~repro.fpga.parity.check_parity_range`
guard keeps cell counts below ``2**52`` so NumPy's
``ceil(int64 / int64)`` rounds identically, and every integer
intermediate below ``2**62``.

Per-candidate scalars that are cheap and already memoized (the FlexCL
pipeline report, per-pattern operator counts, per-configuration FIFO
resources) are computed in plain Python; the per-tile array-packing
math — the part that scales with the size of the design space — runs
on ``int64`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.bram import _depth_per_block, fifo_resources
from repro.fpga.estimator import (
    DSP_PER_ADD,
    DSP_PER_MUL,
    FF_PER_ADD,
    FF_PER_BRAM,
    FF_PER_MUL,
    KERNEL_BASE,
    LUT_PER_ADD,
    LUT_PER_BRAM,
    LUT_PER_MUL,
    DesignResources,
)
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.parity import check_parity_range
from repro.fpga.resources import ResourceVector
from repro.tiling.design import StencilDesign
from repro.tiling.tile import tile_columns

__all__ = ["BatchResources", "ResourceColumns", "estimate_batch"]

_COMPONENTS = ("ff", "lut", "dsp", "bram18")


@dataclass(frozen=True)
class ResourceColumns:
    """Columnar ``int64`` view of one resource vector per candidate."""

    ff: np.ndarray
    lut: np.ndarray
    dsp: np.ndarray
    bram18: np.ndarray

    def __len__(self) -> int:
        return len(self.ff)

    def row(self, i: int) -> ResourceVector:
        """Candidate ``i``'s resources as a scalar vector."""
        return ResourceVector(
            ff=int(self.ff[i]),
            lut=int(self.lut[i]),
            dsp=int(self.dsp[i]),
            bram18=int(self.bram18[i]),
        )


@dataclass(frozen=True)
class BatchResources:
    """Per-candidate resource estimates, kernel/pipe composition kept."""

    total: ResourceColumns
    kernels: ResourceColumns
    pipes: ResourceColumns

    def __len__(self) -> int:
        return len(self.total)

    def design_resources(self, i: int) -> DesignResources:
        """Candidate ``i``'s estimate as the scalar estimator returns it."""
        return DesignResources(
            total=self.total.row(i),
            kernels=self.kernels.row(i),
            pipes=self.pipes.row(i),
        )

    def __getitem__(self, i: int) -> DesignResources:
        return self.design_resources(i)

    def rows(self) -> List[DesignResources]:
        """Every candidate's :meth:`design_resources`, in order."""
        parts = [
            zip(*(getattr(columns, c).tolist() for c in _COMPONENTS))
            for columns in (self.total, self.kernels, self.pipes)
        ]
        return [
            DesignResources(
                total=ResourceVector(*total),
                kernels=ResourceVector(*kernels),
                pipes=ResourceVector(*pipes),
            )
            for total, kernels, pipes in zip(*parts)
        ]

    def feasible(self, limit: ResourceVector) -> np.ndarray:
        """Boolean mask: which candidates fit within ``limit``.

        Entry ``i`` equals ``design_resources(i).total.fits_within(limit)``.
        """
        return (
            (self.total.ff <= limit.ff)
            & (self.total.lut <= limit.lut)
            & (self.total.dsp <= limit.dsp)
            & (self.total.bram18 <= limit.bram18)
        )


class _KernelProfile(NamedTuple):
    """Estimator constants every candidate with one spec and unroll shares.

    ``ff``/``lut``/``dsp`` are one kernel's datapath (the ``N_PE``
    operator copies); ``scale`` is one kernel's share of the parity
    guard's largest LUT product.
    """

    ff: int
    lut: int
    dsp: int
    partitions: int
    gang: int
    depth: int
    narrays: int
    word_bits: int
    num_fields: int
    radius: Tuple[int, ...]
    scale: int


def _kernel_profile(
    design: StencilDesign, flexcl: FlexCLEstimator
) -> _KernelProfile:
    spec = design.spec
    pattern = spec.pattern
    report = flexcl.estimate(pattern, design.unroll)
    muls = pattern.multiplies_per_cell()
    adds = pattern.adds_per_cell()
    unroll = design.unroll
    word_bits = spec.element_bytes * 8
    gang, depth = _depth_per_block(word_bits)
    narrays = pattern.num_fields + len(pattern.aux)
    lut = (muls * LUT_PER_MUL + adds * LUT_PER_ADD) * unroll
    return _KernelProfile(
        ff=(muls * FF_PER_MUL + adds * FF_PER_ADD) * unroll,
        lut=lut,
        dsp=(muls * DSP_PER_MUL + adds * DSP_PER_ADD) * unroll,
        partitions=report.partitions,
        gang=gang,
        depth=depth,
        narrays=narrays,
        word_bits=word_bits,
        num_fields=pattern.num_fields,
        radius=design.radius,
        scale=narrays * gang * LUT_PER_BRAM + KERNEL_BASE.lut + lut,
    )


def _pipe_face_count(design: StencilDesign) -> int:
    """``len(design.pipe_faces)`` without materializing the face objects.

    Faces pair adjacent tiles along each dimension with nonzero radius:
    ``(counts_d - 1) * prod(counts_j, j != d)`` pairs per dimension.
    """
    if not design.sharing:
        return 0
    counts = design.tile_grid.counts
    total = 0
    for d, r in enumerate(design.radius):
        if r == 0:
            continue
        per_dim = counts[d] - 1
        for j, c in enumerate(counts):
            if j != d:
                per_dim *= c
        total += per_dim
    return total


def estimate_batch(
    designs: Sequence[StencilDesign],
    flexcl: Optional[FlexCLEstimator] = None,
) -> BatchResources:
    """Estimate resources for a whole array of candidates.

    Args:
        designs: candidate designs (mixed dimensionalities allowed).
        flexcl: shared pipeline analyzer (one is built when omitted).

    Returns:
        A :class:`BatchResources` aligned with ``designs``.

    Raises:
        BatchRangeError: when any candidate's geometry exceeds the
            exact-parity range (fall back to the scalar estimator).
    """
    designs = list(designs)
    n = len(designs)
    flexcl = flexcl or FlexCLEstimator()
    out: Dict[str, Dict[str, np.ndarray]] = {
        part: {c: np.zeros(n, dtype=np.int64) for c in _COMPONENTS}
        for part in ("kernels", "pipes")
    }

    groups: Dict[int, List[int]] = {}
    for i, design in enumerate(designs):
        groups.setdefault(design.spec.ndim, []).append(i)

    for ndim, idx in groups.items():
        # One profile per distinct (spec, unroll) — keyed by identity,
        # valid for this call only — and one FIFO vector per distinct
        # pipe configuration (row 0: no pipes).
        index: Dict[Tuple[int, int], int] = {}
        profiles: List[_KernelProfile] = []
        fifo_index: Dict[Tuple[int, int, int], int] = {}
        fifos: List[ResourceVector] = [ResourceVector()]
        prof: List[int] = []
        face_rows: List[int] = []
        faces: List[int] = []
        max_scale = 1
        for i in idx:
            design = designs[i]
            key = (id(design.spec), design.unroll)
            row = index.get(key)
            if row is None:
                row = index[key] = len(profiles)
                profiles.append(_kernel_profile(design, flexcl))
            profile = profiles[row]
            prof.append(row)
            n_faces = _pipe_face_count(design)
            face_row = 0
            if n_faces:
                fkey = (
                    design.pipe_depth,
                    profile.word_bits,
                    profile.num_fields,
                )
                face_row = fifo_index.get(fkey)
                if face_row is None:
                    face_row = fifo_index[fkey] = len(fifos)
                    fifos.append(
                        fifo_resources(
                            design.pipe_depth, profile.word_bits
                        ).scaled(2 * profile.num_fields)
                    )
            face_rows.append(face_row)
            faces.append(n_faces)
            max_scale = max(max_scale, design.parallelism * profile.scale)

        rows = np.asarray(prof, dtype=np.int64)

        def column(name: str) -> np.ndarray:
            values = [getattr(p, name) for p in profiles]
            return np.asarray(values, dtype=np.int64)[rows]

        k_arr = np.asarray(
            [designs[i].parallelism for i in idx], dtype=np.int64
        )
        h_list = [designs[i].fused_depth for i in idx]
        sharing = np.fromiter(
            (designs[i].sharing for i in idx), dtype=bool, count=len(idx)
        )
        max_r = max(max(p.radius) for p in profiles)
        max_h = max(1, max(h_list))
        grids = [designs[i].tile_grid for i in idx]
        max_extent = max(grid.max_extent for grid in grids)
        check_parity_range(
            max_extent + 2 * max_r * (max_h + 1), ndim, max_scale
        )
        columns = tile_columns(grids)

        shape_p = columns.shape
        cone_p, halo_p = columns.sides(sharing)
        pair_idx = columns.owner
        starts = columns.starts
        r_p = column("radius")[pair_idx]
        h_p = np.asarray(h_list, dtype=np.int64)[pair_idx]
        partitions = column("partitions")
        gang = column("gang")
        depth = column("depth")
        narrays = column("narrays")
        dp = {c: column(c) for c in ("ff", "lut", "dsp")}

        face_idx = np.asarray(face_rows, dtype=np.int64)
        n_faces = np.asarray(faces, dtype=np.int64)
        for c in _COMPONENTS:
            per_face = np.asarray(
                [getattr(f, c) for f in fifos], dtype=np.int64
            )
            out["pipes"][c][idx] = per_face[face_idx] * n_faces

        # Local-buffer capacity = the tile's read footprint, packed into
        # RAMB18 banks exactly as ``bram18_blocks`` does: each of the
        # ``partitions`` banks rounds up to whole (ganged) blocks.
        read_shape = shape_p + r_p * h_p[:, None] * cone_p + r_p * halo_p
        cells_p = np.prod(read_shape, axis=1)
        part_p = partitions[pair_idx]
        per_bank = np.ceil(cells_p / part_p).astype(np.int64)
        per_gang = np.ceil(per_bank / depth[pair_idx]).astype(np.int64)
        blocks_one = part_p * gang[pair_idx] * per_gang
        blocks_pair = narrays[pair_idx] * blocks_one
        blocks_sum = np.add.reduceat(blocks_pair, starts)

        out["kernels"]["ff"][idx] = (
            k_arr * (KERNEL_BASE.ff + dp["ff"]) + blocks_sum * FF_PER_BRAM
        )
        out["kernels"]["lut"][idx] = (
            k_arr * (KERNEL_BASE.lut + dp["lut"]) + blocks_sum * LUT_PER_BRAM
        )
        out["kernels"]["dsp"][idx] = k_arr * dp["dsp"]
        out["kernels"]["bram18"][idx] = blocks_sum

    kernels = ResourceColumns(**out["kernels"])
    pipes = ResourceColumns(**out["pipes"])
    total = ResourceColumns(
        **{
            c: out["kernels"][c] + out["pipes"][c]
            for c in _COMPONENTS
        }
    )
    return BatchResources(total=total, kernels=kernels, pipes=pipes)
