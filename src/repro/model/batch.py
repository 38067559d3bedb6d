"""NumPy-vectorized batch evaluation of the refined performance model.

Evaluates an entire array of candidate designs — all ``(h, f_k_d,
tile_shape)`` points of an enumerated space — in one pass over NumPy
arrays.  It scores what the DSE ranks: the ``REFINED`` variant of
Eqs. 1-11 (``docs/MODEL.md``), with per-tile Eq. 4-6 read/write
footprints and Eq. 7-9 cone workloads taken from each tile's exact
geometry (the iteration axis is vectorized too), Eq. 10-11 pipe
traffic hidden behind the previous iteration's interior, and the
slowest tile scaled by the integer block count.  The published
equations stay in the scalar predictor's ``PAPER`` variant
(:mod:`repro.model.predictor`), the reference the refined model is
tested against.

**Parity is the contract.**  For every candidate, every breakdown
component equals the scalar :meth:`PerformanceModel.predict` result
*bitwise* — not approximately.  That requires replicating the scalar
path's operation order and numeric types per equation:

- Integer geometry (cell counts, footprints, byte sizes) is computed in
  ``int64``; integer arithmetic is exact in any association order, so
  these may use ``np.prod``/``reduceat`` freely.  A range guard keeps
  every intermediate below ``2**62`` (no ``int64`` overflow) and every
  cell count below ``2**52`` (so ``int -> float64`` conversions and the
  BRAM model's float-ceil divisions round identically to the scalar
  path's arbitrary-precision ``int`` arithmetic).
- Float accumulations (the ``i = 1..h`` iteration loop) run as an
  explicit sequential loop over the iteration axis — ``np.sum``'s
  pairwise summation would change the rounding.  Masked lanes
  accumulate ``+ 0.0``, which is a bitwise identity for the
  non-negative quantities involved.
- The block count is the scalar path's Python ``int``, taken per
  candidate and converted to ``float64`` once.

Candidates whose geometry exceeds the guarded range raise
:class:`BatchRangeError`; callers (the
:class:`~repro.dse.evaluator.CandidateEvaluator` scoring path) fall
back to the scalar model, so the guard affects speed, never results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.parity import (
    CELLS_LIMIT,
    INT64_LIMIT,
    BatchRangeError,
    check_parity_range,
)
from repro.model.predictor import LatencyBreakdown
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.tiling.design import StencilDesign
from repro.tiling.tile import tile_columns

__all__ = [
    "BatchPrediction",
    "BatchRangeError",
    "CELLS_LIMIT",
    "INT64_LIMIT",
    "check_parity_range",
    "lower_bound_batch",
    "predict_batch",
]


@dataclass(frozen=True)
class BatchPrediction:
    """Per-candidate latency components (cycles), as ``float64`` arrays.

    Component ``i`` of every array is bitwise-equal to the same field
    of ``PerformanceModel(board).predict(designs[i])``.  ``total``
    follows :attr:`LatencyBreakdown.total`'s summation order.
    """

    launch: np.ndarray
    read: np.ndarray
    write: np.ndarray
    compute_useful: np.ndarray
    compute_redundant: np.ndarray
    share_exposed: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.total)

    def breakdown(self, i: int) -> LatencyBreakdown:
        """Candidate ``i``'s components as a scalar breakdown."""
        return LatencyBreakdown(
            launch=float(self.launch[i]),
            read=float(self.read[i]),
            write=float(self.write[i]),
            compute_useful=float(self.compute_useful[i]),
            compute_redundant=float(self.compute_redundant[i]),
            share_exposed=float(self.share_exposed[i]),
        )


def predict_batch(
    designs: Sequence[StencilDesign],
    board: BoardSpec = ADM_PCIE_7V3,
    flexcl: Optional[FlexCLEstimator] = None,
) -> BatchPrediction:
    """Predict latency breakdowns for a whole array of candidates.

    Args:
        designs: candidate designs (mixed dimensionalities allowed;
            candidates are grouped by rank internally).
        board: the board every candidate is scored on.
        flexcl: shared pipeline analyzer (one is built when omitted).

    Returns:
        A :class:`BatchPrediction` aligned with ``designs``.

    Raises:
        BatchRangeError: when any candidate's geometry exceeds the
            exact-parity range (fall back to the scalar model).
    """
    designs = list(designs)
    n = len(designs)
    flexcl = flexcl or FlexCLEstimator()
    out = {
        name: np.zeros(n, dtype=np.float64)
        for name in (
            "launch",
            "read",
            "write",
            "compute_useful",
            "compute_redundant",
            "share_exposed",
        )
    }
    start = time.perf_counter()
    with obs.span("model.predict_batch", candidates=n):
        groups: Dict[int, List[int]] = {}
        for i, design in enumerate(designs):
            groups.setdefault(design.spec.ndim, []).append(i)
        for ndim, idx in groups.items():
            parts = _refined_group(designs, board, flexcl, idx, ndim)
            for name, values in parts.items():
                out[name][idx] = values
    elapsed = time.perf_counter() - start
    if n and obs.enabled():
        # Keep the ``model.predict`` latency histogram meaningful for
        # vectorized scoring: one amortized observation per candidate.
        per_candidate = elapsed / n
        for _ in range(n):
            obs.observe("model.predict", per_candidate)
    total = (
        out["launch"]
        + out["read"]
        + out["write"]
        + out["compute_useful"]
        + out["compute_redundant"]
        + out["share_exposed"]
    )
    return BatchPrediction(total=total, **out)


def lower_bound_batch(
    designs: Sequence[StencilDesign],
    flexcl: Optional[FlexCLEstimator] = None,
) -> np.ndarray:
    """Admissible compute-only latency lower bounds for a batch.

    Entry ``i`` is bitwise-equal to
    :meth:`repro.dse.evaluator.CandidateEvaluator.lower_bound` for
    ``designs[i]``: the per-tile cone workloads run on vectorized
    ``int64`` columns (exact), and the final float products replicate
    the scalar bound's operation order per candidate in pure Python.
    Since the bound counts computation cycles only, it never exceeds
    the refined prediction, so a screen that drops candidates whose
    bound already loses to an incumbent never drops the optimum.

    Args:
        designs: candidate designs (mixed dimensionalities allowed).
        flexcl: shared pipeline analyzer (one is built when omitted).

    Returns:
        A ``float64`` array of cycle lower bounds aligned with
        ``designs``.

    Raises:
        BatchRangeError: when any candidate's geometry exceeds the
            exact-parity range (fall back to the scalar bound).
    """
    designs = list(designs)
    n = len(designs)
    flexcl = flexcl or FlexCLEstimator()
    out = np.zeros(n, dtype=np.float64)
    with obs.span("model.lower_bound_batch", candidates=n):
        groups: Dict[int, List[int]] = {}
        for i, design in enumerate(designs):
            groups.setdefault(design.spec.ndim, []).append(i)
        for ndim, idx in groups.items():
            _lower_bound_group(designs, flexcl, idx, ndim, out)
    return out


def _lower_bound_group(
    designs: Sequence[StencilDesign],
    flexcl: FlexCLEstimator,
    idx: Sequence[int],
    ndim: int,
    out: np.ndarray,
) -> None:
    shape_p, cone_p, _halo_p, pair_cand, seg_starts, max_extent = (
        _tile_columns(designs, idx, ndim)
    )
    profiles, prof = _profiles(designs, flexcl, idx)
    h_list = [designs[i].fused_depth for i in idx]
    h_arr = np.asarray(h_list, dtype=np.int64)
    radius_rows = _column(profiles, prof, "radius", np.int64)
    max_r = max(max(p.radius) for p in profiles)
    max_h = max(h_list)
    check_parity_range(max_extent + 2 * max_r * (max_h + 1), ndim, max_h)

    # Total cone workload per tile (``tile_compute_cells``), with the
    # iteration axis vectorized exactly as the predictor kernels do.
    rn_p = radius_rows[pair_cand] * cone_p
    h_p = h_arr[pair_cand]
    totals_p = np.zeros(len(pair_cand), dtype=np.int64)
    for i in range(1, max_h + 1):
        rem = h_p - i
        cells_i = np.prod(shape_p + rn_p * rem[:, None], axis=1)
        totals_p += np.where(rem >= 0, cells_i, 0)
    seg_max = np.maximum.reduceat(totals_p, seg_starts).tolist()
    for row, i in enumerate(idx):
        per_block = profiles[prof[row]].c_elem * seg_max[row]
        out[i] = per_block * designs[i].num_blocks()


# -- shared group plumbing -----------------------------------------------------


def _tile_columns(
    designs: Sequence[StencilDesign], idx: Sequence[int], ndim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-tile ("pair") geometry columns for one rank group.

    Returns ``(shape, cone, halo, pair_cand, seg_starts, max_extent)``:
    ``(m, ndim)`` int64 arrays of tile extents, cone-side and halo-side
    multiplicities, the owning group-local candidate index per pair,
    each candidate's first pair index, and the largest raw extent seen.
    Built from the tile grids' extents (:func:`tile_columns`), in
    ``tiles()`` order per candidate.
    """
    grids = [designs[i].tile_grid for i in idx]
    max_extent = max(grid.max_extent for grid in grids)
    check_parity_range(max_extent, ndim, 1)
    columns = tile_columns(grids)
    sharing = np.fromiter(
        (designs[i].sharing for i in idx), dtype=bool, count=len(idx)
    )
    cone, halo = columns.sides(sharing)
    return (
        columns.shape,
        cone,
        halo,
        columns.owner,
        columns.starts,
        max_extent,
    )


class _Profile(NamedTuple):
    """Constants every candidate with one spec and unroll shares."""

    c_elem: float
    read_bpc: int
    write_bpc: int
    num_fields: int
    radius: Tuple[int, ...]


def _profiles(
    designs: Sequence[StencilDesign],
    flexcl: FlexCLEstimator,
    idx: Sequence[int],
) -> Tuple[List[_Profile], List[int]]:
    """Distinct per-(spec, unroll) constants, and each candidate's row
    into them.

    A sweep's candidates nearly all share one spec and unroll, so the
    pipeline report and byte counts are derived once per combination
    instead of once per candidate.  Keys are object identities, valid
    for this call only (``designs`` keeps every keyed object alive).
    """
    index: Dict[Tuple[int, int], int] = {}
    profiles: List[_Profile] = []
    rows: List[int] = []
    for i in idx:
        design = designs[i]
        key = (id(design.spec), design.unroll)
        row = index.get(key)
        if row is None:
            row = index[key] = len(profiles)
            spec = design.spec
            report = flexcl.estimate(spec.pattern, design.unroll)
            aux_bytes = spec.element_bytes * len(spec.pattern.aux)
            profiles.append(
                _Profile(
                    c_elem=report.cycles_per_element,
                    read_bpc=spec.cell_state_bytes + aux_bytes,
                    write_bpc=spec.cell_state_bytes,
                    num_fields=spec.pattern.num_fields,
                    radius=spec.pattern.radius,
                )
            )
        rows.append(row)
    return profiles, rows


def _column(
    profiles: Sequence[_Profile], rows: Sequence[int], name: str, dtype
) -> np.ndarray:
    """One profile field as a per-candidate column."""
    values = np.asarray([getattr(p, name) for p in profiles], dtype=dtype)
    return values[np.asarray(rows, dtype=np.int64)]


def _first_argmax_per_segment(
    totals: np.ndarray, pair_cand: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Index of each segment's first maximal element (first max wins).

    Matches the scalar paths' strict ``>`` update loops (and Python's
    ``max``), which keep the earliest of tied maxima.
    """
    seg_max = np.maximum.reduceat(totals, seg_starts)
    m = len(totals)
    position = np.where(
        totals == seg_max[pair_cand], np.arange(m, dtype=np.int64), m
    )
    return np.minimum.reduceat(position, seg_starts)


# -- refined (exact-geometry) group evaluation ---------------------------------


def _refined_group(
    designs: Sequence[StencilDesign],
    board: BoardSpec,
    flexcl: FlexCLEstimator,
    idx: Sequence[int],
    ndim: int,
) -> Dict[str, np.ndarray]:
    shape_p, cone_p, halo_p, pair_cand, seg_starts, max_extent = (
        _tile_columns(designs, idx, ndim)
    )
    m = len(pair_cand)

    profiles, prof = _profiles(designs, flexcl, idx)
    h_list = [designs[i].fused_depth for i in idx]
    k_list = [designs[i].parallelism for i in idx]
    h_arr = np.asarray(h_list, dtype=np.int64)
    k_arr = np.asarray(k_list, dtype=np.int64)
    blocks_f = np.asarray(
        [float(designs[i].num_blocks()) for i in idx], dtype=np.float64
    )
    per_cycle = board.effective_bytes_per_cycle
    pipe = float(board.pipe_cycles_per_word)
    launch = float(board.kernel_launch_cycles)
    c_elem = _column(profiles, prof, "c_elem", np.float64)
    read_bpc = _column(profiles, prof, "read_bpc", np.int64)
    write_bpc = _column(profiles, prof, "write_bpc", np.int64)
    nf_arr = _column(profiles, prof, "num_fields", np.int64)
    radius = _column(profiles, prof, "radius", np.int64)
    max_r = max(max(p.radius) for p in profiles)
    max_h = max(h_list)
    max_scale = max(
        1,
        max_h,
        max(profiles[p].read_bpc * k for p, k in zip(prof, k_list)),
        max(2 * ndim * max(p.radius) * p.num_fields for p in profiles),
    )
    check_parity_range(max_extent + 2 * max_r * (max_h + 1), ndim, max_scale)

    h_p = h_arr[pair_cand]
    c_elem_p = c_elem[pair_cand]
    k_p = k_arr[pair_cand]
    nf_p = nf_arr[pair_cand]
    r_p = radius[pair_cand]

    cells_p = np.prod(shape_p, axis=1)
    read_shape = shape_p + r_p * h_p[:, None] * cone_p + r_p * halo_p
    read_cells = np.prod(read_shape, axis=1)
    read = (read_cells * read_bpc[pair_cand] * k_p) / per_cycle
    write = (cells_p * write_bpc[pair_cand] * k_p) / per_cycle
    useful = (c_elem_p * h_p) * cells_p

    compute_cells = np.zeros(m, dtype=np.int64)
    exposed = np.zeros(m, dtype=np.float64)
    prev_indep = np.zeros(m, dtype=np.int64)
    for i in range(1, max_h + 1):
        rem = h_p - i
        active = rem >= 0
        fp = shape_p + r_p * rem[:, None] * cone_p
        compute_cells += np.where(active, np.prod(fp, axis=1), 0)
        if i >= 2:
            # Cells received through pipes before iteration ``i``
            # (``tile_share_cells``): a radius-wide strip per shared
            # side, sized to the iteration footprint transversally;
            # dims with no shared side or zero radius contribute zero.
            share_cells = np.zeros(m, dtype=np.int64)
            for d in range(ndim):
                transverse = np.ones(m, dtype=np.int64)
                for j in range(ndim):
                    if j != d:
                        transverse *= fp[:, j]
                share_cells += halo_p[:, d] * r_p[:, d] * transverse
            share = pipe * (share_cells * nf_p)
            mask = active & (share > 0.0)
            exposed += np.where(
                mask,
                np.maximum(0.0, share - c_elem_p * prev_indep),
                0.0,
            )
        # Interior-first schedule: next iteration's halo hides behind
        # this iteration's independent (interior) cells.
        prev_indep = np.prod(np.maximum(fp - r_p * halo_p, 0), axis=1)
    redundant = c_elem_p * compute_cells - useful

    totals_p = launch + read + write + useful + redundant + exposed
    pick = _first_argmax_per_segment(totals_p, pair_cand, seg_starts)

    return {
        "launch": launch * blocks_f,
        "read": read[pick] * blocks_f,
        "write": write[pick] * blocks_f,
        "compute_useful": useful[pick] * blocks_f,
        "compute_redundant": redundant[pick] * blocks_f,
        "share_exposed": exposed[pick] * blocks_f,
    }
