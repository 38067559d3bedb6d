"""The assembled performance predictor.

Two fidelity levels are provided:

- ``Fidelity.PAPER`` — Eqs. 1-11 exactly as published: the slowest
  kernel's footprint grows by ``Δw_d (h - i)`` (both sides of every
  dimension), ``N_region`` is the real-valued Eq. 2, and pipe overhead
  follows Eq. 10/11.
- ``Fidelity.REFINED`` — same structure, but workloads, read/write
  footprints, and pipe traffic are taken from the design's exact
  per-tile geometry (outer sides only expand, integer region counts),
  and latency hiding uses the interior-first schedule.

The DSE scores ``REFINED`` only: the candidate engine and its batch
twin (:mod:`repro.model.batch`) take no fidelity.  ``PAPER`` is the
published-equation reference the refined model is tested against.

Neither fidelity models the sequential kernel-launch stagger — the
paper explicitly does not, and names it as the cause of the model's
systematic underestimation of measured latency (Section 5.6).  The
cycle simulator (:mod:`repro.sim`) *does* model it, which is what makes
the Figure 7 comparison meaningful.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.fpga.flexcl import FlexCLEstimator, PipelineReport
from repro.model.compute import cycles_per_element_eq9, iteration_latency_eq8
from repro.model.latency import num_regions_eq2
from repro.model.memory import read_latency_eq5, write_latency_eq6
from repro.model.params import extract_parameters
from repro.model.sharing import share_latency_eq10
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.tiling.design import StencilDesign
from repro.tiling.schedule import split_independent_dependent


class Fidelity(enum.Enum):
    """Which variant of the analytical model to evaluate."""

    PAPER = "paper"
    REFINED = "refined"


@dataclass(frozen=True)
class LatencyBreakdown:
    """Predicted (or simulated) latency split into components (cycles).

    All components are totals over the whole stencil execution for the
    barrier-setting (slowest) kernel — the quantity Eq. 1 scales up.
    """

    launch: float
    read: float
    write: float
    compute_useful: float
    compute_redundant: float
    share_exposed: float
    wait: float = 0.0

    @property
    def total(self) -> float:
        """Total latency in cycles."""
        return (
            self.launch
            + self.read
            + self.write
            + self.compute_useful
            + self.compute_redundant
            + self.share_exposed
            + self.wait
        )

    @property
    def memory(self) -> float:
        """Read + write cycles."""
        return self.read + self.write

    @property
    def compute(self) -> float:
        """Useful + redundant computation cycles."""
        return self.compute_useful + self.compute_redundant

    def seconds(self, clock_hz: float) -> float:
        """Total latency in seconds at a given kernel clock."""
        return self.total / clock_hz

    def fractions(self) -> Dict[str, float]:
        """Each component as a fraction of the total (Fig. 6 view)."""
        total = self.total or 1.0
        return {
            "launch": self.launch / total,
            "read": self.read / total,
            "write": self.write / total,
            "compute_useful": self.compute_useful / total,
            "compute_redundant": self.compute_redundant / total,
            "share_exposed": self.share_exposed / total,
            "wait": self.wait / total,
        }

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view including the total."""
        return {
            "launch": self.launch,
            "read": self.read,
            "write": self.write,
            "compute_useful": self.compute_useful,
            "compute_redundant": self.compute_redundant,
            "share_exposed": self.share_exposed,
            "wait": self.wait,
            "total": self.total,
        }

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """All components multiplied by ``factor``."""
        return LatencyBreakdown(
            launch=self.launch * factor,
            read=self.read * factor,
            write=self.write * factor,
            compute_useful=self.compute_useful * factor,
            compute_redundant=self.compute_redundant * factor,
            share_exposed=self.share_exposed * factor,
            wait=self.wait * factor,
        )


class PerformanceModel:
    """Predicts total execution latency for a design on a board."""

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        fidelity: Fidelity = Fidelity.REFINED,
        estimator: Optional[FlexCLEstimator] = None,
    ):
        self.board = board
        self.fidelity = fidelity
        self.estimator = estimator or FlexCLEstimator()

    def pipeline_report(self, design: StencilDesign) -> PipelineReport:
        """The HLS/FlexCL pipeline report used for ``C_element``."""
        return self.estimator.estimate(design.spec.pattern, design.unroll)

    def predict(self, design: StencilDesign) -> LatencyBreakdown:
        """Predicted latency breakdown over the full execution.

        When observability is on, every prediction runs inside a
        ``model.predict`` span, which feeds the like-named latency
        histogram in the metrics registry.
        """
        with obs.span("model.predict", fidelity=self.fidelity.value):
            report = self.pipeline_report(design)
            if self.fidelity is Fidelity.PAPER:
                return self._predict_paper(design, report)
            return self._predict_refined(design, report)

    def predict_cycles(self, design: StencilDesign) -> float:
        """Shortcut for ``predict(design).total``."""
        return self.predict(design).total

    # -- paper-exact evaluation -------------------------------------------------

    def _predict_paper(
        self, design: StencilDesign, report: PipelineReport
    ) -> LatencyBreakdown:
        params = extract_parameters(design, self.board, report)
        n_region = num_regions_eq2(params)
        read = read_latency_eq5(params)
        write = write_latency_eq6(params)
        c_elem = cycles_per_element_eq9(params)
        useful = 0.0
        redundant = 0.0
        exposed = 0.0
        tile_cells = math.prod(params.tile_shape)
        for i in range(1, params.fused_depth + 1):
            l_iter = iteration_latency_eq8(params, i)
            useful_i = c_elem * tile_cells
            useful += useful_i
            redundant += l_iter - useful_i
            if design.sharing:
                l_share = share_latency_eq10(params, i)
                exposed += max(0.0, l_share - l_iter)
        per_block = LatencyBreakdown(
            launch=params.launch_cycles,
            read=read,
            write=write,
            compute_useful=useful,
            compute_redundant=redundant,
            share_exposed=exposed,
        )
        return per_block.scaled(n_region)

    # -- refined (exact-geometry) evaluation ---------------------------------------

    def _predict_refined(
        self, design: StencilDesign, report: PipelineReport
    ) -> LatencyBreakdown:
        c_elem = report.cycles_per_element
        c_pipe = float(self.board.pipe_cycles_per_word)
        k = design.parallelism
        per_cycle = self.board.effective_bytes_per_cycle
        slowest_total = -1.0
        slowest_breakdown: Optional[LatencyBreakdown] = None
        for tile in design.tiles:
            read = design.tile_read_bytes(tile) * k / per_cycle
            write = design.tile_write_bytes(tile) * k / per_cycle
            useful = c_elem * design.fused_depth * tile.cells
            redundant = (
                c_elem * design.tile_compute_cells(tile) - useful
            )
            exposed = 0.0
            previous_indep = None
            for i in range(1, design.fused_depth + 1):
                indep, dep = split_independent_dependent(design, tile, i)
                share = c_pipe * design.tile_share_cells(tile, i)
                # Boundary-first schedule: iteration i's incoming halo
                # streams in while iteration i-1's interior computes;
                # only the excess transfer is exposed as a stall.
                if previous_indep is not None and share > 0.0:
                    exposed += max(
                        0.0, share - c_elem * previous_indep
                    )
                previous_indep = indep
            breakdown = LatencyBreakdown(
                launch=float(self.board.kernel_launch_cycles),
                read=read,
                write=write,
                compute_useful=useful,
                compute_redundant=redundant,
                share_exposed=exposed,
            )
            if breakdown.total > slowest_total:
                slowest_total = breakdown.total
                slowest_breakdown = breakdown
        assert slowest_breakdown is not None
        return slowest_breakdown.scaled(design.num_blocks())


def predict_latency(
    design: StencilDesign,
    board: BoardSpec = ADM_PCIE_7V3,
    fidelity: Fidelity = Fidelity.REFINED,
) -> LatencyBreakdown:
    """Convenience wrapper: predict a design's latency breakdown."""
    return PerformanceModel(board, fidelity).predict(design)
