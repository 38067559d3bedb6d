"""The simulation executor: whole-run latency for a design.

Simulates one region block with :class:`RegionBlockEngine` and scales
by the number of blocks (all blocks are geometrically identical), the
same structure as the paper's Eq. 1 — except the simulator includes the
effects the model omits (launch stagger, iteration lockstep with
neighbors, barrier waits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.fpga.flexcl import FlexCLEstimator, PipelineReport
from repro.model.predictor import LatencyBreakdown
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.sim.engine import RegionBlockEngine, RegionBlockResult
from repro.sim.kernel import KernelPhase
from repro.tiling.design import StencilDesign

_log = obs.get_logger("sim")

Index = Tuple[int, ...]


@dataclass(frozen=True)
class SimulationResult:
    """Whole-run simulated latency for one design.

    Attributes:
        design: the simulated design.
        board: the platform simulated.
        total_cycles: end-to-end latency in kernel-clock cycles.
        breakdown: critical-kernel latency components over the full
            run (the Fig. 6 quantity).
        block: the underlying single-block simulation (timelines for
            Fig. 4-style traces).
        num_blocks: region blocks executed.
    """

    design: StencilDesign
    board: BoardSpec
    total_cycles: float
    breakdown: LatencyBreakdown
    block: RegionBlockResult
    num_blocks: int
    #: True when inter-block read prefetching was simulated; the
    #: breakdown then describes one block's anatomy, not the (shorter)
    #: pipelined total.
    prefetched: bool = False

    @property
    def seconds(self) -> float:
        """Wall-clock at the board's kernel clock."""
        return self.total_cycles / self.board.clock_hz

    @property
    def throughput_updates_per_cycle(self) -> float:
        """Useful cell-updates per cycle (grid cells * iterations / L)."""
        useful = (
            self.design.spec.total_cells * self.design.spec.iterations
        )
        return useful / self.total_cycles if self.total_cycles else 0.0

    def kernel_breakdowns(self) -> Dict[Index, LatencyBreakdown]:
        """Per-kernel breakdowns scaled to the full run."""
        return {
            index: bd.scaled(self.num_blocks)
            for index, bd in self.block.breakdowns.items()
        }


class SimulationExecutor:
    """Runs designs on the simulated board.

    Args:
        board: the platform to simulate.
        estimator: pipeline-report estimator (FlexCL stand-in).
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        estimator: Optional[FlexCLEstimator] = None,
    ):
        self.board = board
        self.estimator = estimator or FlexCLEstimator()

    def run(
        self,
        design: StencilDesign,
        report: Optional[PipelineReport] = None,
        overlap_sharing: bool = True,
        prefetch_reads: bool = False,
    ) -> SimulationResult:
        """Simulate a design end to end.

        Args:
            design: the design to execute.
            report: pipeline report override (defaults to the FlexCL
                stand-in's estimate, matching what the model uses).
            overlap_sharing: disable interior-first latency hiding when
                False (ablation of the Section 3.1 mechanism).
            prefetch_reads: extension beyond the paper — double-buffer
                the tile footprints so the *next* block's launches and
                burst reads overlap the current block's computation.
                Blocks then pipeline in two stages (fetch | compute +
                write); the period is the longer stage.  Doubles the
                tile-buffer BRAM, which the resource estimator does not
                include by default.
        """
        if report is None:
            report = self.estimator.estimate(
                design.spec.pattern, design.unroll
            )
        with obs.span(
            "sim.run",
            design=design.describe(),
            kernels=len(design.tiles),
        ) as sim_span:
            result = self._run_instrumented(
                design, report, overlap_sharing, prefetch_reads, sim_span
            )
        return result

    def _run_instrumented(
        self,
        design: StencilDesign,
        report: PipelineReport,
        overlap_sharing: bool,
        prefetch_reads: bool,
        sim_span,
    ) -> SimulationResult:
        engine = RegionBlockEngine(
            design, self.board, report, overlap_sharing
        )
        block = engine.run()
        num_blocks = design.num_blocks()
        critical = block.breakdowns[block.critical_index]
        if prefetch_reads:
            fetch = max(
                (
                    record.end
                    for tl in block.timelines.values()
                    for record in tl.records
                    if record.phase is KernelPhase.READ
                ),
                default=0.0,
            )
            body = block.block_cycles - fetch
            # Two-stage pipeline over the blocks: first fetch fills,
            # then each further block costs the longer stage, and the
            # last body drains.
            total = (
                fetch + (num_blocks - 1) * max(body, fetch) + body
            )
        else:
            total = block.block_cycles * num_blocks
        result = SimulationResult(
            design=design,
            board=self.board,
            total_cycles=total,
            breakdown=critical.scaled(num_blocks),
            block=block,
            num_blocks=num_blocks,
            prefetched=prefetch_reads,
        )
        if obs.enabled():
            sim_span.set(blocks=num_blocks, total_cycles=total)
            obs.inc("sim.runs")
            obs.observe("sim.block_cycles", block.block_cycles)
            obs.set_gauge("sim.last_total_cycles", total)
            _log.debug(
                "simulated %s: %.3e cycles over %d blocks",
                design.describe(),
                total,
                num_blocks,
            )
            if obs.capture_events():
                from repro.sim.trace import simulation_chrome_events

                obs.record_chrome_events(
                    simulation_chrome_events(result, pid=obs.next_pid())
                )
        return result


def simulate(
    design: StencilDesign, board: BoardSpec = ADM_PCIE_7V3
) -> SimulationResult:
    """Convenience wrapper: simulate a design on a board."""
    return SimulationExecutor(board).run(design)
