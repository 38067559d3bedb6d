"""The region-block execution engine.

Simulates one fused block of one region cycle-approximately: ``K``
kernels are launched with the host's sequential stagger, burst-read
their footprints, run ``h`` fused iterations in iteration-level
lockstep with their pipe neighbors (a kernel's dependent cells for
iteration ``i`` cannot start before its neighbors finish iteration
``i - 1`` and the halo strips cross the pipes), burst-write their
outputs, and synchronize at the block barrier.

Because every region block of a design is geometrically identical, the
executor simulates one block and scales by the block count — exactly
the structure of the paper's Eq. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import obs
from repro.fpga.flexcl import PipelineReport
from repro.model.predictor import LatencyBreakdown
from repro.opencl.platform import BoardSpec
from repro.sim.kernel import KernelPhase, KernelTimeline
from repro.sim.launch import LaunchScheduler
from repro.sim.memsys import MemorySystem
from repro.sim.pipe_sim import halo_transfer_cycles
from repro.tiling.design import StencilDesign
from repro.tiling.schedule import split_independent_dependent

Index = Tuple[int, ...]


@dataclass
class RegionBlockResult:
    """Outcome of simulating one region block.

    Attributes:
        block_cycles: cycles from host launch to the block barrier.
        timelines: per-kernel phase timelines.
        breakdowns: per-kernel latency breakdowns (one block's worth).
        critical_index: the kernel that set the barrier.
    """

    block_cycles: float
    timelines: Dict[Index, KernelTimeline]
    breakdowns: Dict[Index, LatencyBreakdown]
    critical_index: Index


class RegionBlockEngine:
    """Simulates one region block of a design."""

    def __init__(
        self,
        design: StencilDesign,
        board: BoardSpec,
        report: PipelineReport,
        overlap_sharing: bool = True,
    ):
        """
        Args:
            design: the design to simulate.
            board: platform characteristics.
            report: pipeline report (II, unroll).
            overlap_sharing: when False, disable the interior-first
                latency hiding — every halo transfer serializes with
                computation (the ablation of Section 3.1's mechanism).
        """
        self.design = design
        self.board = board
        self.report = report
        self.overlap_sharing = overlap_sharing
        self.memsys = MemorySystem(board, design.parallelism)
        self.launcher = LaunchScheduler(board)

    def run(self) -> RegionBlockResult:
        """Simulate the block and return timelines and breakdowns."""
        with obs.span(
            "sim.block",
            kernels=len(self.design.tiles),
            fused_depth=self.design.fused_depth,
        ):
            result = self._run()
        if obs.enabled():
            obs.inc("sim.blocks_simulated")
        return result

    def _run(self) -> RegionBlockResult:
        design = self.design
        tiles = {t.index: t for t in design.tiles}
        order = self.launcher.launch_order(list(tiles))
        launch_times = self.launcher.launch_times(len(order))
        ready = {
            index: launch_times[pos] for pos, index in enumerate(order)
        }
        neighbors = self._neighbor_map()
        c_elem = self.report.cycles_per_element

        timelines = {index: KernelTimeline(index) for index in tiles}
        read_cycles: Dict[Index, float] = {}
        write_cycles: Dict[Index, float] = {}
        pipe_wait: Dict[Index, float] = {index: 0.0 for index in tiles}

        # Phase 1: launch + burst read.
        finished: Dict[Index, float] = {}
        for index, tile in tiles.items():
            tl = timelines[index]
            tl.add(KernelPhase.LAUNCH, 0.0, ready[index])
            read_cycles[index] = self.memsys.read_cycles(
                design.tile_read_bytes(tile)
            )
            read_end = ready[index] + read_cycles[index]
            tl.add(KernelPhase.READ, ready[index], read_end)
            finished[index] = read_end

        # Phase 2: fused iterations under the boundary-first protocol.
        #
        # Each iteration a kernel (1) computes its shared-boundary cells
        # (using the ghost strips its neighbors sent during their
        # previous iteration), (2) pushes them into the pipes, and
        # (3) computes the remaining interior/cone cells while the
        # neighbors' next strips stream in.  Receives therefore overlap
        # the interior phase ("pipe operations are executed in parallel
        # with the processing of independent elements", Section 3.1);
        # a kernel only stalls when a neighbor's boundary phase plus the
        # pipe transfer outlasts the kernel's whole previous iteration.
        boundary_sent: Dict[Index, float] = dict(finished)
        for i in range(1, design.fused_depth + 1):
            previous = dict(finished)
            previous_sent = dict(boundary_sent)
            for index, tile in tiles.items():
                tl = timelines[index]
                indep, dep = split_independent_dependent(design, tile, i)
                start = previous[index]
                if design.sharing and i >= 2 and dep > 0:
                    transfer = halo_transfer_cycles(
                        design, tile, i, self.board
                    )
                    if self.overlap_sharing:
                        # Transfers stream in during the neighbors'
                        # interior phases; stall only when a producer's
                        # boundary phase plus the transfer outlasts this
                        # kernel's whole previous iteration.
                        arrive = max(
                            (
                                previous_sent[n] + transfer
                                for n in neighbors[index]
                            ),
                            default=0.0,
                        )
                    else:
                        # Ablation: wait for the neighbors' previous
                        # iterations to fully finish, then pay the
                        # transfer serially.
                        produced = max(
                            (previous[n] for n in neighbors[index]),
                            default=0.0,
                        )
                        arrive = max(start, produced) + transfer
                    if arrive > start:
                        tl.add(KernelPhase.PIPE_WAIT, start, arrive, i)
                        pipe_wait[index] += arrive - start
                        start = arrive
                boundary_end = start + c_elem * dep
                end = boundary_end + c_elem * indep
                tl.add(KernelPhase.COMPUTE, start, end, i)
                boundary_sent[index] = boundary_end
                finished[index] = end

        # Phase 3: burst write + block barrier.
        write_end: Dict[Index, float] = {}
        for index, tile in tiles.items():
            write_cycles[index] = self.memsys.write_cycles(
                design.tile_write_bytes(tile)
            )
            end = finished[index] + write_cycles[index]
            timelines[index].add(
                KernelPhase.WRITE, finished[index], end
            )
            write_end[index] = end
        block_end = max(write_end.values())
        for index in tiles:
            timelines[index].add(
                KernelPhase.BARRIER_WAIT, write_end[index], block_end
            )

        breakdowns = self._breakdowns(
            tiles, ready, read_cycles, write_cycles, pipe_wait,
            write_end, block_end, c_elem,
        )
        critical = max(write_end, key=lambda idx: write_end[idx])
        return RegionBlockResult(
            block_cycles=block_end,
            timelines=timelines,
            breakdowns=breakdowns,
            critical_index=critical,
        )

    def _neighbor_map(self) -> Dict[Index, List[Index]]:
        adjacency: Dict[Index, List[Index]] = {
            t.index: [] for t in self.design.tiles
        }
        for low, high, _dim in self.design.tile_grid.neighbors():
            adjacency[low.index].append(high.index)
            adjacency[high.index].append(low.index)
        return adjacency

    def _breakdowns(
        self,
        tiles,
        ready,
        read_cycles,
        write_cycles,
        pipe_wait,
        write_end,
        block_end,
        c_elem,
    ) -> Dict[Index, LatencyBreakdown]:
        design = self.design
        result: Dict[Index, LatencyBreakdown] = {}
        for index, tile in tiles.items():
            useful = c_elem * design.fused_depth * tile.cells
            redundant = (
                c_elem * design.tile_compute_cells(tile) - useful
            )
            result[index] = LatencyBreakdown(
                launch=ready[index],
                read=read_cycles[index],
                write=write_cycles[index],
                compute_useful=useful,
                compute_redundant=redundant,
                share_exposed=pipe_wait[index],
                wait=block_end - write_end[index],
            )
        return result
