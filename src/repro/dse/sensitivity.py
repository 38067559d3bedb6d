"""What-if sensitivity analysis over platform parameters.

Table 1 marks the global-memory bandwidth ``BW`` and the parallelism
``K`` as *user-defined inputs* to the performance optimizer, and
``C_pipe`` as profiled.  This module sweeps those knobs for a fixed
design (or design pair) and reports predicted and measured latency, so
a user can ask questions like "would this design still win on a board
with half the bandwidth?" before committing to synthesis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.evaluator import CandidateEvaluator, EvaluationStats
from repro.errors import DesignSpaceError
from repro.fpga.estimator import ResourceEstimator
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.sim.executor import simulate
from repro.store.backing import BackingStore
from repro.tiling.design import StencilDesign


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sensitivity sweep."""

    value: float
    predicted_cycles: float
    measured_cycles: float

    @property
    def model_error(self) -> float:
        """Relative model error at this point."""
        if self.measured_cycles == 0:
            return 0.0
        return (
            self.measured_cycles - self.predicted_cycles
        ) / self.measured_cycles


@dataclass(frozen=True)
class SweepResult:
    """A full sweep of one parameter."""

    parameter: str
    design_label: str
    points: Tuple[SweepPoint, ...]

    def best(self) -> SweepPoint:
        """The point with the lowest measured latency."""
        return min(self.points, key=lambda p: p.measured_cycles)

    def measured_range(self) -> float:
        """Max/min measured-latency ratio across the sweep."""
        cycles = [p.measured_cycles for p in self.points]
        return max(cycles) / min(cycles)


class SensitivityAnalyzer:
    """Sweeps board parameters for a fixed design.

    Model predictions route through one
    :class:`~repro.dse.evaluator.CandidateEvaluator` per swept board
    point; the evaluators share a single FlexCL pipeline analyzer and
    resource estimator (those don't depend on the swept board knobs),
    and each keeps its memo, so re-sweeping a design repeats no model
    work.

    With a persistent ``store``, every per-board evaluator consults and
    writes through it (each board point gets its own evaluation
    context, so entries never cross boards): an interrupted sweep
    resumed over the same store repeats no model work, re-measures its
    points on the deterministic simulator and returns identical points.
    """

    def __init__(
        self,
        board: BoardSpec = ADM_PCIE_7V3,
        store: Optional[BackingStore] = None,
    ):
        self.board = board
        self.store = store
        self._estimator = ResourceEstimator()
        self._evaluators: Dict[BoardSpec, CandidateEvaluator] = {}

    def _evaluator_for(self, board: BoardSpec) -> CandidateEvaluator:
        evaluator = self._evaluators.get(board)
        if evaluator is None:
            evaluator = CandidateEvaluator(
                board=board,
                estimator=self._estimator,
                store=self.store,
            )
            self._evaluators[board] = evaluator
        return evaluator

    def stats(self) -> EvaluationStats:
        """Aggregate engine counters across every swept board point."""
        total = EvaluationStats()
        for evaluator in self._evaluators.values():
            total.merge(evaluator.stats)
        return total

    def _evaluate(
        self, design: StencilDesign, board: BoardSpec
    ) -> Tuple[float, float]:
        predicted = self._evaluator_for(board).predict_cycles(design)
        measured = simulate(design, board).total_cycles
        return predicted, measured

    def sweep_bandwidth(
        self,
        design: StencilDesign,
        bandwidths_bytes_per_s: Sequence[float],
    ) -> SweepResult:
        """Latency vs peak global-memory bandwidth ``BW``."""
        if not bandwidths_bytes_per_s:
            raise DesignSpaceError("Bandwidth sweep needs values")
        boards = [
            self.board.with_bandwidth(bw) for bw in bandwidths_bytes_per_s
        ]
        points = []
        for bw, board in zip(bandwidths_bytes_per_s, boards):
            predicted, measured = self._evaluate(design, board)
            points.append(SweepPoint(bw, predicted, measured))
        return SweepResult("bandwidth", design.describe(), tuple(points))

    def sweep_pipe_cost(
        self,
        design: StencilDesign,
        cycles_per_word: Sequence[int],
    ) -> SweepResult:
        """Latency vs ``C_pipe`` (cycles per transferred element)."""
        if not cycles_per_word:
            raise DesignSpaceError("Pipe-cost sweep needs values")
        boards = [
            dataclasses.replace(self.board, pipe_cycles_per_word=int(cost))
            for cost in cycles_per_word
        ]
        points = []
        for cost, board in zip(cycles_per_word, boards):
            predicted, measured = self._evaluate(design, board)
            points.append(SweepPoint(float(cost), predicted, measured))
        return SweepResult("pipe_cost", design.describe(), tuple(points))

    def sweep_launch_overhead(
        self,
        design: StencilDesign,
        stagger_cycles: Sequence[int],
    ) -> SweepResult:
        """Latency vs the sequential kernel-launch stagger."""
        if not stagger_cycles:
            raise DesignSpaceError("Launch sweep needs values")
        boards = [
            dataclasses.replace(self.board, launch_stagger_cycles=int(stagger))
            for stagger in stagger_cycles
        ]
        points = []
        for stagger, board in zip(stagger_cycles, boards):
            predicted, measured = self._evaluate(design, board)
            points.append(
                SweepPoint(float(stagger), predicted, measured)
            )
        return SweepResult("launch_stagger", design.describe(), tuple(points))

    def speedup_vs_bandwidth(
        self,
        baseline: StencilDesign,
        optimized: StencilDesign,
        bandwidths_bytes_per_s: Sequence[float],
    ) -> List[Tuple[float, float]]:
        """Measured optimized-vs-baseline speedup across bandwidths.

        The paper's gain comes partly from eliminated transfers, so it
        *grows* as bandwidth shrinks — this sweep quantifies that.
        """
        results = []
        for bw in bandwidths_bytes_per_s:
            board = self.board.with_bandwidth(bw)
            speedup = (
                simulate(baseline, board).total_cycles
                / simulate(optimized, board).total_cycles
            )
            results.append((bw, speedup))
        return results
