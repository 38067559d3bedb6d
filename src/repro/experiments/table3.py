"""Table 3: baseline vs heterogeneous — parameters, resources, speedup.

For every benchmark: fix the baseline at the paper's reported design
point, explore the heterogeneous space within the baseline's resource
budget (same parallelism, region layout, and unroll — Section 5.4's
methodology), then *measure* both designs on the cycle simulator and
report design parameters, estimated resources, and speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.dse.evaluator import CandidateEvaluator
from repro.dse.optimizer import optimize_heterogeneous
from repro.experiments.configs import PAPER_TABLE3, TABLE3_CONFIGS
from repro.experiments.report import format_shape, render_table
from repro.fpga.resources import ResourceVector
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.sim.executor import SimulationExecutor
from repro.stencil.library import PAPER_SUITE
from repro.tiling.design import StencilDesign


@dataclass(frozen=True)
class Table3Row:
    """One benchmark's measured comparison."""

    benchmark: str
    baseline: StencilDesign
    heterogeneous: StencilDesign
    baseline_resources: ResourceVector
    hetero_resources: ResourceVector
    baseline_cycles: float
    hetero_cycles: float

    @property
    def speedup(self) -> float:
        """Simulated baseline/heterogeneous latency ratio."""
        return self.baseline_cycles / self.hetero_cycles


def run_table3(
    benchmarks: Sequence[str] = PAPER_SUITE,
    board: BoardSpec = ADM_PCIE_7V3,
    evaluator: Optional[CandidateEvaluator] = None,
) -> List[Table3Row]:
    """Regenerate Table 3's rows on the simulator.

    Args:
        benchmarks: suite subset to run.
        board: target platform.
        evaluator: shared scoring engine — pass a store-backed one
            (``CandidateEvaluator(store=...)``) to warm-start the
            heterogeneous search from persisted evaluations; the
            simulator re-measures both designs on every run.
    """
    evaluator = evaluator or CandidateEvaluator(board=board)
    executor = SimulationExecutor(board)
    rows: List[Table3Row] = []
    for name in benchmarks:
        config = TABLE3_CONFIGS[name]
        baseline = config.baseline()
        spec = baseline.spec
        hetero = optimize_heterogeneous(
            spec, baseline, board, evaluator=evaluator
        ).best.design
        rows.append(
            Table3Row(
                benchmark=name,
                baseline=baseline,
                heterogeneous=hetero,
                baseline_resources=evaluator.resources(baseline).total,
                hetero_resources=evaluator.resources(hetero).total,
                baseline_cycles=executor.run(baseline).total_cycles,
                hetero_cycles=executor.run(hetero).total_cycles,
            )
        )
    return rows


def mean_speedup(rows: Sequence[Table3Row]) -> float:
    """Arithmetic mean speedup across benchmarks (the paper's 1.65X)."""
    return sum(r.speedup for r in rows) / len(rows)


def render_table3(rows: Sequence[Table3Row]) -> str:
    """ASCII rendering mirroring the paper's Table 3 layout."""
    body: List[Tuple] = []
    for r in rows:
        paper = PAPER_TABLE3.get(r.benchmark)
        for label, design, res, cycles, perf in (
            (
                "Baseline",
                r.baseline,
                r.baseline_resources,
                r.baseline_cycles,
                1.0,
            ),
            (
                "Heterogeneous",
                r.heterogeneous,
                r.hetero_resources,
                r.hetero_cycles,
                r.speedup,
            ),
        ):
            slowest = design.slowest_tile()
            body.append(
                (
                    r.benchmark,
                    label,
                    design.fused_depth,
                    format_shape(slowest.shape),
                    format_shape(design.tile_grid.counts),
                    res.ff,
                    res.lut,
                    res.dsp,
                    res.bram18,
                    perf,
                    paper.speedup if label == "Heterogeneous" and paper
                    else "",
                )
            )
    table = render_table(
        [
            "Benchmark",
            "Optimization",
            "#Fused",
            "Tile Size",
            "Parallelism",
            "FF",
            "LUT",
            "DSP",
            "BRAM",
            "Perf.",
            "Paper",
        ],
        body,
        title="Table 3: Experimental Results of Stencil Benchmark Suite",
    )
    return (
        f"{table}\n"
        f"Mean speedup: {mean_speedup(list(rows)):.2f}X "
        f"(paper: 1.65X)"
    )


if __name__ == "__main__":  # pragma: no cover
    print(render_table3(run_table3()))
