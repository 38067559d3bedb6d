"""Figure 6: execution-time breakdown (Jacobi-2D and Jacobi-3D).

The paper's Fig. 6 decomposes each design's execution time into useful
computation, redundant computation, memory transfer, and waiting, for
the baseline and the proposed designs.  We regenerate the same stacked
bars from the simulator's critical-kernel breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dse.evaluator import CandidateEvaluator
from repro.dse.optimizer import optimize_heterogeneous, optimize_pipe_shared
from repro.experiments.configs import TABLE3_CONFIGS
from repro.experiments.report import render_table
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.sim.executor import SimulationExecutor


@dataclass(frozen=True)
class Figure6Bar:
    """One stacked bar: a (benchmark, design) execution breakdown."""

    benchmark: str
    design_label: str
    total_cycles: float
    fractions: Dict[str, float]


def run_figure6(
    benchmarks: Sequence[str] = ("jacobi-2d", "jacobi-3d"),
    board: BoardSpec = ADM_PCIE_7V3,
    evaluator: Optional[CandidateEvaluator] = None,
) -> List[Figure6Bar]:
    """Regenerate Fig. 6's breakdown bars on the simulator.

    ``evaluator`` follows the same warm-start contract as
    :func:`repro.experiments.table3.run_table3`.
    """
    executor = SimulationExecutor(board)
    bars: List[Figure6Bar] = []
    for name in benchmarks:
        config = TABLE3_CONFIGS[name]
        baseline = config.baseline()
        spec = baseline.spec
        pipe = optimize_pipe_shared(
            spec, baseline, board, evaluator=evaluator
        ).best.design
        hetero = optimize_heterogeneous(
            spec, baseline, board, evaluator=evaluator
        ).best.design
        for label, design in (
            ("baseline", baseline),
            ("pipe-shared", pipe),
            ("heterogeneous", hetero),
        ):
            result = executor.run(design)
            bars.append(
                Figure6Bar(
                    benchmark=name,
                    design_label=label,
                    total_cycles=result.total_cycles,
                    fractions=result.breakdown.fractions(),
                )
            )
    return bars


def render_figure6(bars: Sequence[Figure6Bar]) -> str:
    """ASCII rendering of the breakdown bars."""
    components = [
        "compute_useful",
        "compute_redundant",
        "read",
        "write",
        "share_exposed",
        "launch",
        "wait",
    ]
    rows = []
    for bar in bars:
        rows.append(
            [bar.benchmark, bar.design_label, bar.total_cycles]
            + [bar.fractions[c] for c in components]
        )
    return render_table(
        ["Benchmark", "Design", "Cycles"] + components,
        rows,
        title="Figure 6: Execution time breakdown (fractions of total)",
    )


if __name__ == "__main__":  # pragma: no cover
    print(render_figure6(run_figure6()))
