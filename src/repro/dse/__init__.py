"""Design-space exploration: the paper's performance optimizer."""

from repro.dse.space import (
    DesignSpace,
    fused_depth_candidates,
    parallelism_candidates,
)
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.dse.optimizer import (
    baseline_candidates,
    full_space_candidates,
    optimize_baseline,
    optimize_full,
    optimize_heterogeneous,
    optimize_pipe_shared,
)
from repro.dse.pareto import pareto_front
from repro.dse.search import (
    SCREEN_MODES,
    SearchDriver,
    SearchFrontier,
    SearchReport,
)
from repro.dse.sensitivity import (
    SensitivityAnalyzer,
    SweepPoint,
    SweepResult,
)

__all__ = [
    "DesignSpace",
    "fused_depth_candidates",
    "parallelism_candidates",
    "ResourceBudget",
    "CandidateEvaluator",
    "DSEResult",
    "EvaluatedDesign",
    "EvaluationStats",
    "baseline_candidates",
    "full_space_candidates",
    "SCREEN_MODES",
    "SearchDriver",
    "SearchFrontier",
    "SearchReport",
    "optimize_baseline",
    "optimize_full",
    "optimize_heterogeneous",
    "optimize_pipe_shared",
    "pareto_front",
    "SensitivityAnalyzer",
    "SweepPoint",
    "SweepResult",
]
