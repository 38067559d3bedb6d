"""repro — reproduction of "A Comprehensive Framework for Synthesizing
Stencil Algorithms on FPGAs using OpenCL Model" (Wang & Liang, DAC 2017).

The package implements the paper's full stack from scratch:

- :mod:`repro.stencil` — declarative iterative-stencil workloads
  (the Table 2 suite and more) with a golden numpy reference.
- :mod:`repro.frontend` — an OpenCL-C subset parser + feature extractor.
- :mod:`repro.opencl` / :mod:`repro.fpga` — the OpenCL-on-FPGA machine
  model: board, pipes, burst memory, resources, BRAM packing, and a
  FlexCL-style II estimator.
- :mod:`repro.tiling` — the paper's architecture layer: overlapped
  baseline tiling, pipe-shared tiling, and workload-balanced
  heterogeneous tiling.
- :mod:`repro.model` — the analytical performance model (Eqs. 1-11).
- :mod:`repro.dse` — the model-driven performance optimizer.
- :mod:`repro.codegen` — the automatic OpenCL kernel/host generator.
- :mod:`repro.sim` — a cycle-approximate execution simulator (the
  "testbed") and a functional executor that matches the reference
  bitwise.
- :mod:`repro.experiments` — regenerates every table and figure.

Quickstart::

    from repro import (
        jacobi_2d, make_baseline_design, optimize_heterogeneous, simulate,
    )
    spec = jacobi_2d()
    baseline = make_baseline_design(spec, (128, 128), (4, 4), 32, unroll=4)
    hetero = optimize_heterogeneous(spec, baseline).best.design
    print(simulate(baseline).total_cycles / simulate(hetero).total_cycles)
"""

from repro.errors import (
    CodegenError,
    DesignSpaceError,
    ExtractionError,
    FrontendError,
    ParseError,
    PipeError,
    ReproError,
    ResourceError,
    SimulationError,
    SpecificationError,
)
from repro.stencil import (
    BENCHMARKS,
    PAPER_SUITE,
    BoundaryPolicy,
    StencilPattern,
    StencilSpec,
    Tap,
    fdtd_2d,
    fdtd_3d,
    get_benchmark,
    hotspot_2d,
    hotspot_3d,
    jacobi_1d,
    jacobi_2d,
    jacobi_3d,
    run_reference,
)
from repro.frontend import extract_features, extract_pattern
from repro.opencl import ADM_PCIE_7V3, BoardSpec, Pipe
from repro.fpga import (
    VIRTEX7_690T,
    FlexCLEstimator,
    FpgaDevice,
    ResourceVector,
)
from repro.fpga.estimator import ResourceEstimator, estimate_resources
from repro.tiling import (
    DesignKind,
    StencilDesign,
    TileGrid,
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)
from repro.model import (
    Fidelity,
    LatencyBreakdown,
    PerformanceModel,
    predict_latency,
)
from repro.dse import (
    CandidateEvaluator,
    DSEResult,
    EvaluationStats,
    optimize_baseline,
    optimize_full,
    optimize_heterogeneous,
    optimize_pipe_shared,
)
from repro.codegen import GeneratedProgram, generate_program
from repro.api import SynthesisResult, synthesize
from repro.sim import (
    FunctionalExecutor,
    SimulationExecutor,
    SimulationResult,
    run_functional,
    simulate,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "SpecificationError",
    "FrontendError",
    "ParseError",
    "ExtractionError",
    "ResourceError",
    "DesignSpaceError",
    "SimulationError",
    "PipeError",
    "CodegenError",
    # stencil
    "BENCHMARKS",
    "PAPER_SUITE",
    "BoundaryPolicy",
    "StencilPattern",
    "StencilSpec",
    "Tap",
    "jacobi_1d",
    "jacobi_2d",
    "jacobi_3d",
    "hotspot_2d",
    "hotspot_3d",
    "fdtd_2d",
    "fdtd_3d",
    "get_benchmark",
    "run_reference",
    # frontend
    "extract_features",
    "extract_pattern",
    # machine model
    "ADM_PCIE_7V3",
    "BoardSpec",
    "Pipe",
    "VIRTEX7_690T",
    "FpgaDevice",
    "ResourceVector",
    "FlexCLEstimator",
    "ResourceEstimator",
    "estimate_resources",
    # designs
    "DesignKind",
    "StencilDesign",
    "TileGrid",
    "make_baseline_design",
    "make_pipe_shared_design",
    "make_heterogeneous_design",
    # model
    "Fidelity",
    "LatencyBreakdown",
    "PerformanceModel",
    "predict_latency",
    # dse
    "CandidateEvaluator",
    "DSEResult",
    "EvaluationStats",
    "optimize_baseline",
    "optimize_full",
    "optimize_pipe_shared",
    "optimize_heterogeneous",
    # codegen
    "GeneratedProgram",
    "generate_program",
    # facade
    "SynthesisResult",
    "synthesize",
    # sim
    "FunctionalExecutor",
    "SimulationExecutor",
    "SimulationResult",
    "run_functional",
    "simulate",
    "__version__",
]
