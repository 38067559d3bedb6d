"""Benchmarks of the value-execution simulator backends.

Compares the numpy interpreter (:mod:`repro.sim.functional`) against
the compiled JIT backend (:mod:`repro.sim.jit`) on two workloads:

- a deep-fusion heterogeneous design on a 1024x1024 Jacobi-2D grid
  (the headline case the JIT subsystem was built for), and
- a scaled replica of the deepest-fusion Table 3 design (the same
  tile partition, cone depth, and unroll on a one-region grid — the
  full paper-scale grid does not fit in memory).

Bitwise parity between the two backends is asserted before any
timing is reported: a case that diverges aborts the run instead of
publishing a speedup for a wrong answer.  Compile time is measured
separately from execution time (the disk cache amortizes it across
processes; see docs/SIM.md).

Standalone usage (CI runs this with ``--min-speedup 3``)::

    python benchmarks/bench_sim.py --min-speedup 3 \
        --json-out bench-sim.json

``--min-speedup`` applies to the headline Jacobi-2D case; the Table 3
replica is reported but not gated (its halo-exchange-heavy 1-D shape
is interpreter-friendly).
"""

import argparse
import json
import sys
import time

import numpy as np
import pytest

from repro.experiments.configs import TABLE3_CONFIGS
from repro.sim import jit
from repro.sim.functional import FunctionalExecutor
from repro.stencil import jacobi_2d
from repro.tiling import make_heterogeneous_design


def _cells(spec):
    total = 1
    for extent in spec.grid_shape:
        total *= extent
    return total * spec.iterations


def compare_backends(name, spec, design):
    """Time numpy vs jit on one design; parity-gate the result.

    Returns a JSON-able dict with wall times, cells/s, compile time,
    and the speedup.  Raises ``AssertionError`` on any bitwise
    divergence between the backends — before any timing is returned.
    """
    compiler = jit.find_compiler()
    if compiler is None:
        raise RuntimeError("bench_sim needs a working C compiler")

    started = time.perf_counter()
    kernel = jit.get_kernel(design)
    compile_s = time.perf_counter() - started

    started = time.perf_counter()
    interpreted = FunctionalExecutor(design).interpret()
    numpy_s = time.perf_counter() - started

    started = time.perf_counter()
    compiled = kernel.run()
    jit_s = time.perf_counter() - started

    # Parity gate: no timing leaves this function for a wrong answer.
    for field in spec.pattern.fields:
        assert np.array_equal(interpreted[field], compiled[field]), (
            f"{name}: jit diverged from numpy on field {field!r}"
        )

    updates = _cells(spec)
    return {
        "case": name,
        "benchmark": spec.name,
        "grid": list(spec.grid_shape),
        "iterations": spec.iterations,
        "fused_depth": design.fused_depth,
        "cell_updates": updates,
        "compiler": compiler.version,
        "compile_s": compile_s,
        "numpy_s": numpy_s,
        "jit_s": jit_s,
        "numpy_cells_per_s": updates / numpy_s,
        "jit_cells_per_s": updates / jit_s,
        "speedup": numpy_s / jit_s,
        "parity": "bitwise",
    }


def headline_case(grid=1024, iterations=128, fused_depth=32):
    """Deep-fusion Jacobi-2D on a ``grid``^2 domain.

    The partition mirrors Table 3's jacobi-2d row (4x4 parallelism,
    h=32) at a region size that keeps the interpreter honest: many
    small tiles are exactly where the per-tile Python dispatch
    overhead dominates and where the compiled loops pull ahead.
    """
    spec = jacobi_2d(grid=(grid, grid), iterations=iterations)
    region = (grid // 4, grid // 4)
    design = make_heterogeneous_design(
        spec, region, (4, 4), fused_depth, 4
    )
    return "jacobi-2d-deep-fusion", spec, design


def table3_replica_case():
    """Scaled replica of the deepest-fusion Table 3 design."""
    config = max(
        TABLE3_CONFIGS.values(), key=lambda c: c.fused_depth
    )
    region = tuple(
        t * c for t, c in zip(config.tile_shape, config.counts)
    )
    spec = (
        config.spec()
        .with_grid(region)
        .with_iterations(2 * config.fused_depth)
    )
    design = make_heterogeneous_design(
        spec, region, config.counts, config.fused_depth, config.unroll
    )
    name = f"table3-{config.name}-replica-h{config.fused_depth}"
    return name, spec, design


# -- pytest-benchmark entry points ------------------------------------------

needs_cc = pytest.mark.skipif(
    jit.find_compiler() is None, reason="no working C compiler"
)


@needs_cc
def test_jit_vs_numpy_headline(record):
    name, spec, design = headline_case(
        grid=512, iterations=64, fused_depth=32
    )
    result = compare_backends(name, spec, design)
    assert result["speedup"] > 1.0
    record(
        "Simulator backends",
        f"{name} ({result['grid']}, {result['iterations']} iters): "
        f"numpy {result['numpy_s']:.2f}s, jit {result['jit_s']:.3f}s "
        f"({result['jit_cells_per_s'] / 1e6:.0f} Mcells/s), "
        f"speedup {result['speedup']:.1f}x, bitwise parity",
    )


@needs_cc
def test_jit_vs_numpy_table3_replica(record):
    name, spec, design = table3_replica_case()
    result = compare_backends(name, spec, design)
    assert result["speedup"] > 1.0
    record(
        "Simulator backends",
        f"{name}: numpy {result['numpy_s']:.2f}s, "
        f"jit {result['jit_s']:.3f}s, "
        f"speedup {result['speedup']:.1f}x, bitwise parity",
    )


# -- standalone CLI ---------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        type=int,
        default=1024,
        help="headline Jacobi-2D grid extent (default 1024)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=128,
        help="headline iteration count (default 128)",
    )
    parser.add_argument(
        "--fused-depth",
        type=int,
        default=32,
        help="headline fused-iteration depth (default 32)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail when the headline case's jit speedup over numpy "
            "falls below this factor (CI uses 3; local target is 10)"
        ),
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the case results as JSON to PATH",
    )
    args = parser.parse_args(argv)

    cases = [
        headline_case(args.grid, args.iterations, args.fused_depth),
        table3_replica_case(),
    ]
    results = []
    for name, spec, design in cases:
        result = compare_backends(name, spec, design)
        results.append(result)
        print(
            f"{result['case']}: numpy {result['numpy_s']:.2f}s "
            f"({result['numpy_cells_per_s'] / 1e6:.0f} Mcells/s), "
            f"jit {result['jit_s']:.3f}s "
            f"({result['jit_cells_per_s'] / 1e6:.0f} Mcells/s), "
            f"compile {result['compile_s']:.2f}s, "
            f"speedup {result['speedup']:.1f}x [bitwise parity]"
        )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"cases": results}, handle, indent=1)
        print(f"Wrote {args.json_out}")
    if args.min_speedup is not None:
        headline = results[0]
        assert headline["speedup"] >= args.min_speedup, (
            f"headline speedup {headline['speedup']:.2f}x below the "
            f"required {args.min_speedup}x"
        )
        print(
            f"Speedup floor OK: {headline['speedup']:.1f}x >= "
            f"{args.min_speedup}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
