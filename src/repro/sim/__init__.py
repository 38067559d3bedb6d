"""Cycle-approximate execution simulator (the reproduction's "testbed").

The paper measures wall-clock on a real ADM-PCIE-7V3 board; we measure
on this simulator instead.  It models the mechanisms the analytical
model abstracts — burst global-memory transfers with bandwidth shared
across kernels, per-iteration pipe halo exchanges with interior-first
latency hiding, the iteration-level lockstep between neighboring
kernels, the end-of-block barrier — **plus the sequential kernel-launch
stagger the paper's model deliberately omits** (Section 5.6 names it as
the source of the model's ~12 % underestimation).

:mod:`repro.sim.functional` executes the same designs on real numpy
data and must match the naive reference bit-for-bit; it is the
framework's correctness oracle.  :mod:`repro.sim.jit` compiles the
same execution to specialized C at runtime, bitwise-identical by
contract and an order of magnitude faster; it runs whenever a C
compiler and ``cffi`` are present (see ``docs/SIM.md``).
"""

from repro.sim.engine import RegionBlockEngine, RegionBlockResult
from repro.sim.kernel import KernelPhase, KernelTimeline, PhaseRecord
from repro.sim.launch import LaunchScheduler
from repro.sim.memsys import MemorySystem
from repro.sim.pipe_sim import halo_transfer_cycles
from repro.sim.executor import SimulationExecutor, SimulationResult, simulate
from repro.sim.functional import FunctionalExecutor, run_functional
from repro.sim.jit import resolve_backend
from repro.sim.trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "RegionBlockEngine",
    "RegionBlockResult",
    "KernelPhase",
    "KernelTimeline",
    "PhaseRecord",
    "LaunchScheduler",
    "MemorySystem",
    "halo_transfer_cycles",
    "SimulationExecutor",
    "SimulationResult",
    "simulate",
    "FunctionalExecutor",
    "run_functional",
    "resolve_backend",
    "to_chrome_trace",
    "write_chrome_trace",
]
