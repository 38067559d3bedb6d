"""Execution-trace export (Chrome tracing / Perfetto format).

The simulator's per-kernel phase timelines are the reproduction's
version of the paper's Fig. 4 execution diagrams.  This module encodes
one region block's timelines as Chrome ``chrome://tracing`` /
Perfetto-compatible events, so the launch stagger, pipe stalls, and
barrier waits can be inspected visually.

Encoding goes through the shared
:class:`~repro.obs.export.ChromeTraceBuilder`, which is the same path
the observability layer uses for DSE spans — that is what lets
:class:`~repro.sim.executor.SimulationExecutor` drop a simulation's
phase timeline into the same merged trace file as the spans
(``repro.obs.export_chrome_trace``).  :func:`to_chrome_trace` remains
the standalone single-simulation exporter.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Union

from repro.obs.export import ChromeTraceBuilder
from repro.sim.executor import SimulationResult
from repro.sim.kernel import KernelPhase

#: Stable color names per phase (Chrome tracing's `cname` field).
_PHASE_COLORS: Dict[KernelPhase, str] = {
    KernelPhase.LAUNCH: "grey",
    KernelPhase.READ: "thread_state_iowait",
    KernelPhase.COMPUTE: "thread_state_running",
    KernelPhase.PIPE_WAIT: "terrible",
    KernelPhase.WRITE: "thread_state_iowait",
    KernelPhase.BARRIER_WAIT: "generic_work",
}


def simulation_chrome_events(
    result: SimulationResult, pid: int = 0, ts_offset_us: float = 0.0
) -> List[dict]:
    """One region block's timelines as a list of Chrome-trace events.

    Timestamps are microseconds at the board's kernel clock, shifted by
    ``ts_offset_us`` (used to anchor the block at the wall-clock moment
    the simulation ran when merging with span events).  Each kernel
    becomes a thread; phases become complete ("X") events with the
    fused-iteration index attached as an argument.
    """
    cycles_to_us = 1e6 / result.board.clock_hz
    builder = ChromeTraceBuilder()
    builder.process_name(pid, result.design.describe())
    for tid, (index, timeline) in enumerate(
        sorted(result.block.timelines.items())
    ):
        builder.thread_name(pid, tid, f"kernel {index}")
        for record in timeline.records:
            builder.complete(
                str(record.phase),
                "kernel-phase",
                pid,
                tid,
                ts_offset_us + record.start * cycles_to_us,
                record.duration * cycles_to_us,
                args={"iteration": record.iteration},
                cname=_PHASE_COLORS[record.phase],
            )
    return builder.events


def to_chrome_trace(result: SimulationResult) -> dict:
    """One simulation as a standalone Chrome-tracing JSON object."""
    return {
        "traceEvents": simulation_chrome_events(result),
        "displayTimeUnit": "ms",
        "otherData": {
            "design": result.design.describe(),
            "board": result.board.name,
            "block_cycles": result.block.block_cycles,
            "num_blocks": result.num_blocks,
        },
    }


def write_chrome_trace(
    result: SimulationResult, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the trace JSON to ``path`` and return it."""
    target = pathlib.Path(path)
    target.write_text(json.dumps(to_chrome_trace(result), indent=1))
    return target
