"""Every metric the benchmark reports: unit, direction and bound.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check the two agree.  ``README.md`` records which
end-to-end metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

#: name -> (unit, better, bound).  Reported by timed runs (``--trace 0``).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_s.p50": ("s", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "design_cycles_per_update.geomean": ("cycles", "lower", 0.1),
}

#: name -> (unit, better).  Reported by traced runs (``--trace 1``).
#: Busy times and counts are per traced request.
PER_LAYER = {
    "request.busy_s": ("s", "lower"),
    "dse.enumerate.busy_s": ("s", "lower"),
    "dse.enumerate.candidates": ("count", "lower"),
    "dse.space_size.p50": ("count", "lower"),
    "dse.exhaustive.busy_s": ("s", "lower"),
    "dse.tiered.busy_s": ("s", "lower"),
    "dse.tier0.busy_s": ("s", "lower"),
    "dse.tier0.candidates": ("count", "lower"),
    "dse.tier0.promoted_ratio": ("ratio", "lower"),
    "dse.tier1.busy_s": ("s", "lower"),
    "dse.tier1.self_s": ("s", "lower"),
    "dse.tier1.evaluations": ("count", "lower"),
    "dse.tier1.memo_hit_ratio": ("ratio", "higher"),
    "model.predict_batch.busy_s": ("s", "lower"),
    "model.lower_bound_batch.busy_s": ("s", "lower"),
    "fpga.estimate_batch.busy_s": ("s", "lower"),
    "program.compose.busy_s": ("s", "lower"),
    "program.candidates": ("count", "lower"),
    "store.lookup.busy_s": ("s", "lower"),
    "store.record.busy_s": ("s", "lower"),
    "store.flush.busy_s": ("s", "lower"),
    "store.lookups": ("count", "lower"),
    "store.writes": ("count", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "frontend.busy_s": ("s", "lower"),
    "frontend.calls": ("count", "lower"),
    "codegen.busy_s": ("s", "lower"),
    "codegen.bytes": ("B", "lower"),
    "sim.compile.busy_s": ("s", "lower"),
    "sim.compiles": ("count", "lower"),
    "sim.kernel_cache_hit_ratio": ("ratio", "higher"),
    "sim.run.busy_s": ("s", "lower"),
    "sim.cell_updates_per_s": ("1/s", "higher"),
    "sim.fallbacks": ("count", "lower"),
    "sim.cycle.busy_s": ("s", "lower"),
    "sim_cycles_per_update.geomean": ("cycles", "lower"),
    "service.submit.busy_s": ("s", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.overhead_s.p50": ("s", "lower"),
    "service.queue_wait_s.p50": ("s", "lower"),
    "service.run_s.p50": ("s", "lower"),
    "service.coalesced_ratio": ("ratio", "higher"),
    "service.store_warm_ratio": ("ratio", "higher"),
    "service.rejected": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
}

def unit_of(name: str) -> str:
    """Unit of any reported metric."""
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]
