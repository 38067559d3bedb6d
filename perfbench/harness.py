"""Benchmark harness: set up, run whole passes, gate, report.

Run through ``run.py``::

    python3 perfbench/run.py --workload stencil-dse --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of a timed run.
``--trace 1`` alternates untraced passes with passes that run with
every layer wrapped by :mod:`tracer`; it reports the per-layer metrics
of the traced passes and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it are a
human-readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Setups per timed run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Hard ceiling on one run, below the 180 s every run must end within.
RUN_LIMIT_S = 170.0
#: How long a client waits for its partner on a coalesced request.
BARRIER_TIMEOUT_S = 60.0


@dataclass
class Context:
    """Where a run may read and write, and the environment it uses."""

    root: pathlib.Path
    run_dir: pathlib.Path
    env: Dict[str, str]
    _serial: int = 0

    @property
    def src(self) -> pathlib.Path:
        return self.root / "src"

    def fresh_dir(self, prefix: str) -> str:
        """A new empty directory inside this run's scratch area."""
        self._serial += 1
        path = self.run_dir / f"{prefix}-{self._serial}"
        path.mkdir(parents=True)
        return str(path)


@dataclass
class Sample:
    """One finished request."""

    rid: str
    kind: str
    latency_s: float
    problems: List[str]
    obs: Any = None
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class LoopResult:
    samples: List[Sample]
    wall_s: float
    passes: int


def isolate_environment(root: pathlib.Path) -> Context:
    """Pin the environment and give the run its own scratch directory.

    Every ``REPRO_*`` variable is dropped, so the default user path is
    measured; the JIT cache, stores, server state and temporary files
    all live under ``<root>/.perfbench/run-<pid>``, which is removed
    when the run ends.
    """
    run_dir = root / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["REPRO_JIT_CACHE"] = str(run_dir / "jit-0")
    return Context(root=root, run_dir=run_dir, env=dict(os.environ))


def closed_loop(workload, plan, seconds: float) -> LoopResult:
    """Run whole passes of ``plan``; stop near ``seconds``.

    The loop stops at the first pass boundary past ``seconds`` minus
    half a pass, so the window centres on ``seconds``.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter()
    done = 0
    for index, batch in enumerate(plan):
        elapsed = time.perf_counter() - start
        if index > 0 and elapsed >= seconds - 0.5 * elapsed / index:
            break
        workload.start_pass(index)
        _run_pass(workload, batch, None, samples, lock)
        done += 1
    return LoopResult(samples, time.perf_counter() - start, done)


def _run_pass(workload, batch, tracer, samples, lock) -> None:
    items = []
    for request in batch:
        if request.together and workload.clients > 1:
            barrier = threading.Barrier(workload.clients)
            items.extend([(request, barrier)] * workload.clients)
        else:
            items.append((request, None))
    cursor = iter(items)

    def client() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            request, barrier = item
            try:
                if barrier is not None:
                    barrier.wait(timeout=BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                sample = Sample(
                    request.rid, request.kind, 0.0, ["partner never arrived"]
                )
            else:
                sample = _run_one(workload, request, tracer)
            with lock:
                samples.append(sample)

    if workload.clients == 1:
        client()
        return
    threads = [
        threading.Thread(target=client, name=f"client-{i}", daemon=True)
        for i in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _run_one(workload, request, tracer) -> Sample:
    span = tracer.open("request", "request", request.rid) if tracer else None
    start = time.perf_counter()
    try:
        output = workload.execute(request)
        error = None
    except Exception as exc:  # a failed request is a measured outcome
        output, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    if error is not None:
        return Sample(request.rid, request.kind, latency, [error])
    try:
        obs = workload.check(request, output)
    except Exception as exc:  # an output the gates cannot read is wrong
        problem = f"check raised {type(exc).__name__}: {exc}"
        return Sample(request.rid, request.kind, latency, [problem])
    sample = Sample(request.rid, request.kind, latency, obs.problems, obs)
    if span is not None:
        sample.attrs = span.attrs
    return sample


def peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + workload.extra_rss_mb()


# -- timed run ---------------------------------------------------------------


def timed_run(workload, seconds: float, import_s: float) -> Dict[str, Any]:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    loop = closed_loop(workload, workload.passes(), seconds)
    rss = peak_rss_mb(workload)
    extra = {}
    if hasattr(workload, "server_metrics"):
        stats = workload.server_metrics()
        extra["server.deduped"] = stats.get("deduped", 0)
        extra["server.rejected"] = stats.get("rejected", 0)
    setup_s = import_s + statistics.median(setups)
    return summarize(loop, setup_s, rss, extra)


def summarize(loop: LoopResult, setup_s: float, rss: float, extra) -> Dict:
    from stats import geomean, p90_or_none, percentile

    ok = [s for s in loop.samples if not s.problems]
    latencies = [s.latency_s for s in ok]
    cycles = [s.obs.cycles_per_update for s in ok]
    metrics = {
        "setup_s": setup_s,
        "latency_s.p50": percentile(latencies, 50) if latencies else None,
        "throughput_rps": len(ok) / loop.wall_s,
        "peak_rss_mb": rss,
        "design_cycles_per_update.geomean": geomean(cycles) if cycles else None,
    }
    failed = len(loop.samples) - len(ok)
    report = {
        "latency_s.samples": len(latencies),
        "latency_s.p90": p90_or_none(latencies),
        "failed_ratio": failed / max(1, len(loop.samples)),
        "window_s": loop.wall_s,
        "passes": loop.passes,
    }
    sim = [s.obs.sim_cycles_per_update for s in ok if s.obs.sim_cycles_per_update]
    if sim:
        report["sim_cycles_per_update.geomean"] = geomean(sim)
    report.update(traffic(loop.samples))
    report.update(extra)
    problems = [f"{s.rid}: {p}" for s in loop.samples for p in s.problems]
    return {
        "attempted": len(loop.samples),
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "problems": problems,
    }


def traffic(samples: List[Sample]) -> Dict[str, float]:
    """Share of each traffic class, plus the DSE space sizes."""
    from stats import percentile

    out: Dict[str, float] = {}
    total = len(samples)
    for kind in sorted({s.kind for s in samples}):
        out[f"traffic.{kind}_share"] = (
            sum(1 for s in samples if s.kind == kind) / total
        )
    observed = [s.obs for s in samples if s.obs is not None and s.obs.space]
    if observed:
        spaces = [o.space for o in observed]
        out["dse.space_size.p50"] = percentile(spaces, 50)
        out["dse.space_size.max"] = max(spaces)
        out["dse.exhaustive_s.p50"] = percentile(
            [o.exhaustive_s for o in observed], 50
        )
        out["dse.tiered_s.p50"] = percentile([o.tiered_s for o in observed], 50)
    return out


# -- traced run --------------------------------------------------------------


def traced_run(workload, seconds: float, trace_path) -> Dict[str, Any]:
    """Alternate untraced and traced passes of the plan.

    Even passes run untraced and odd passes run with the tracer
    installed, so both halves see the same mix in the same warm
    process; the run stops after a pair once ``seconds`` have passed.
    """
    from tracer import Tracer

    workload.setup()
    warmup = closed_loop(workload, workload.warmup_pass(), seconds)
    tracer = Tracer()
    halves = {False: LoopResult([], 0.0, 0), True: LoopResult([], 0.0, 0)}
    lock = threading.Lock()
    start = time.perf_counter()
    for index, batch in enumerate(workload.passes()):
        traced = index % 2 == 1
        if not traced and index and time.perf_counter() - start >= seconds:
            break
        half = halves[traced]
        workload.start_pass(index)
        if traced:
            tracer.install()
        began = time.perf_counter()
        try:
            _run_pass(
                workload, batch, tracer if traced else None, half.samples, lock
            )
        finally:
            if traced:
                tracer.uninstall()
        half.wall_s += time.perf_counter() - began
        half.passes += 1
    untraced, traced = halves[False], halves[True]
    server, flights = {}, []
    if hasattr(workload, "server_metrics"):
        server = workload.server_metrics()
        flights = workload.flights(traced.samples)
    tracer.write(trace_path)
    layers = layer_metrics(tracer, traced, server, flights)
    layers["trace.overhead_ratio"] = (traced.wall_s / traced.passes) / (
        untraced.wall_s / untraced.passes
    ) - 1.0
    samples = warmup.samples + untraced.samples + traced.samples
    problems = [f"{s.rid}: {p}" for s in samples for p in s.problems]
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.problems),
        "metrics": layers,
        "report": {
            "traced_requests": len(traced.samples),
            "traced_passes": traced.passes,
            "trace_file": str(trace_path),
            "layer_table": layer_table(tracer, traced),
        },
        "problems": problems,
    }


def layer_metrics(tracer, loop: LoopResult, server, flights) -> Dict[str, float]:
    """Per-layer metrics of a traced loop, per traced request."""
    from stats import geomean, percentile

    n = max(1, len(loop.samples))
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts

    def per(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    requests = tracer.request_spans()
    request_wall = sum(s.duration for s in requests)
    unattributed = sum(s.self_s for s in requests)
    sim = [
        s.obs.sim_cycles_per_update
        for s in loop.samples
        if s.obs is not None and s.obs.sim_cycles_per_update
    ]
    searches = [s.obs for s in loop.samples if s.obs and s.obs.space]
    spaces = [o.space for o in searches]
    run_s = tracer.self_time["sim.run"]
    jobs = len(flights)
    out = {
        "request.busy_s": per(request_wall),
        "dse.enumerate.busy_s": per(busy["dse.enumerate"]),
        "dse.enumerate.candidates": per(
            counts["enumerate.full_space_candidates"]
            + counts["enumerate.program_candidates"]
        ),
        "dse.space_size.p50": percentile(spaces, 50) if spaces else 0.0,
        "dse.exhaustive.busy_s": per(sum(o.exhaustive_s for o in searches)),
        "dse.tiered.busy_s": per(sum(o.tiered_s for o in searches)),
        "dse.tier0.busy_s": per(busy["dse.tier0"]),
        "dse.tier0.candidates": per(counts["dse.tier0.candidates"]),
        "dse.tier0.promoted_ratio": ratio(
            counts["dse.tier0.promoted"], counts["dse.tier0.feasible"]
        ),
        "dse.tier1.busy_s": per(busy["dse.tier1"]),
        "dse.tier1.self_s": per(tracer.self_time["dse.tier1"]),
        "dse.tier1.evaluations": per(counts["dse.tier1.evaluations"]),
        "dse.tier1.memo_hit_ratio": (
            1.0 - ratio(counts["dse.tier1.scored"], counts["dse.tier1.stage_slots"])
            if counts["dse.tier1.stage_slots"]
            else 0.0
        ),
        "model.predict_batch.busy_s": per(busy["model.predict_batch"]),
        "model.lower_bound_batch.busy_s": per(busy["model.lower_bound_batch"]),
        "fpga.estimate_batch.busy_s": per(busy["fpga.estimate_batch"]),
        "program.compose.busy_s": per(busy["program.compose"]),
        "program.candidates": per(counts["enumerate.program_candidates"]),
        "store.lookup.busy_s": per(busy["store.lookup"]),
        "store.record.busy_s": per(busy["store.record"]),
        "store.flush.busy_s": per(busy["store.flush"]),
        "store.lookups": per(calls["store.lookup"]),
        "store.writes": per(calls["store.record"]),
        "store.hit_ratio": ratio(counts["store.hits"], calls["store.lookup"]),
        "frontend.busy_s": per(busy["frontend"]),
        "frontend.calls": per(calls["frontend"]),
        "codegen.busy_s": per(busy["codegen"]),
        "codegen.bytes": per(counts["codegen.bytes"]),
        "sim.compile.busy_s": per(busy["sim.compile"]),
        "sim.compiles": per(calls["sim.build"]),
        "sim.kernel_cache_hit_ratio": (
            1.0 - ratio(calls["sim.build"], calls["sim.compile"])
            if calls["sim.compile"]
            else 0.0
        ),
        "sim.run.busy_s": per(run_s),
        "sim.cell_updates_per_s": ratio(counts["sim.cell_updates"], run_s),
        "sim.fallbacks": counts["sim.numpy_runs"],
        "sim.cycle.busy_s": per(busy["sim.cycle"]),
        "sim_cycles_per_update.geomean": geomean(sim) if sim else 0.0,
        "service.submit.busy_s": per(busy["service.submit"]),
        "service.polls_per_job": ratio(counts["service.result_calls"], jobs),
        "service.overhead_s.p50": 0.0,
        "service.queue_wait_s.p50": 0.0,
        "service.run_s.p50": 0.0,
        "service.coalesced_ratio": 0.0,
        "service.store_warm_ratio": 0.0,
        "service.rejected": float(server.get("rejected", 0)),
        "trace.unattributed_ratio": ratio(unattributed, request_wall),
    }
    if flights:
        out["service.overhead_s.p50"] = percentile(
            [f["client_s"] - f["wall_s"] for f in flights], 50
        )
        out["service.queue_wait_s.p50"] = percentile(
            [f["queue_wait_s"] for f in flights], 50
        )
        out["service.run_s.p50"] = percentile([f["run_s"] for f in flights], 50)
        out["service.coalesced_ratio"] = ratio(
            sum(1 for f in flights if f["coalesced_submit"]), len(flights)
        )
        out["service.store_warm_ratio"] = ratio(
            sum(
                1 for f in flights
                if f["store_hits"] and not f["evaluations"]
                and not f["coalesced_submit"]
            ),
            len(flights),
        )
    return out


def layer_table(tracer, loop: LoopResult) -> List[List[Any]]:
    """``[layer, busy s/request, self s/request, share, calls]`` rows."""
    n = max(1, len(loop.samples))
    wall = sum(s.duration for s in tracer.request_spans()) or 1.0
    rows = []
    for layer in sorted(tracer.busy, key=lambda k: -tracer.busy[k]):
        if layer == "request" or not tracer.calls[layer]:
            continue
        rows.append([
            layer,
            round(tracer.busy[layer] / n, 6),
            round(tracer.self_time[layer] / n, 6),
            round(tracer.busy[layer] / wall, 4),
            tracer.calls[layer],
        ])
    return rows


# -- entry point -------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str], t0: float) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    args = parse_args(argv)
    ctx = isolate_environment(root)
    sys.path.insert(0, str(ctx.src))
    from workloads import WORKLOADS

    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ctx.src):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        return 2
    workload = WORKLOADS[args.workload](ctx, args.seed)
    import_s = time.perf_counter() - t0
    _arm_watchdog(workload, ctx)
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        if args.trace:
            trace_dir = root / ".perfbench" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            result = traced_run(
                workload,
                args.seconds,
                trace_dir / f"{args.workload}-seed{args.seed}.jsonl",
            )
        else:
            result = timed_run(workload, args.seconds, import_s)
    finally:
        workload.teardown()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return emit(args, result)


def emit(args, result: Dict[str, Any]) -> int:
    from catalog import unit_of

    # A metric is None when no request passed its gates.
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in result["metrics"].items()
        if value is not None
    }
    correct = result["failed"] == 0 and len(metrics) == len(result["metrics"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:>16.6g} {entry['unit']}")
    report = result["report"]
    table = report.pop("layer_table", None)
    if table:
        print("  layer                         busy s/req   self s/req  share  calls")
        for layer, busy, self_s, share, count in table:
            print(f"  {layer:28s} {busy:11.6f} {self_s:11.6f} {share:6.3f} {count:6d}")
    for name, value in report.items():
        print(f"  {name:40s} {value}")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def _arm_watchdog(workload, ctx: Context) -> None:
    """Kill the run (and any server it started) past :data:`RUN_LIMIT_S`."""

    def watch() -> None:
        time.sleep(RUN_LIMIT_S)
        print("perfbench: run limit reached, stopping", file=sys.stderr)
        stop = getattr(workload, "emergency_stop", None)
        if stop is not None:
            stop()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        os._exit(3)

    threading.Thread(target=watch, name="watchdog", daemon=True).start()
