"""Command-line entry point.

Two families of subcommands:

Reproduction (regenerate the paper's evaluation)::

    python -m repro.experiments table2
    python -m repro.experiments table3 [--benchmarks jacobi-2d,...]
    python -m repro.experiments figure6
    python -m repro.experiments figure7
    python -m repro.experiments all

Tooling (use the framework on one benchmark)::

    python -m repro.experiments optimize  --benchmark jacobi-2d
    python -m repro.experiments simulate  --benchmark jacobi-2d [--design hetero]
    python -m repro.experiments codegen   --benchmark jacobi-2d [--output DIR]
    python -m repro.experiments calibrate

Service (synthesis-as-a-service, see ``docs/SERVICE.md``)::

    python -m repro.experiments serve  [--host H] [--port P]
                                       [--workers N] [--queue-depth D]
                                       [--worker-processes N]
                                       [--store DIR]
    python -m repro.experiments submit --url http://H:P
                                       --benchmark jacobi-2d
                                       [--design hetero] [--output DIR]

``figure7`` accepts ``--execute-check`` to bitwise-verify the swept
designs' execution against the naive reference (on the compiled JIT
when a C compiler and ``cffi`` are present, else on the numpy
interpreter; see ``docs/SIM.md``).

Every experiment/tool accepts ``--store DIR`` to persist design
evaluations and sweep measurements: a rerun (or a run resumed after a
crash) warm-starts from the stored results and produces byte-identical
reports.  A server started with ``--store DIR`` answers repeat queries
from the same store across restarts.  The store itself is managed
with::

    python -m repro.experiments store stats      --store DIR
    python -m repro.experiments store compact    --store DIR
    python -m repro.experiments store gc         --store DIR [--context FP]
    python -m repro.experiments store invalidate --store DIR [--context FP]

Observability (see ``docs/OBSERVABILITY.md``) — a server started with
``--store DIR`` also journals per-job flight records and periodic
metric snapshots to ``DIR/telemetry.jsonl`` (override the path with
``--telemetry``); watch a live service or a journal with::

    python -m repro.experiments obs top --url http://H:P
    python -m repro.experiments obs top --telemetry DIR/telemetry.jsonl
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro import obs
from repro.experiments.configs import TABLE3_CONFIGS
from repro.experiments.figure6 import render_figure6, run_figure6
from repro.experiments.figure7 import (
    FIGURE7_BENCHMARKS,
    render_figure7,
    run_figure7,
)
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.table3 import render_table3, run_table3
from repro.stencil.library import PAPER_SUITE

_REPRO_COMMANDS = ("table2", "table3", "figure6", "figure7", "all")
_TOOL_COMMANDS = ("optimize", "simulate", "codegen", "calibrate", "program")
#: Tooling commands that build their designs from a Table-3 config.
_TABLE3_TOOLS = ("optimize", "simulate", "codegen")
_SERVICE_COMMANDS = ("serve", "submit")
_STORE_ACTIONS = ("stats", "compact", "gc", "invalidate")
_OBS_ACTIONS = ("top",)

#: CLI design labels → service/facade design kinds.
_DESIGN_KINDS = {
    "baseline": "baseline",
    "pipe": "pipe-shared",
    "hetero": "heterogeneous",
}


def _parse_benchmarks(value: Optional[str], default: Sequence[str]):
    if not value:
        return tuple(default)
    return tuple(name.strip() for name in value.split(",") if name.strip())


class _StoreSession:
    """The CLI's persistence bundle: design store + sweep checkpoint.

    Built from ``--store DIR``; without the flag every accessor returns
    a plain (non-persistent) engine/executor, so the command paths are
    identical either way.
    """

    RESULTS_DIR = "results"
    SWEEPS_FILE = "sweeps.jsonl"
    SEARCHES_FILE = "searches.jsonl"

    def __init__(self, path: Optional[str]):
        self.store = None
        self.checkpoint = None
        self.search_checkpoint = None
        if path:
            from repro.store import (
                DesignStore,
                SearchCheckpoint,
                SweepCheckpoint,
            )

            root = pathlib.Path(path)
            self.store = DesignStore(root / self.RESULTS_DIR)
            self.checkpoint = SweepCheckpoint(root / self.SWEEPS_FILE)
            self.search_checkpoint = SearchCheckpoint(
                root / self.SEARCHES_FILE
            )

    def evaluator(self):
        from repro.dse.evaluator import CandidateEvaluator

        return CandidateEvaluator(store=self.store)

    def driver(self, args, evaluator=None):
        """A tiered SearchDriver when ``--tiered``, else ``None``."""
        if not getattr(args, "tiered", False):
            return None
        from repro.dse.search import SearchDriver

        return SearchDriver(
            evaluator=evaluator or self.evaluator(),
            chunk_size=args.chunk_size,
            checkpoint=self.search_checkpoint,
        )

    def executor(self, board=None):
        from repro.opencl.platform import ADM_PCIE_7V3
        from repro.store.checkpoint import CheckpointedExecutor

        return CheckpointedExecutor(board or ADM_PCIE_7V3, self.checkpoint)

    def summary_lines(self) -> List[str]:
        if self.store is None:
            return []
        stats = self.store.stats_summary()
        runtime = stats["runtime"]
        return [
            f"Store {stats['root']}: {stats['entries']} entries "
            f"({runtime['hits']} hits, {runtime['misses']} misses, "
            f"{runtime['writes']} writes this run); "
            f"checkpoint {len(self.checkpoint)} steps"
        ]

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        if self.checkpoint is not None:
            self.checkpoint.close()
        if self.search_checkpoint is not None:
            self.search_checkpoint.close()


def _build_designs(benchmark: str, evaluator=None, driver=None):
    from repro.dse.evaluator import CandidateEvaluator
    from repro.dse.optimizer import (
        optimize_heterogeneous,
        optimize_pipe_shared,
    )

    config = TABLE3_CONFIGS[benchmark]
    baseline = config.baseline()
    spec = baseline.spec
    engine = evaluator or CandidateEvaluator()
    return {
        "spec": spec,
        "baseline": baseline,
        "pipe": optimize_pipe_shared(
            spec, baseline, evaluator=engine, driver=driver
        ).best.design,
        "hetero": optimize_heterogeneous(
            spec, baseline, evaluator=engine, driver=driver
        ).best.design,
    }


def _cmd_optimize(args, session: _StoreSession) -> List[str]:
    from repro.sim import simulate

    evaluator = session.evaluator()
    driver = session.driver(args, evaluator)
    bundle = _build_designs(args.benchmark, evaluator, driver)
    lines = [f"Workload: {bundle['spec'].describe()}"]
    base_cycles = simulate(bundle["baseline"]).total_cycles
    for label in ("baseline", "pipe", "hetero"):
        design = bundle[label]
        measured = simulate(design).total_cycles
        resources = evaluator.resources(design).total
        lines.append(
            f"{label:9s} {design.describe()}\n"
            f"          predicted {evaluator.predict_cycles(design):.3e} "
            f"cyc, measured {measured:.3e} cyc "
            f"(speedup {base_cycles / measured:.2f}x), {resources}"
        )
    lines.append(f"Engine: {evaluator.stats.summary()}")
    return lines


def _cmd_simulate(args, session: _StoreSession) -> List[str]:
    from repro.sim import simulate

    bundle = _build_designs(
        args.benchmark, session.evaluator(), session.driver(args)
    )
    design = bundle[args.design]
    result = simulate(design)
    fractions = ", ".join(
        f"{k}={v:.1%}"
        for k, v in result.breakdown.fractions().items()
        if v > 0.001
    )
    return [
        f"Design: {design.describe()}",
        f"Total: {result.total_cycles:.4e} cycles "
        f"({result.seconds * 1e3:.2f} ms at "
        f"{result.board.clock_hz / 1e6:.0f} MHz)",
        f"Blocks: {result.num_blocks}, critical kernel "
        f"{result.block.critical_index}",
        f"Breakdown: {fractions}",
    ]


def _cmd_codegen(args, session: _StoreSession) -> List[str]:
    from repro.codegen import generate_program

    bundle = _build_designs(
        args.benchmark, session.evaluator(), session.driver(args)
    )
    design = bundle[args.design]
    program = generate_program(design)
    out_dir = pathlib.Path(args.output or "generated")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.benchmark.replace("-", "_")
    kernel_path = out_dir / f"{stem}_{args.design}.cl"
    host_path = out_dir / f"{stem}_{args.design}_host.c"
    kernel_path.write_text(program.kernel_source)
    host_path.write_text(program.host_source)
    return [
        f"Design: {design.describe()}",
        f"Wrote {kernel_path} "
        f"({len(program.kernel_source.splitlines())} lines, "
        f"{program.num_kernels} kernels)",
        f"Wrote {host_path}",
    ]


def _cmd_program(args, session: _StoreSession) -> List[str]:
    """Synthesize a multi-stage program benchmark end to end."""
    from repro.api import synthesize
    from repro.program.evaluator import ProgramEvaluator
    from repro.program.library import get_program

    grid = (
        tuple(int(v) for v in args.grid.split("x")) if args.grid else None
    )
    program = get_program(
        args.program, grid=grid, iterations=args.iterations
    )
    engine = ProgramEvaluator(stage_engine=session.evaluator())
    driver = session.driver(args, engine)
    synth = synthesize(
        program=program,
        schedule=args.schedule,
        evaluator=engine,
        driver=driver,
    )
    lines = [
        f"Program: {program.name} "
        f"({program.num_stages} stages: {', '.join(program.topo_order())})",
        f"Schedule: {synth.design.schedule}",
        f"Best: {synth.design.describe()}",
        f"Predicted {synth.predicted_cycles:.3e} cycles, "
        f"{synth.resources.total}",
        f"DSE: {synth.dse.evaluated} evaluated, "
        f"{synth.dse.feasible} feasible",
    ]
    if driver is not None:
        report = driver.report.as_dict()
        lines.append(
            f"Search: {report['chunks']:.0f} chunks "
            f"({report['replayed_chunks']:.0f} replayed from "
            f"checkpoint), {report['tier1_evaluations']:.0f} tier-1 "
            f"evaluations"
        )
    if args.output:
        out_dir = pathlib.Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = args.program.replace("-", "_")
        kernel_path = out_dir / f"{stem}_pipeline.cl"
        host_path = out_dir / f"{stem}_pipeline_host.c"
        kernel_path.write_text(synth.pipeline.kernel_source)
        host_path.write_text(synth.pipeline.host_source)
        lines.append(
            f"Wrote {kernel_path} ({synth.pipeline.num_kernels} kernels, "
            f"{len(synth.pipeline.forwarded)} forwarded edge(s))"
        )
        lines.append(f"Wrote {host_path}")
    return lines


def _cmd_serve(args, session: _StoreSession) -> List[str]:
    """Run the synthesis service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.service import (
        ShardedSynthesisService,
        SynthesisService,
        make_server,
    )

    if not obs.enabled():
        # A resident server should always be observable: metrics-only
        # mode keeps per-kernel event streams out of memory.  Spans
        # stay on so per-job traces (GET /jobs/<id>/trace) work.
        obs.enable(capture_events=False)
    telemetry = None
    telemetry_path = args.telemetry
    if telemetry_path is None and args.store:
        telemetry_path = pathlib.Path(args.store) / "telemetry.jsonl"
    if telemetry_path:
        telemetry = obs.TelemetryJournal(telemetry_path)
    if args.worker_processes:
        # Sharded mode: the replicas own the store (one writer slot
        # each), so the dispatcher-side handle is closed unused.
        store_root = None
        if session.store is not None:
            store_root = session.store.root
            session.store.close()
            session.store = None
        service = ShardedSynthesisService(
            store_root=store_root,
            worker_processes=args.worker_processes,
            queue_depth=args.queue_depth,
            default_timeout_s=args.job_timeout,
            telemetry=telemetry,
            slo_p99_target_s=args.slo_p99,
        )
        workers_desc = f"{args.worker_processes} worker processes"
        store_attached = store_root is not None
    else:
        service = SynthesisService(
            store=session.store,
            workers=args.workers,
            queue_depth=args.queue_depth,
            default_timeout_s=args.job_timeout,
            telemetry=telemetry,
            slo_p99_target_s=args.slo_p99,
        )
        workers_desc = f"{args.workers} workers"
        store_attached = session.store is not None
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"repro synthesis service listening on http://{host}:{port} "
        f"({workers_desc}, queue depth {args.queue_depth}, "
        f"store {'attached' if store_attached else 'none'}, "
        f"telemetry "
        f"{telemetry_path if telemetry_path else 'none'})",
        flush=True,
    )

    def _stop(_signum, _frame):
        # shutdown() must not run on the serving thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.shutdown(drain=True)
    stats = service.stats.as_dict()
    evals = service.evaluator_stats()
    return [
        f"Drained: {stats['completed']} completed, "
        f"{stats['failed']} failed, {stats['cancelled']} cancelled "
        f"({stats['deduped']} deduped, {stats['rejected']} rejected "
        f"of {stats['requests']} requests)",
        f"Engine: {evals['evaluated']:.0f} evaluated, "
        f"{evals['cache_hits']:.0f} cache hits, "
        f"{evals['store_hits']:.0f} store hits, "
        f"{evals['infeasible']:.0f} infeasible",
    ]


def _cmd_submit(args) -> List[str]:
    """Submit one job to a running service over HTTP."""
    from repro.service import ServiceClient, write_result_program

    client = ServiceClient(args.url)
    payload = {
        "benchmark": args.benchmark,
        "design": _DESIGN_KINDS[args.design],
        "priority": args.priority,
    }
    if args.job_timeout is not None:
        payload["timeout_s"] = args.job_timeout
    job = client.submit(**payload)
    lines = [
        f"Submitted {job['id']} "
        f"({'coalesced onto in-flight job' if job['coalesced'] else 'queued'})"
    ]
    if args.no_wait:
        lines.append(f"Poll: {args.url}/jobs/{job['id']}")
        return lines
    result = client.wait(job["id"], timeout_s=args.wait_timeout)
    design = result["design"]
    lines.extend(
        [
            f"Workload: {result['workload']}",
            f"Design:   {design['summary']}",
            f"Predicted {result['predicted_cycles']:.3e} cycles; "
            f"DSE evaluated {result['dse']['evaluated']} candidates "
            f"({result['dse']['feasible']} feasible)",
        ]
    )
    if args.output:
        stem = f"{args.benchmark.replace('-', '_')}_{args.design}"
        for path in write_result_program(result, args.output, stem):
            lines.append(f"Wrote {path}")
    return lines


def _cmd_calibrate(_args) -> List[str]:
    from repro.model.calibration import OfflineProfiler
    from repro.opencl.platform import ADM_PCIE_7V3

    result = OfflineProfiler().calibrate()
    board = ADM_PCIE_7V3
    return [
        "Off-line profiling against the simulated board:",
        f"  effective bandwidth: {result.bandwidth_bytes_per_cycle:.2f} "
        f"B/cycle (configured {board.effective_bytes_per_cycle:.2f})",
        f"  C_pipe: {result.pipe_cycles_per_word:.3f} cycles/word "
        f"(configured {board.pipe_cycles_per_word})",
        f"  kernel launch: {result.launch_cycles:.0f} cycles "
        f"(configured {board.kernel_launch_cycles})",
        f"  launch stagger: {result.launch_stagger_cycles:.0f} cycles "
        f"(configured {board.launch_stagger_cycles})",
    ]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher."""
    parser = argparse.ArgumentParser(
        prog="repro-stencil",
        description=(
            "Reproduction of 'A Comprehensive Framework for Synthesizing "
            "Stencil Algorithms on FPGAs using OpenCL Model' (DAC 2017)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=(
            _REPRO_COMMANDS + _TOOL_COMMANDS + _SERVICE_COMMANDS
            + ("store", "obs")
        ),
        help=(
            "experiment to regenerate, tool to run, 'serve'/'submit' "
            "for the synthesis service, 'store', or 'obs'"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help=(
            "store maintenance action "
            f"({'/'.join(_STORE_ACTIONS)}; 'store' command only) or "
            f"obs action ({'/'.join(_OBS_ACTIONS)}; 'obs' command only)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "persist design evaluations and sweep measurements under "
            "DIR; reruns and crash-resumed runs warm-start from it"
        ),
    )
    parser.add_argument(
        "--context",
        default=None,
        metavar="FINGERPRINT",
        help=(
            "evaluation-context fingerprint for 'store gc' (keep only "
            "this context) and 'store invalidate' (drop this context)"
        ),
    )
    parser.add_argument(
        "--benchmarks",
        default="",
        help="comma-separated benchmark subset (reproduction commands)",
    )
    parser.add_argument(
        "--benchmark",
        default="jacobi-2d",
        help="single benchmark for the tooling commands",
    )
    parser.add_argument(
        "--design",
        choices=("baseline", "pipe", "hetero"),
        default="hetero",
        help="which design the tooling commands act on",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="output directory for codegen / program / submit "
        "(codegen defaults to 'generated')",
    )
    parser.add_argument(
        "--program",
        default="blur-sobel-threshold",
        help="program benchmark for the 'program' command",
    )
    parser.add_argument(
        "--schedule",
        choices=("coresident", "timeshared"),
        default="coresident",
        help="program composition schedule ('program' command)",
    )
    parser.add_argument(
        "--grid",
        default=None,
        metavar="NxM",
        help="shared grid override for 'program' (e.g. 64x64)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="per-stage iteration override for 'program'",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for 'serve'",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8349,
        help="bind port for 'serve' (0 picks a free port)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads for 'serve'",
    )
    parser.add_argument(
        "--worker-processes",
        type=int,
        default=0,
        metavar="N",
        help=(
            "'serve': shard the service across N worker processes "
            "(one warm evaluator each, coordinating through the "
            "shared --store); 0 keeps the in-process thread pool"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help=(
            "admission-control bound for 'serve'; a full queue "
            "rejects jobs with HTTP 429 + Retry-After"
        ),
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline ('serve' default / 'submit' override)",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8349",
        help="service base URL for 'submit'",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="job priority for 'submit' (higher runs first)",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="'submit': return the job id without waiting",
    )
    parser.add_argument(
        "--wait-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="'submit': bound on waiting for the result",
    )
    parser.add_argument(
        "--tiered",
        action="store_true",
        help=(
            "'optimize', 'simulate', 'codegen', 'program': route "
            "design-space exploration through the tiered "
            "screen-then-refine SearchDriver (same best designs; with "
            "--store, interrupted searches resume from searches.jsonl)"
        ),
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "'optimize', 'simulate', 'codegen', 'program': candidates "
            "per tiered-search chunk (with --tiered)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "enable observability and write a merged Chrome/Perfetto "
            "trace (DSE spans + simulator phase timelines) to PATH"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "enable observability and write the structured run report "
            "(counters, derived rates, latency histograms) to PATH"
        ),
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help=(
            "'serve': journal per-job flight records and periodic "
            "metric snapshots to PATH (defaults to "
            "STORE/telemetry.jsonl when --store is given); "
            "'obs top': read the dashboard from this journal"
        ),
    )
    parser.add_argument(
        "--slo-p99",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help=(
            "'serve': p99 job-latency objective behind the derived "
            "service.slo.* gauges on /metricsz"
        ),
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="'obs top': refresh interval",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="'obs top': stop after N refreshes (default: run forever)",
    )
    parser.add_argument(
        "--execute-check",
        action="store_true",
        help=(
            "'figure7': also execute every swept design point on real "
            "data (scaled one-region replicas) and verify the result "
            "bitwise against the naive reference"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help=(
            "repro.* log level (debug/info/warning/error; also "
            "settable via REPRO_LOG_LEVEL)"
        ),
    )
    args = parser.parse_args(argv)
    if (
        args.experiment in _TABLE3_TOOLS
        and args.benchmark not in TABLE3_CONFIGS
    ):
        parser.error(
            f"unknown --benchmark {args.benchmark!r} for "
            f"{args.experiment}; choose from: "
            f"{', '.join(TABLE3_CONFIGS)}"
        )

    if args.log_level is not None:
        obs.configure_logging(level=args.log_level)
    observing = args.trace_out is not None or args.metrics_out is not None
    if observing:
        obs.enable()
    log = obs.get_logger("experiments")

    if args.experiment == "store":
        print("\n".join(_cmd_store(args, parser)))
        return 0
    if args.experiment == "obs":
        return _cmd_obs(args, parser)

    session = _StoreSession(args.store)
    try:
        with obs.span(f"cli.{args.experiment}", benchmark=args.benchmark):
            outputs = _dispatch(args, session)
        outputs.extend(session.summary_lines())
    finally:
        session.close()
    if observing:
        if args.trace_out is not None:
            path = obs.export_chrome_trace(args.trace_out)
            log.info("wrote Chrome/Perfetto trace to %s", path)
            outputs.append(f"Wrote trace {path}")
        if args.metrics_out is not None:
            path = obs.export_run_report(args.metrics_out)
            log.info("wrote run report to %s", path)
            outputs.append(f"Wrote metrics report {path}")
    print("\n\n".join(outputs))
    return 0


def _dispatch(args, session: _StoreSession) -> List[str]:
    """Run the selected experiment/tool; return its output sections."""
    outputs: List[str] = []
    if args.experiment in ("table2", "all"):
        outputs.append(render_table2(run_table2()))
    if args.experiment in ("table3", "all"):
        outputs.append(
            render_table3(
                run_table3(
                    _parse_benchmarks(args.benchmarks, PAPER_SUITE),
                    evaluator=session.evaluator(),
                    executor=session.executor(),
                )
            )
        )
    if args.experiment in ("figure6", "all"):
        outputs.append(
            render_figure6(
                run_figure6(
                    evaluator=session.evaluator(),
                    executor=session.executor(),
                )
            )
        )
    if args.experiment in ("figure7", "all"):
        outputs.append(
            render_figure7(
                run_figure7(
                    _parse_benchmarks(args.benchmarks, FIGURE7_BENCHMARKS),
                    evaluator=session.evaluator(),
                    executor=session.executor(),
                    check_execution=args.execute_check,
                )
            )
        )
    if args.experiment == "optimize":
        outputs.append("\n".join(_cmd_optimize(args, session)))
    if args.experiment == "simulate":
        outputs.append("\n".join(_cmd_simulate(args, session)))
    if args.experiment == "codegen":
        outputs.append("\n".join(_cmd_codegen(args, session)))
    if args.experiment == "calibrate":
        outputs.append("\n".join(_cmd_calibrate(args)))
    if args.experiment == "program":
        outputs.append("\n".join(_cmd_program(args, session)))
    if args.experiment == "serve":
        outputs.append("\n".join(_cmd_serve(args, session)))
    if args.experiment == "submit":
        outputs.append("\n".join(_cmd_submit(args)))
    return outputs


def _cmd_obs(args, parser: argparse.ArgumentParser) -> int:
    """The ``obs`` subcommand (currently only ``top``)."""
    from repro.obs.top import run_top

    if args.action not in _OBS_ACTIONS:
        parser.error(f"obs requires an action: {', '.join(_OBS_ACTIONS)}")
    if args.telemetry is not None:
        return run_top(
            journal=args.telemetry,
            interval_s=args.interval,
            frames=args.frames,
        )
    return run_top(
        url=args.url,
        interval_s=args.interval,
        frames=args.frames,
    )


def _cmd_store(args, parser: argparse.ArgumentParser) -> List[str]:
    """The ``store`` maintenance subcommand (stats/compact/gc/invalidate)."""
    from repro.store import DesignStore

    if args.action not in _STORE_ACTIONS:
        parser.error(
            f"store requires an action: {', '.join(_STORE_ACTIONS)}"
        )
    if not args.store:
        parser.error("store maintenance requires --store DIR")
    root = pathlib.Path(args.store) / _StoreSession.RESULTS_DIR
    with DesignStore(root) as store:
        if args.action == "stats":
            return [json.dumps(store.stats_summary(), indent=1)]
        if args.action == "compact":
            outcome = store.compact()
            return [
                f"Compacted {root}: folded "
                f"{outcome['journal_folded']} journal record(s) into a "
                f"{outcome['snapshot_entries']}-entry snapshot"
            ]
        if args.action == "gc":
            dropped = store.gc(keep_context=args.context)
            return [
                f"GC {root}: dropped {dropped} unusable entr"
                f"{'y' if dropped == 1 else 'ies'}, "
                f"{len(store)} kept"
            ]
        dropped = store.invalidate(context=args.context)
        scope = args.context or "all contexts"
        return [
            f"Invalidated {dropped} entr"
            f"{'y' if dropped == 1 else 'ies'} ({scope}), "
            f"{len(store)} kept"
        ]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
