"""The four benchmark workloads.

Every workload is a closed loop over *passes*.  A pass is a fixed mix
of request classes whose order and parameters are drawn from the
seed; the loop runs whole passes, so each run sees the same mix and
its medians and geometric means stay steady from seed to seed.  The
harness times :meth:`Workload.execute` only; :meth:`Workload.check`
applies the correctness gates afterwards, outside the timed region.

Request parameters come from ``random.Random("<workload>:<seed>")``,
so the same seed gives the same requests in the same order.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import gates

#: Passes a plan is generated for; more than a 60 s run completes.
MAX_PASSES = 100


@dataclass(frozen=True)
class Request:
    """One request of a plan.

    Attributes:
        rid: identifier unique within the run (``p<pass>-<index>``).
        kind: traffic class: ``space`` (a DSE request), ``fresh``,
            ``source``, ``warm``, ``repeat`` or ``coalesced``.
        params: what the request sends to the system.
        together: run by every client at once (the serve workload's
            coalesced pairs).
    """

    rid: str
    kind: str
    params: Dict[str, Any]
    together: bool = False


@dataclass
class Observation:
    """What one completed request produced, beyond its latency."""

    problems: List[str] = field(default_factory=list)
    #: Predicted cycles of the chosen design per cell update.
    cycles_per_update: Optional[float] = None
    #: Simulated cycles of the chosen design per cell update.
    sim_cycles_per_update: Optional[float] = None
    #: Candidates the request's design space held.
    space: Optional[int] = None
    #: Seconds of the exhaustive and of the tiered search (DSE only).
    exhaustive_s: Optional[float] = None
    tiered_s: Optional[float] = None


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _cells(shape) -> int:
    cells = 1
    for extent in shape:
        cells *= extent
    return cells


def _best_key(design, cycles) -> gates.Best:
    return (design.signature(), cycles)


class Workload:
    """Base class: a seeded plan plus setup, execute and check."""

    name = ""
    clients = 1

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.seed = seed

    def passes(self) -> Iterator[List[Request]]:
        """The run's plan, one pass at a time (deterministic)."""
        rng = _rng(self.name, self.seed)
        for index in range(MAX_PASSES):
            yield self.make_pass(rng, index)

    def warmup_pass(self) -> List[List[Request]]:
        """One pass from a separate plan, to warm a fresh process.

        It is numbered as the plan's last pass, which no run of up to
        60 s reaches.
        """
        rng = _rng(self.name + ":warmup", self.seed)
        return [self.make_pass(rng, MAX_PASSES - 1)]

    def make_pass(self, rng: random.Random, index: int) -> List[Request]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build everything the timed loop needs."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built (idempotent)."""

    def start_pass(self, index: int) -> None:
        """Untimed hook run before each pass."""

    def execute(self, request: Request) -> Any:
        raise NotImplementedError

    def check(self, request: Request, output: Any) -> Observation:
        raise NotImplementedError

    def extra_rss_mb(self) -> float:
        """Peak resident memory of processes the workload started."""
        return 0.0


# -- stencil-dse -------------------------------------------------------------

#: ``(stencil, grids, iterations, unroll, max_kernels, max_fused_depth)``.
#: A template's grid and iteration choices all give the same candidate
#: count: iterations are powers of two at or above the depth bound, so
#: their divisors add no depth the ladder lacks.  The spaces hold 675
#: to 2592 candidates: two small 1-D ones, three 1458-candidate 2-D
#: ones and two large ones.  The three middle templates cost about the
#: same, so ``latency_s.p50`` is the median of their samples rather than
#: of one template's.
DSE_TEMPLATES = (
    ("jacobi-1d", ((8192,), (16384,)), (64, 128, 256), 4, 16, 64),
    ("heat-1d", ((8192,), (16384,)), (64, 128, 256), 1, 16, 64),
    ("hotspot-2d", ((256, 256), (512, 512)), (32, 64, 128), 1, 4, 16),
    ("seidel-2d", ((256, 256), (512, 512)), (32, 64, 128), 1, 4, 16),
    ("fdtd-2d", ((256, 256),), (32, 64, 128), 4, 4, 16),
    ("jacobi-3d", ((32, 32, 32), (64, 64, 64)), (16, 32, 64), 1, 2, 8),
    ("jacobi-2d", ((512, 512),), (32, 64, 128), 2, 8, 16),
)
#: A tiny space searched in setup, so lazy first-call costs are paid
#: before the timed window.
DSE_WARMUP = {
    "stencil": "jacobi-1d", "grid": (1024,), "iterations": 16,
    "unroll": 1, "max_kernels": 4, "max_fused_depth": 8,
}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class StencilDseWorkload(Workload):
    """Single-stencil full-space searches, exhaustive then tiered.

    One request is one space searched both ways, so the gate can
    compare the two answers and each request costs the same from run
    to run.
    """

    name = "stencil-dse"

    def make_pass(self, rng, index):
        requests = []
        for position, template in enumerate(
            rng.sample(DSE_TEMPLATES, len(DSE_TEMPLATES))
        ):
            stencil, grids, iterations, unroll, kernels, depth = template
            params = {
                "stencil": stencil,
                "grid": rng.choice(grids),
                "iterations": rng.choice(iterations),
                "unroll": unroll,
                "max_kernels": kernels,
                "max_fused_depth": depth,
            }
            requests.append(Request(f"p{index}-{position}", "space", params))
        return requests

    def setup(self):
        self.execute(Request("warmup", "space", DSE_WARMUP))

    def execute(self, request):
        import repro
        from repro.dse import SearchDriver

        p = request.params
        spec = repro.get_benchmark(
            p["stencil"], grid=p["grid"], iterations=p["iterations"]
        )
        knobs = dict(
            unroll=p["unroll"],
            max_kernels=p["max_kernels"],
            max_fused_depth=p["max_fused_depth"],
        )
        exhaustive = _timed(
            repro.optimize_full,
            spec,
            evaluator=repro.CandidateEvaluator(),
            **knobs,
        )
        driver = SearchDriver(
            evaluator=repro.CandidateEvaluator(), screen="latency"
        )
        tiered = _timed(repro.optimize_full, spec, driver=driver, **knobs)
        return spec, exhaustive, tiered

    def check(self, request, output):
        spec, (exhaustive, exhaustive_s), (tiered, tiered_s) = output

        def bests(results):
            return {
                label: _best_key(r.best.design, r.best.predicted_cycles)
                for label, r in results.items()
            }

        best = min(r.best.predicted_cycles for r in exhaustive.values())
        return Observation(
            problems=gates.check_same_best(bests(exhaustive), bests(tiered)),
            cycles_per_update=best / (_cells(spec.grid_shape) * spec.iterations),
            space=sum(r.evaluated for r in exhaustive.values()),
            exhaustive_s=exhaustive_s,
            tiered_s=tiered_s,
        )


# -- program-dse -------------------------------------------------------------

#: ``(program, grids, per-stage iterations, schedule)``.  The composed
#: space size depends on the iteration count only: fdtd-two-field has
#: 36, 144 and 576 candidates at 1, 2 and 4+ iterations;
#: blur-sobel-threshold has 864 at 1 iteration and 3456 at 2.  Grids are
#: fixed per template because the best design's cycles per cell update
#: change by up to 3x between grids.  The three 576-candidate templates
#: in the middle cost about the same, so ``latency_s.p50`` is the
#: median of their samples rather than of one template's.
PROGRAM_TEMPLATES = (
    ("fdtd-two-field", ((128, 128),), (1,), "coresident"),
    ("fdtd-two-field", ((128, 128),), (2,), "timeshared"),
    ("fdtd-two-field", ((128, 128),), (4, 8), "coresident"),
    ("fdtd-two-field", ((256, 256),), (4, 8), "coresident"),
    ("fdtd-two-field", ((256, 256),), (4, 8), "timeshared"),
    ("blur-sobel-threshold", ((256, 256),), (1,), "timeshared"),
    ("blur-sobel-threshold", ((256, 256),), (2,), "coresident"),
)
#: The 144-candidate program searched in setup to pay first-call costs.
PROGRAM_WARMUP = {
    "program": "fdtd-two-field", "grid": (32, 32), "iterations": 2,
    "schedule": "coresident",
}


class ProgramDseWorkload(Workload):
    """Multi-stencil program searches against a fresh design store.

    One request is one program searched exhaustively and then tiered,
    each search with its own fresh store and evaluator.
    """

    name = "program-dse"

    def make_pass(self, rng, index):
        requests = []
        for position, template in enumerate(
            rng.sample(PROGRAM_TEMPLATES, len(PROGRAM_TEMPLATES))
        ):
            program, grids, iterations, schedule = template
            params = {
                "program": program,
                "grid": rng.choice(grids),
                "iterations": rng.choice(iterations),
                "schedule": schedule,
            }
            requests.append(Request(f"p{index}-{position}", "space", params))
        return requests

    def setup(self):
        self.execute(Request("warmup", "space", PROGRAM_WARMUP))

    def _search(self, program, schedule, tiered):
        import repro
        from repro.dse import SearchDriver
        from repro.program import ProgramEvaluator
        from repro.store import DesignStore

        # No fsync: on a shared disk its latency swings from 0.2 ms to
        # 4 ms within minutes, which alone moves a request by 20%.  The
        # store's own work (keys, JSON, journal writes) is still timed.
        with DesignStore(self.ctx.fresh_dir("store"), sync="never") as store:
            engine = ProgramEvaluator(
                stage_engine=repro.CandidateEvaluator(store=store)
            )
            if not tiered:
                return repro.synthesize(
                    program=program, schedule=schedule, evaluator=engine
                )
            return repro.synthesize(
                program=program,
                schedule=schedule,
                driver=SearchDriver(evaluator=engine, screen="latency"),
            )

    def execute(self, request):
        from repro.program import get_program

        p = request.params
        program = get_program(
            p["program"], grid=p["grid"], iterations=p["iterations"]
        )
        exhaustive = _timed(self._search, program, p["schedule"], False)
        tiered = _timed(self._search, program, p["schedule"], True)
        return program, exhaustive, tiered

    def check(self, request, output):
        program, (exhaustive, exhaustive_s), (tiered, tiered_s) = output
        problems = gates.check_same_best(
            {"program": _best_key(exhaustive.design, exhaustive.predicted_cycles)},
            {"program": _best_key(tiered.design, tiered.predicted_cycles)},
        )
        if exhaustive.pipeline is None or tiered.pipeline is None:
            problems.append("no pipeline was generated")
        updates = sum(
            _cells(stage.spec.grid_shape) * stage.spec.iterations
            for stage in program.stages
        )
        return Observation(
            problems=problems,
            cycles_per_update=exhaustive.predicted_cycles / updates,
            space=exhaustive.dse.evaluated,
            exhaustive_s=exhaustive_s,
            tiered_s=tiered_s,
        )


# -- verify ------------------------------------------------------------------

#: Paper-suite kernel -> ``(grid, iteration choices)``: 512^2 and 64^3
#: grids, where a JIT compile and a functional run cost the same order
#: of time.  The choices lie within 25% of each other, so the reference
#: outputs computed in setup cost about the same for every seed.
VERIFY_SIZES = {
    "jacobi-1d": ((131072,), (192, 224, 256)),
    "jacobi-2d": ((512, 512), (96, 112, 128)),
    "jacobi-3d": ((64, 64, 64), (24, 28, 32)),
    "hotspot-2d": ((512, 512), (96, 112, 128)),
    "hotspot-3d": ((64, 64, 64), (24, 28, 32)),
    "fdtd-2d": ((256, 256), (96, 112, 128)),
    "fdtd-3d": ((64, 64, 64), (24, 28, 32)),
}

#: Requests per pass that repeat a design compiled earlier in the pass.
VERIFY_REPEATS = 3


class VerifyWorkload(Workload):
    """OpenCL source -> synthesis -> JIT functional run -> cycle sim.

    The seed draws each kernel's iteration count once per run, and per
    pass the kernel order and which three earlier designs repeat.  The
    JIT cache is emptied before every pass, so every pass holds seven
    compiles and three cache hits (a 30% repeat share).
    """

    name = "verify"

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        rng = _rng(self.name + ":sizes", seed)
        self.cases = {
            kernel: (grid, rng.choice(iterations))
            for kernel, (grid, iterations) in sorted(VERIFY_SIZES.items())
        }

    def make_pass(self, rng, index):
        order = rng.sample(sorted(self.cases), len(self.cases))
        requests = [
            Request(f"p{index}-{i}", "fresh", {"kernel": kernel})
            for i, kernel in enumerate(order)
        ]
        # Each repeat goes somewhere after its original.
        for r in range(VERIFY_REPEATS):
            kernel = order[rng.randrange(len(order) - 1)]
            original = next(
                i for i, request in enumerate(requests)
                if request.kind == "fresh" and request.params["kernel"] == kernel
            )
            slot = rng.randrange(original + 1, len(requests) + 1)
            requests.insert(
                slot, Request(f"p{index}-r{r}", "repeat", {"kernel": kernel})
            )
        return requests

    def _spec(self, kernel):
        from repro import StencilSpec, extract_features
        from repro.stencil.sources import get_kernel_source

        source = get_kernel_source(kernel)
        grid, iterations = self.cases[kernel]
        features = extract_features(
            source.source,
            name=kernel,
            field_map=source.field_map,
            aux=source.aux,
        )
        return StencilSpec(
            name=kernel,
            pattern=features.pattern,
            grid_shape=grid,
            iterations=iterations,
            dtype=features.dtype,
        )

    def setup(self):
        from repro import run_reference
        from repro.sim import resolve_backend

        self.references = {
            kernel: run_reference(self._spec(kernel)) for kernel in self.cases
        }
        self.default_backend = resolve_backend()
        self._run("jacobi-2d", (64, 64), 4)  # pays first-call costs

    def start_pass(self, index):
        from repro.sim import jit

        os.environ[jit.CACHE_ENV] = self.ctx.fresh_dir("jit")
        jit.clear_memo()

    def execute(self, request):
        kernel = request.params["kernel"]
        return self._run(kernel, *self.cases[kernel])

    def _run(self, kernel, grid, iterations):
        import repro
        from repro.stencil.sources import get_kernel_source

        source = get_kernel_source(kernel)
        synth = repro.synthesize(
            source.source,
            name=kernel,
            field_map=source.field_map,
            aux=source.aux,
            grid_shape=grid,
            iterations=iterations,
        )
        executor = repro.FunctionalExecutor(synth.design)
        outputs = executor.run()
        sim = repro.simulate(synth.design)
        return synth, executor.active_backend, outputs, sim

    def check(self, request, output):
        synth, backend, outputs, sim = output
        reference = self.references[request.params["kernel"]]
        obs = Observation()
        obs.problems = gates.check_bitwise_equal(outputs, reference)
        obs.problems += gates.check_backend(backend, self.default_backend)
        if synth.program is None:
            obs.problems.append("no program was generated")
        updates = _cells(synth.spec.grid_shape) * synth.spec.iterations
        obs.cycles_per_update = synth.predicted_cycles / updates
        obs.sim_cycles_per_update = sim.total_cycles / updates
        return obs


# -- serve -------------------------------------------------------------------

#: Grid choices of small service jobs, by dimensionality.
_SERVE_GRIDS = {
    1: tuple((n,) for n in range(2048, 16385, 256)),
    2: tuple(
        (x, y) for x in range(64, 161, 16) for y in range(64, 161, 16)
    ),
    3: tuple(
        (x, y, z) for x in (16, 24, 32, 40) for y in (16, 24, 32, 40)
        for z in (16, 24, 32, 40)
    ),
}
#: Small library jobs: benchmark -> (dimensions, iteration range).  A
#: job scores at most ``iterations`` fusion depths, so even a job that
#: queues behind the other client's usually finishes before the
#: client's first re-poll at 50 ms.
SERVE_LIBRARY = {
    "jacobi-1d": (1, (4, 8)),
    "heat-1d": (1, (4, 8)),
    "jacobi-2d": (2, (4, 8)),
    "hotspot-2d": (2, (4, 8)),
    "seidel-2d": (2, (4, 8)),
    "jacobi-3d": (3, (4, 6)),
}
#: OpenCL-source jobs: kernel -> (dimensions, iteration range).
SERVE_SOURCES = {
    "jacobi-1d": (1, (4, 8)),
    "jacobi-2d": (2, (4, 8)),
    "hotspot-2d": (2, (4, 8)),
    "fdtd-2d": (2, (4, 8)),
}
#: Draws before giving up on finding a signature not used yet.
MAX_DRAWS = 10000
#: Items per pass by class; the coalesced item runs on both clients.
SERVE_MIX = (
    ("fresh", 10), ("source", 4), ("warm", 3), ("repeat", 1), ("coalesced", 1),
)
#: A job outside every plan (plans use 1-D grids of 2048 cells and up).
SERVE_WARMUP = {"benchmark": "jacobi-1d", "grid_shape": [1024], "iterations": 3}
#: Store-warm signatures prepared in setup: 3 per pass for 33 passes,
#: more than a 20 s window runs.  A longer run re-uses them, and those
#: jobs are counted as repeats.
SERVE_WARM_POOL = 100
#: How long the harness waits for the server to come up or drain.
SERVER_START_S = 60.0
SERVER_STOP_S = 20.0
#: How long teardown waits for killed replicas to leave the group.
GROUP_EXIT_S = 5.0


def job_signature(params: Dict[str, Any]) -> str:
    """Canonical text of a job's content fields."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def payload_bytes(result: Dict[str, Any]) -> bytes:
    """Canonical bytes of a decoded result payload."""
    return json.dumps(
        result, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class ServeWorkload(Workload):
    """Two closed-loop clients against ``repro serve`` in a subprocess."""

    name = "serve"
    clients = 2

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self._used = set()
        self._drawn = {True: 0, False: 0}
        rng = _rng(self.name + ":warm", seed)
        self.warm_pool = [
            self._draw_job(rng, library=True) for _ in range(SERVE_WARM_POOL)
        ]
        self.server: Optional[subprocess.Popen] = None
        self.url = ""

    def passes(self):
        self._used = {job_signature(p) for p in self.warm_pool}
        self._drawn = {True: 0, False: 0}
        return super().passes()

    def _draw_job(self, rng, library: bool) -> Dict[str, Any]:
        """A job with a signature not used yet in this plan.

        Benchmarks (or kernels) and, for library jobs, unroll 1 and 2
        take turns, so every pass holds about the same mix of jobs;
        grid and iterations are drawn at random.
        """
        from repro.stencil.sources import get_kernel_source

        table = SERVE_LIBRARY if library else SERVE_SOURCES
        names = sorted(table)
        turn = self._drawn[library]
        self._drawn[library] += 1
        name = names[turn % len(names)]
        ndim, (low, high) = table[name]
        for _ in range(MAX_DRAWS):
            params: Dict[str, Any] = {
                "grid_shape": list(rng.choice(_SERVE_GRIDS[ndim])),
                "iterations": rng.randint(low, high),
            }
            if library:
                params["benchmark"] = name
                params["unroll"] = 1 + (turn // len(names)) % 2
            else:
                source = get_kernel_source(name)
                params.update(
                    source=source.source,
                    name=name,
                    field_map=dict(source.field_map),
                    aux=list(source.aux),
                )
            signature = job_signature(params)
            if signature not in self._used:
                self._used.add(signature)
                return params
        raise RuntimeError("no unused job signature left to draw")

    def make_pass(self, rng, index):
        items = []
        for kind, count in SERVE_MIX:
            items.extend([kind] * count)
        rng.shuffle(items)
        # A repeat re-sends a fresh job from at least six items earlier,
        # which has finished by then: open with a fresh job and keep the
        # repeat at position 7 or later.
        first_fresh = items.index("fresh")
        items[0], items[first_fresh] = items[first_fresh], items[0]
        if items.index("repeat") < 7:
            items.remove("repeat")
            items.insert(rng.randrange(7, len(items) + 1), "repeat")
        requests: List[Request] = []
        warm_index = dict(SERVE_MIX)["warm"] * index
        for i, kind in enumerate(items):
            rid = f"p{index}-{i}"
            if kind == "warm":
                params = self.warm_pool[warm_index % SERVE_WARM_POOL]
                if warm_index >= SERVE_WARM_POOL:
                    kind = "repeat"
                warm_index += 1
            elif kind == "repeat":
                earlier = [
                    r for r in requests[: len(requests) - 5]
                    if r.kind == "fresh"
                ]
                params = rng.choice(earlier).params
            else:
                params = self._draw_job(rng, library=kind != "source")
            requests.append(
                Request(rid, kind, params, together=kind == "coalesced")
            )
        return requests

    # -- server lifecycle --------------------------------------------------

    def setup(self):
        import repro
        from repro.store import DesignStore

        self._payloads: Dict[str, bytes] = {}
        self.server_peak_kb = 0
        store_dir = self.ctx.fresh_dir("serve-store")
        # ``serve --store DIR`` keeps its design store in DIR/results
        # (docs/STORE.md); pre-warm exactly that store.
        with DesignStore(os.path.join(store_dir, "results")) as store:
            engine = repro.CandidateEvaluator(store=store)
            for params in self.warm_pool:
                repro.synthesize(
                    benchmark=params["benchmark"],
                    grid_shape=params["grid_shape"],
                    iterations=params["iterations"],
                    unroll=params["unroll"],
                    evaluator=engine,
                    emit=False,
                )
        self._start_server(store_dir)

    def _start_server(self, store_dir: str) -> None:
        from repro.service import ServiceClient

        env = dict(self.ctx.env, PYTHONPATH=str(self.ctx.src))
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--worker-processes", "1", "--store", store_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=self.ctx.run_dir,
            text=True,
            start_new_session=True,
        )
        deadline = time.monotonic() + SERVER_START_S
        line = self.server.stdout.readline()
        match = re.search(r"listening on (http://[\w.]+:\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)
        # Drain the server's output so a chatty server never blocks on
        # a full pipe.
        self.server_log: List[str] = [line]
        threading.Thread(
            target=self.server_log.extend,
            args=(self.server.stdout,),
            daemon=True,
        ).start()
        client = ServiceClient(self.url, timeout_s=10.0)
        while True:
            health = client.health()
            if health.get("status") == "ok" and health.get("replicas"):
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"server never became healthy: {health}")
            time.sleep(0.05)
        # One job no plan contains pays the replica's first-call costs.
        client.synthesize(**SERVE_WARMUP)

    def teardown(self):
        server, self.server = self.server, None
        if server is None:
            return
        self.server_peak_kb = max(self.server_peak_kb, _tree_peak_kb(server.pid))
        try:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=SERVER_STOP_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            kill_group(server)

    def emergency_stop(self):
        if self.server is not None:
            kill_group(self.server)

    def extra_rss_mb(self):
        if self.server is not None:
            self.server_peak_kb = max(
                self.server_peak_kb, _tree_peak_kb(self.server.pid)
            )
        return self.server_peak_kb / 1024.0

    # -- requests ------------------------------------------------------------

    def execute(self, request):
        from repro.service import ServiceClient

        return ServiceClient(self.url).synthesize(
            max_submit_attempts=1, timeout_s=60.0, **request.params
        )

    def check(self, request, output):
        obs = Observation()
        state = "done" if isinstance(output, dict) and "design" in output else "?"
        obs.problems = gates.check_job_done(state)
        obs.problems += gates.check_repeat_payload(
            self._payloads, job_signature(request.params), payload_bytes(output)
        )
        p = request.params
        obs.cycles_per_update = output["predicted_cycles"] / (
            _cells(p["grid_shape"]) * p["iterations"]
        )
        return obs

    def flights(self, samples) -> List[Dict[str, Any]]:
        """Server-side flight records of the traced jobs."""
        from repro.service import ServiceClient

        client = ServiceClient(self.url)
        records = []
        for sample in samples:
            job_id = sample.attrs.get("job_id")
            flight = client.flight(job_id) if job_id else None
            if flight is not None:
                records.append(dict(
                    flight,
                    client_s=sample.latency_s,
                    coalesced_submit=sample.attrs.get("coalesced", False),
                ))
        return records

    def server_metrics(self) -> Dict[str, Any]:
        from repro.service import ServiceClient

        return ServiceClient(self.url).metrics().get("service", {})


def _tree_peak_kb(pid: int) -> int:
    """Sum of peak RSS (VmHWM) over a process and its descendants."""
    total = 0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        children = set()
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(
                f"/proc/{pid}/task/{task}/children", encoding="ascii"
            ) as handle:
                children.update(int(c) for c in handle.read().split())
    except (OSError, ValueError):
        return total
    return total + sum(_tree_peak_kb(child) for child in children)


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL the process group a server was started in.

    Waits for the leader and then until no member of the group is
    left, so no replica outlives the run.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        process.wait(timeout=SERVER_STOP_S)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + GROUP_EXIT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


WORKLOADS = {
    cls.name: cls
    for cls in (
        StencilDseWorkload, ProgramDseWorkload, VerifyWorkload, ServeWorkload
    )
}
