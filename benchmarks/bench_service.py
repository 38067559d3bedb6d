"""Closed-loop load benchmark for the synthesis service.

A small fleet of client threads submits overlapping jobs against an
in-process :class:`~repro.service.SynthesisService` and waits for each
result before sending the next (closed loop).  Reported per phase:
p50/p99 job latency and throughput — once against a cold design store
and once against the same store re-opened warm, which is the restart
scenario the service's persistence exists for.  The dedup/memo rates
for just this workload come from the ``metrics_delta`` fixture.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from typing import Dict, List, Tuple

from repro.service import (
    Job,
    JobRequest,
    JobState,
    ShardedSynthesisService,
    SynthesisService,
    make_server,
)
from repro.store import DesignStore

WAIT_S = 300.0
CLIENTS = 4
JOBS_PER_CLIENT = 6

#: Three tiny, disjoint workloads; the fleet cycles through them, so
#: most submissions repeat a signature some other client already sent.
REQUESTS = [
    {"benchmark": "jacobi-1d", "grid_shape": (64,), "iterations": 4},
    {"benchmark": "jacobi-2d", "grid_shape": (32, 32), "iterations": 4},
    {
        "benchmark": "jacobi-3d",
        "grid_shape": (16, 16, 16),
        "iterations": 4,
    },
]


def _percentile(sorted_values: List[float], q: float) -> float:
    index = min(
        len(sorted_values) - 1, int(q * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _closed_loop(
    service: SynthesisService,
) -> Tuple[List[float], float]:
    """Run the client fleet; return (per-job latencies, wall time)."""
    latencies: List[float] = []
    failures: List[str] = []
    lock = threading.Lock()
    start_line = threading.Barrier(CLIENTS)

    def client(index: int) -> None:
        start_line.wait()
        for turn in range(JOBS_PER_CLIENT):
            spec = REQUESTS[(index + turn) % len(REQUESTS)]
            begin = time.perf_counter()
            job, _ = service.submit(JobRequest(**spec))
            service.wait(job.id, timeout=WAIT_S)
            elapsed = time.perf_counter() - begin
            with lock:
                latencies.append(elapsed)
                if job.state is not JobState.DONE:
                    failures.append(f"{job.id}: {job.error}")

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT_S)
    wall = time.perf_counter() - wall_start
    assert not failures, failures
    return latencies, wall


def _phase_summary(latencies: List[float], wall: float) -> Dict:
    ordered = sorted(latencies)
    return {
        "jobs": len(ordered),
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "throughput": len(ordered) / wall if wall else 0.0,
    }


def test_service_closed_loop_cold_vs_warm(
    benchmark, record, metrics_delta, tmp_path
):
    store_dir = tmp_path / "results"

    # Phase 1 — cold store: every unique signature runs the model.
    metrics_delta.mark()
    store = DesignStore(store_dir)
    cold_service = SynthesisService(store=store, workers=4)
    try:
        cold_latencies, cold_wall = _closed_loop(cold_service)
        # The health view is the ops contract: capacity fields must be
        # present and sane while the service is live.
        health = cold_service.health()
        assert health["uptime_s"] > 0.0
        assert 0 <= health["workers_busy"] <= health["workers"]
        assert 0 <= health["queue_depth"] <= health["queue_capacity"]
    finally:
        cold_service.shutdown(drain=True, timeout=WAIT_S)
        store.close()
    cold = _phase_summary(cold_latencies, cold_wall)
    cold_deltas = metrics_delta.delta()
    assert cold_service.evaluator.stats.evaluated > 0

    # Phase 2 — warm store, fresh service (the restart scenario),
    # timed by pytest-benchmark as the headline number.
    metrics_delta.mark()
    store = DesignStore(store_dir)
    warm_service = SynthesisService(store=store, workers=4)
    try:
        warm_latencies, warm_wall = benchmark.pedantic(
            _closed_loop,
            args=(warm_service,),
            rounds=1,
            iterations=1,
        )
    finally:
        warm_service.shutdown(drain=True, timeout=WAIT_S)
        store.close()
    warm = _phase_summary(warm_latencies, warm_wall)

    # The warm service never ran the model: pure store/memo traffic.
    assert warm_service.evaluator.stats.evaluated == 0
    assert warm_service.evaluator.stats.store_hits > 0

    total = CLIENTS * JOBS_PER_CLIENT
    dedup_rate = metrics_delta.rate(
        "service.dedup", "service.requests"
    )
    record(
        "Service",
        f"closed loop ({CLIENTS} clients x {JOBS_PER_CLIENT} jobs, "
        f"{len(REQUESTS)} unique workloads): "
        f"cold p50 {cold['p50_ms']:.1f}ms p99 {cold['p99_ms']:.1f}ms "
        f"({cold['throughput']:.1f} jobs/s) | "
        f"warm p50 {warm['p50_ms']:.1f}ms p99 {warm['p99_ms']:.1f}ms "
        f"({warm['throughput']:.1f} jobs/s)",
    )
    record(
        "Service",
        f"warm phase: {total} jobs, 0 model evaluations "
        f"({warm_service.evaluator.stats.store_hits} store hits), "
        f"dedup rate {dedup_rate:.0%}, cold-phase evaluations "
        f"{cold_deltas.get('dse.evaluated', 0):g}",
    )
    assert cold["jobs"] == warm["jobs"] == total


#: The sharded-scaling workload: one joint multi-stencil DSE per job
#: (~1-2s of pure-Python model evaluation), every signature unique so
#: dedup/memo cannot shortcut any of it — a genuinely CPU-bound fleet.
SHARD_JOBS = [
    {
        "program": "blur-sobel-threshold",
        "grid_shape": (128, 128),
        "iterations": 2 + turn,
    }
    for turn in range(8)
]


def _run_fleet(service, specs) -> float:
    """Submit every spec, wait for all; return the wall time."""
    begin = time.perf_counter()
    jobs = [service.submit(JobRequest(**spec))[0] for spec in specs]
    for job in jobs:
        service.wait(job.id, timeout=WAIT_S)
    wall = time.perf_counter() - begin
    failures = [
        f"{job.id}: {job.error}"
        for job in jobs
        if job.state is not JobState.DONE
    ]
    assert not failures, failures
    return wall


def test_sharded_throughput_scaling(benchmark, record, tmp_path):
    """4 worker processes vs 1 on a CPU-bound, dedup-proof workload.

    The single-replica phase is the baseline: same dispatcher, same
    RPC overhead, one engine.  On a >=4-core machine the 4-replica
    phase must clear 2x throughput; on smaller machines the measured
    ratio is recorded but not asserted (there is nothing to scale
    onto).
    """
    walls: Dict[int, float] = {}
    for processes in (1, 4):
        store_root = tmp_path / f"shard-{processes}"
        service = ShardedSynthesisService(
            store_root=store_root, worker_processes=processes
        )
        try:
            if processes == 4:
                walls[processes] = benchmark.pedantic(
                    _run_fleet,
                    args=(service, SHARD_JOBS),
                    rounds=1,
                    iterations=1,
                )
            else:
                walls[processes] = _run_fleet(service, SHARD_JOBS)
            # Every replica journal is separate: N writers, no locks.
            health = service.health()
            assert len(health["replicas"]) == processes
            assert all(r["alive"] for r in health["replicas"])
        finally:
            service.shutdown(drain=True, timeout=WAIT_S)
    speedup = walls[1] / walls[4] if walls[4] else 0.0
    record(
        "Service",
        f"sharded scaling ({len(SHARD_JOBS)} CPU-bound joint-DSE "
        f"jobs): 1 process {walls[1]:.2f}s, 4 processes "
        f"{walls[4]:.2f}s -> {speedup:.2f}x "
        f"({os.cpu_count()} cores visible)",
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x with 4 worker processes, got {speedup:.2f}x"
        )


POLL_CLIENTS = 256
POLLS_EACH = 20


def test_front_door_polling_fanin(benchmark, record):
    """256 concurrent pollers against the HTTP front door.

    Every client holds one keep-alive connection and performs a fixed
    number of status polls.  The CPU-bound jobs they poll are submitted
    only once every poller is at the start line, so the workers run
    them under full polling load; the run passes only if every poll
    response parses AND the jobs still finish — fan-in served, workers
    never starved.
    """
    service = SynthesisService(workers=2)
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        jobs: List[Job] = []
        submitted = threading.Event()
        polls: List[int] = []
        errors: List[str] = []
        lock = threading.Lock()
        start_line = threading.Barrier(POLL_CLIENTS + 1)

        def poller(index: int) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            count = 0
            start_line.wait()
            try:
                if not submitted.wait(WAIT_S):
                    raise AssertionError("jobs were never submitted")
                for _ in range(POLLS_EACH):
                    conn.request(
                        "GET", f"/jobs/{jobs[index % len(jobs)].id}"
                    )
                    reply = conn.getresponse()
                    payload = json.loads(reply.read())
                    count += 1
                    if reply.status != 200 or "state" not in payload:
                        raise AssertionError(
                            f"bad poll reply: {reply.status} {payload}"
                        )
            except Exception as exc:  # noqa: BLE001 - collected below
                with lock:
                    errors.append(f"poller {index}: {exc}")
            finally:
                conn.close()
                with lock:
                    polls.append(count)

        threads = [
            threading.Thread(target=poller, args=(i,), daemon=True)
            for i in range(POLL_CLIENTS)
        ]
        for thread in threads:
            thread.start()

        def jobs_under_load() -> float:
            start_line.wait()
            begin = time.perf_counter()
            # Two joint-DSE jobs (~seconds each): real work for the
            # pollers to overlap with.
            jobs.extend(
                service.submit(JobRequest(**spec))[0]
                for spec in SHARD_JOBS[:2]
            )
            submitted.set()
            for job in jobs:
                service.wait(job.id, timeout=WAIT_S)
            return time.perf_counter() - begin

        try:
            drain_wall = benchmark.pedantic(
                jobs_under_load, rounds=1, iterations=1
            )
        finally:
            submitted.set()  # release the pollers if submission failed
            for thread in threads:
                thread.join(120)
        assert not errors, errors[:5]
        assert all(job.state is JobState.DONE for job in jobs)
        assert len(polls) == POLL_CLIENTS
        # Starvation check cuts both ways: every client completed its
        # polls, and the workers finished the jobs while they did.
        assert min(polls) == POLLS_EACH
        record(
            "Service",
            f"HTTP front door: {POLL_CLIENTS} concurrent pollers x "
            f"{POLLS_EACH} polls ({sum(polls)} answered) while "
            f"{len(jobs)} jobs finished in {drain_wall:.2f}s",
        )
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(drain=True, timeout=WAIT_S)


def test_service_dedup_saves_evaluations(
    benchmark, record, metrics_delta
):
    """Same service, repeat submissions: evaluations stay flat."""
    service = SynthesisService(workers=2)
    request = REQUESTS[1]

    def repeat_submissions(count: int = 5) -> None:
        for _ in range(count):
            job, _ = service.submit(JobRequest(**request))
            service.wait(job.id, timeout=WAIT_S)
            assert job.state is JobState.DONE

    try:
        first, _ = service.submit(JobRequest(**request))
        service.wait(first.id, timeout=WAIT_S)
        # Every finished job carries its resource flight record.
        assert first.flight is not None
        assert first.flight["run_s"] > 0.0
        assert first.flight["queue_wait_s"] >= 0.0
        evaluated_once = service.evaluator.stats.evaluated
        metrics_delta.mark()
        benchmark.pedantic(repeat_submissions, rounds=1, iterations=1)
        assert service.evaluator.stats.evaluated == evaluated_once
        deltas = metrics_delta.delta()
        record(
            "Service",
            f"5 repeat submissions: +{deltas.get('dse.evaluated', 0):g} "
            f"model evaluations, "
            f"+{deltas.get('dse.cache_hits', 0):g} memo hits, "
            f"completed {service.stats.completed} jobs",
        )
    finally:
        service.shutdown(drain=True, timeout=WAIT_S)
