"""Benchmarks of the design-space exploration itself.

Times the optimizer's search modes and asserts the headline DSE
outcome: the model-chosen heterogeneous design beats the paper-reported
baseline when both are *measured* on the simulator.  The engine
benchmark additionally times a cold :class:`CandidateEvaluator`
against the same engine warm and checks every best design against the
scalar model and estimator.

Also usable as a standalone script for the batch-engine comparison::

    python benchmarks/bench_dse.py --batch-compare \
        --min-speedup 3 --json-out bench-batch.json

which scores the Table 3 jacobi-2d space through the scalar model +
estimator and through the vectorized batch engines, verifies bitwise
parity, and fails unless batch scoring is at least ``--min-speedup``
times faster.

The tiered-search smoke compares exhaustive exact scoring against the
screen-then-refine :class:`~repro.dse.search.SearchDriver` on an
inflated (``--inflate`` x Table 3) jacobi-2d space::

    python benchmarks/bench_dse.py --tiered \
        --inflate 100 --min-speedup 5 --json-out bench-tiered.json

asserting the tiered search (Pareto screen) returns the
bitwise-identical best design *and* frontier with at least
``--min-speedup`` times fewer Tier-1 exact evaluations and O(chunk)
candidate residency.  ``--no-exhaustive`` (with ``--store DIR``)
runs only the tiered pass on a store-backed engine — the mode CI's
kill/resume smoke drives: a re-run on the same store answers the
candidates a killed run scored as store hits.
"""

import argparse
import json
import sys
import time

from repro import obs
from repro.dse import (
    CandidateEvaluator,
    ResourceBudget,
    SearchDriver,
    optimize_baseline,
    optimize_full,
    optimize_heterogeneous,
)
from repro.dse.space import DesignSpace
from repro.experiments.configs import TABLE3_CONFIGS
from repro.fpga.batch import estimate_batch
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.flexcl import FlexCLEstimator
from repro.model.batch import predict_batch
from repro.fpga.resources import VIRTEX7_690T
from repro.model.predictor import PerformanceModel
from repro.sim import simulate
from repro.stencil import jacobi_2d
from repro.store import DesignStore
from repro.tiling import make_baseline_design, make_pipe_shared_design


def test_heterogeneous_search(benchmark, record):
    config = TABLE3_CONFIGS["jacobi-2d"]
    baseline = config.baseline()
    result = benchmark.pedantic(
        optimize_heterogeneous,
        args=(baseline.spec, baseline),
        rounds=1,
        iterations=1,
    )
    best = result.best.design
    speedup = (
        simulate(baseline).total_cycles / simulate(best).total_cycles
    )
    assert speedup > 1.0
    record(
        "DSE",
        f"jacobi-2d hetero search: {result.evaluated} candidates, "
        f"{result.feasible} feasible, best h={best.fused_depth}, "
        f"measured speedup {speedup:.2f}x",
    )


def test_baseline_search(benchmark, record):
    spec = jacobi_2d()
    result = benchmark.pedantic(
        optimize_baseline,
        args=(spec, (4, 4)),
        kwargs={"unroll": 4, "max_fused_depth": 48},
        rounds=1,
        iterations=1,
    )
    assert result.feasible > 0
    record(
        "DSE",
        f"jacobi-2d baseline search: {result.evaluated} candidates, "
        f"best {result.best.design.describe()}",
    )


def test_engine_speedup(benchmark, record, metrics_delta):
    """Cold vs warm ``optimize_full`` on one engine — parity and speedup."""
    spec = jacobi_2d(grid=(256, 256), iterations=32)
    kwargs = dict(unroll=2, max_kernels=8, max_fused_depth=16)

    engine = CandidateEvaluator()
    start = time.perf_counter()
    cold = optimize_full(spec, evaluator=engine, **kwargs)
    t_cold = time.perf_counter() - start

    metrics_delta.mark()  # engine rates cover the warm pass only
    warm = benchmark.pedantic(
        optimize_full,
        args=(spec,),
        kwargs=dict(evaluator=engine, **kwargs),
        rounds=1,
        iterations=1,
    )
    t_warm = benchmark.stats.stats.mean

    # Every best is checked against the scalar Eq. 1-11 oracle, as
    # batch_compare does for the whole space.
    model = PerformanceModel(estimator=engine.model.estimator)
    estimator = ResourceEstimator(engine.estimator.flexcl)
    for kind, cold_result in cold.items():
        best = cold_result.best
        assert model.predict(best.design).total == best.predicted_cycles
        assert estimator.estimate(best.design) == best.resources
        assert (
            warm[kind].best.design.signature() == best.design.signature()
        )
        assert warm[kind].best.predicted_cycles == best.predicted_cycles
    assert t_cold / t_warm > 2.0
    cache_hit_rate = metrics_delta.rate("dse.cache_hits", "dse.candidates")
    if obs.enabled():
        # The warm pass answers every candidate from the signature
        # memo, so the registry must see a real hit rate.
        assert cache_hit_rate > 0.25
    benchmark.extra_info["cache_hit_rate"] = round(cache_hit_rate, 4)
    record(
        "DSE",
        f"jacobi-2d full search engine: cold {t_cold:.2f}s, "
        f"warm memo {t_warm:.2f}s ({t_cold / t_warm:.2f}x); "
        f"cache hit-rate {cache_hit_rate:.1%} (metrics registry)",
    )


def table3_candidates():
    """The Table 3 jacobi-2d search space, fully enumerated.

    Baseline and pipe-shared designs over the default power-of-two
    tile space at the paper's parallelism/unroll/depth bounds — the
    same points ``optimize_full`` scores.
    """
    config = TABLE3_CONFIGS["jacobi-2d"]
    spec = config.spec()
    space = DesignSpace.default(
        spec,
        config.counts,
        unroll=config.unroll,
        max_fused_depth=config.fused_depth,
    )
    designs = []
    for tile in space.tile_shapes():
        for depth in space.depth_candidates():
            designs.append(
                make_baseline_design(
                    spec, tile, config.counts, depth, config.unroll
                )
            )
            designs.append(
                make_pipe_shared_design(
                    spec, tile, config.counts, depth, config.unroll
                )
            )
    return designs


def batch_compare(min_speedup):
    """Score the Table 3 space scalar vs batch; verify parity + speedup.

    Returns a JSON-serializable result dict; raises ``AssertionError``
    on any parity mismatch or a speedup below ``min_speedup``.
    """
    designs = table3_candidates()
    flexcl = FlexCLEstimator()
    model = PerformanceModel(estimator=flexcl)
    estimator = ResourceEstimator(flexcl)
    # Warm the shared FlexCL report cache so both paths pay it equally.
    model.predict(designs[0])
    estimator.estimate(designs[0])

    start = time.perf_counter()
    scalar = [
        (model.predict(d), estimator.estimate(d)) for d in designs
    ]
    t_scalar = time.perf_counter() - start

    start = time.perf_counter()
    prediction = predict_batch(designs, flexcl=flexcl)
    resources = estimate_batch(designs, flexcl=flexcl)
    t_batch = time.perf_counter() - start

    for i, (breakdown, usage) in enumerate(scalar):
        assert prediction.breakdown(i) == breakdown, designs[i].describe()
        assert resources.design_resources(i) == usage, designs[i].describe()

    speedup = t_scalar / t_batch
    result = {
        "space": "table3-jacobi-2d",
        "candidates": len(designs),
        "scalar_s": round(t_scalar, 4),
        "batch_s": round(t_batch, 4),
        "scalar_candidates_per_s": round(len(designs) / t_scalar, 1),
        "batch_candidates_per_s": round(len(designs) / t_batch, 1),
        "speedup": round(speedup, 2),
        "min_speedup": min_speedup,
        "parity": "bitwise",
    }
    assert speedup >= min_speedup, (
        f"batch engine speedup {speedup:.2f}x below required "
        f"{min_speedup}x: {result}"
    )
    return result


#: Parallelism / unroll ladders for the inflated jacobi-2d space.
INFLATED_COUNTS = (
    (1, 1), (2, 2), (2, 4), (4, 2), (4, 4), (4, 8), (8, 4), (8, 8),
)
INFLATED_UNROLLS = (1, 2, 4, 8)
INFLATED_MAX_DEPTH = 128


def inflated_candidates(inflate=100):
    """A lazy ``inflate``x-Table-3 jacobi-2d stream.

    Inflates the Table 3 space along every axis the ROADMAP names:
    more parallelism options, denser (every-integer) depth ladders,
    more unroll factors, and the full power-of-two tile space per
    parallelism — then truncates the deterministic mega-stream to
    exactly ``inflate`` times the base Table 3 size, so the factor in
    the report is exact.

    Returns:
        ``(target, stream)`` — the candidate count and a fresh lazy
        generator over it.  Call again for a second identical stream
        (the enumeration is deterministic).
    """
    import itertools

    config = TABLE3_CONFIGS["jacobi-2d"]
    spec = config.spec()
    base = DesignSpace.default(
        spec,
        config.counts,
        unroll=config.unroll,
        max_fused_depth=config.fused_depth,
    )
    target = 2 * base.size * inflate  # x2: baseline + pipe-shared

    def stream():
        for unroll in INFLATED_UNROLLS:
            for counts in INFLATED_COUNTS:
                space = DesignSpace.default(
                    spec, counts, unroll=unroll,
                    max_fused_depth=INFLATED_MAX_DEPTH,
                )
                for tile in space.tile_shapes():
                    for depth in range(1, INFLATED_MAX_DEPTH + 1):
                        yield make_baseline_design(
                            spec, tile, counts, depth, unroll
                        )
                        yield make_pipe_shared_design(
                            spec, tile, counts, depth, unroll
                        )

    return target, itertools.islice(stream(), target)


def _frontier_entry(e):
    return [
        repr(e.design.signature()),
        e.predicted_cycles,
        e.resources.total.bram18,
    ]


def _tiered_result_json(result, driver):
    return {
        "best": {
            "signature": repr(result.best.design.signature()),
            "predicted_cycles": result.best.predicted_cycles,
            "describe": result.best.design.describe(),
        },
        "frontier": [_frontier_entry(e) for e in result.frontier],
        "report": driver.report.as_dict(),
        "stats": result.stats.as_dict(),
    }


def tiered_compare(
    min_speedup=5.0,
    inflate=100,
    chunk_size=4096,
    store=None,
    exhaustive=True,
):
    """Tiered vs exhaustive search on the inflated jacobi-2d space.

    Both passes stream the identical candidate enumeration through a
    :class:`SearchDriver` in O(chunk) residency; the exhaustive
    reference disables screening (Tier-1 scores every feasible
    candidate), the tiered pass runs the Pareto screen — the mode
    whose contract covers the full frontier, not just the optimum.
    Asserts bitwise best-design parity, frontier equality, and a
    ``>= min_speedup`` reduction in Tier-1 exact evaluations.

    With ``exhaustive=False`` only the tiered pass runs (optionally
    on an engine over the design store at ``store``) — CI's
    kill/resume smoke.
    """
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    result = {
        "space": f"inflated-{inflate}x-table3-jacobi-2d",
        "inflate": inflate,
        "chunk_size": chunk_size,
        "min_speedup": min_speedup,
    }

    design_store = DesignStore(store) if store else None
    try:
        target, stream = inflated_candidates(inflate)
        tiered_driver = SearchDriver(
            evaluator=CandidateEvaluator(store=design_store),
            chunk_size=chunk_size,
            screen="pareto",
        )
        start = time.perf_counter()
        tiered = tiered_driver.run(stream, budget)
        t_tiered = time.perf_counter() - start
    finally:
        if design_store is not None:
            design_store.close()
    assert tiered_driver.report.candidates == target, (
        f"stream exhausted early ({tiered_driver.report.candidates} of "
        f"{target}); lower --inflate"
    )
    # O(chunk) residency: a chunk plus the frontier band, never the
    # space.  The band is tiny (tens), so 2x chunk is generous.
    assert tiered_driver.report.peak_resident <= 2 * chunk_size, (
        f"peak residency {tiered_driver.report.peak_resident} is not "
        f"O(chunk={chunk_size})"
    )
    result["candidates"] = target
    result["tiered"] = _tiered_result_json(tiered, tiered_driver)
    result["tiered_s"] = round(t_tiered, 2)

    if exhaustive:
        _target, stream = inflated_candidates(inflate)
        exhaustive_driver = SearchDriver(
            evaluator=CandidateEvaluator(),
            chunk_size=chunk_size,
            screen=None,
        )
        start = time.perf_counter()
        full = exhaustive_driver.run(stream, budget)
        t_full = time.perf_counter() - start
        result["exhaustive"] = _tiered_result_json(
            full, exhaustive_driver
        )
        result["exhaustive_s"] = round(t_full, 2)
        assert (
            tiered.best.design.signature()
            == full.best.design.signature()
        ), "tiered best differs from exhaustive best"
        assert (
            tiered.best.predicted_cycles == full.best.predicted_cycles
        ), "tiered best cycles differ from exhaustive"
        assert (
            result["tiered"]["frontier"]
            == result["exhaustive"]["frontier"]
        ), "tiered frontier differs from exhaustive"
        tier1_full = exhaustive_driver.report.tier1_evaluations
        tier1_tiered = max(1, tiered_driver.report.tier1_evaluations)
        eval_speedup = tier1_full / tier1_tiered
        result["tier1_exhaustive"] = tier1_full
        result["tier1_tiered"] = tiered_driver.report.tier1_evaluations
        result["eval_speedup"] = round(eval_speedup, 2)
        result["wall_speedup"] = round(t_full / t_tiered, 2)
        assert eval_speedup >= min_speedup, (
            f"tiered search ran only {eval_speedup:.2f}x fewer Tier-1 "
            f"evaluations (required {min_speedup}x): {result}"
        )
    return result


def test_tiered_search_speedup(record):
    """Tiered search: same best, far fewer exact evaluations."""
    result = tiered_compare(min_speedup=3.0, inflate=2, chunk_size=2048)
    record(
        "DSE",
        f"jacobi-2d tiered search ({result['inflate']}x Table 3, "
        f"{result['candidates']} candidates): tier-1 "
        f"{result['tier1_exhaustive']} -> {result['tier1_tiered']} "
        f"({result['eval_speedup']}x fewer), best bitwise-identical, "
        f"peak residency {result['tiered']['report']['peak_resident']}",
    )


def test_batch_engine_speedup(record):
    """Vectorized scoring must beat the scalar loop 10x on Table 3."""
    result = batch_compare(min_speedup=10.0)
    record(
        "DSE",
        f"jacobi-2d batch engine: {result['candidates']} candidates, "
        f"scalar {result['scalar_s']}s, batch {result['batch_s']}s "
        f"({result['speedup']}x, bitwise parity)",
    )


def test_store_warm_start(benchmark, record, metrics_delta, tmp_path):
    """Cold-store vs warm-store ``optimize_full`` — the persistence win.

    The cold pass populates a fresh :class:`DesignStore`; the warm pass
    reopens it in a fresh evaluator (simulating a new process) and must
    answer every candidate from disk — at least 2x fewer model
    evaluations, counted both by engine stats and the obs registry.
    """
    spec = jacobi_2d(grid=(256, 256), iterations=32)
    kwargs = dict(unroll=2, max_kernels=8, max_fused_depth=16)
    store_dir = tmp_path / "store"

    start = time.perf_counter()
    with DesignStore(store_dir) as store:
        cold_engine = CandidateEvaluator(store=store)
        cold = optimize_full(spec, evaluator=cold_engine, **kwargs)
    t_cold = time.perf_counter() - start
    cold_evaluated = cold_engine.stats.evaluated
    assert cold_evaluated > 0

    warm_stats = {}
    metrics_delta.mark()  # store/engine rates cover the warm pass only

    def warm_run():
        with DesignStore(store_dir) as store:
            engine = CandidateEvaluator(store=store)
            result = optimize_full(spec, evaluator=engine, **kwargs)
            warm_stats["stats"] = engine.stats
            return result

    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    t_warm = benchmark.stats.stats.mean

    for kind, cold_result in cold.items():
        assert (
            warm[kind].best.design.signature()
            == cold_result.best.design.signature()
        )
        assert (
            warm[kind].best.predicted_cycles
            == cold_result.best.predicted_cycles
        )
    stats = warm_stats["stats"]
    assert stats.evaluated * 2 <= cold_evaluated
    assert stats.store_hits > 0
    deltas = metrics_delta.delta()
    probes = deltas.get("store.hits", 0) + deltas.get("store.misses", 0)
    store_hit_rate = deltas.get("store.hits", 0) / probes if probes else 0.0
    if obs.enabled():
        # The registry agrees: the warm pass ran (at most half) the
        # cold pass's model evaluations and hit the store heavily.
        assert deltas.get("dse.evaluated", 0) * 2 <= cold_evaluated
        assert store_hit_rate > 0.5
    benchmark.extra_info["store_hit_rate"] = round(store_hit_rate, 4)
    benchmark.extra_info["warm_speedup"] = round(t_cold / t_warm, 2)
    record(
        "DSE",
        f"jacobi-2d full search store: cold {t_cold:.2f}s "
        f"({cold_evaluated} model evals), warm {t_warm:.2f}s "
        f"({t_cold / t_warm:.2f}x, {stats.evaluated} model evals, "
        f"{stats.store_hits} store hits); "
        f"store hit-rate {float(store_hit_rate or 0):.1%}",
    )


def main(argv=None):
    """CLI entry point for the batch-compare smoke (used by CI)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--batch-compare",
        action="store_true",
        help="run the scalar-vs-batch engine comparison",
    )
    parser.add_argument(
        "--tiered",
        action="store_true",
        help=(
            "run the tiered-vs-exhaustive search comparison on the "
            "inflated Table 3 space"
        ),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail below this speedup factor (scalar/batch wall time, "
            "or exhaustive/tiered Tier-1 evaluation counts; defaults "
            "10 for --batch-compare, 5 for --tiered)"
        ),
    )
    parser.add_argument(
        "--inflate",
        type=int,
        default=100,
        help="space inflation factor for --tiered (x Table 3 size)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=4096,
        help="candidates per search chunk for --tiered",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "design store for --tiered's tiered pass; a re-run on the "
            "same store answers the candidates it holds as store hits"
        ),
    )
    parser.add_argument(
        "--no-exhaustive",
        action="store_true",
        help=(
            "--tiered: skip the exhaustive reference pass (no parity/"
            "speedup assertions; used by CI's kill/resume smoke)"
        ),
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="write the comparison result to this JSON file",
    )
    args = parser.parse_args(argv)
    if not args.batch_compare and not args.tiered:
        parser.error("nothing to do: pass --batch-compare or --tiered")
    try:
        if args.tiered:
            result = tiered_compare(
                min_speedup=(
                    5.0 if args.min_speedup is None else args.min_speedup
                ),
                inflate=args.inflate,
                chunk_size=args.chunk_size,
                store=args.store,
                exhaustive=not args.no_exhaustive,
            )
        else:
            result = batch_compare(
                min_speedup=(
                    10.0
                    if args.min_speedup is None
                    else args.min_speedup
                ),
            )
        failed = False
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        result = {"error": str(exc)}
        failed = True
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    if not failed:
        print(json.dumps(result, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
