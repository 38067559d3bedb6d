"""Metrics registry: percentile math, thread-safety, evaluator feed."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.metrics import Histogram, MetricsRegistry, percentile


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("c") is counter

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(2)
        gauge.set(7.5)
        assert gauge.value == 7.5


class TestPercentiles:
    def test_known_distribution(self):
        values = list(range(1, 101))  # 1..100
        hist = Histogram("h")
        for v in values:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p90"] == pytest.approx(90.1)
        assert summary["p99"] == pytest.approx(99.01)

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        values = sorted([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        for q in (50, 90, 99):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_value(self):
        hist = Histogram("h")
        hist.observe(42.0)
        summary = hist.summary()
        assert summary["p50"] == 42.0
        assert summary["p99"] == 42.0

    def test_empty_summary(self):
        assert Histogram("h").summary() == {"count": 0, "sum": 0.0}

    def test_sampling_past_limit_is_flagged(self):
        hist = Histogram("h", sample_limit=10)
        for v in range(100):
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["max"] == 99.0  # exact even though sampled
        assert summary["sampled"] is True


class TestReservoirSampling:
    """Past ``sample_limit`` the histogram keeps a uniform reservoir,
    not the first N observations (which would freeze quantiles at the
    warm-up workload)."""

    def test_reservoir_is_not_first_n_biased(self):
        hist = Histogram("h", sample_limit=100)
        # 100 small values, then 900 large ones.  A first-N retention
        # would report p99 ~= 1.0 forever; a uniform reservoir must be
        # dominated by the large tail.
        for _ in range(100):
            hist.observe(1.0)
        for _ in range(900):
            hist.observe(1000.0)
        summary = hist.summary()
        assert summary["p50"] == 1000.0
        assert summary["p99"] == 1000.0

    def test_reservoir_is_deterministic_per_name(self):
        def fill(name):
            hist = Histogram(name, sample_limit=16)
            for v in range(500):
                hist.observe(float(v))
            return hist.summary()

        assert fill("svc.latency") == fill("svc.latency")

    def test_no_global_random_state_is_touched(self):
        import random

        random.seed(1234)
        before = random.getstate()
        hist = Histogram("h", sample_limit=8)
        for v in range(200):
            hist.observe(float(v))
        assert random.getstate() == before

    def test_quantile_ordering_invariant_holds_when_sampled(self):
        hist = Histogram("h", sample_limit=32)
        for v in range(1000):
            hist.observe(float(v % 97))
        summary = hist.summary()
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]

    def test_under_limit_is_exact_and_unsampled(self):
        hist = Histogram("h", sample_limit=100)
        for v in range(50):
            hist.observe(float(v))
        summary = hist.summary()
        assert summary.get("sampled", False) is False
        assert summary["max"] == 49.0


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        per_thread, threads = 10_000, 8

        def hammer(_):
            for _ in range(per_thread):
                counter.inc()

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(hammer, range(threads)))
        assert counter.value == per_thread * threads

    def test_concurrent_histogram_observations(self):
        hist = Histogram("h")

        def hammer(base):
            for v in range(1_000):
                hist.observe(base + v)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, [0, 1000, 2000, 3000]))
        summary = hist.summary()
        assert summary["count"] == 4_000
        assert summary["min"] == 0.0
        assert summary["max"] == 3999.0

    def test_evaluator_thread_pool_feeds_exact_counters(self):
        """Threads sharing one engine must not drop counter updates."""
        from repro.dse import CandidateEvaluator, ResourceBudget
        from repro.fpga.resources import VIRTEX7_690T
        from repro.stencil import jacobi_2d
        from repro.tiling import make_baseline_design

        obs.enable()
        spec = jacobi_2d(grid=(64, 64), iterations=16)
        base = make_baseline_design(spec, (16, 16), (2, 2), 4, unroll=2)
        candidates = [
            base.with_fused_depth(h) for h in range(1, 9)
        ] * 3  # repeats exercise the cache-hit path concurrently
        engine = CandidateEvaluator()
        budget = ResourceBudget.from_device(VIRTEX7_690T)
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda _: engine.explore(candidates, budget), range(4)
                )
            )
        counters = obs.get_registry().report()["counters"]
        assert counters["dse.candidates"] == 4 * len(candidates)
        assert counters["dse.candidates"] == engine.stats.candidates
        assert counters["dse.evaluated"] == engine.stats.evaluated
        assert counters["dse.cache_hits"] == engine.stats.cache_hits
        assert (
            counters["dse.evaluated"] + counters["dse.cache_hits"]
            == 4 * len(candidates)
        )


class TestRegistryReport:
    def test_report_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(2.0)
        report = registry.report()
        assert report["counters"] == {"a": 3}
        assert report["gauges"] == {"b": 1.5}
        assert report["histograms"]["c"]["count"] == 1

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.report()["counters"] == {}

    def test_module_helpers_hit_default_registry(self):
        obs.enable()
        obs.inc("x", 2)
        obs.inc("x", 0)  # creates/keeps the metric without changing it
        obs.set_gauge("y", 9)
        obs.observe("z", 0.5)
        report = obs.get_registry().report()
        assert report["counters"]["x"] == 2
        assert report["gauges"]["y"] == 9.0
        assert report["histograms"]["z"]["count"] == 1
