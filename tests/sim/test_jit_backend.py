"""JIT backend plumbing: selection, caching, fallback, and wiring.

Parity itself is covered in test_jit_parity.py; this module tests the
machinery around the compiled kernels — backend resolution order, the
disk cache and in-process memo, the no-compiler fallback (simulated by
pointing ``CC`` at ``/bin/false``), the executor/checkpoint/service
surfaces, and the warm-cache contract on a scaled-down Figure 7 sweep.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.errors import BackendUnavailable
from repro.opencl.platform import ADM_PCIE_7V3
from repro.sim import jit
from repro.sim.executor import SimulationExecutor
from repro.sim.functional import FunctionalExecutor, run_functional
from repro.stencil import jacobi_2d, run_reference
from repro.store.checkpoint import CheckpointedExecutor
from repro.tiling import make_baseline_design

needs_cc = pytest.mark.skipif(
    jit.find_compiler() is None, reason="no working C compiler"
)


def counters():
    return obs.get_registry().report()["counters"]


@pytest.fixture(autouse=True)
def clean_jit(tmp_path, monkeypatch):
    """Isolated cache, no memo/probe carry-over, no process default."""
    monkeypatch.setenv(jit.CACHE_ENV, str(tmp_path / "jit-cache"))
    jit.set_default_backend(None)
    jit.clear_memo()
    jit.clear_probe_cache()
    obs.disable()
    obs.reset()
    yield
    jit.set_default_backend(None)
    jit.clear_memo()
    jit.clear_probe_cache()
    obs.disable()
    obs.reset()


@pytest.fixture
def no_compiler(monkeypatch):
    """Force compiler discovery to fail (CC is exclusive when set)."""
    monkeypatch.setenv("CC", "/bin/false")
    jit.clear_probe_cache()
    yield
    jit.clear_probe_cache()


@pytest.fixture
def design(small_jacobi2d):
    return make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)


class TestResolutionOrder:
    def test_numpy_always_resolves(self):
        assert jit.resolve_backend("numpy") == "numpy"

    @needs_cc
    def test_auto_resolves_jit_with_compiler(self):
        assert jit.resolve_backend("auto") == "jit"

    def test_auto_resolves_numpy_without_compiler(self, no_compiler):
        assert jit.resolve_backend("auto") == "numpy"

    def test_jit_request_without_compiler_falls_back(self, no_compiler):
        obs.enable()
        assert jit.resolve_backend("jit") == "numpy"
        assert counters()["sim.jit.fallbacks"] == 1

    def test_arg_beats_process_default(self):
        jit.set_default_backend("auto")
        assert jit.requested_backend("numpy") == "numpy"

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(jit.BACKEND_ENV, "auto")
        jit.set_default_backend("numpy")
        assert jit.requested_backend() == "numpy"

    def test_env_beats_builtin_auto(self, monkeypatch):
        monkeypatch.setenv(jit.BACKEND_ENV, "numpy")
        assert jit.requested_backend() == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="Unknown sim backend"):
            jit.requested_backend("fortran")
        with pytest.raises(ValueError, match="Unknown sim backend"):
            jit.set_default_backend("fortran")

    def test_backend_report_without_compiler(self, no_compiler):
        report = jit.backend_report("jit")
        assert report == {
            "requested": "jit",
            "resolved": "numpy",
            "compiler": None,
        }

    @needs_cc
    def test_backend_report_with_compiler(self):
        report = jit.backend_report("auto")
        assert report["requested"] == "auto"
        assert report["resolved"] == "jit"
        assert report["compiler"]


class TestCompilerProbe:
    def test_cc_env_is_exclusive(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        jit.clear_probe_cache()
        assert jit.find_compiler() is None

    @needs_cc
    def test_fingerprint_is_stable(self):
        first = jit.find_compiler()
        second = jit.find_compiler()
        assert first.fingerprint == second.fingerprint


@needs_cc
class TestKernelCache:
    def test_memo_then_disk_then_build(self, design):
        obs.enable()
        jit.get_kernel(design)
        after_build = counters()
        assert after_build["sim.jit.compiles"] == 1
        assert after_build["sim.jit.cache_misses"] == 1

        jit.get_kernel(design)
        after_memo = counters()
        assert after_memo["sim.jit.compiles"] == 1
        assert after_memo["sim.jit.memo_hits"] == 1

        jit.clear_memo()  # new process, warm disk cache
        jit.get_kernel(design)
        after_disk = counters()
        assert after_disk["sim.jit.compiles"] == 1
        assert after_disk["sim.jit.cache_hits"] == 1

    def test_clear_forces_rebuild(self, design):
        obs.enable()
        jit.get_kernel(design)
        cache = jit.KernelCache()
        assert cache.clear() > 0
        jit.clear_memo()
        jit.get_kernel(design)
        assert counters()["sim.jit.compiles"] == 2

    def test_key_invalidation_axes(self):
        base = dict(
            design_signature="d",
            spec_signature="s",
            dtype_name="float32",
            codegen_version=1,
            compiler_fingerprint="cc",
        )
        key = jit.kernel_key(**base)
        assert key == jit.kernel_key(**base)
        for axis, changed in [
            ("design_signature", "d2"),
            ("spec_signature", "s2"),
            ("dtype_name", "float64"),
            ("codegen_version", 2),
            ("compiler_fingerprint", "clang"),
        ]:
            assert key != jit.kernel_key(**{**base, axis: changed}), axis

    def test_source_artifact_kept_beside_object(self, design):
        kernel = jit.get_kernel(design)
        cache = jit.KernelCache()
        sources = list(cache.root.glob("*.c"))
        assert len(sources) == 1
        assert "repro_jit_run" in sources[0].read_text()
        assert kernel.so_path.startswith(str(cache.root))


class TestFallback:
    def test_run_functional_falls_back_identically(
        self, no_compiler, small_jacobi2d, design
    ):
        obs.enable()
        out = run_functional(design, backend="jit")
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])
        assert counters()["sim.jit.fallbacks"] >= 1
        assert counters()["sim.numpy.runs"] == 1

    def test_executor_reports_numpy_when_unavailable(
        self, no_compiler, design
    ):
        executor = FunctionalExecutor(design, backend="jit")
        executor.run()
        assert executor.active_backend == "numpy"

    def test_get_kernel_raises_without_compiler(
        self, no_compiler, design
    ):
        with pytest.raises(BackendUnavailable, match="no working C"):
            jit.get_kernel(design)

    @needs_cc
    def test_clamp_boundary_stays_on_interpreter(self):
        from repro.stencil import BoundaryPolicy, hotspot_2d

        spec = dataclasses.replace(
            hotspot_2d(grid=(16, 16), iterations=3),
            boundary=BoundaryPolicy.CLAMP,
        )
        design = make_baseline_design(spec, (8, 8), (2, 2), 3)
        assert jit.unsupported_reason(design, np.dtype("float32"))
        with pytest.raises(BackendUnavailable, match="CLAMP"):
            jit.get_kernel(design)

    @needs_cc
    def test_mixed_aux_dtype_stays_on_interpreter(self):
        from repro.stencil import hotspot_2d

        spec = hotspot_2d(grid=(16, 16), iterations=3)
        design = make_baseline_design(spec, (8, 8), (2, 2), 3)
        aux = {
            name: grid.astype(np.float64)
            for name, grid in spec.aux_state().items()
        }
        expected = run_functional(design, aux=aux, backend="numpy")
        executor = FunctionalExecutor(design, backend="jit")
        out = executor.run(aux=aux)
        assert executor.active_backend == "numpy"
        for field in spec.pattern.fields:
            assert np.array_equal(expected[field], out[field])


@needs_cc
class TestExecutorWiring:
    def test_functional_executor_active_backend(
        self, small_jacobi2d, design
    ):
        executor = FunctionalExecutor(design, backend="jit")
        out = executor.run()
        assert executor.active_backend == "jit"
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])

    def test_simulation_executor_execute_and_result_stamp(
        self, small_jacobi2d, design
    ):
        executor = SimulationExecutor(ADM_PCIE_7V3, backend="jit")
        assert executor.resolved_backend() == "jit"
        out = executor.execute(design)
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])
        assert executor.run(design).sim_backend == "jit"
        numpy_executor = SimulationExecutor(ADM_PCIE_7V3, backend="numpy")
        assert numpy_executor.run(design).sim_backend == "numpy"

    def test_trace_events_stamp_backend(self, design):
        from repro.sim.trace import to_chrome_trace

        result = SimulationExecutor(ADM_PCIE_7V3, backend="jit").run(
            design
        )
        trace = to_chrome_trace(result)
        assert trace["otherData"]["sim_backend"] == "jit"
        kernel_events = [
            e
            for e in trace["traceEvents"]
            if e.get("args", {}).get("backend")
        ]
        assert kernel_events
        assert all(
            e["args"]["backend"] == "jit" for e in kernel_events
        )

    def test_checkpointed_executor_passthrough(
        self, small_jacobi2d, design
    ):
        executor = CheckpointedExecutor(ADM_PCIE_7V3, sim_backend="jit")
        assert executor.resolved_backend() == "jit"
        out = executor.execute(design)
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])

    def test_service_health_reports_backend(self):
        from repro.service import SynthesisService

        jit.set_default_backend("jit")
        service = SynthesisService(board=ADM_PCIE_7V3, workers=1)
        try:
            report = service.health()["sim_backend"]
            assert report["requested"] == "jit"
            assert report["resolved"] == "jit"
            assert report["compiler"]
        finally:
            service.shutdown()


@dataclasses.dataclass(frozen=True)
class _SmallConfig:
    """Stand-in for a Table 3 config, scaled to test size."""

    name: str
    tile_shape: tuple
    counts: tuple
    fused_depth: int
    unroll: int

    def spec(self):
        return jacobi_2d(grid=(32, 32), iterations=16)

    def baseline(self):
        return make_baseline_design(
            self.spec(), self.tile_shape, self.counts, self.fused_depth
        )


@needs_cc
class TestWarmCacheFigure7:
    def test_second_sweep_skips_all_compiles(self, monkeypatch):
        from repro.experiments import figure7

        config = _SmallConfig("jacobi-2d", (8, 8), (2, 2), 4, 1)
        monkeypatch.setattr(
            figure7, "TABLE3_CONFIGS", {"jacobi-2d": config}
        )
        obs.enable()
        first = figure7.run_figure7(
            benchmarks=("jacobi-2d",),
            check_execution=True,
            sim_backend="jit",
        )
        cold = counters()
        assert cold["sim.jit.compiles"] == len(first[0].depths)
        assert cold.get("sim.jit.cache_hits", 0) == 0

        jit.clear_memo()  # simulate a fresh process on a warm cache
        second = figure7.run_figure7(
            benchmarks=("jacobi-2d",),
            check_execution=True,
            sim_backend="jit",
        )
        warm = counters()
        assert warm["sim.jit.compiles"] == cold["sim.jit.compiles"]
        assert warm["sim.jit.cache_hits"] == len(second[0].depths)
        assert first == second
