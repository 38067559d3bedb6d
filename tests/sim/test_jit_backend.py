"""JIT backend plumbing: resolution, caching, fallback, and wiring.

Parity itself is covered in test_jit_parity.py; this module tests the
machinery around the compiled kernels — the resolution rule, the disk
cache and in-process memo, the no-compiler and no-``cffi`` fallbacks
(simulated by pointing ``CC`` at ``/bin/false`` and by hiding the
``cffi`` module), the executor surface, and the warm-cache contract on
a scaled-down Figure 7 sweep.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro import obs
from repro.errors import BackendUnavailable
from repro.sim import jit
from repro.sim.functional import FunctionalExecutor, run_functional
from repro.stencil import jacobi_2d, run_reference
from repro.tiling import make_baseline_design

needs_cc = pytest.mark.skipif(
    jit.find_compiler() is None, reason="no working C compiler"
)
needs_jit = pytest.mark.skipif(
    jit.resolve_backend() != "jit",
    reason="JIT unavailable (no working C compiler or no cffi)",
)


def counters():
    return obs.get_registry().report()["counters"]


@pytest.fixture(autouse=True)
def clean_jit(tmp_path, monkeypatch):
    """Isolated cache, no memo/probe carry-over."""
    monkeypatch.setenv(jit.CACHE_ENV, str(tmp_path / "jit-cache"))
    jit.clear_memo()
    jit.clear_probe_cache()
    obs.disable()
    obs.reset()
    yield
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


class TestResolution:
    @needs_cc
    def test_resolves_jit_with_compiler_and_cffi(self):
        pytest.importorskip("cffi")
        assert jit.resolve_backend() == "jit"

    def test_resolves_numpy_without_compiler(self, no_compiler):
        assert jit.resolve_backend() == "numpy"

    def test_resolves_numpy_without_cffi(
        self, monkeypatch, small_jacobi2d, design
    ):
        monkeypatch.setitem(sys.modules, "cffi", None)
        assert jit.resolve_backend() == "numpy"
        executor = FunctionalExecutor(design)
        out = executor.run()
        assert executor.active_backend == "numpy"
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])

    def test_compiled_kernel_without_cffi_is_unavailable(
        self, monkeypatch, design
    ):
        monkeypatch.setitem(sys.modules, "cffi", None)
        with pytest.raises(BackendUnavailable, match="cffi"):
            jit.CompiledKernel(design, np.float32, "unused.so")


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


@needs_jit
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
        out = run_functional(design)
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])
        assert counters()["sim.numpy.runs"] == 1

    def test_executor_reports_numpy_when_unavailable(
        self, no_compiler, design
    ):
        executor = FunctionalExecutor(design)
        executor.run()
        assert executor.active_backend == "numpy"

    def test_get_kernel_raises_without_compiler(
        self, no_compiler, design
    ):
        with pytest.raises(BackendUnavailable, match="no working C"):
            jit.get_kernel(design)

    @needs_jit
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

    @needs_jit
    def test_mixed_aux_dtype_stays_on_interpreter(self):
        from repro.stencil import hotspot_2d

        spec = hotspot_2d(grid=(16, 16), iterations=3)
        design = make_baseline_design(spec, (8, 8), (2, 2), 3)
        aux = {
            name: grid.astype(np.float64)
            for name, grid in spec.aux_state().items()
        }
        executor = FunctionalExecutor(design)
        expected = executor.interpret(aux=aux)
        out = executor.run(aux=aux)
        assert executor.active_backend == "numpy"
        for field in spec.pattern.fields:
            assert np.array_equal(expected[field], out[field])


@needs_jit
class TestExecutorWiring:
    def test_functional_executor_active_backend(
        self, small_jacobi2d, design
    ):
        executor = FunctionalExecutor(design)
        out = executor.run()
        assert executor.active_backend == "jit"
        ref = run_reference(small_jacobi2d)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(ref[field], out[field])


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


@needs_jit
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
        )
        cold = counters()
        assert cold["sim.jit.compiles"] == len(first[0].depths)
        assert cold.get("sim.jit.cache_hits", 0) == 0

        jit.clear_memo()  # simulate a fresh process on a warm cache
        second = figure7.run_figure7(
            benchmarks=("jacobi-2d",),
            check_execution=True,
        )
        warm = counters()
        assert warm["sim.jit.compiles"] == cold["sim.jit.compiles"]
        assert warm["sim.jit.cache_hits"] == len(second[0].depths)
        assert first == second
