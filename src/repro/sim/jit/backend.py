"""Backend resolution and execution glue for the JIT simulator.

Three jobs live here:

- **Resolution** — :func:`resolve_backend` names the engine value
  execution uses in this process: ``"jit"`` when a working C compiler
  is found and ``cffi`` imports, ``"numpy"`` otherwise.  Nothing
  selects it.  A design or input the JIT cannot run bitwise falls
  back to the interpreter per run — recorded in the
  ``sim.jit.fallbacks`` counter and the debug log, never raised on
  the execution path.
- **Loading** — :func:`get_kernel` generates + compiles + ``dlopen``\\ s
  the specialized kernel for a (design, dtype) pair, with a process
  memo in front of the on-disk :class:`~repro.sim.jit.cache.KernelCache`.
- **Execution** — :class:`CompiledKernel.run` marshals the numpy
  ``State`` dict into raw pointers and invokes the compiled entry
  point, preserving the interpreter's exact copy/astype semantics so
  the result is bitwise-identical.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import BackendUnavailable
from repro.sim.jit import codegen
from repro.sim.jit.cache import KernelCache, kernel_key
from repro.sim.jit.compile import find_compiler
from repro.tiling.design import StencilDesign

State = Dict[str, np.ndarray]

_log = obs.get_logger("sim.jit")


def _import_cffi():
    """The ``cffi`` module, or :class:`BackendUnavailable`.

    ``cffi`` is not a dependency of the package: without it the JIT
    is unavailable, never an import error on the execution path.
    """
    try:
        import cffi
    except ImportError as exc:
        raise BackendUnavailable(f"cffi does not import: {exc}") from exc
    return cffi


def resolve_backend() -> str:
    """The value-execution engine of this process: ``"jit"`` or ``"numpy"``.

    ``"jit"`` exactly when a working C compiler is found and ``cffi``
    imports — the compiled kernels need both.  Individual runs may
    still fall back to the interpreter (see
    :meth:`~repro.sim.functional.FunctionalExecutor.run`).
    """
    if find_compiler() is None:
        return "numpy"
    try:
        _import_cffi()
    except BackendUnavailable:
        return "numpy"
    return "jit"


class CompiledKernel:
    """A loaded shared object specialized to one (design, dtype)."""

    def __init__(
        self,
        design: StencilDesign,
        dtype: np.dtype,
        so_path: str,
    ):
        cffi = _import_cffi()
        self.design = design
        self.dtype = np.dtype(dtype)
        self.so_path = str(so_path)
        self._ffi = cffi.FFI()
        self._ffi.cdef(codegen.KERNEL_CDEF)
        self._lib = self._ffi.dlopen(self.so_path)
        self._entry = getattr(self._lib, codegen.KERNEL_ENTRY)

    def run(
        self,
        state: Optional[State] = None,
        aux: Optional[State] = None,
        iterations: Optional[int] = None,
    ) -> State:
        """Execute the design; mirrors ``FunctionalExecutor.run``."""
        spec = self.design.spec
        total = spec.iterations if iterations is None else iterations
        current = {
            k: v.astype(self.dtype, order="C", copy=True)
            for k, v in (state or spec.initial_state()).items()
        }
        aux_arrays = {
            k: np.ascontiguousarray(v)
            for k, v in dict(aux or spec.aux_state()).items()
        }
        ffi = self._ffi
        field_ptrs = ffi.new("void *[]", max(len(spec.pattern.fields), 1))
        for i, name in enumerate(spec.pattern.fields):
            field_ptrs[i] = ffi.cast("void *", current[name].ctypes.data)
        aux_ptrs = ffi.new("void *[]", max(len(spec.pattern.aux), 1))
        for i, name in enumerate(spec.pattern.aux):
            aux_ptrs[i] = ffi.cast("void *", aux_arrays[name].ctypes.data)
        started = time.perf_counter()
        rc = self._entry(field_ptrs, aux_ptrs, int(total))
        obs.observe("sim.jit.run_s", time.perf_counter() - started)
        if rc != 0:
            raise BackendUnavailable(
                f"compiled kernel {self.so_path} failed with rc={rc}"
            )
        obs.inc("sim.jit.runs")
        return current


_memo_lock = threading.Lock()
_kernel_memo: Dict[Tuple[str, str], CompiledKernel] = {}
_shared_cache: Optional[KernelCache] = None


def _disk_cache() -> KernelCache:
    global _shared_cache
    with _memo_lock:
        if _shared_cache is None:
            _shared_cache = KernelCache()
        return _shared_cache


def clear_memo() -> None:
    """Drop the in-process kernel memo and cache handle (for tests).

    Does not delete on-disk artifacts; a subsequent :func:`get_kernel`
    re-reads the disk cache (and re-resolves ``REPRO_JIT_CACHE``).
    The dropped cache's journal handle is closed.
    """
    global _shared_cache
    with _memo_lock:
        _kernel_memo.clear()
        if _shared_cache is not None:
            _shared_cache.close()
        _shared_cache = None


def runtime_unsupported_reason(
    design: StencilDesign, aux: Optional[State]
) -> Optional[str]:
    """Input-dependent reasons the JIT cannot match numpy bitwise.

    The interpreter never casts aux arrays, so mixed-dtype aux inputs
    are accumulated at numpy's promoted precision — something the
    single-precision C kernel cannot reproduce.  Such runs stay on
    the interpreter.
    """
    spec = design.spec
    aux_arrays = dict(aux or {})
    for name in spec.pattern.aux:
        array = aux_arrays.get(name)
        if array is not None and array.dtype != spec.dtype:
            return (
                f"aux array {name!r} has dtype {array.dtype}, spec has "
                f"{spec.dtype} (numpy promotes; C cannot match bitwise)"
            )
    return None


def get_kernel(
    design: StencilDesign,
    dtype: Optional[np.dtype] = None,
    cache: Optional[KernelCache] = None,
) -> CompiledKernel:
    """Compiled kernel for (design, dtype): memo -> disk -> build.

    Raises:
        BackendUnavailable: no compiler, unsupported design/dtype, or
            failed compilation.  Callers on the execution path catch
            this and fall back to the interpreter.
    """
    dtype = np.dtype(design.spec.dtype if dtype is None else dtype)
    reason = codegen.unsupported_reason(design, dtype)
    if reason is not None:
        raise BackendUnavailable(reason)
    compiler = find_compiler()
    if compiler is None:
        raise BackendUnavailable("no working C compiler found")
    key = kernel_key(
        design.signature(),
        design.spec.signature(),
        dtype.name,
        codegen.CODEGEN_VERSION,
        compiler.fingerprint,
    )
    memo_key = (key, dtype.name)
    with _memo_lock:
        kernel = _kernel_memo.get(memo_key)
    if kernel is not None:
        obs.inc("sim.jit.memo_hits")
        return kernel
    disk = cache if cache is not None else _disk_cache()
    so_path = disk.lookup(key)
    if so_path is None:
        source = codegen.generate_kernel_source(design, dtype)
        so_path = disk.build(key, source, compiler)
    try:
        kernel = CompiledKernel(design, dtype, str(so_path))
    except OSError as exc:
        raise BackendUnavailable(
            f"cannot load compiled kernel {so_path}: {exc}"
        ) from exc
    with _memo_lock:
        _kernel_memo[memo_key] = kernel
    return kernel


def run_jit(
    design: StencilDesign,
    state: Optional[State] = None,
    aux: Optional[State] = None,
    iterations: Optional[int] = None,
) -> State:
    """Execute ``design`` through the JIT backend.

    Raises :class:`BackendUnavailable` when the design or environment
    cannot be JIT-executed; callers fall back to the interpreter.
    """
    reason = runtime_unsupported_reason(design, aux)
    if reason is not None:
        raise BackendUnavailable(reason)
    kernel = get_kernel(design)
    return kernel.run(state, aux, iterations)
