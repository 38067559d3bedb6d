"""repro.sim.jit — compiled (C + cffi) simulator backend.

Lowers a :class:`~repro.tiling.design.StencilDesign` to specialized
C99, compiles it with the system C compiler at runtime, and executes
it on the same numpy-backed state arrays as the interpreter — with a
**bitwise-identical** result contract (see :mod:`repro.sim.jit.codegen`
and ``docs/SIM.md``).  Kernels are cached on disk keyed by design,
spec, dtype, codegen version, and compiler fingerprint.

The subsystem is optional at runtime: when no C compiler is present
or ``cffi`` does not import, :func:`resolve_backend` answers
``"numpy"`` and every entry point raises
:class:`~repro.errors.BackendUnavailable`, which the executors catch
to fall back to the numpy interpreter.
"""

from repro.sim.jit.backend import (
    CompiledKernel,
    clear_memo,
    get_kernel,
    resolve_backend,
    run_jit,
)
from repro.sim.jit.cache import CACHE_ENV, KernelCache, kernel_key
from repro.sim.jit.codegen import (
    CODEGEN_VERSION,
    KERNEL_ENTRY,
    generate_kernel_source,
    unsupported_reason,
)
from repro.sim.jit.compile import (
    COMPILE_FLAGS,
    CompilerInfo,
    clear_probe_cache,
    compile_shared_object,
    find_compiler,
)

__all__ = [
    "CACHE_ENV",
    "CODEGEN_VERSION",
    "COMPILE_FLAGS",
    "CompiledKernel",
    "CompilerInfo",
    "KERNEL_ENTRY",
    "KernelCache",
    "clear_memo",
    "clear_probe_cache",
    "compile_shared_object",
    "find_compiler",
    "generate_kernel_source",
    "get_kernel",
    "kernel_key",
    "resolve_backend",
    "run_jit",
    "unsupported_reason",
]
