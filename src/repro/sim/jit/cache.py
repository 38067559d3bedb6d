"""On-disk cache of compiled JIT kernels.

Layout (under ``$REPRO_JIT_CACHE`` or ``~/.cache/repro/jit``)::

    <key>.c        generated C source (kept for debuggability)
    <key>.so       compiled shared object

``<key>`` is the SHA-256 digest of everything that shapes the emitted
machine code: the design signature, the spec signature, the dtype, the
codegen version, and the compiler fingerprint (path + version +
flags).  Any change to any of them lands on a different key, so stale
objects are never loaded — they are simply left behind and can be
cleaned with :meth:`KernelCache.clear`.

Placement is atomic (temp file + ``os.replace`` in the same
directory), so concurrent processes racing to build the same kernel
both succeed and one of the two identical objects wins.  Build counts
and times go to the ``sim.jit.compiles`` / ``sim.jit.compile_s``
metrics.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time
from typing import Optional, Union

from repro import obs
from repro.sim.jit.compile import CompilerInfo, compile_shared_object
from repro.store.backing import digest

PathLike = Union[str, pathlib.Path]

#: Environment variable overriding the cache directory.
CACHE_ENV = "REPRO_JIT_CACHE"

_log = obs.get_logger("sim.jit")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_JIT_CACHE``, else ``~/.cache/repro/jit``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / "jit"


def kernel_key(
    design_signature,
    spec_signature,
    dtype_name: str,
    codegen_version: int,
    compiler_fingerprint: str,
) -> str:
    """Cache key digest over everything that shapes the binary."""
    return digest(
        {
            "design": repr(design_signature),
            "spec": repr(spec_signature),
            "dtype": dtype_name,
            "codegen": codegen_version,
            "compiler": compiler_fingerprint,
        }
    )


class KernelCache:
    """Content-addressed store of compiled kernel shared objects."""

    def __init__(self, root: Optional[PathLike] = None):
        self.root = pathlib.Path(root) if root else default_cache_dir()

    # -- paths ---------------------------------------------------------------

    def so_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.so"

    def source_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.c"

    # -- lookup / build ------------------------------------------------------

    def lookup(self, key: str) -> Optional[pathlib.Path]:
        """Path of a previously built kernel, or ``None`` on a miss."""
        path = self.so_path(key)
        if path.exists():
            obs.inc("sim.jit.cache_hits")
            return path
        obs.inc("sim.jit.cache_misses")
        return None

    def build(
        self, key: str, source: str, compiler: CompilerInfo
    ) -> pathlib.Path:
        """Compile ``source`` and place it in the cache atomically.

        Raises :class:`~repro.errors.BackendUnavailable` when the
        compile fails (propagated from :func:`compile_shared_object`).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.so_path(key)
        started = time.perf_counter()
        with obs.span("sim.jit.compile", key=key[:12]):
            fd, tmp_c = tempfile.mkstemp(
                suffix=".c", prefix=f"{key[:12]}-", dir=self.root
            )
            tmp_so = tmp_c[:-2] + ".so"
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(source)
                compile_shared_object(tmp_c, tmp_so, compiler)
                os.replace(tmp_so, target)
                os.replace(tmp_c, self.source_path(key))
            finally:
                for leftover in (tmp_c, tmp_so):
                    try:
                        os.unlink(leftover)
                    except OSError:
                        pass
        elapsed = time.perf_counter() - started
        obs.inc("sim.jit.compiles")
        obs.observe("sim.jit.compile_s", elapsed)
        _log.debug("built jit kernel %s in %.3fs", key[:12], elapsed)
        return target

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.iterdir():
            if entry.suffix in (".so", ".c"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing cleaner
                    pass
        return removed
