"""Sweep checkpointing: resume long runs after a crash.

The design store makes *model* work durable; this module does the same
for the other half of an experiment sweep — simulator measurements and
any other per-step result a runner would hate to repay after a SIGKILL.

:class:`SweepCheckpoint` is a journal-backed ``key → JSON payload`` map
with one durability rule: a step is persisted (fsynced) before
:meth:`run` returns its value, so a step either completed durably or
will be re-run — never half-observed.  Resuming is therefore just
re-running the sweep: completed steps return their recorded payloads
(bit-identical, no recomputation), the interrupted step and everything
after it run normally.  Since payloads are the *values* the reports
render, an interrupted-then-resumed sweep produces byte-identical
output to an uninterrupted one.

:class:`CheckpointedExecutor` wraps the cycle simulator with that
contract for the two measurements the experiment tables consume
(total cycles, and the breakdown fractions of Figure 6).
"""

from __future__ import annotations

import pathlib
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from repro import obs
from repro.errors import StoreError
from repro.opencl.platform import BoardSpec
from repro.sim.executor import SimulationExecutor
from repro.store.backing import digest
from repro.store.index import STORE_SCHEMA
from repro.store.journal import Journal, replay_latest
from repro.tiling.design import StencilDesign

PathLike = Union[str, pathlib.Path]

_MISSING = object()


class SweepCheckpoint:
    """Durable key → payload map for sweep steps.

    Args:
        path: the checkpoint journal file (created if missing; a torn
            tail from a previous crash is repaired on open).
        sync: journal fsync policy.  The default ``"always"`` fsyncs
            every step — checkpoint steps are orders of magnitude
            rarer than store writes, and each one must be durable
            before its value is acted on.
    """

    def __init__(self, path: PathLike, sync: str = "always"):
        self.path = pathlib.Path(path)
        self._journal = Journal(self.path, sync=sync)
        self._lock = threading.Lock()
        self._steps: Dict[str, dict] = replay_latest(
            self._journal.records()
        )

    @property
    def recovered_drops(self) -> int:
        """Torn records dropped while opening the checkpoint."""
        return self._journal.recovered_drops

    def __len__(self) -> int:
        with self._lock:
            return len(self._steps)

    def get(self, key: str, default=None):
        """The recorded payload for ``key``, or ``default``."""
        with self._lock:
            entry = self._steps.get(key)
        if entry is None or entry.get("v") != STORE_SCHEMA:
            return default
        return entry.get("payload")

    def put(self, key: str, payload) -> None:
        """Durably record one step result (fsynced before returning)."""
        record = {"key": key, "v": STORE_SCHEMA, "payload": payload}
        self._journal.append(record)
        with self._lock:
            self._steps[key] = record
        obs.inc("store.checkpoint_writes")

    def run(self, key: str, compute: Callable[[], object]):
        """Return the recorded payload for ``key``, computing it once.

        ``compute``'s return value must be JSON-serializable — it is
        exactly what a resumed sweep will be handed back.
        """
        with self._lock:
            entry = self._steps.get(key, _MISSING)
        if entry is not _MISSING and entry.get("v") == STORE_SCHEMA:
            obs.inc("store.checkpoint_hits")
            return entry.get("payload")
        obs.inc("store.checkpoint_misses")
        payload = compute()
        self.put(key, payload)
        return payload

    def flush(self) -> None:
        """Force an fsync of the underlying journal."""
        self._journal.flush()

    def close(self) -> None:
        """Flush and release the journal handle."""
        self._journal.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SearchCheckpoint:
    """Durable per-chunk survivor records for tiered searches.

    The :class:`~repro.dse.search.SearchDriver` enumerates candidates
    deterministically, so a search needs no cursor serialization to
    resume: it re-enumerates the stream and, for every chunk already
    recorded here, replays the chunk's surviving ``(local index,
    cycles, resources)`` triples instead of re-screening and
    re-scoring it.  The frontier they rebuild is exactly the one the
    interrupted run held (JSON round-trips floats exactly), so an
    interrupted-then-resumed sweep converges on the same best design
    and Pareto band as an uninterrupted one.

    Records are grouped under a caller-chosen search id; a ``meta``
    record written at :meth:`begin` pins the search configuration
    (budget, evaluation context, chunk size, screen mode) and
    a mismatch on resume raises :class:`~repro.errors.StoreError`
    instead of silently mixing two different searches.

    Args:
        path: the checkpoint journal file (created if missing; a torn
            tail from a previous crash is repaired on open).
        sync: journal fsync policy, as in :class:`SweepCheckpoint`.
    """

    def __init__(self, path: PathLike, sync: str = "always"):
        self._sweep = SweepCheckpoint(path, sync=sync)
        self.path = self._sweep.path

    @property
    def recovered_drops(self) -> int:
        """Torn records dropped while opening the checkpoint."""
        return self._sweep.recovered_drops

    @staticmethod
    def _meta_key(search: str) -> str:
        return f"search:{search}:meta"

    @staticmethod
    def _chunk_key(search: str, index: int) -> str:
        return f"search:{search}:chunk:{index}"

    def begin(self, search: str, meta: dict) -> bool:
        """Open (or re-open) one search; returns True when resuming.

        Raises:
            StoreError: when ``search`` was begun with a different
                configuration fingerprint.
        """
        existing = self._sweep.get(self._meta_key(search))
        if existing is None:
            self._sweep.put(self._meta_key(search), meta)
            return False
        if existing != meta:
            raise StoreError(
                f"Search checkpoint {self.path} entry {search!r} was "
                f"recorded under a different configuration; use a new "
                f"search id (or checkpoint file) for a changed search"
            )
        return True

    def chunk(self, search: str, index: int):
        """The recorded payload for one chunk, or ``None``."""
        return self._sweep.get(self._chunk_key(search, index))

    def record_chunk(self, search: str, index: int, payload: dict) -> None:
        """Durably record one completed chunk (fsynced before return)."""
        self._sweep.put(self._chunk_key(search, index), payload)

    def flush(self) -> None:
        """Force an fsync of the underlying journal."""
        self._sweep.flush()

    def close(self) -> None:
        """Flush and release the journal handle."""
        self._sweep.close()

    def __enter__(self) -> "SearchCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class CheckpointedExecutor:
    """Cycle-simulator front door with durable measurement results.

    Without a checkpoint it is a plain pass-through to
    :class:`~repro.sim.executor.SimulationExecutor`; with one, each
    measurement is keyed on ``(operation, board, design signature)``
    and recomputed only when absent.
    """

    def __init__(
        self,
        board: BoardSpec,
        checkpoint: Optional[SweepCheckpoint] = None,
    ):
        self.board = board
        self.checkpoint = checkpoint
        self._executor = SimulationExecutor(board)
        self._board_fp = digest(
            {
                "name": board.name,
                "clock_hz": board.clock_hz,
                "bandwidth_bytes_per_s": board.bandwidth_bytes_per_s,
                "kernel_launch_cycles": board.kernel_launch_cycles,
                "launch_stagger_cycles": board.launch_stagger_cycles,
                "pipe_cycles_per_word": board.pipe_cycles_per_word,
                "burst_efficiency": board.burst_efficiency,
            }
        )

    def _key(self, op: str, design: StencilDesign) -> str:
        return digest(
            {
                "op": op,
                "board": self._board_fp,
                "design": design.signature(),
            }
        )

    def _run(self, op: str, design: StencilDesign, compute):
        if self.checkpoint is None:
            return compute()
        return self.checkpoint.run(self._key(op, design), compute)

    def total_cycles(self, design: StencilDesign) -> float:
        """Measured total cycles (checkpointed when enabled)."""
        return self._run(
            "sim.total_cycles",
            design,
            lambda: self._executor.run(design).total_cycles,
        )

    def breakdown(
        self, design: StencilDesign
    ) -> Tuple[float, Dict[str, float]]:
        """Measured ``(total cycles, breakdown fractions)`` pair."""
        def compute():
            result = self._executor.run(design)
            return [
                result.total_cycles,
                result.breakdown.fractions(),
            ]

        total, fractions = self._run("sim.breakdown", design, compute)
        if not isinstance(fractions, dict):
            raise StoreError(
                "Malformed breakdown payload in checkpoint "
                f"for design {design.describe()!r}"
            )
        return float(total), dict(fractions)
