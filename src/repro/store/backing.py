"""The persistent, content-addressed design-result store.

Entries are keyed by a SHA-256 digest over everything that determines
an evaluation result:

- the design's canonical :meth:`~repro.tiling.design.StencilDesign.signature`,
- the **evaluation context**: the full board spec (including the FPGA
  part's capacities), the model variant, and the FlexCL pipeline
  parameters,
- the on-disk schema version (:data:`~repro.store.index.STORE_SCHEMA`).

Recalibrating the model, changing the board, or bumping the schema
therefore changes the key — stale entries become unreachable instead
of being silently served, and ``gc``/``invalidate`` exist to reclaim
them.

:class:`DesignStore` is the concrete implementation (journal + snapshot
under one directory, see :mod:`repro.store.index`); the
:class:`BackingStore` protocol is what the
:class:`~repro.dse.evaluator.CandidateEvaluator` consults on a memo
miss and writes through on every fresh evaluation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import pathlib
import re
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Union

from repro import obs
from repro.errors import StoreError
from repro.fpga.estimator import DesignResources
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.resources import ResourceVector
from repro.opencl.platform import BoardSpec
from repro.store.index import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    STORE_SCHEMA,
    compact,
    load_snapshot,
    merge_entries,
    write_snapshot,
)
from repro.store.journal import (
    Journal,
    canonical_json,
    read_journal_tolerant,
    replay_latest,
)
from repro.tiling.design import StencilDesign

PathLike = Union[str, pathlib.Path]

#: Writer names become journal filenames: must start with a letter or
#: digit (no dot-names), stay within one path segment, and fit 64
#: chars.
_WRITER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


def digest(value) -> str:
    """SHA-256 hex digest of a value's canonical JSON encoding."""
    return hashlib.sha256(
        canonical_json(value).encode("utf-8")
    ).hexdigest()


def evaluation_context(board: BoardSpec, flexcl: FlexCLEstimator) -> str:
    """Fingerprint of everything besides the design that shapes results.

    Covers every board/model parameter the predictor and resource
    estimator read, so two evaluators with equal contexts are
    guaranteed to produce interchangeable results for equal designs.
    """
    return digest(
        {
            "schema": STORE_SCHEMA,
            "board": dataclasses.asdict(board),
            # The refined model is the only one the engines score; the
            # literal keeps every key equal to those stored before the
            # model variant stopped being a setting.
            "fidelity": "refined",
            "flexcl": {"max_partitions": flexcl.max_partitions},
        }
    )


def design_key(design_signature, context: str) -> str:
    """Content address of one (design, evaluation-context) result."""
    return digest(
        {
            "schema": STORE_SCHEMA,
            "ctx": context,
            "design": design_signature,
        }
    )


#: What :func:`design_key`'s canonical JSON holds after the signature.
_KEY_TAIL = (',"schema":' + canonical_json(STORE_SCHEMA) + "}").encode()


@functools.lru_cache(maxsize=64)
def _key_head(context: Optional[str]) -> bytes:
    """What :func:`design_key`'s canonical JSON holds before the signature."""
    return ('{"ctx":' + canonical_json(context) + ',"design":').encode()


def store_key(design, context: Optional[str]) -> str:
    """``design_key(design.signature(), context)``, without re-encoding.

    Hashes the same bytes, so the keys are identical, but takes the
    signature's JSON from :meth:`signature_json_parts`, which the
    design types build from encodings they cache: a stencil design
    and a program are encoded once, and a composed program design
    only joins them.  The key is cached on the design for its last
    context, so the memo, a lookup and a write of one candidate hash
    it once.
    """
    cached = design.__dict__.get("_store_key")
    if cached is not None and cached[0] == context:
        return cached[1]
    hasher = hashlib.sha256(_key_head(context))
    for part in design.signature_json_parts():
        hasher.update(part)
    hasher.update(_KEY_TAIL)
    key = hasher.hexdigest()
    object.__setattr__(design, "_store_key", (context, key))
    return key


@dataclass(frozen=True)
class StoredResult:
    """One store entry decoded for the evaluator.

    Either field may be absent: a candidate that fails its budget is
    stored with resources but no prediction, and a later evaluation
    that scores it upgrades the same entry in place.
    """

    cycles: Optional[float] = None
    resources: Optional[DesignResources] = None

    @property
    def complete(self) -> bool:
        """True when both the prediction and the estimate are present."""
        return self.cycles is not None and self.resources is not None


class BackingStore(Protocol):
    """What the evaluator needs from a persistent result store."""

    def lookup_design(
        self, design: StencilDesign, context: str
    ) -> Optional[StoredResult]:
        """Return the stored result for a design, or ``None``."""
        ...  # pragma: no cover - protocol

    def record_design(
        self,
        design: StencilDesign,
        context: str,
        cycles: Optional[float] = None,
        resources: Optional[DesignResources] = None,
    ) -> None:
        """Write (or upgrade) a design's result."""
        ...  # pragma: no cover - protocol


def _resources_to_json(resources: DesignResources) -> Dict:
    return resources.as_dict()


def _resources_from_json(data) -> DesignResources:
    try:
        return DesignResources(
            total=ResourceVector(**data["total"]),
            kernels=ResourceVector(**data["kernels"]),
            pipes=ResourceVector(**data["pipes"]),
        )
    except (KeyError, TypeError) as exc:
        raise StoreError(
            f"Malformed resources payload in store entry: {exc}"
        ) from exc


class DesignStore:
    """Directory-backed persistent result store.

    Layout: ``root/journal.jsonl`` (append-only write path) plus
    ``root/snapshot.jsonl`` (compacted state).  Opening replays both;
    a torn journal tail is repaired automatically (see
    :mod:`repro.store.journal`).  All methods are thread-safe — the
    evaluator's parallel batch path calls :meth:`lookup_design` and
    :meth:`record_design` concurrently from pool workers.

    **Multi-writer mode.** Pass a distinct ``writer`` name per process
    to share one store directory across service replicas: each writer
    appends only to its own ``journal-<writer>.jsonl``, so concurrent
    processes never interleave bytes in one file.  Opening replays the
    snapshot, the writer's own journal (with tail repair), and every
    sibling journal — tolerantly, because a sibling's torn tail is
    just its live write frontier, not corruption (see
    :func:`~repro.store.journal.read_journal_tolerant`).  Entries are
    content-addressed, so sibling records merge by completeness
    instead of needing a global write order.  :meth:`compact`,
    :meth:`gc`, and :meth:`invalidate` fold sibling journals into the
    snapshot and delete them — offline maintenance, only safe with
    all other writers stopped.

    Args:
        root: store directory (created if missing).
        sync: journal fsync policy (``batch``/``always``/``never``).
        batch_size: journal writes are buffered and flushed as one
            fsynced batch every this many records (and on
            :meth:`flush`/:meth:`close`).  A crash loses at most the
            buffered tail — which is recomputed, never corrupted.
        writer: name of this writer's private journal in a shared
            store directory; ``None`` (the default) keeps the classic
            single-writer ``journal.jsonl`` layout.
    """

    def __init__(
        self,
        root: PathLike,
        sync: str = "batch",
        batch_size: int = 32,
        writer: Optional[str] = None,
    ):
        if batch_size < 1:
            raise StoreError(f"batch_size must be >= 1, got {batch_size}")
        if writer is not None and not _WRITER_RE.match(writer):
            raise StoreError(
                f"Invalid writer name {writer!r} "
                "(use letters, digits, '.', '_', '-')"
            )
        self.root = pathlib.Path(root)
        self.batch_size = batch_size
        self.writer = writer
        self._lock = threading.Lock()
        self._pending = []
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidated = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"Cannot create store directory {self.root}: {exc}"
            ) from exc
        journal_name = (
            JOURNAL_NAME if writer is None else f"journal-{writer}.jsonl"
        )
        with obs.span("store.open", root=str(self.root)):
            self._entries = load_snapshot(self.root / SNAPSHOT_NAME)
            self._journal = Journal(self.root / journal_name, sync=sync)
            self._entries.update(replay_latest(self._journal.records()))
            for sibling in self._sibling_journals():
                merge_entries(
                    self._entries, read_journal_tolerant(sibling)
                )
        obs.set_gauge("store.entries", len(self._entries))

    def _sibling_journals(self):
        """Journal files in this store owned by *other* writers."""
        own = self._journal.path
        return [
            path
            for path in sorted(self.root.glob("journal*.jsonl"))
            if path != own
        ]

    # -- evaluator-facing API ---------------------------------------------------

    def lookup_design(
        self, design: StencilDesign, context: str
    ) -> Optional[StoredResult]:
        """Decode the stored result for ``design`` under ``context``."""
        with obs.span("store.lookup"):
            return self._lookup_design(design, context)

    def _lookup_design(
        self, design: StencilDesign, context: str
    ) -> Optional[StoredResult]:
        key = store_key(design, context)
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or entry.get("v") != STORE_SCHEMA:
            with self._lock:
                self.misses += 1
            obs.inc("store.misses")
            return None
        resources = entry.get("resources")
        with self._lock:
            self.hits += 1
        obs.inc("store.hits")
        return StoredResult(
            cycles=entry.get("cycles"),
            resources=(
                _resources_from_json(resources)
                if resources is not None
                else None
            ),
        )

    def record_design(
        self,
        design: StencilDesign,
        context: str,
        cycles: Optional[float] = None,
        resources: Optional[DesignResources] = None,
    ) -> None:
        """Write through one result, merging with any existing entry."""
        if cycles is None and resources is None:
            return
        key = store_key(design, context)
        record = {
            "key": key,
            "v": STORE_SCHEMA,
            "ctx": context,
            "cycles": cycles,
            "resources": (
                _resources_to_json(resources)
                if resources is not None
                else None
            ),
        }
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.get("v") == STORE_SCHEMA:
                if record["cycles"] is None:
                    record["cycles"] = existing.get("cycles")
                if record["resources"] is None:
                    record["resources"] = existing.get("resources")
                if (
                    existing.get("cycles") == record["cycles"]
                    and existing.get("resources") == record["resources"]
                ):
                    return  # nothing new to persist
            self._entries[key] = record
            self._pending.append(record)
            self.writes += 1
            flush_now = len(self._pending) >= self.batch_size
            batch = self._pending if flush_now else None
            if flush_now:
                self._pending = []
        obs.inc("store.writes")
        obs.set_gauge("store.entries", len(self._entries))
        if batch:
            self._journal.append_batch(batch)

    # -- lifecycle --------------------------------------------------------------

    def flush(self) -> None:
        """Persist buffered writes (one fsynced journal batch)."""
        with self._lock:
            batch, self._pending = self._pending, []
        with obs.span("store.flush", records=len(batch)):
            if batch:
                self._journal.append_batch(batch)
            else:
                self._journal.flush()

    def close(self) -> None:
        """Flush and release the journal handle."""
        self.flush()
        self._journal.close()

    def __enter__(self) -> "DesignStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- maintenance (the ``store`` CLI surface) --------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def recovered_drops(self) -> int:
        """Torn journal records dropped during this open."""
        return self._journal.recovered_drops

    def stats_summary(self) -> Dict:
        """Structured description of the store's state and counters."""
        with self._lock:
            entries = dict(self._entries)
            runtime = {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "invalidated": self.invalidated,
            }
        contexts: Dict[str, int] = {}
        complete = 0
        for entry in entries.values():
            contexts[entry.get("ctx", "?")] = (
                contexts.get(entry.get("ctx", "?"), 0) + 1
            )
            if (
                entry.get("cycles") is not None
                and entry.get("resources") is not None
            ):
                complete += 1
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "writer": self.writer,
            "sibling_journals": len(self._sibling_journals()),
            "entries": len(entries),
            "complete_entries": complete,
            "contexts": dict(sorted(contexts.items())),
            "journal_records": len(self._journal),
            "recovered_drops": self.recovered_drops,
            "runtime": runtime,
        }

    def compact(self) -> Dict:
        """Fold all journals into the snapshot; report the outcome.

        In multi-writer mode this also folds and deletes sibling
        journals — offline maintenance, only safe with the other
        writers stopped.
        """
        self.flush()
        with self._lock:
            folded, total = compact(
                self.root, self._journal, foreign=self._sibling_journals()
            )
        return {"journal_folded": folded, "snapshot_entries": total}

    def _rewrite(self, keep) -> int:
        """Keep only entries passing ``keep``; rewrite snapshot, empty journal."""
        self.flush()
        with self._lock:
            before = len(self._entries)
            self._entries = {
                key: entry
                for key, entry in self._entries.items()
                if keep(entry)
            }
            dropped = before - len(self._entries)
            write_snapshot(self.root / SNAPSHOT_NAME, self._entries)
            self._journal.truncate()
            # Sibling journals would resurrect dropped entries on the
            # next open; their surviving records are already in the
            # snapshot (merged at our open), so delete them.  Offline
            # maintenance — other writers must be stopped.
            for sibling in self._sibling_journals():
                try:
                    sibling.unlink()
                except OSError as exc:
                    raise StoreError(
                        f"Cannot remove sibling journal {sibling}: {exc}"
                    ) from exc
            self.invalidated += dropped
        obs.inc("store.invalidated", dropped)
        obs.set_gauge("store.entries", len(self._entries))
        return dropped

    def gc(self, keep_context: Optional[str] = None) -> int:
        """Drop unusable entries; return how many were dropped.

        Unusable means: written under another schema version, or
        (when ``keep_context`` is given) belonging to any other
        evaluation context — e.g. a board the deployment no longer
        evaluates against.
        """
        def keep(entry: dict) -> bool:
            if entry.get("v") != STORE_SCHEMA:
                return False
            if keep_context is not None and entry.get("ctx") != keep_context:
                return False
            return True

        return self._rewrite(keep)

    def invalidate(self, context: Optional[str] = None) -> int:
        """Drop entries of one evaluation context (or all of them)."""
        if context is None:
            return self._rewrite(lambda entry: False)
        return self._rewrite(
            lambda entry: entry.get("ctx") != context
        )
