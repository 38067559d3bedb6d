"""Indexed snapshots: the compacted form of a journal.

A store directory holds two files::

    journal.jsonl    append-only, one record per write (crash-safe)
    snapshot.jsonl   compacted latest-record-per-key state + header

The snapshot is written atomically (temp + fsync + rename), so it is
either entirely the old state or entirely the new one; the journal
then only needs to carry writes made *since* the last compaction.
Loading is ``snapshot ∪ journal-replay`` with journal records winning,
which makes the compaction sequence crash-safe at every step:

1. write the merged snapshot atomically;
2. truncate the journal.

A crash between 1 and 2 merely replays journal records that the new
snapshot already contains — the merge is idempotent.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Tuple, Union

from repro import obs
from repro.errors import StoreError
from repro.store.journal import (
    Journal,
    encode_record,
    read_journal_tolerant,
    read_snapshot_lines,
    replay_latest,
    write_atomic,
)

PathLike = Union[str, pathlib.Path]

#: On-disk schema of the store directory layout and record shapes.
#: Bump on any incompatible change: entries written under another
#: version are never served (see ``DesignStore.gc``).
STORE_SCHEMA = "repro.store/1"

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.jsonl"


def load_snapshot(path: PathLike) -> Dict[str, dict]:
    """Load a snapshot file into a key → record mapping.

    The first record is the header (``schema``/``entries``); a header
    from a different schema version raises :class:`StoreError` rather
    than guessing at the layout.
    """
    records, exists = read_snapshot_lines(path)
    if not exists:
        return {}
    if not records:
        raise StoreError(f"Snapshot {path} is empty (missing header)")
    header, entries = records[0], records[1:]
    if header.get("schema") != STORE_SCHEMA:
        raise StoreError(
            f"Snapshot {path} has schema {header.get('schema')!r}, "
            f"expected {STORE_SCHEMA!r}"
        )
    declared = header.get("entries")
    if declared is not None and declared != len(entries):
        raise StoreError(
            f"Snapshot {path} declares {declared} entries "
            f"but holds {len(entries)}"
        )
    return replay_latest(entries)


def write_snapshot(path: PathLike, entries: Dict[str, dict]) -> None:
    """Atomically replace the snapshot with ``entries``.

    Entries are written in sorted-key order so equal states produce
    byte-identical snapshot files.
    """
    header = {"schema": STORE_SCHEMA, "entries": len(entries)}
    lines = [encode_record(header)]
    lines.extend(encode_record(entries[key]) for key in sorted(entries))
    write_atomic(path, lines)


def merge_entries(target: Dict[str, dict], records) -> None:
    """Merge journal records into ``target`` with upgrade semantics.

    Journals from different writers have no global order, but store
    entries are content-addressed: two records under one key describe
    the same deterministic evaluation and can differ at most in
    completeness (partial vs full).  Merging therefore fills
    missing fields instead of letting arbitrary file order win.
    """
    for record in records:
        key = record.get("key")
        if not isinstance(key, str):
            continue
        existing = target.get(key)
        if existing is not None and existing.get("v") == record.get("v"):
            merged = dict(record)
            if merged.get("cycles") is None:
                merged["cycles"] = existing.get("cycles")
            if merged.get("resources") is None:
                merged["resources"] = existing.get("resources")
            target[key] = merged
        else:
            target[key] = record


def compact(
    store_dir: PathLike, journal: Journal, foreign=()
) -> Tuple[int, int]:
    """Fold the journal into the snapshot; empty the journal.

    ``foreign`` lists sibling journal files of a multi-writer store
    (``journal-<writer>.jsonl``, see
    :class:`~repro.store.backing.DesignStore`) to fold in and delete.
    Only pass siblings whose writers are stopped — this is offline
    maintenance.  Ordering keeps every step crash-safe: the snapshot
    (already containing the foreign records) is replaced atomically
    *before* any journal is truncated or unlinked, so a crash in
    between merely replays records the snapshot already holds.

    Returns ``(journal_records_folded, snapshot_entries_after)``.
    """
    store_dir = pathlib.Path(store_dir)
    snapshot_path = store_dir / SNAPSHOT_NAME
    with obs.span("store.compact"):
        entries = load_snapshot(snapshot_path)
        folded = journal.records()
        entries.update(replay_latest(folded))
        foreign_count = 0
        foreign_paths = []
        for path in foreign:
            records = read_journal_tolerant(path)
            merge_entries(entries, records)
            foreign_count += len(records)
            foreign_paths.append(pathlib.Path(path))
        write_snapshot(snapshot_path, entries)
        journal.truncate()
        for path in foreign_paths:
            try:
                path.unlink()
            except OSError as exc:
                raise StoreError(
                    f"Cannot remove folded journal {path}: {exc}"
                ) from exc
    obs.inc("store.compactions")
    return len(folded) + foreign_count, len(entries)
