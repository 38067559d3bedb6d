"""repro.store — persistent design store + crash-safe resumable DSE.

The design-space evaluations the paper's optimizer enumerates are pure
functions of ``(design signature, evaluation context)``; this package
makes them durable artifacts instead of per-process throwaways:

- :mod:`repro.store.journal` — crash-safe append-only JSONL journal
  (CRC per record, fsync-on-batch, torn-tail recovery).
- :mod:`repro.store.index` — compacted snapshots and the offline
  compaction step.
- :mod:`repro.store.backing` — the content-addressed
  :class:`DesignStore` and the :class:`BackingStore` protocol the
  :class:`~repro.dse.evaluator.CandidateEvaluator` consults on miss
  and writes through on evaluation.

The design store is the one durable record of experiment work.  A
killed or repeated tiered search resumes through it: run it again on
an engine over the same store and finished candidates come back as
store hits (see ``docs/SEARCH.md``).  A killed or repeated experiment
sweep resumes the same way: its searches are store hits, and its
design points are re-measured on the deterministic simulator, so the
report comes out byte-identical.

Typical warm-start usage::

    from repro.dse.evaluator import CandidateEvaluator
    from repro.store import DesignStore

    with DesignStore("results-store") as store:
        engine = CandidateEvaluator(store=store)
        ...  # optimize_* / synthesize / sensitivity

Formats, invalidation rules, and resume semantics are documented in
``docs/STORE.md``.
"""

from repro.store.backing import (
    BackingStore,
    DesignStore,
    StoredResult,
    design_key,
    digest,
    evaluation_context,
)
from repro.store.index import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    STORE_SCHEMA,
    load_snapshot,
    write_snapshot,
)
from repro.store.journal import (
    CRASH_ENV,
    Journal,
    canonical_json,
    decode_record,
    encode_record,
)

__all__ = [
    "BackingStore",
    "DesignStore",
    "StoredResult",
    "design_key",
    "digest",
    "evaluation_context",
    "Journal",
    "canonical_json",
    "decode_record",
    "encode_record",
    "CRASH_ENV",
    "STORE_SCHEMA",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "load_snapshot",
    "write_snapshot",
]
