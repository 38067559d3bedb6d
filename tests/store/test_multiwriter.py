"""Multi-writer design store: per-writer journals, merge, compaction.

The process-sharded service gives every replica its own writer slot
(``journal-<writer>.jsonl``) in one shared store directory.  These
tests pin the coordination contract: writers never interleave bytes,
a reopened store sees the union of every journal, same-key records
merge by completeness, a sibling's torn tail is a live write frontier
(tolerated, never repaired), and offline maintenance folds every
journal into one snapshot.
"""

import pytest

from repro.errors import StoreError
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.flexcl import FlexCLEstimator
from repro.opencl.platform import ADM_PCIE_7V3
from repro.store import DesignStore, SNAPSHOT_NAME, evaluation_context
from repro.tiling import make_baseline_design


@pytest.fixture
def design(small_jacobi2d):
    return make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)


@pytest.fixture
def other_design(small_jacobi2d):
    return make_baseline_design(small_jacobi2d, (16, 16), (2, 2), 4)


@pytest.fixture
def context():
    return evaluation_context(ADM_PCIE_7V3, FlexCLEstimator())


def _journals(root):
    return sorted(p.name for p in root.glob("journal*.jsonl"))


class TestWriterSlots:
    def test_writer_names_the_journal(self, tmp_path):
        with DesignStore(tmp_path / "s", writer="replica-0") as store:
            assert store.writer == "replica-0"
        assert _journals(tmp_path / "s") == ["journal-replica-0.jsonl"]

    def test_writer_name_validation(self, tmp_path):
        for bad in ("", "a/b", "a b", "a\nb", "..", "x" * 65):
            with pytest.raises(StoreError):
                DesignStore(tmp_path / "s", writer=bad)

    def test_default_writer_keeps_legacy_journal(self, tmp_path):
        with DesignStore(tmp_path / "s"):
            pass
        assert _journals(tmp_path / "s") == ["journal.jsonl"]


class TestMultiWriterMerge:
    def test_disjoint_writers_union_on_reopen(
        self, tmp_path, design, other_design, context
    ):
        resources = ResourceEstimator().estimate(design)
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=1.0)
        with DesignStore(tmp_path / "s", writer="b") as b:
            b.record_design(
                other_design, context, cycles=2.0, resources=resources
            )
        with DesignStore(tmp_path / "s") as merged:
            assert len(merged) == 2
            assert merged.lookup_design(design, context).cycles == 1.0
            assert (
                merged.lookup_design(other_design, context).cycles == 2.0
            )

    def test_open_writer_sees_finished_siblings(
        self, tmp_path, design, context
    ):
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=3.0)
        with DesignStore(tmp_path / "s", writer="b") as b:
            assert b.lookup_design(design, context).cycles == 3.0
            assert b.stats_summary()["sibling_journals"] == 1

    def test_same_key_merges_by_completeness(
        self, tmp_path, design, context
    ):
        # Writer a knows the cycles, writer b knows the resources —
        # no global order exists, so the merge fills the gaps instead
        # of picking a winner.
        resources = ResourceEstimator().estimate(design)
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=7.0)
        with DesignStore(tmp_path / "s", writer="b") as b:
            b.record_design(design, context, resources=resources)
        with DesignStore(tmp_path / "s") as merged:
            stored = merged.lookup_design(design, context)
        assert stored.complete
        assert stored.cycles == 7.0
        assert stored.resources == resources

    def test_torn_sibling_tail_is_tolerated(
        self, tmp_path, design, other_design, context
    ):
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=5.0)
        journal_a = tmp_path / "s" / "journal-a.jsonl"
        intact = journal_a.read_bytes()
        # A torn tail is what a concurrent writer's in-flight append
        # looks like: everything before it is valid, the tail is not.
        journal_a.write_bytes(intact + b'{"torn": ')
        with DesignStore(tmp_path / "s", writer="b") as b:
            assert b.lookup_design(design, context).cycles == 5.0
        # Tolerant read never repairs someone else's file.
        assert journal_a.read_bytes() == intact + b'{"torn": '


class TestMultiWriterMaintenance:
    def test_compact_folds_every_journal(
        self, tmp_path, design, other_design, context
    ):
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=1.0)
        with DesignStore(tmp_path / "s", writer="b") as b:
            b.record_design(other_design, context, cycles=2.0)
        with DesignStore(tmp_path / "s", writer="a") as a:
            report = a.compact()
        assert report["snapshot_entries"] == 2
        assert (tmp_path / "s" / SNAPSHOT_NAME).exists()
        # Foreign journals are folded into the snapshot and removed.
        assert _journals(tmp_path / "s") == ["journal-a.jsonl"]
        with DesignStore(tmp_path / "s") as merged:
            assert len(merged) == 2

    def test_invalidate_does_not_resurrect_from_siblings(
        self, tmp_path, design, context
    ):
        with DesignStore(tmp_path / "s", writer="a") as a:
            a.record_design(design, context, cycles=1.0)
        with DesignStore(tmp_path / "s", writer="b") as b:
            assert b.invalidate(context) == 1
        # journal-a.jsonl still named the dropped entry; a rewrite
        # that left it behind would bring the entry back on reopen.
        with DesignStore(tmp_path / "s") as merged:
            assert merged.lookup_design(design, context) is None
