"""CLI tests: the ``store`` subcommand and crash-resumable experiments."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.experiments.runner import main
from repro.fpga.flexcl import FlexCLEstimator
from repro.opencl.platform import ADM_PCIE_7V3
from repro.store import (
    CRASH_ENV,
    STORE_SCHEMA,
    DesignStore,
    encode_record,
    evaluation_context,
)
from repro.tiling import make_baseline_design

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _seed_store(tmp_path, small_jacobi2d) -> str:
    """Create a CLI-layout store with one recorded entry."""
    design = make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)
    context = evaluation_context(ADM_PCIE_7V3, FlexCLEstimator())
    with DesignStore(tmp_path / "store" / "results") as store:
        store.record_design(design, context, cycles=10.0)
    return str(tmp_path / "store")


class TestStoreSubcommand:
    def test_stats(self, tmp_path, small_jacobi2d, capsys):
        root = _seed_store(tmp_path, small_jacobi2d)
        assert main(["store", "stats", "--store", root]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["schema"] == "repro.store/1"

    def test_compact(self, tmp_path, small_jacobi2d, capsys):
        root = _seed_store(tmp_path, small_jacobi2d)
        assert main(["store", "compact", "--store", root]) == 0
        out = capsys.readouterr().out
        assert "folded 1 journal record(s)" in out
        assert (pathlib.Path(root) / "results" / "snapshot.jsonl").exists()

    def test_gc(self, tmp_path, small_jacobi2d, capsys):
        root = _seed_store(tmp_path, small_jacobi2d)
        assert main(["store", "gc", "--store", root]) == 0
        assert "dropped 0" in capsys.readouterr().out

    def test_invalidate(self, tmp_path, small_jacobi2d, capsys):
        root = _seed_store(tmp_path, small_jacobi2d)
        assert main(["store", "invalidate", "--store", root]) == 0
        assert "Invalidated 1 entry" in capsys.readouterr().out
        main(["store", "stats", "--store", root])
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_action_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["store"])
        assert "requires an action" in capsys.readouterr().err

    def test_unknown_action_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["store", "defragment", "--store", "/tmp/x"])

    def test_store_dir_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["store", "stats"])
        assert "--store" in capsys.readouterr().err


def _run_cli(args, crash_after=None, timeout=300):
    env = dict(os.environ)
    env.pop(CRASH_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(
            None,
            [str(_REPO_ROOT / "src"), env.get("PYTHONPATH", "")],
        )
    )
    if crash_after is not None:
        env[CRASH_ENV] = str(crash_after)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments"] + args,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(_REPO_ROOT),
    )


def _report_text(stdout: str) -> str:
    """The experiment report minus the run-dependent store summary."""
    return "\n".join(
        line
        for line in stdout.splitlines()
        if not line.startswith("Store ")
    )


class TestCrashResume:
    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        """The tentpole guarantee, end to end at the CLI.

        A ``table3`` run is SIGKILLed mid-write by the fault injector
        (tearing a journal record on the way down), resumed from the
        same ``--store``, and must emit a byte-identical report to an
        uninterrupted run — while actually warm-starting.
        """
        args = ["table3", "--benchmarks", "jacobi-1d"]
        crashed_dir = tmp_path / "crashed"
        fresh_dir = tmp_path / "fresh"

        crashed = _run_cli(
            args + ["--store", str(crashed_dir)], crash_after=40
        )
        assert crashed.returncode == -signal.SIGKILL

        resumed = _run_cli(args + ["--store", str(crashed_dir)])
        assert resumed.returncode == 0, resumed.stderr

        uninterrupted = _run_cli(args + ["--store", str(fresh_dir)])
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        assert _report_text(resumed.stdout) == _report_text(
            uninterrupted.stdout
        )
        # The resume genuinely warm-started from the recovered journal.
        (summary,) = [
            line
            for line in resumed.stdout.splitlines()
            if line.startswith("Store ")
        ]
        hits = int(summary.split("(")[1].split(" hits")[0])
        assert hits > 0

        # The torn record was detected and dropped, not served.
        stats = _run_cli(["store", "stats", "--store", str(crashed_dir)])
        assert stats.returncode == 0
        assert json.loads(stats.stdout)["entries"] > 0


#: Keys an older version's sweep checkpoint used for the two
#: measurements of ``table3 --benchmarks jacobi-1d`` (baseline and
#: heterogeneous total cycles).
_OLD_SWEEP_KEYS = (
    "d2f7c190f097c7cb74e9473643876edebb624c146549896c2822fa6e172af580",
    "593fedc38719eb0bc61e0de25c26d550d7ea1ae5968e53637a2d12ea1c7387a9",
)


def _write_old_sweeps(root: pathlib.Path) -> bytes:
    """A ``sweeps.jsonl`` in the older format, with poisoned payloads:
    a run that read it would print different cycles."""
    root.mkdir(parents=True)
    data = "".join(
        encode_record({"key": key, "payload": 1.0, "v": STORE_SCHEMA})
        + "\n"
        for key in _OLD_SWEEP_KEYS
    ).encode("utf-8")
    (root / "sweeps.jsonl").write_bytes(data)
    return data


class TestOneDurableLayer:
    TABLE3 = ["table3", "--benchmarks", "jacobi-1d"]

    def test_commands_leave_no_sweep_journal(self, tmp_path, capsys):
        root = tmp_path / "store"
        program = [
            "program",
            "--program",
            "blur-sobel-threshold",
            "--grid",
            "32x32",
            "--iterations",
            "1",
        ]
        for argv in (self.TABLE3, program):
            assert main(argv + ["--store", str(root)]) == 0
            assert "checkpoint" not in capsys.readouterr().out
        assert (root / "results").is_dir()
        assert not (root / "sweeps.jsonl").exists()

    def test_old_sweep_journal_is_ignored(self, tmp_path, capsys):
        assert main(self.TABLE3 + ["--store", str(tmp_path / "fresh")]) == 0
        fresh = capsys.readouterr().out
        old = tmp_path / "old"
        written = _write_old_sweeps(old)
        assert main(self.TABLE3 + ["--store", str(old)]) == 0
        assert _report_text(capsys.readouterr().out) == _report_text(fresh)
        assert (old / "sweeps.jsonl").read_bytes() == written
