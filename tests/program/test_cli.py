"""`repro program` command-line entry point."""

from __future__ import annotations

import re

from repro.experiments.runner import main


def test_program_command_runs(capsys):
    assert (
        main(
            [
                "program",
                "--program",
                "blur-sobel-threshold",
                "--grid",
                "32x32",
                "--iterations",
                "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "blur-sobel-threshold" in out
    assert "coresident" in out
    assert "Predicted" in out


def test_program_command_emits_pipeline(tmp_path, capsys):
    assert (
        main(
            [
                "program",
                "--program",
                "blur-sobel-threshold",
                "--grid",
                "32x32",
                "--iterations",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        == 0
    )
    files = sorted(p.name for p in tmp_path.iterdir())
    assert any(name.endswith("_pipeline.cl") for name in files)
    assert any(name.endswith("_pipeline_host.c") for name in files)


def _tiered_program(store, chunk_size):
    return [
        "program",
        "--program",
        "blur-sobel-threshold",
        "--grid",
        "32x32",
        "--iterations",
        "1",
        "--tiered",
        "--chunk-size",
        str(chunk_size),
        "--store",
        str(store),
    ]


def _search_counts(out):
    """``(chunks, tier-1 evaluations, store hits)`` of a tiered run."""
    [match] = re.findall(
        r"^Search: (\d+) chunks, (\d+) tier-1 evaluations, "
        r"(\d+) store hits$",
        out,
        re.MULTILINE,
    )
    return tuple(int(n) for n in match)


def _design_lines(out):
    """Everything but the search and store counters."""
    return [
        ln
        for ln in out.splitlines()
        if not ln.startswith(("Search:", "Store "))
    ]


def test_program_command_tiered_resume(tmp_path, capsys):
    argv = _tiered_program(tmp_path, 8)
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert _search_counts(first) == (108, 864, 0)
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert _search_counts(second) == (108, 0, 864)
    # The DSE line counts candidates, which the store answered here.
    assert "DSE: 864 candidates, 864 feasible" in second.splitlines()
    assert _design_lines(second) == _design_lines(first)


def test_program_command_tiered_rerun_with_changed_chunk_size(
    tmp_path, capsys
):
    """The store answers a re-run whatever its chunk size."""
    assert main(_tiered_program(tmp_path, 8)) == 0
    first = capsys.readouterr().out
    assert main(_tiered_program(tmp_path, 16)) == 0
    second = capsys.readouterr().out
    chunks, evaluations, store_hits = _search_counts(second)
    assert (chunks, evaluations) == (54, 0)
    assert store_hits > 0
    assert _design_lines(second) == _design_lines(first)
