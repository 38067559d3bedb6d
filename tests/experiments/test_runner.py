"""Tests for the CLI runner."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.runner import main

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Stencil Benchmark Suite" in out

    def test_table3_subset(self, capsys):
        assert main(["table3", "--benchmarks", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "jacobi-1d" in out
        assert "Heterogeneous" in out

    def test_figure7_subset(self, capsys):
        assert main(["figure7", "--benchmarks", "jacobi-2d"]) == 0
        out = capsys.readouterr().out
        assert "Validation of Performance Model" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    @pytest.mark.parametrize("command", ["optimize", "simulate", "codegen"])
    def test_unknown_benchmark_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--benchmark", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'nope'" in err
        assert "jacobi-1d" in err and "fdtd-3d" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--program", "nope"],
            ["--grid", "axb"],
            ["--grid", "64"],
            ["--grid", "64x0"],
            ["--iterations", "0"],
        ],
    )
    def test_bad_program_argument_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["program", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and flags[1] in err
        if flags[0] == "--program":
            assert "blur-sobel-threshold" in err and "fdtd-two-field" in err

    @pytest.mark.parametrize("command", ["optimize", "program"])
    def test_chunk_size_below_one_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--tiered", "--chunk-size", "0"])
        assert exc.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--worker-processes", "-1"),
            ("--queue-depth", "0"),
            ("--job-timeout", "-3"),
        ],
    )
    def test_out_of_range_serve_number_is_a_usage_error(
        self, flag, value, tmp_path
    ):
        # A subprocess, so a server that starts anyway fails the test
        # by its timeout instead of hanging the suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), env.get("PYTHONPATH", "")])
        )
        store = tmp_path / "store"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "--port", "0", "--store", str(store), flag, value,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"argument {flag}" in proc.stderr
        assert "listening" not in proc.stdout
        assert not store.exists()

    def test_simulate_tool(self, capsys):
        assert main(["simulate", "--benchmark", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "Total:" in out
        assert "Breakdown:" in out

    def test_simulate_baseline_design(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "jacobi-1d",
                    "--design",
                    "baseline",
                ]
            )
            == 0
        )
        assert "baseline" in capsys.readouterr().out

    def test_codegen_tool(self, capsys, tmp_path):
        assert (
            main(
                [
                    "codegen",
                    "--benchmark",
                    "jacobi-1d",
                    "--design",
                    "baseline",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "jacobi_1d_baseline.cl").exists()
        assert (tmp_path / "jacobi_1d_baseline_host.c").exists()

    def test_calibrate_tool(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "effective bandwidth" in out
        assert "C_pipe" in out

    def test_optimize_tool(self, capsys):
        assert main(["optimize", "--benchmark", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "hetero" in out
        assert "speedup" in out
