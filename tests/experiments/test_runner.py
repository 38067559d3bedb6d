"""Tests for the CLI runner."""

import pytest

from repro.experiments.runner import main


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
