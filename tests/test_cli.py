"""End-to-end CLI tests through ``main(argv)``: argument plumbing, the
config-file layer, exit codes, and CSV side effects."""

import numpy as np
import pytest

from bideconv.cli import main

TINY = ["--d1", "5", "--d2", "5", "--c", "4", "--seed", "3"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_noiseless_solve_prints_trace_and_succeeds(self, capsys):
        code, out, err = run(
            capsys, ["solve", *TINY, "--iters", "300", "--threshold", "1e-6"]
        )
        assert code == 0
        assert "iteration" in out.splitlines()[0]
        assert "final relative error" in out
        assert "reached threshold" in out

    def test_runs_are_deterministic(self, capsys):
        args = ["solve", *TINY, "--solver", "geometric", "--iters", "50"]
        code_a, out_a, _ = run(capsys, args)
        code_b, out_b, _ = run(capsys, args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_trace_csv_written(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys, ["solve", *TINY, "--iters", "40", "--out", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "config,statistic,value"
        assert any(line.startswith("iteration=0,objective,") for line in lines)

    def test_corrupted_solve_with_geometric(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve",
                *TINY,
                "--c",
                "8",
                "--pfail",
                "0.25",
                "--noise",
                "n1,sigma=1.0",
                "--solver",
                "geometric",
                "--iters",
                "800",
                "--threshold",
                "1e-4",
            ],
        )
        assert code == 0
        assert "reached threshold" in out

    def test_polyak_on_corrupted_instance_is_config_error(self, capsys):
        code, _, err = run(
            capsys, ["solve", *TINY, "--pfail", "0.25", "--solver", "polyak"]
        )
        assert code == 2
        assert "min_value" in err


class TestConfigFile:
    def test_file_supplies_settings(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small solve\nd1=5\nd2=5\nc=4\nseed=3\niters=40\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, ["solve", "--config", str(cfg)])
        assert code == 0
        assert "final relative error" in out

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d1=5\nd2=5\nc=4\nseed=3\nsolver=bogus\n", encoding="utf-8")
        code_bad, _, err = run(capsys, ["solve", "--config", str(cfg)])
        assert code_bad == 2
        assert "solver" in err
        code_good, _, _ = run(
            capsys,
            ["solve", "--config", str(cfg), "--solver", "polyak", "--iters", "40"],
        )
        assert code_good == 0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dims=5\n", encoding="utf-8")
        code, _, err = run(capsys, ["solve", "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["solve", "--config", str(tmp_path / "absent.cfg")]
        )
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--solver", "newton"],
            ["solve", "--noise", "n3"],
            ["solve", "--noise", "n2,sigma=1"],
            ["solve", "--pfail", "0.75", "--d1", "4", "--d2", "4"],
            ["solve", "--c", "two"],
            ["phase", "--trials", "0", "--d1", "4", "--d2", "4"],
            ["solve", "--d1", "5,6"],
            ["solve", "--nu", "2"],
            # commands that run one cell take one value of each grid they read
            ["solve", *TINY, "--c", "4,8"],
            ["solve", *TINY, "--solver", "geometric", "--pfail", "0.1,0.3"],
            ["solve", *TINY, "--noise", "n1,sigma=1,10"],
            ["solve", *TINY, "--q", "0.9,0.95"],
            ["rip-probe", *TINY, "--c", "4,8"],
            ["rip-probe", *TINY, "--pfail", "0.1,0.3"],
            ["rip-probe", *TINY, "--noise", "n1,sigma=1,10"],
            ["sweep-q", *TINY, "--pfail", "0.1,0.3"],
            ["sweep-q", *TINY, "--noise", "n1,sigma=1,10"],
            # only sweep-q fans out over q
            ["converge", *TINY, "--q", "0.5,0.95"],
            ["phase", *TINY, "--q", "0.5,0.95"],
            ["init", *TINY, "--q", "0.5,0.95"],
            ["rip-probe", *TINY, "--q", "0.5,0.95"],
        ],
    )
    def test_config_errors_exit_2(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err != ""

    def test_q_list_is_named_where_only_one_q_runs(self, capsys):
        # converge used to run the first q of the list and exit 0
        argv = ["converge", "--d1", "8", "--d2", "8", "--c", "4", "--pfail", "0.1", "--trials", "1",
                "--solver", "geometric", "--q", "0.5,0.95", "--iters", "50", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "converge takes one value of q" in err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["render"]) == 2

    def test_unwritable_output_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "solve",
                *TINY,
                "--iters",
                "5",
                "--out",
                str(tmp_path / "missing-dir" / "x.csv"),
            ],
        )
        assert code == 1
        assert "missing-dir" in err

    def test_divergent_solve_exits_1(self, capsys):
        # the first step lands on a finite point whose objective overflows; the
        # second lands on a point that is itself non-finite
        overflowing = ["--d1", "8", "--d2", "8", "--c", "8", "--pfail", "0.1", "--seed", "1"]
        for instance, step in ((TINY, "1e300"), (overflowing, "1e308")):
            code, out, err = run(
                capsys,
                ["solve", *instance, "--solver", "geometric", "--lambda", step, "--iters", "5"],
            )
            assert code == 1
            assert "runtime failure" in err and "diverged" in err
            assert "final relative error" not in out

    @pytest.mark.parametrize("command", ["phase", "sweep-q"])
    def test_divergent_experiment_exits_1(self, capsys, tmp_path, command):
        out_file = tmp_path / "table.csv"
        code, _, err = run(
            capsys,
            [
                command,
                *TINY,
                "--solver",
                "geometric",
                "--lambda",
                "1e300",
                "--iters",
                "5",
                "--trials",
                "2",
                "--out",
                str(out_file),
            ],
        )
        assert code == 1
        assert "runtime failure" in err and "diverged" in err and "instance seed" in err
        assert not out_file.exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestExperimentCommands:
    def test_phase_grid(self, capsys, tmp_path):
        out_file = tmp_path / "phase.csv"
        code, out, _ = run(
            capsys,
            [
                "phase",
                *TINY,
                "--solver",
                "geometric",
                "--iters",
                "120",
                "--trials",
                "2",
                "--threshold",
                "1e-3",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        assert "success_rate" in out
        lines = out_file.read_text(encoding="utf-8").splitlines()
        # one success_rate and one median row for the single cell
        assert len(lines) == 3

    def test_init_with_sigma_list(self, capsys, tmp_path):
        out_file = tmp_path / "init.csv"
        code, out, _ = run(
            capsys,
            [
                "init",
                *TINY,
                "--pfail",
                "0.25",
                "--noise",
                "n1,sigma=1,5",
                "--trials",
                "3",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert "sigma=1," in text and "sigma=5," in text
        assert text.count("median_direction_error") == 2

    def test_sweep_q_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            [
                "sweep-q",
                *TINY,
                "--q",
                "0.9,0.95",
                "--trials",
                "2",
                "--iters",
                "50",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2  # header + |qs| * |cs|

    def test_converge_prints_cell_medians(self, capsys, tmp_path):
        out_file = tmp_path / "converge.csv"
        code, out, _ = run(
            capsys,
            [
                "converge",
                *TINY,
                "--c",
                "4,6",
                "--iters",
                "60",
                "--trials",
                "3",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        # recompute each cell's median of the trials' last-iteration errors
        last: dict[tuple[str, str], tuple[int, float]] = {}
        for line in out_file.read_text(encoding="utf-8").splitlines()[1:]:
            config, statistic, value = line.split(",")
            if statistic != "relative_error":
                continue
            *cell, trial, iteration = config.split(";")
            key = (";".join(cell), trial)
            k = int(iteration.split("=")[1])
            if key not in last or k > last[key][0]:
                last[key] = (k, float(value))
        finals: dict[str, list[float]] = {}
        for (cell, _), (_, value) in last.items():
            finals.setdefault(cell, []).append(value)
        assert sorted(len(v) for v in finals.values()) == [3, 3]
        # cells are keyed by their c, the one coordinate that varies
        expected = {
            cell.split(";")[0]: f"{np.median(values):.10g}" for cell, values in finals.items()
        }
        printed = {
            line.split(";")[0]: line.split(" = ")[1]
            for line in out.splitlines()
            if "median_final_error" in line
        }
        assert printed == expected

    def test_rip_probe_reports_constants(self, capsys):
        code, out, _ = run(capsys, ["rip-probe", *TINY, "--trials", "100"])
        assert code == 0
        assert "c_lower" in out and "c_upper" in out and "c_outlier" in out
        lower = float(out.split("c_lower")[1].split("=")[1].split()[0])
        upper = float(out.split("c_upper")[1].split("=")[1].split()[0])
        assert 0.0 < lower <= upper

    def test_rip_probe_writes_its_constants_to_csv(self, capsys, tmp_path):
        out_file = tmp_path / "rip.csv"
        code, out, _ = run(capsys, ["rip-probe", *TINY, "--trials", "20", "--out", str(out_file)])
        assert code == 0
        assert f"wrote 4 rows to {out_file}" in out
        printed = {
            key.strip(): value.strip()
            for key, _, value in (line.partition("=") for line in out.splitlines())
        }
        rows = out_file.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "config,statistic,value"
        written = {}
        for row in rows[1:]:
            config, statistic, value = row.split(",")
            assert config == "c=4;p_fail=0;sigma=1"
            written[statistic] = float(value)
        assert sorted(written) == ["c_lower", "c_outlier", "c_upper", "samples"]
        assert written["samples"] == 20 == int(printed["samples"])
        for statistic in ("c_lower", "c_upper", "c_outlier"):
            assert f"{written[statistic]:.10g}" == printed[statistic]

    def test_csv_bytes_stable_across_invocations(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["phase", *TINY, "--iters", "80", "--trials", "2"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
