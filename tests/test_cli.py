"""End-to-end CLI tests through ``main(argv)``: argument plumbing, exit
codes, and CSV side effects."""

import hashlib

import numpy as np
import pytest

from bideconv import cli, experiments
from bideconv.cli import main
from bideconv.experiments import ExperimentSpec, emit_csv, run_experiment, solve_instance
from bideconv.spectral_init import DegenerateFitError

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


# each argv that exits 2 with the fragment of its own guard's message
CONFIGURATION_ERRORS = [
    (["solve", "--solver", "newton"], "unknown solver 'newton'"),
    (["solve", "--noise", "n3"], "noise model must be n1 or n2, got 'n3'"),
    (["solve", "--noise", "n2,sigma=1"], "the implant model takes no sigma"),
    (["solve", "--pfail", "0.75", "--d1", "4", "--d2", "4"], "p_fail must lie in [0, 1/2)"),
    (["solve", "--c", "two"], "expected one integer, got 'two'"),
    (["phase", "--trials", "0", "--d1", "4", "--d2", "4"], "trials must be an integer >= 1"),
    (["solve", "--d1", "5,6"], "expected one integer, got '5,6'"),
    (["solve", "--nu", "2"], "unrecognized arguments: --nu"),
    (["solve", "--d1", "4", "--d2", "4", "--c", "4", "--seed", "-1"],
     "the base seed must be non-negative"),
    # commands that run one cell take one value of each grid they read
    (["solve", *TINY, "--c", "4,8"], "solve takes one value of c"),
    (["solve", *TINY, "--solver", "geometric", "--pfail", "0.1,0.3"],
     "solve takes one value of pfail"),
    (["solve", *TINY, "--noise", "n1,sigma=1,10"], "solve takes one value of noise sigma"),
    (["solve", *TINY, "--q", "0.9,0.95"], "solve takes one value of q"),
    (["rip-probe", *TINY, "--c", "4,8"], "rip-probe takes one value of c"),
    (["rip-probe", *TINY, "--pfail", "0.1,0.3"], "rip-probe takes one value of pfail"),
    (["rip-probe", *TINY, "--noise", "n1,sigma=1,10"],
     "rip-probe takes one value of noise sigma"),
    (["sweep-q", *TINY, "--pfail", "0.1,0.3"], "sweep-q takes one value of pfail"),
    (["sweep-q", *TINY, "--noise", "n1,sigma=1,10"], "sweep-q takes one value of noise sigma"),
    # only sweep-q fans out over q
    (["converge", *TINY, "--q", "0.5,0.95"], "converge takes one value of q"),
    (["phase", *TINY, "--q", "0.5,0.95"], "phase takes one value of q"),
    (["init", *TINY, "--q", "0.5,0.95"], "unrecognized arguments: --q"),
    (["rip-probe", *TINY, "--q", "0.5,0.95"], "unrecognized arguments: --q"),
    # an infinite step exited 1 as a diverged run, and an infinite
    # weight exited 0 after every LAD-prox solve ended with a NaN gap
    (["solve", "--d1", "4", "--d2", "4", "--c", "4", "--solver", "geometric",
      "--lambda", "inf", "--iters", "3"], "lambda0 must be positive and finite, got inf"),
    (["solve", "--d1", "4", "--d2", "4", "--c", "4", "--solver", "proxlinear",
      "--beta", "inf"], "prox_beta must be positive and finite, got inf"),
    # settings come from flags alone
    (["solve", "--config", "x.cfg"], "unrecognized arguments: --config"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        CONFIGURATION_ERRORS,
        ids=[f"argv{i}" for i in range(len(CONFIGURATION_ERRORS))],
    )
    def test_config_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", *TINY, "--c", "two"], "expected one integer, got 'two'"),
            (["solve", *TINY, "--pfail", "abc"], "expected one number, got 'abc'"),
            (["solve", *TINY, "--noise", "n1,s=1"], "expected sigma=..., got 's=1'"),
        ],
        ids=["c-not-an-integer", "pfail-not-a-number", "noise-without-sigma"],
    )
    def test_malformed_value_names_the_form_it_expects(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_q_list_is_named_where_only_one_q_runs(self, capsys):
        # converge used to run the first q of the list and exit 0
        argv = ["converge", "--d1", "8", "--d2", "8", "--c", "4", "--pfail", "0.1", "--trials", "1",
                "--solver", "geometric", "--q", "0.5,0.95", "--iters", "50", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "converge takes one value of q" in err

    @pytest.mark.parametrize(
        "argv, settings",
        [
            (["init", *TINY, "--init", "random-heuristic", "--solver", "proxlinear"],
             ["--init", "--solver"]),
            (["rip-probe", *TINY, "--solver", "proxlinear", "--iters", "3", "--q", "0.1",
              "--init", "random-heuristic"], ["--solver", "--iters", "--q", "--init"]),
            (["converge", *TINY, "--threshold", "0.5"], ["--threshold"]),
            (["solve", *TINY, "--trials", "7"], ["--trials"]),
            # sweep-q always runs the geometric solver, so it takes no --solver or --beta
            (["sweep-q", *TINY, "--solver", "proxlinear"], ["--solver"]),
            # a solver setting that the chosen solver never reads
            (["solve", *TINY, "--solver", "proxlinear", "--lambda", "1e300", "--iters", "3"],
             ["solver 'proxlinear' reads no lambda"]),
            (["solve", *TINY, "--solver", "proxlinear", "--q", "0.1", "--iters", "3"],
             ["solver 'proxlinear' reads no q"]),
            (["solve", *TINY, "--q", "0.9", "--iters", "3"], ["solver 'polyak' reads no q"]),
            (["converge", *TINY, "--solver", "geometric", "--beta", "2", "--iters", "3"],
             ["solver 'geometric' reads no beta"]),
            (["phase", *TINY, "--solver", "polyak", "--lambda", "2", "--iters", "3"],
             ["solver 'polyak' reads no lambda"]),
            (["sweep-q", *TINY, "--beta", "2", "--iters", "3", "--trials", "1"], ["--beta"]),
        ],
        ids=["init", "rip-probe", "converge", "solve", "sweep-q", "solve-lambda", "solve-q",
             "solve-polyak-q", "converge-beta", "phase-lambda", "sweep-q-beta"],
    )
    def test_settings_the_command_never_reads_exit_2(self, capsys, argv, settings):
        # the command or its solver reads none of these settings, so it could only ignore them
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        for setting in settings:
            assert setting in err

    def test_bad_cell_is_refused_before_the_first_trial(self, capsys, monkeypatch):
        # the p_fail 0.1 cell comes first; the 0.6 cell used to fail only after it ran
        solves = []

        def counting_solve(*args):
            solves.append(args)
            return solve_instance(*args)

        monkeypatch.setattr(experiments, "solve_instance", counting_solve)
        argv = ["phase", "--d1", "8", "--d2", "8", "--c", "4", "--pfail", "0.1,0.6", "--trials",
                "2", "--solver", "geometric", "--iters", "200", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "p_fail must lie in [0, 1/2), got 0.6" in err
        assert solves == []

    def test_bad_c_is_refused_before_the_first_trial(self, capsys, monkeypatch):
        # the c = 4 cell comes first; c = 0 used to fail only after its 2 trials ran
        solves = []

        def counting_solve(*args):
            solves.append(args)
            return solve_instance(*args)

        monkeypatch.setattr(experiments, "solve_instance", counting_solve)
        argv = ["phase", "--d1", "8", "--d2", "8", "--c", "4,0", "--pfail", "0.1", "--trials",
                "2", "--solver", "geometric", "--iters", "50", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "dimensions must be positive, got d1=8 d2=8 m=0" in err
        assert solves == []

    def test_polyak_without_a_minimum_is_refused_before_the_first_trial(
        self, capsys, monkeypatch
    ):
        # the p_fail 0 cell comes first; its trials used to run before the 0.1
        # cell's unknown minimal value was refused
        solves = []

        def counting_solve(*args):
            solves.append(args)
            return solve_instance(*args)

        monkeypatch.setattr(experiments, "solve_instance", counting_solve)
        argv = ["phase", "--d1", "8", "--d2", "8", "--c", "4", "--pfail", "0,0.1", "--trials",
                "2", "--solver", "polyak", "--iters", "50", "--seed", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "min_value" in err
        assert solves == []

    def test_polyak_refusal_names_a_remedy_the_command_line_has(self, capsys):
        # no flag sets min_value, so the refusal must also name
        # the solvers that need none
        argv = ["phase", "--d1", "8", "--d2", "8", "--c", "4", "--pfail", "0.25", "--trials",
                "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "--solver geometric|proxlinear" in err
        assert "min_value" in err

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("a value went wrong"),
            # a LinAlgError is a ValueError, so it used to exit 2 as a configuration error
            np.linalg.LinAlgError("leading minor 3 of the matrix is not positive definite"),
            DegenerateFitError("every bilinear product is zero"),
        ],
        ids=["ValueError", "LinAlgError", "DegenerateFitError"],
    )
    def test_a_commands_own_failure_exits_1(self, capsys, monkeypatch, error):
        def failing_start(*args):
            raise error

        monkeypatch.setattr(experiments, "initial_point", failing_start)
        code, out, err = run(capsys, ["solve", *TINY, "--iters", "5"])
        assert (code, out) == (1, "")
        assert f"runtime failure: {error}" in err

    def test_newton_matrix_that_is_not_positive_definite_exits_1(self, capsys):
        # every setting is valid; the LAD-prox Newton matrix fails at this tiny beta
        argv = ["solve", "--d1", "5", "--d2", "5", "--c", "4", "--pfail", "0.1", "--solver",
                "proxlinear", "--beta", "1e-12", "--seed", "1"]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "runtime failure" in err and "not positive definite" in err

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
        # sweep-q always runs the geometric solver and takes no --solver
        solver = [] if command == "sweep-q" else ["--solver", "geometric"]
        code, _, err = run(
            capsys,
            [
                command,
                *TINY,
                *solver,
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

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_help_lists_exactly_the_settings_the_command_reads(self, command):
        # a command's --help is the one list of the settings it takes
        [subparsers] = [
            action for action in cli.build_parser()._actions if action.dest == "command"
        ]
        listed = {
            option for action in subparsers.choices[command]._actions
            for option in action.option_strings
        }
        assert listed == {"-h", "--help", *(f"--{key}" for key in cli._READS[command])}


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

    @pytest.mark.parametrize(
        "argv, default",
        [
            (["sweep-q", "--trials", "1"], ["--iters", "2000"]),
            (["sweep-q", "--iters", "1"], ["--trials", "50"]),
            (["solve", "--solver", "geometric", "--threshold", "1e-300"], ["--iters", "2000"]),
            (["solve", "--solver", "proxlinear", "--threshold", "1e-300"], ["--iters", "20"]),
            (["rip-probe"], ["--trials", "500"]),
        ],
        ids=["sweep-q-iters", "sweep-q-trials", "geometric-iters", "proxlinear-iters",
             "rip-probe-trials"],
    )
    def test_readme_defaults_are_what_runs(self, capsys, argv, default):
        # the README states each of these defaults; an unset flag must run it
        command, *settings = argv
        code, out, _ = run(capsys, [command, *TINY, *settings])
        code_set, out_set, _ = run(capsys, [command, *TINY, *settings, *default])
        assert code == code_set == 0
        assert out == out_set

    def test_library_defaults_write_the_command_table(self, capsys, tmp_path):
        # a spec that sets no solver field runs what the command runs: the
        # library's Polyak runs once stopped on a stall the command turned
        # off, and wrote 726 rows to its 3,006
        spec = ExperimentSpec(kind="convergence", d1=10, d2=10, m_ratios=(8,), p_fails=(0.0,),
                              trials=2, solver="polyak")
        library, command = tmp_path / "library.csv", tmp_path / "command.csv"
        emit_csv(run_experiment(spec), library)
        argv = ["converge", "--d1", "10", "--d2", "10", "--c", "8", "--pfail", "0", "--trials",
                "2", "--solver", "polyak", "--seed", "0", "--out", str(command)]
        assert main(argv) == 0
        capsys.readouterr()
        assert library.read_bytes() == command.read_bytes()

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            pytest.param(
                ["solve", *TINY, "--pfail", "0.1", "--solver", "geometric", "--iters", "40"],
                "87b39473f320866cb6e73b3c94ff24520b763b9511fb6f73a57e60dcf0c299b8",
                id="solve",
            ),
            pytest.param(
                ["converge", *TINY, "--c", "4,6", "--pfail", "0.1", "--trials", "2", "--solver",
                 "geometric", "--iters", "30"],
                "c974399c2d8d60f1773b98894434f94016f64893bb67984a947d06e6fbacc2f6",
                id="converge",
            ),
            pytest.param(
                ["rip-probe", *TINY, "--pfail", "0.1", "--trials", "20"], "80757652fd68d170d719b121d92931f254924473a8a2638dd2588e8a3ba18184", id="rip-probe"
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, tmp_path, monkeypatch, argv, sha256):
        # the exit code, stdout (for converge, the per-cell median summary) and
        # CSV bytes of the commands that build a table of their own
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, [*argv, "--out", "table.csv"])
        digest = hashlib.sha256(f"exit {code}\n{out}".encode())
        digest.update((tmp_path / "table.csv").read_bytes())
        assert digest.hexdigest() == sha256, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", *TINY, "--solver", "geometric", "--iters", "20"],
            ["converge", *TINY, "--c", "4,6", "--trials", "2", "--solver", "geometric",
             "--iters", "20"],
            ["rip-probe", *TINY, "--trials", "20"],
        ],
        ids=["solve", "converge", "rip-probe"],
    )
    def test_no_table_is_built_without_out(self, capsys, monkeypatch, argv):
        # converge used to build and sort its whole trace table only to print
        # per-cell medians; solve and rip-probe built theirs for nothing
        code, expected, _ = run(capsys, argv)
        assert code == 0

        def refuse(*args):
            raise AssertionError("built a table that nothing prints or writes")

        if argv[0] == "converge":  # its printed medians go through result_table
            grids, _ = experiments.KINDS["convergence"]
            monkeypatch.setitem(experiments.KINDS, "convergence", (grids, refuse))
        else:
            monkeypatch.setattr(cli, "result_table", refuse)
        assert run(capsys, argv) == (0, expected, "")

    def test_csv_bytes_stable_across_invocations(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["phase", *TINY, "--iters", "80", "--trials", "2"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
