"""Experiment-driver tests: seeding determinism, table semantics, the CSV
contract, and small end-to-end Monte-Carlo runs of each driver."""

import hashlib
import math
import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bideconv import cli, experiments
from bideconv.experiments import (
    GRID_KEYS,
    ExperimentSpec,
    cell_setup,
    cells,
    derive_seed,
    emit_csv,
    initial_point,
    result_table,
    run_experiment,
    run_trial,
    run_trials,
    solve_instance,
    trial_seed,
)
from bideconv.model import corrupted_count, generate_instance
from bideconv.solvers import SolverConfig
from oracles import values


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        kind="phase",
        d1=6,
        d2=6,
        m_ratios=(8,),
        p_fails=(0.0,),
        trials=3,
        base_seed=7,
        solver="polyak",
        solver_config=SolverConfig(max_iters=120, tol_rel_err=1e-7),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "phase", 8, 0.25, 0) == derive_seed(3, "phase", 8, 0.25, 0)

    def test_sensitive_to_every_part(self):
        baseline = derive_seed(3, "phase", 8, 0.25, 0)
        assert derive_seed(4, "phase", 8, 0.25, 0) != baseline
        assert derive_seed(3, "conv", 8, 0.25, 0) != baseline
        assert derive_seed(3, "phase", 7, 0.25, 0) != baseline
        assert derive_seed(3, "phase", 8, 0.3, 0) != baseline
        assert derive_seed(3, "phase", 8, 0.25, 1) != baseline

    def test_float_identity_is_bitwise(self):
        # 0.1 + 0.2 != 0.3 in float64, so the derived streams differ too
        assert derive_seed(0, 0.1 + 0.2) != derive_seed(0, 0.3)
        assert derive_seed(0, 0.5) == derive_seed(0, 1.0 / 2.0)

    def test_rejects_booleans(self):
        with pytest.raises(TypeError):
            derive_seed(0, True)

    @pytest.mark.parametrize("flag", [np.True_, np.False_], ids=["true", "false"])
    def test_rejects_numpy_booleans(self, flag):
        # NumPy's bool is no bool subclass: np.True_ seeded the stream of 1
        with pytest.raises(TypeError):
            derive_seed(0, flag)
        with pytest.raises(TypeError):
            derive_seed(flag, "phase")

    def test_base_seed_is_judged_like_every_part(self):
        # the base seed was taken as int(base_seed): 1.5 and True collided with 1
        assert derive_seed(1.5, "phase", 8, 0) != derive_seed(1, "phase", 8, 0)
        with pytest.raises(TypeError):
            derive_seed(True, "phase", 8, 0)

    def test_integer_seeds_keep_their_streams(self):
        assert derive_seed(3, "phase", 8, 0.25, 0) == 12619550142080592898

    def test_numpy_floats_are_seeded_by_their_bits(self):
        # int() truncated them: np.float32(0.1), np.float32(0.2) and 0 gave one seed
        tenth, fifth = np.float32(0.1), np.float32(0.2)
        assert len({derive_seed(0, tenth), derive_seed(0, fifth), derive_seed(0, 0)}) == 3
        assert derive_seed(0, tenth) == derive_seed(0, float(tenth))
        assert derive_seed(0, np.float64(0.25)) == derive_seed(0, 0.25)

    def test_numpy_float_cells_draw_distinct_instances(self):
        spec = small_spec(m_ratios=(4,), p_fails=(np.float32(0.1), np.float32(0.2)), trials=2,
                          solver="geometric")
        first, second = cells(spec)
        assert trial_seed(spec, first, 0) != trial_seed(spec, second, 0)

    def test_rejects_parts_that_are_no_int_float_or_str(self):
        # int() took a Fraction as its truncation, so 1/2 seeded the stream of 0
        with pytest.raises(TypeError, match="no seed material"):
            derive_seed(0, Fraction(1, 2))
        with pytest.raises(TypeError, match="no seed material"):
            derive_seed(0, None)


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": 0},
            {"m_ratios": ()},
            {"p_fails": ()},
            {"sigmas": ()},
            {"qs": ()},
            {"solver": "newton"},
            {"init": "zeros"},
            {"success_threshold": 0.0},
            {"d1": 0},
            {"left": "circulant"},
            {"m_ratios": (8, 8)},
            {"kind": "sweep"},
            {"noise_kind": "gaussian"},
            {"qs": (1.0,)},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # a second q in the solver config would silently replace the spec's
            pytest.param({"solver_config": SolverConfig(decay_q=0.5)}, "qs", id="decay_q"),
            # a qsweep runs the geometric solver only
            pytest.param({"kind": "qsweep", "solver": "proxlinear"}, "solver 'proxlinear'",
                         id="qsweep-proxlinear"),
            pytest.param({"kind": "qsweep", "solver": "polyak"}, "solver 'polyak'",
                         id="qsweep-polyak"),
            # every cell's noise is judged before any trial: n2 reads no sigma, so a
            # second one would only fan out reseeded copies
            pytest.param({"kind": "init", "noise_kind": "n2", "sigmas": (1.0, 100.0)},
                         "reads no sigma", id="n2-sigmas"),
            # p_fail 0 draws no noise, yet its sigma is judged all the same
            pytest.param({"p_fails": (0.0,), "sigmas": (-3.0,)}, "sigma must be positive",
                         id="negative-sigma"),
            # an infinite sigma failed only in its cell's first trial, as non-finite y
            pytest.param({"p_fails": (0.1,), "sigmas": (1.0, math.inf)},
                         "sigma must be positive and finite, got inf", id="infinite-sigma"),
            # every cell is judged, not only the first one to run
            pytest.param({"p_fails": (0.1, 0.6)}, "p_fail must lie", id="p_fail-0.6"),
            # every c is judged by the model's shape rule: m = c(d1 + d2) must be
            # positive, and a Hadamard left side needs a power-of-two block >= d1
            pytest.param({"m_ratios": (0,)}, "dimensions must be positive.*m=0", id="c-0"),
            pytest.param({"m_ratios": (4, -2)}, "dimensions must be positive.*m=-24",
                         id="c-negative"),
            pytest.param({"left": "hadamard", "d1": 100, "d2": 100, "m_ratios": (16, 8)},
                         "m=1600 admits Hadamard blocks of dimension at most 64",
                         id="hadamard-block"),
            # m & (-m) raised a TypeError on the float m = 2.5 (6 + 6)
            pytest.param({"m_ratios": (2.5,)}, "dimensions must be integers.*m=30.0",
                         id="c-not-integer"),
            # a negative seed failed only in the first trial, in NumPy's seeding
            pytest.param({"base_seed": -1}, "seed must be non-negative, got -1",
                         id="negative-seed"),
            # a float seed drew the instances of its integer part, and True those of 1
            pytest.param({"base_seed": 1.5}, "seed must be an integer, got 1.5",
                         id="seed-not-integer"),
            pytest.param({"base_seed": True}, "seed must be an integer, got True",
                         id="seed-bool"),
            # a float count raised a TypeError naming no setting in the first
            # trial, and True ran one trial
            pytest.param({"trials": 2.5}, "trials must be an integer >= 1, got 2.5",
                         id="trials-not-integer"),
            pytest.param({"trials": True}, "trials must be an integer >= 1, got True",
                         id="trials-bool"),
            # a bool size raised a TypeError naming no setting in the first trial
            pytest.param({"d1": True}, "dimensions must be integers, got d1=True",
                         id="d1-bool"),
            # a bool grid value passed every check, then derive_seed raised a
            # TypeError in the cell's first trial
            pytest.param({"m_ratios": (True,)}, "'m_ratios': True.*ambiguous seed material",
                         id="c-bool"),
            pytest.param({"p_fails": (False,)}, "'p_fails': False.*ambiguous seed material",
                         id="p_fail-bool"),
            pytest.param({"sigmas": (True,)}, "'sigmas': True.*ambiguous seed material",
                         id="sigma-bool"),
            # NumPy's bool passed the bool checks, and np.True_ drew the cells of c = 1
            pytest.param({"kind": "init", "m_ratios": (np.True_,)},
                         "'m_ratios': .*True.*ambiguous seed material", id="c-numpy-bool"),
            # a Fraction drew the cells of its truncation, sigma = 1
            pytest.param({"sigmas": (Fraction(3, 2),)}, "'sigmas': Fraction.*no seed material",
                         id="sigma-fraction"),
        ],
    )
    def test_rejection_names_the_setting(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**overrides)

    def test_polyak_needs_a_known_minimum_in_every_cell(self):
        # the p_fail 0 cell comes first; the 0.1 cell used to fail only after it ran
        with pytest.raises(ValueError, match="min_value"):
            small_spec(p_fails=(0.0, 0.1))

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"solver_config": SolverConfig(max_iters=120, min_value=0.0)},
                         id="min-value-set"),
            # init runs no solver, and rip-probe borrows it
            pytest.param({"kind": "init"}, id="init"),
            # 0.005 * 96 rounds to no corrupted measurement
            pytest.param({"p_fails": (0.0, 0.005)}, id="no-corrupted-count"),
        ],
    )
    def test_polyak_minimum_rule_spares_cells_it_does_not_reach(self, overrides):
        assert corrupted_count(0.005, 96) == 0
        spec = small_spec(**{"p_fails": (0.0, 0.1)} | overrides)
        assert spec.solver == "polyak"


class TestResultTable:
    def test_duplicate_rows_rejected(self):
        # the pair given twice is not adjacent until the rows are sorted
        rows = [
            ((("c", 8),), "success_rate", 1.0),
            ((("c", 4),), "success_rate", 1.0),
            ((("c", 8),), "success_rate", 0.5),
        ]
        assert len(result_table(rows[:2])) == 2
        with pytest.raises(ValueError, match="duplicate"):
            result_table(rows)

    def test_sorted_rows_are_lexicographic_in_config(self):
        table = result_table(
            [
                ((("c", 10), ("q", 0.5)), "v", 1),
                ((("c", 2), ("q", 0.9)), "v", 2),
                ((("c", 2), ("q", 0.1)), "v", 3),
            ]
        )
        configs = [config for config, _, _ in table]
        assert configs == [
            (("c", 2), ("q", 0.1)),
            (("c", 2), ("q", 0.9)),
            (("c", 10), ("q", 0.5)),
        ]
        assert [type(value) for _, _, value in table] == [float] * 3

    def test_values_filters_by_config_items(self):
        table = result_table(
            [
                ((("c", 2), ("trial", 0)), "err", 0.5),
                ((("c", 2), ("trial", 1)), "err", 0.25),
                ((("c", 3), ("trial", 0)), "err", 0.125),
            ]
        )
        assert values(table, "err", c=2) == [0.5, 0.25]
        assert values(table, "err", c=3, trial=0) == [0.125]
        assert values(table, "missing") == []


class TestRunConvergence:
    def test_noiseless_polyak_reaches_threshold(self):
        spec = small_spec(
            kind="convergence",
            d1=10,
            d2=10,
            trials=2,
            solver_config=SolverConfig(max_iters=500, tol_rel_err=1e-7),
        )
        table = run_experiment(spec)
        for trial in range(spec.trials):
            errs = values(table, "relative_error", c=8, trial=trial)
            assert errs[-1] <= 1e-5

    def test_rerun_is_bit_identical(self):
        spec = small_spec(kind="convergence", trials=1)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a == b

    def test_emits_monotone_iteration_configs_with_matvecs(self):
        spec = small_spec(kind="convergence", trials=1)
        table = run_experiment(spec)
        matvecs = values(table, "matvecs", trial=0)
        assert matvecs == sorted(matvecs)
        assert matvecs[0] == 4.0


class TestRunPhaseTransition:
    def test_noiseless_well_posed_cell_always_succeeds(self):
        spec = small_spec(d1=12, d2=12, trials=4)
        table = run_experiment(spec)
        assert values(table, "success_rate", c=8)[0] == 1.0

    def test_cell_results_survive_grid_reordering_and_subsetting(self):
        full = run_experiment(small_spec(m_ratios=(4, 8), trials=2))
        reordered = run_experiment(small_spec(m_ratios=(8, 4), trials=2))
        subset = run_experiment(small_spec(m_ratios=(8,), trials=2))
        for table in (reordered, subset):
            assert values(table, "success_rate", c=8) == values(full, "success_rate", c=8)
            assert values(table, "median_final_error", c=8) == values(
                full, "median_final_error", c=8
            )

    def test_runs_at_the_specs_q(self):
        # the same cell at the default q = 0.98 gives 0.34689449159591623
        spec = ExperimentSpec(
            kind="phase",
            d1=6,
            d2=6,
            m_ratios=(4,),
            p_fails=(0.1,),
            trials=2,
            solver="geometric",
            qs=(0.5,),
            solver_config=SolverConfig(max_iters=40),
        )
        assert values(run_experiment(spec), "median_final_error") == [0.2818004559664355]

    def test_success_rate_monotone_in_oversampling(self):
        spec = small_spec(
            d1=8,
            d2=8,
            m_ratios=(2, 8),
            trials=6,
            solver="geometric",
            solver_config=SolverConfig(max_iters=400, lambda0=1.0),
            qs=(0.95,),
            success_threshold=1e-4,
        )
        table = run_experiment(spec)
        low = values(table, "success_rate", c=2)[0]
        high = values(table, "success_rate", c=8)[0]
        assert high >= low - 0.10


class TestRunQSweep:
    def test_one_row_per_cell(self):
        spec = small_spec(
            kind="qsweep",
            m_ratios=(4, 8),
            qs=(0.9, 0.95, 0.98),
            trials=2,
            solver="geometric",
            solver_config=SolverConfig(max_iters=60),
        )
        table = run_experiment(spec)
        assert len(table) == 6
        for c in (4, 8):
            for q in (0.9, 0.95, 0.98):
                assert len(values(table, "mean_final_error", c=c, q=q)) == 1

    def test_faster_decay_wins_at_short_budgets(self):
        # at 150 iterations a q of 0.9 has shrunk the step to 1e-7 while
        # q = 0.995 is still near 0.5: the mean final error must reflect it
        spec = small_spec(
            kind="qsweep",
            d1=8,
            d2=8,
            qs=(0.9, 0.995),
            trials=3,
            solver="geometric",
            solver_config=SolverConfig(max_iters=150),
        )
        table = run_experiment(spec)
        fast = values(table, "mean_final_error", q=0.9)[0]
        slow = values(table, "mean_final_error", q=0.995)[0]
        assert fast < slow
        assert slow > 1e-5

    @pytest.mark.parametrize(
        "kind, grid",
        [
            pytest.param("qsweep", "p_fails", id="p_fails"),
            pytest.param("qsweep", "sigmas", id="sigmas"),
            pytest.param("convergence", "qs", id="convergence-qs"),
            pytest.param("phase", "qs", id="phase-qs"),
            pytest.param("init", "qs", id="init-qs"),
        ],
    )
    def test_spec_rejects_several_values_of_a_fixed_grid(self, kind, grid):
        # a sweep runs at one p_fail and one sigma, every other kind at one q;
        # a second value would be dropped
        with pytest.raises(ValueError, match=grid):
            small_spec(kind=kind, solver="geometric", **{grid: (0.1, 0.3)})


class TestRunInitQuality:
    def test_median_matches_trial_rows(self):
        spec = small_spec(
            kind="init", d1=10, d2=10, p_fails=(0.25,), sigmas=(1.0, 5.0), trials=5
        )
        table = run_experiment(spec)
        for sigma in (1.0, 5.0):
            trials = [
                values(table, "direction_error", sigma=sigma, trial=t)[0]
                for t in range(5)
            ]
            med = values(table, "median_direction_error", sigma=sigma)[0]
            assert med == float(np.median(trials))


def record_key(record):
    trace = None if record.trace is None else record.trace.records
    return record.cell, record.trial, record.seed, record.error, repr(trace)


class TestTrials:
    """Each trial's record depends on its spec, cell and trial number alone,
    so its trials may run in any order, on any subset of the grid."""

    GEOMETRIC = dict(solver="geometric", solver_config=SolverConfig(max_iters=30))
    SPECS = {
        "convergence": dict(kind="convergence", m_ratios=(4, 6), p_fails=(0.1, 0.2), **GEOMETRIC),
        "phase": dict(m_ratios=(4, 8), p_fails=(0.1, 0.2), **GEOMETRIC),
        "qsweep": dict(kind="qsweep", m_ratios=(4, 8), p_fails=(0.1,), qs=(0.9, 0.95),
                       **GEOMETRIC),
        "init": dict(kind="init", p_fails=(0.1, 0.2), sigmas=(1.0, 10.0)),
    }

    @pytest.mark.parametrize("kind", list(SPECS))
    def test_a_record_depends_only_on_its_arguments(self, kind):
        spec = small_spec(trials=2, **self.SPECS[kind])
        records = run_trials(spec)
        assert len(records) == 4 * spec.trials
        expected = [record_key(record) for record in records]
        backwards = [run_trial(spec, r.cell, r.trial) for r in reversed(records)]
        assert [record_key(record) for record in reversed(backwards)] == expected
        # a spec that holds only the last cell runs that cell's trials alone
        cell = records[-1].cell
        grid = {key: name for name, key in GRID_KEYS.items()}
        subset = run_trials(replace(spec, **{grid[key]: (value,) for key, value in cell}))
        assert [record_key(r) for r in subset] == [record_key(r) for r in records[-2:]]
        for record in records:
            values = [value for _, value in record.cell]
            assert record.seed == derive_seed(spec.base_seed, kind, *values, record.trial)
            assert record_key(pickle.loads(pickle.dumps(record))) == record_key(record)
            assert (record.trace is None) == (kind == "init")

    def test_a_diverged_trial_is_recorded_before_the_run_stops(self, monkeypatch):
        returned = []

        def recording(*args):
            returned.append(run_trial(*args))
            return returned[-1]

        monkeypatch.setattr(experiments, "run_trial", recording)
        # the first step of length 1e300 overflows the objective
        config = SolverConfig(max_iters=5, lambda0=1e300)
        spec = small_spec(solver="geometric", solver_config=config)
        with pytest.raises(RuntimeError) as raised:
            run_trials(spec)
        assert len(returned) == 1
        record = returned[0]
        assert record.trace.diverged
        assert str(raised.value) == (
            f"solver diverged on instance seed {record.seed}: "
            f"non-finite objective at iteration {record.trace.final.iteration}"
        )


class TestCells:
    """``cells`` and ``cell_setup`` are the one home of a spec's cells: the
    spec's judge, its trials and the solve command all build from them."""

    @pytest.mark.parametrize("kind", list(TestTrials.SPECS))
    def test_judge_and_trials_build_each_cell_alike(self, kind, monkeypatch):
        built, solved = [], []

        def recording_setup(spec, cell):
            built.append(cell)
            return cell_setup(spec, cell)

        def recording_solve(inst, spec, config):
            solved.append((inst.seed, config))
            return solve_instance(inst, spec, config)

        monkeypatch.setattr(experiments, "cell_setup", recording_setup)
        spec = small_spec(trials=2, **TestTrials.SPECS[kind])
        grid = list(cells(spec))
        assert len(grid) == 4
        assert built == grid  # the judge builds each cell once, in grid order
        monkeypatch.setattr(experiments, "solve_instance", recording_solve)
        records = run_trials(spec)
        assert [r.cell for r in records] == [cell for cell in grid for _ in range(spec.trials)]
        expected = [(r.seed, cell_setup(spec, r.cell).config) for r in records if kind != "init"]
        assert solved == expected
        for cell in grid:
            q = dict(cell).get("q", spec.qs[0])
            assert cell_setup(spec, cell).config == replace(spec.solver_config, decay_q=q)

    def test_the_solve_command_runs_its_cell_to_the_threshold(self, monkeypatch, capsys):
        solved = []

        def recording_solve(inst, spec, config):
            solved.append((spec, config))
            return solve_instance(inst, spec, config)

        monkeypatch.setattr(cli, "solve_instance", recording_solve)
        argv = ["solve", "--d1", "6", "--d2", "6", "--c", "8", "--pfail", "0.1", "--solver",
                "geometric", "--q", "0.9", "--iters", "40", "--threshold", "1e-3", "--seed", "7"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        [(spec, config)] = solved
        [cell] = cells(spec)
        assert config == replace(cell_setup(spec, cell).config, tol_rel_err=1e-3)
        assert (config.decay_q, config.max_iters) == (0.9, 40)


class TestInitialPoint:
    def test_random_heuristic_is_deterministic_and_magnitude_scaled(self):
        inst = generate_instance(8, 8, 128, seed=50)
        a = initial_point(inst, "random-heuristic")
        b = initial_point(inst, "random-heuristic")
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.x, b.x)
        spectral = initial_point(inst, "spectral")
        assert not np.allclose(a.w, spectral.w)

    def test_unknown_start_is_refused(self):
        # it used to run random-heuristic for any name but "spectral"
        inst = generate_instance(8, 8, 128, seed=50)
        with pytest.raises(ValueError, match="unknown init 'zeros'"):
            initial_point(inst, "zeros")


class TestEmitCsv:
    def test_round_trip_exact(self, tmp_path):
        table = result_table(
            [
                ((("c", 8), ("p_fail", 0.5)), "err", math.pi),
                ((("c", 8), ("p_fail", 0.1 + 0.2)), "err", 1.0 / 3.0),
            ]
        )
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "config,statistic,value"
        assert len(lines) == 3
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == [1.0 / 3.0, math.pi]
        assert "p_fail=0.30000000000000004" in lines[1]

    def test_numpy_floats_carry_17_digits(self, tmp_path):
        # str() wrote np.float32(0.1), which is 0.10000000149..., as 0.1
        path = tmp_path / "out.csv"
        emit_csv(result_table([((("p_fail", np.float32(0.1)),), "err", 1.0)]), path)
        assert "p_fail=0.10000000149011612,err," in path.read_text(encoding="utf-8")

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(result_table([]), path)
        assert path.read_text(encoding="utf-8") == "config,statistic,value\n"

    def test_identical_runs_give_identical_bytes(self, tmp_path):
        spec = small_spec(trials=2)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(spec), first)
        emit_csv(run_experiment(spec), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_failure_names_the_path(self, tmp_path):
        table = result_table([])
        missing = tmp_path / "no-such-dir" / "x.csv"
        with pytest.raises(OSError, match="no-such-dir"):
            emit_csv(table, missing)


class TestTableBytes:
    """The CSV bytes of a small spec of each kind, pinned by SHA-256: any change
    to how the drivers enumerate cells, seed trials, draw instances or reduce
    them to statistics shows here."""

    GEOMETRIC = SolverConfig(max_iters=60)

    @pytest.mark.parametrize(
        "overrides, sha256",
        [
            pytest.param(
                dict(p_fails=(0.2,), sigmas=(1.0, 10.0), trials=2, solver="geometric",
                     solver_config=GEOMETRIC),
                "1bc879235b15101d413f2d67282a7949780057ca66fe881f4e8d35ec4db38f7c",
                id="phase",
            ),
            pytest.param(
                dict(kind="qsweep", m_ratios=(4, 8), p_fails=(0.1,), qs=(0.9, 0.95), trials=2,
                     solver="geometric", solver_config=GEOMETRIC),
                "24707f41bb9e4573eb3dfed0e852f70af282f042d5212d4e046b702ba32d50a3",
                id="qsweep",
            ),
            pytest.param(
                dict(kind="convergence", m_ratios=(4, 6), p_fails=(0.1,), trials=2,
                     solver="proxlinear", init="random-heuristic",
                     solver_config=SolverConfig(max_iters=3)),
                "bf63cc411387797638799993d1bc09049f6344bf6a592f832cd8abdff359669c",
                id="convergence",
            ),
            pytest.param(
                dict(kind="init", d1=8, m_ratios=(4,), p_fails=(0.1, 0.2), trials=3,
                     left="hadamard", noise_kind="n2"),
                "8702cd025f4ce0b86b9303aa2818b98c349a293d959baac102be9347cabde410",
                id="init",
            ),
        ],
    )
    def test_csv_bytes_are_pinned(self, tmp_path, overrides, sha256):
        path = tmp_path / "table.csv"
        emit_csv(run_experiment(small_spec(**overrides)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
