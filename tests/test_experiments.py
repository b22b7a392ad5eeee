"""Experiment-driver tests: seeding determinism, table semantics, the CSV
contract, and small end-to-end Monte-Carlo runs of each driver."""

import math

import numpy as np
import pytest

from bideconv.experiments import (
    ExperimentSpec,
    ResultTable,
    derive_seed,
    emit_csv,
    initial_point,
    run_convergence,
    run_init_quality,
    run_phase_transition,
    run_q_sweep,
)
from bideconv.model import generate_instance
from bideconv.solvers import SolverConfig


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
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)


class TestResultTable:
    def test_duplicate_rows_rejected(self):
        table = ResultTable()
        table.add((("c", 8),), "success_rate", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            table.add((("c", 8),), "success_rate", 0.5)

    def test_sorted_rows_are_lexicographic_in_config(self):
        table = ResultTable()
        table.add((("c", 10), ("q", 0.5)), "v", 1.0)
        table.add((("c", 2), ("q", 0.9)), "v", 2.0)
        table.add((("c", 2), ("q", 0.1)), "v", 3.0)
        configs = [r.config for r in table.sorted_rows()]
        assert configs == [
            (("c", 2), ("q", 0.1)),
            (("c", 2), ("q", 0.9)),
            (("c", 10), ("q", 0.5)),
        ]

    def test_values_filters_by_config_items(self):
        table = ResultTable()
        table.add((("c", 2), ("trial", 0)), "err", 0.5)
        table.add((("c", 2), ("trial", 1)), "err", 0.25)
        table.add((("c", 3), ("trial", 0)), "err", 0.125)
        assert table.values("err", c=2) == [0.5, 0.25]
        assert table.values("err", c=3, trial=0) == [0.125]
        assert table.values("missing") == []


class TestRunConvergence:
    def test_noiseless_polyak_reaches_threshold(self):
        spec = small_spec(
            kind="convergence",
            d1=10,
            d2=10,
            trials=2,
            solver_config=SolverConfig(max_iters=500, tol_rel_err=1e-7),
        )
        table = run_convergence(spec)
        for trial in range(spec.trials):
            errs = table.values("relative_error", c=8, trial=trial)
            assert errs[-1] <= 1e-5

    def test_rerun_is_bit_identical(self):
        spec = small_spec(kind="convergence", trials=1)
        a = run_convergence(spec)
        b = run_convergence(spec)
        assert [(r.config, r.statistic, r.value) for r in a.sorted_rows()] == [
            (r.config, r.statistic, r.value) for r in b.sorted_rows()
        ]

    def test_emits_monotone_iteration_configs_with_matvecs(self):
        spec = small_spec(kind="convergence", trials=1)
        table = run_convergence(spec)
        matvecs = table.values("matvecs", trial=0)
        assert matvecs == sorted(matvecs)
        assert matvecs[0] == 4.0


class TestRunPhaseTransition:
    def test_noiseless_well_posed_cell_always_succeeds(self):
        spec = small_spec(d1=12, d2=12, trials=4)
        table = run_phase_transition(spec)
        assert table.values("success_rate", c=8)[0] == 1.0

    def test_cell_results_survive_grid_reordering_and_subsetting(self):
        full = run_phase_transition(small_spec(m_ratios=(4, 8), trials=2))
        reordered = run_phase_transition(small_spec(m_ratios=(8, 4), trials=2))
        subset = run_phase_transition(small_spec(m_ratios=(8,), trials=2))
        for table in (reordered, subset):
            assert table.values("success_rate", c=8) == full.values(
                "success_rate", c=8
            )
            assert table.values("median_final_error", c=8) == full.values(
                "median_final_error", c=8
            )

    def test_success_rate_monotone_in_oversampling(self):
        spec = small_spec(
            d1=8,
            d2=8,
            m_ratios=(2, 8),
            trials=6,
            solver="geometric",
            solver_config=SolverConfig(
                max_iters=400, lambda0=1.0, decay_q=0.95, stall_window=None
            ),
            success_threshold=1e-4,
        )
        table = run_phase_transition(spec)
        low = table.values("success_rate", c=2)[0]
        high = table.values("success_rate", c=8)[0]
        assert high >= low - 0.10


class TestRunQSweep:
    def test_one_row_per_cell(self):
        spec = small_spec(
            kind="qsweep",
            m_ratios=(4, 8),
            qs=(0.9, 0.95, 0.98),
            trials=2,
            solver="geometric",
            solver_config=SolverConfig(max_iters=60, stall_window=None),
        )
        table = run_q_sweep(spec)
        assert len(table) == 6
        for c in (4, 8):
            for q in (0.9, 0.95, 0.98):
                assert len(table.values("mean_final_error", c=c, q=q)) == 1

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
            solver_config=SolverConfig(max_iters=150, stall_window=None),
        )
        table = run_q_sweep(spec)
        fast = table.values("mean_final_error", q=0.9)[0]
        slow = table.values("mean_final_error", q=0.995)[0]
        assert fast < slow
        assert slow > 1e-5

    @pytest.mark.parametrize("grid", ["p_fails", "sigmas"])
    def test_spec_rejects_several_values_of_a_fixed_grid(self, grid):
        # the sweep runs at one p_fail and one sigma; a second value would be dropped
        with pytest.raises(ValueError, match=grid):
            small_spec(kind="qsweep", solver="geometric", **{grid: (0.1, 0.3)})


class TestRunInitQuality:
    def test_median_matches_trial_rows(self):
        spec = small_spec(
            kind="init", d1=10, d2=10, p_fails=(0.25,), sigmas=(1.0, 5.0), trials=5
        )
        table = run_init_quality(spec)
        for sigma in (1.0, 5.0):
            trials = [
                table.values("direction_error", sigma=sigma, trial=t)[0]
                for t in range(5)
            ]
            med = table.values("median_direction_error", sigma=sigma)[0]
            assert med == float(np.median(trials))


class TestInitialPoint:
    def test_random_heuristic_is_deterministic_and_magnitude_scaled(self):
        inst = generate_instance(8, 8, 128, seed=50)
        a = initial_point(inst, "random-heuristic")
        b = initial_point(inst, "random-heuristic")
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.x, b.x)
        spectral = initial_point(inst, "spectral")
        assert not np.allclose(a.w, spectral.w)


class TestEmitCsv:
    def test_round_trip_exact(self, tmp_path):
        table = ResultTable()
        table.add((("c", 8), ("p_fail", 0.1 + 0.2)), "err", 1.0 / 3.0)
        table.add((("c", 8), ("p_fail", 0.5)), "err", math.pi)
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "config,statistic,value"
        assert len(lines) == 3
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values == [1.0 / 3.0, math.pi]
        assert "p_fail=0.30000000000000004" in lines[1]

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ResultTable(), path)
        assert path.read_text(encoding="utf-8") == "config,statistic,value\n"

    def test_identical_runs_give_identical_bytes(self, tmp_path):
        spec = small_spec(trials=2)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_phase_transition(spec), first)
        emit_csv(run_phase_transition(spec), second)
        assert first.read_bytes() == second.read_bytes()

    def test_write_failure_names_the_path(self, tmp_path):
        table = ResultTable()
        missing = tmp_path / "no-such-dir" / "x.csv"
        with pytest.raises(OSError, match="no-such-dir"):
            emit_csv(table, missing)
