"""Solver tests: frozen hand examples, grid-oracle comparisons, and the
contraction/step-length/descent properties each method is supposed to obey."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_lad_prox_1d, grid_lad_prox_2d, lad_prox_objective

from bideconv.geometry import FeasibleRegion, SolutionSet, dist_to_solution_set, relative_error
from bideconv.linops import DenseOperator, count_matvecs
from bideconv.model import (
    LinearizedResidual,
    NoiseSpec,
    SignalPair,
    generate_instance,
    linearized_residual_operator,
    objective,
)
from bideconv.solvers import (
    AdmmConfig,
    SolverConfig,
    Trace,
    TraceRecord,
    admm_lad_prox,
    geometric_subgradient,
    polyak_subgradient,
    prox_linear,
    soft_threshold,
)


def truth_pair(inst) -> SignalPair:
    return inst.truth.pair()


def perturbed_start(inst, scale: float, seed: int) -> SignalPair:
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal(inst.d1)
    dx = rng.standard_normal(inst.d2)
    return SignalPair(
        w=inst.truth.w_bar + scale * dw / np.linalg.norm(dw) * np.linalg.norm(inst.truth.w_bar),
        x=inst.truth.x_bar + scale * dx / np.linalg.norm(dx) * np.linalg.norm(inst.truth.x_bar),
    )


def column_instance(seed: int, m: int = 6):
    """A two-column linearized map with random entries, for oracle comparisons."""
    rng = np.random.default_rng(seed)
    left = DenseOperator(rng.standard_normal((m, 1)))
    right = DenseOperator(rng.standard_normal((m, 1)))
    amap = LinearizedResidual(
        left=left,
        right=right,
        left_weights=rng.standard_normal(m),
        right_weights=rng.standard_normal(m),
    )
    y_tilde = rng.standard_normal(m)
    return amap, y_tilde


class TestPolyak:
    def test_truth_start_exits_at_iteration_zero(self):
        inst = generate_instance(6, 5, 88, seed=0)
        final, trace = polyak_subgradient(inst, truth_pair(inst), SolverConfig(max_iters=50))
        assert trace.final.iteration == 0
        assert trace.final.objective == 0.0
        np.testing.assert_allclose(final.w, inst.truth.w_bar)
        np.testing.assert_allclose(final.x, inst.truth.x_bar)

    def test_zero_subgradient_at_origin_returns_start(self):
        # both blocks of the subgradient vanish at the origin, so the method
        # must stop there instead of dividing by a zero norm
        inst = generate_instance(4, 4, 32, seed=1)
        start = SignalPair(w=np.zeros(4), x=np.zeros(4))
        final, trace = polyak_subgradient(inst, start, SolverConfig(max_iters=50))
        assert trace.final.iteration == 0
        assert np.all(final.w == 0.0) and np.all(final.x == 0.0)

    def test_refuses_corrupted_instance_without_min_value(self):
        inst = generate_instance(5, 5, 80, noise=NoiseSpec.gaussian(0.25), seed=2)
        with pytest.raises(ValueError, match="min_value"):
            polyak_subgradient(inst, perturbed_start(inst, 0.1, 3), SolverConfig())

    def test_explicit_min_value_unlocks_corrupted_instance(self):
        inst = generate_instance(5, 5, 80, noise=NoiseSpec.gaussian(0.25), seed=2)
        cfg = SolverConfig(max_iters=20, min_value=0.0, stall_window=None)
        final, trace = polyak_subgradient(inst, perturbed_start(inst, 0.1, 3), cfg)
        assert trace.final.iteration == 20

    def test_value_equal_to_min_freezes_iterate(self):
        inst = generate_instance(5, 4, 72, seed=4)
        start = perturbed_start(inst, 0.2, 5)
        cfg = SolverConfig(
            max_iters=100, min_value=objective(inst, start), stall_window=5
        )
        final, trace = polyak_subgradient(inst, start, cfg)
        np.testing.assert_array_equal(final.w, start.w)
        np.testing.assert_array_equal(final.x, start.x)
        assert all(r.step_size == 0.0 for r in trace.records)
        # frozen objective cannot improve, so the stall window ends the run
        assert trace.final.iteration == 6

    def test_noiseless_convergence_to_tolerance(self):
        inst = generate_instance(20, 20, 320, seed=6)
        cfg = SolverConfig(max_iters=500, tol_rel_err=1e-6)
        final, trace = polyak_subgradient(inst, perturbed_start(inst, 0.3, 7), cfg)
        assert trace.final.relative_error <= 1e-6
        assert trace.final.iteration < 500

    def test_distance_to_solution_set_contracts(self):
        # with the exact minimal value, every step moves no farther from the
        # solution set while the start is near the basin; below ~1e-7 the
        # distance formula's own cancellation noise dominates, so the
        # comparison only makes sense above that floor
        for seed in range(8):
            inst = generate_instance(6, 6, 96, seed=100 + seed)
            cfg = SolverConfig(max_iters=60, tol_rel_err=1e-9)
            _, trace = polyak_subgradient(inst, perturbed_start(inst, 0.05, seed), cfg)
            dists = trace.column("dist_to_solset")
            for before, after in zip(dists, dists[1:]):
                assert after <= max(before + 1e-10, 1e-7)

    def test_matvec_accounting_four_per_iteration(self):
        inst = generate_instance(6, 6, 96, seed=8)
        cfg = SolverConfig(max_iters=7, stall_window=None)
        with count_matvecs() as outer:
            _, trace = polyak_subgradient(inst, perturbed_start(inst, 0.3, 9), cfg)
        counts = trace.column("matvecs")
        assert counts == [4 * (k + 1) for k in range(len(counts))]
        assert outer.count == counts[-1]


class TestGeometric:
    def test_truth_start_exits_at_iteration_zero(self):
        inst = generate_instance(6, 5, 88, seed=10)
        final, trace = geometric_subgradient(inst, truth_pair(inst), SolverConfig())
        assert trace.final.iteration == 0

    def test_step_norms_follow_schedule_exactly(self):
        inst = generate_instance(8, 8, 128, seed=11)
        lam, q = 0.05, 0.9
        cfg = SolverConfig(max_iters=10, lambda0=lam, decay_q=q, stall_window=None)
        _, trace = geometric_subgradient(inst, perturbed_start(inst, 0.4, 12), cfg)
        steps = trace.column("step_size")[1:]
        assert steps == [lam * q**k for k in range(len(steps))]

    def test_displacement_norm_equals_step_without_projection(self):
        inst = generate_instance(8, 8, 128, seed=13)
        point = perturbed_start(inst, 0.4, 14)
        for k in range(6):
            step = 0.05 * 0.9**k
            cfg = SolverConfig(max_iters=1, lambda0=step, decay_q=0.9)
            moved, _ = geometric_subgradient(inst, point, cfg)
            displacement = math.hypot(
                float(np.linalg.norm(moved.w - point.w)),
                float(np.linalg.norm(moved.x - point.x)),
            )
            assert displacement == pytest.approx(step, rel=1e-12)
            point = moved

    def test_projection_keeps_iterates_feasible(self):
        inst = generate_instance(6, 6, 96, seed=15)
        region = FeasibleRegion.from_truth(inst.truth, nu=math.sqrt(2.0))
        cfg = SolverConfig(max_iters=40, lambda0=5.0, decay_q=0.95, region=region)
        final, _ = geometric_subgradient(inst, perturbed_start(inst, 0.2, 16), cfg)
        assert np.linalg.norm(final.w) <= region.radius + 1e-12
        assert np.linalg.norm(final.x) <= region.radius + 1e-12

    def test_noiseless_convergence(self):
        inst = generate_instance(10, 10, 160, seed=17)
        cfg = SolverConfig(max_iters=400, lambda0=1.0, decay_q=0.9, stall_window=None)
        final, trace = geometric_subgradient(inst, perturbed_start(inst, 0.3, 18), cfg)
        assert trace.final.relative_error <= 1e-6

    def test_corrupted_convergence_needs_no_min_value(self):
        inst = generate_instance(
            10, 10, 320, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=19
        )
        cfg = SolverConfig(max_iters=600, lambda0=1.0, decay_q=0.95, stall_window=None)
        final, trace = geometric_subgradient(inst, perturbed_start(inst, 0.3, 20), cfg)
        assert trace.final.relative_error <= 1e-4

    def test_non_finite_objective_ends_the_run(self):
        inst = generate_instance(5, 5, 40, seed=3)
        start = perturbed_start(inst, 0.3, 4)
        _, finite = geometric_subgradient(inst, start, SolverConfig(max_iters=5, stall_window=None))
        assert not finite.diverged and finite.final.iteration == 5
        cfg = SolverConfig(max_iters=5, lambda0=1e300, stall_window=None)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = geometric_subgradient(inst, start, cfg)
        assert trace.diverged
        assert trace.final.iteration == 1
        assert math.isinf(trace.final.objective)


class TestSoftThreshold:
    def test_hand_example(self):
        out = soft_threshold(np.array([3.0, -0.5, 0.2, -4.0, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0, -3.0, 0.0])

    @given(st.floats(-10, 10), st.floats(0, 5))
    def test_is_proximal_map_of_absolute_value(self, v, tau):
        # prox_{tau |.|}(v) minimizes tau|u| + (1/2)(u - v)^2; compare on a grid
        u = float(soft_threshold(np.array([v]), tau)[0])
        grid = np.linspace(v - 2 * tau - 1, v + 2 * tau + 1, 20001)
        vals = tau * np.abs(grid) + 0.5 * (grid - v) ** 2
        assert tau * abs(u) + 0.5 * (u - v) ** 2 <= vals.min() + 1e-6


class TestAdmm:
    def test_zero_target_returns_zero(self):
        amap, _ = column_instance(21)
        result = admm_lad_prox(
            amap, np.zeros(amap.m), beta=1.0, cfg=AdmmConfig(), eps=1e-8
        )
        np.testing.assert_allclose(result.z, 0.0, atol=1e-12)
        assert not result.exhausted

    def test_one_dimensional_kink_solution(self):
        # two identical rows pulling toward 1 with a unit quadratic: the
        # minimizer sits exactly on the kink at z = 1
        m = 2
        left = DenseOperator(np.ones((m, 1)))
        right = DenseOperator(np.ones((m, 1)))
        amap = LinearizedResidual(
            left=left,
            right=right,
            left_weights=np.zeros(m),
            right_weights=np.ones(m),
        )
        y_tilde = np.ones(m)
        result = admm_lad_prox(amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-10)
        assert result.z[0] == pytest.approx(1.0, abs=1e-6)
        assert result.z[1] == pytest.approx(0.0, abs=1e-8)
        oracle = grid_lad_prox_1d(np.ones((m, 1)), y_tilde, 1.0, -3.0, 3.0)
        assert result.z[0] == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_two_dimensional_grid(self, beta):
        for seed in range(8):
            amap, y_tilde = column_instance(300 + seed)
            result = admm_lad_prox(amap, y_tilde, beta=beta, cfg=AdmmConfig(), eps=1e-8)
            oracle = grid_lad_prox_2d(amap.to_dense(), y_tilde, beta, -3.0, 3.0)
            np.testing.assert_allclose(result.z, oracle, atol=1e-4)

    def test_never_worse_than_zero(self):
        for seed in range(12):
            amap, y_tilde = column_instance(400 + seed, m=8)
            result = admm_lad_prox(amap, y_tilde, beta=0.7, cfg=AdmmConfig(), eps=1e-7)
            a_dense = amap.to_dense()
            at_z = lad_prox_objective(a_dense, y_tilde, 0.7, result.z)[0]
            at_zero = lad_prox_objective(a_dense, y_tilde, 0.7, np.zeros(2))[0]
            assert at_z <= at_zero + 1e-9

    def test_exhaustion_is_flagged(self):
        amap, y_tilde = column_instance(22)
        result = admm_lad_prox(
            amap, y_tilde, beta=1.0, cfg=AdmmConfig(max_inner=3), eps=1e-12
        )
        assert result.exhausted
        assert result.iterations == 3

    def test_conjugate_gradient_path_matches_cholesky(self):
        # a partial-Hadamard left side takes the matrix-free CG path; the same
        # map with that side stored densely takes the cached Cholesky path
        inst = generate_instance(4, 4, 32, left="hadamard", noise=NoiseSpec.gaussian(0.2), seed=23)
        amap, y_tilde = linearized_residual_operator(inst, perturbed_start(inst, 0.2, 24))
        dense = LinearizedResidual(
            left=DenseOperator(amap.left.to_dense()),
            right=amap.right,
            left_weights=amap.left_weights,
            right_weights=amap.right_weights,
        )
        assert not amap.is_dense and dense.is_dense
        matfree = admm_lad_prox(amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-9)
        direct = admm_lad_prox(dense, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-9)
        np.testing.assert_allclose(direct.z, matfree.z, atol=1e-6)

    def test_region_constraint_respected(self):
        amap, y_tilde = column_instance(24)
        y_tilde = y_tilde + 5.0  # push the unconstrained solution outside
        region = FeasibleRegion(radius=0.05)
        result = admm_lad_prox(
            amap, y_tilde, beta=0.1, cfg=AdmmConfig(), region=region, eps=1e-8
        )
        assert abs(result.z[0]) <= region.radius + 1e-12
        assert abs(result.z[1]) <= region.radius + 1e-12
        a_dense = amap.to_dense()
        at_z = lad_prox_objective(a_dense, y_tilde, 0.1, result.z)[0]
        at_zero = lad_prox_objective(a_dense, y_tilde, 0.1, np.zeros(2))[0]
        assert at_z <= at_zero + 1e-9

    def test_zero_duals_are_the_default(self):
        amap, y_tilde = column_instance(27)
        default = admm_lad_prox(amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-8)
        explicit = admm_lad_prox(
            amap,
            y_tilde,
            beta=1.0,
            cfg=AdmmConfig(),
            eps=1e-8,
            duals=(np.zeros(amap.shape[1]), np.zeros(amap.m)),
        )
        np.testing.assert_array_equal(default.z, explicit.z)
        assert default.iterations == explicit.iterations

    def test_converged_duals_warm_start_the_same_subproblem(self):
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=37)
        amap, y_tilde = linearized_residual_operator(inst, perturbed_start(inst, 0.2, 38))
        cold = admm_lad_prox(amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-8)
        warm = admm_lad_prox(
            amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=1e-8, duals=(cold.lam, cold.nu)
        )
        assert not cold.exhausted and not warm.exhausted
        assert 2 * warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-5)

    def test_rejects_bad_tolerance(self):
        amap, y_tilde = column_instance(26)
        with pytest.raises(ValueError, match="eps"):
            admm_lad_prox(amap, y_tilde, beta=1.0, cfg=AdmmConfig(), eps=0.0)


class TestProxLinear:
    def test_single_outer_matches_grid_oracle(self):
        inst = generate_instance(1, 1, 8, seed=27)
        start = perturbed_start(inst, 0.3, 28)
        cfg = SolverConfig(
            max_iters=1,
            prox_beta=1.0,
            admm=AdmmConfig(eps_schedule=lambda k: 1e-8),
        )
        moved, trace = prox_linear(inst, start, cfg)
        step = np.array([moved.w[0] - start.w[0], moved.x[0] - start.x[0]])
        amap, y_tilde = linearized_residual_operator(inst, start)
        oracle = grid_lad_prox_2d(amap.to_dense(), y_tilde, 1.0, -3.0, 3.0)
        np.testing.assert_allclose(step, oracle, atol=1e-4)

    def test_converges_quadratically_fast(self):
        inst = generate_instance(10, 10, 160, noise=NoiseSpec.gaussian(0.25), seed=29)
        cfg = SolverConfig(max_iters=15, tol_rel_err=1e-9)
        final, trace = prox_linear(inst, perturbed_start(inst, 0.2, 30), cfg)
        assert trace.final.relative_error <= 1e-9
        assert not trace.any_inner_exhausted

    def test_outer_objective_decreases_up_to_inner_tolerance(self):
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=31)
        cfg = SolverConfig(max_iters=12, stall_window=None)
        _, trace = prox_linear(inst, perturbed_start(inst, 0.25, 32), cfg)
        objectives = trace.column("objective")
        for k, (before, after) in enumerate(zip(objectives, objectives[1:]), start=1):
            assert after <= before + 2.0**-k

    def test_inner_exhaustion_is_recorded_and_run_continues(self):
        inst = generate_instance(6, 6, 96, seed=33)
        cfg = SolverConfig(
            max_iters=3,
            stall_window=None,
            admm=AdmmConfig(max_inner=2, eps_schedule=lambda k: 1e-12),
        )
        _, trace = prox_linear(inst, perturbed_start(inst, 0.3, 34), cfg)
        assert trace.any_inner_exhausted
        assert trace.final.iteration == 3

    def test_region_confines_the_iterate(self):
        # the balls bound the point p + z, not the displacement z: clipping z
        # to origin-centred balls left both factors at norm ~2.0 here
        inst = generate_instance(10, 10, 160, seed=1, magnitude=4.0)
        rng = np.random.default_rng(0)
        start = SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
        region = FeasibleRegion(radius=1.5)
        cfg = SolverConfig(max_iters=10, region=region, stall_window=None)
        final, trace = prox_linear(inst, start, cfg)
        assert trace.final.iteration == 10
        assert np.linalg.norm(final.w) <= region.radius + 1e-12
        assert np.linalg.norm(final.x) <= region.radius + 1e-12

    def test_repeated_runs_are_bit_identical(self):
        # the warm-started duals live inside one call, so nothing carries over
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=39)
        start = perturbed_start(inst, 0.25, 40)
        cfg = SolverConfig(max_iters=8, stall_window=None)
        first, first_trace = prox_linear(inst, start, cfg)
        second, second_trace = prox_linear(inst, start, cfg)
        np.testing.assert_array_equal(first.w, second.w)
        np.testing.assert_array_equal(first.x, second.x)
        assert first_trace == second_trace

    def test_matvec_accounting_matches_inner_counts(self):
        inst = generate_instance(5, 5, 80, seed=35)
        cfg = SolverConfig(max_iters=4, stall_window=None)
        with count_matvecs() as outer:
            _, trace = prox_linear(inst, perturbed_start(inst, 0.2, 36), cfg)
        # 2 products per linearization, plus 4 per inner iteration (one
        # forward and one transpose application of the two-sided map)
        expected = 2
        for record in trace.records[1:]:
            expected += 4 * record.inner_iters + 2
        assert outer.count == expected
        assert trace.final.matvecs == expected


class TestConfigAndTrace:
    def test_trace_rejects_nonmonotone_iterations(self):
        trace = Trace(max_iters=5)
        trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="increasing"):
            trace.append(TraceRecord(0, 0.5, 0.5, 0.5, 0.1))

    def test_trace_rejects_overflow(self):
        trace = Trace(max_iters=1)
        trace.append(TraceRecord(0, 1.0, 1.0, 1.0, 0.0))
        trace.append(TraceRecord(1, 0.5, 0.5, 0.5, 0.1))
        with pytest.raises(ValueError, match="max_iters"):
            trace.append(TraceRecord(2, 0.2, 0.2, 0.2, 0.1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"decay_q": 0.0},
            {"decay_q": 1.0},
            {"lambda0": 0.0},
            {"prox_beta": -1.0},
        ],
    )
    def test_solver_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_inner": -1}, {"max_inner": -100_000}, {"max_inner": 0}],
    )
    def test_admm_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdmmConfig(**kwargs)
