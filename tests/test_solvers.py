"""Solver tests: frozen hand examples, grid-oracle comparisons, and the
contraction/step-length/descent properties each method is supposed to obey."""

import math
import warnings

import numpy as np
import pytest
from oracles import (
    exact_lad_prox_1d,
    exact_lad_prox_2d,
    exact_lad_prox_box,
    grid_lad_prox_1d,
    grid_lad_prox_2d,
    lad_prox_objective,
    objective,
)

from bideconv import solvers
from bideconv.geometry import (
    FeasibleRegion,
    SolutionSet,
    dist_to_solution_set,
    relative_error,
)
from bideconv.linops import count_matvecs
from bideconv.model import (
    NoiseSpec,
    SignalPair,
    generate_instance,
    linearized_residual_operator,
)
from bideconv.solvers import (
    SolverConfig,
    Trace,
    TraceRecord,
    admm_lad_prox,
    geometric_subgradient,
    polyak_subgradient,
    prox_linear,
)
from bideconv.spectral_init import spectral_initialize


def truth_pair(inst) -> SignalPair:
    return SignalPair(w=inst.truth.w_bar, x=inst.truth.x_bar)


def perturbed_start(inst, scale: float, seed: int) -> SignalPair:
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal(inst.d1)
    dx = rng.standard_normal(inst.d2)
    return SignalPair(
        w=inst.truth.w_bar + scale * dw / np.linalg.norm(dw) * np.linalg.norm(inst.truth.w_bar),
        x=inst.truth.x_bar + scale * dx / np.linalg.norm(dx) * np.linalg.norm(inst.truth.x_bar),
    )


def gap_tolerance(k: int, beta: float, step: float) -> float:
    """The gap tolerance of prox-linear solve k after an outer step of length ``step``."""
    return max(solvers._gap_tolerance(k), solvers._STEP_TOLERANCE * 0.5 * beta * step**2)


def column_instance(seed: int, m: int = 6):
    """A two-column linearized map with random entries, for oracle comparisons.

    Column 1 is a left column weighted by right products, column 2 a right
    column weighted by left products, as ``linearized_residual_operator``
    builds them for d1 = d2 = 1.
    """
    rng = np.random.default_rng(seed)
    left, right, left_weights, right_weights = rng.standard_normal((4, m))
    a_mat = np.column_stack([right_weights * left, left_weights * right])
    y_tilde = rng.standard_normal(m)
    return a_mat, y_tilde


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
        cfg = SolverConfig(max_iters=20, min_value=0.0)
        final, trace = polyak_subgradient(inst, perturbed_start(inst, 0.1, 3), cfg)
        assert trace.final.iteration == 20

    def test_value_equal_to_min_freezes_iterate(self):
        inst = generate_instance(5, 4, 72, seed=4)
        start = perturbed_start(inst, 0.2, 5)
        cfg = SolverConfig(max_iters=100, min_value=objective(inst, start))
        final, trace = polyak_subgradient(inst, start, cfg)
        np.testing.assert_array_equal(final.w, start.w)
        np.testing.assert_array_equal(final.x, start.x)
        assert all(r.step_size == 0.0 for r in trace.records)

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
        # comparison only makes sense above that floor.  A Polyak step carries
        # no state, so single steps from the previous point retrace a long run
        # and the distance is measured between them.
        for seed in range(8):
            inst = generate_instance(6, 6, 96, seed=100 + seed)
            sol = SolutionSet(truth=inst.truth, nu=math.sqrt(2.0))
            p = perturbed_start(inst, 0.05, seed)
            dists = [dist_to_solution_set(p, sol)]
            for _ in range(60):
                p, trace = polyak_subgradient(inst, p, SolverConfig(max_iters=1))
                if trace.final.iteration == 0:
                    break  # stationary
                dists.append(dist_to_solution_set(p, sol))
                if trace.final.relative_error <= 1e-9:
                    break
            assert len(dists) > 2
            for before, after in zip(dists, dists[1:]):
                assert after <= max(before + 1e-10, 1e-7)

    def test_matvec_accounting_four_per_iteration(self):
        inst = generate_instance(6, 6, 96, seed=8)
        cfg = SolverConfig(max_iters=7)
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
        cfg = SolverConfig(max_iters=10, lambda0=lam, decay_q=q)
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
        region = FeasibleRegion(radius=math.sqrt(2.0) * math.sqrt(inst.truth.magnitude))
        cfg = SolverConfig(max_iters=40, lambda0=5.0, decay_q=0.95, region=region)
        final, _ = geometric_subgradient(inst, perturbed_start(inst, 0.2, 16), cfg)
        assert np.linalg.norm(final.w) <= region.radius + 1e-12
        assert np.linalg.norm(final.x) <= region.radius + 1e-12

    def test_noiseless_convergence(self):
        inst = generate_instance(10, 10, 160, seed=17)
        cfg = SolverConfig(max_iters=400, lambda0=1.0, decay_q=0.9)
        final, trace = geometric_subgradient(inst, perturbed_start(inst, 0.3, 18), cfg)
        assert trace.final.relative_error <= 1e-6

    def test_corrupted_convergence_needs_no_min_value(self):
        inst = generate_instance(
            10, 10, 320, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=19
        )
        cfg = SolverConfig(max_iters=600, lambda0=1.0, decay_q=0.95)
        final, trace = geometric_subgradient(inst, perturbed_start(inst, 0.3, 20), cfg)
        assert trace.final.relative_error <= 1e-4

    def test_non_finite_objective_ends_the_run(self):
        inst = generate_instance(5, 5, 40, seed=3)
        start = perturbed_start(inst, 0.3, 4)
        _, finite = geometric_subgradient(inst, start, SolverConfig(max_iters=5))
        assert not finite.diverged and finite.final.iteration == 5
        cfg = SolverConfig(max_iters=5, lambda0=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = geometric_subgradient(inst, start, cfg)
        assert trace.diverged
        assert trace.final.iteration == 1
        assert math.isinf(trace.final.objective)

    def test_hadamard_left_solve_is_pinned_bit_for_bit(self):
        # a solve of the geometric-hadamard benchmark's size (partial-Hadamard left,
        # d = 64, m = 16 d), pinned to the last bit as the README example pins a
        # dense one; with one BLAS thread, as conftest.py sets
        inst = generate_instance(
            64, 64, 1024, left="hadamard", noise=NoiseSpec.gaussian(0.05, sigma=1.0), seed=7
        )
        est = spectral_initialize(inst)
        cfg = SolverConfig(max_iters=2000, lambda0=1.0, decay_q=0.98, tol_rel_err=1e-4)
        _, trace = geometric_subgradient(inst, SignalPair(w=est.w0, x=est.x0), cfg)
        assert len(trace.records) == 438
        assert trace.final.matvecs == 1752
        assert trace.final.relative_error == float.fromhex("0x1.98d545e6a9c13p-14")
        assert trace.final.objective == float.fromhex("0x1.2b5bd7b0842a2p-5")

    def test_divergent_run_prints_no_warnings(self):
        # the overflow is reported through Trace.diverged, not as NumPy warnings
        inst = generate_instance(5, 5, 40, seed=3)
        cfg = SolverConfig(max_iters=5, lambda0=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = geometric_subgradient(inst, perturbed_start(inst, 0.3, 4), cfg)
        assert trace.diverged


class TestAdmm:
    def test_zero_target_returns_zero(self):
        a_mat, _ = column_instance(21)
        result = admm_lad_prox(a_mat, 1, np.zeros(a_mat.shape[0]), beta=1.0, eps=1e-8)
        np.testing.assert_allclose(result.z, 0.0, atol=1e-12)
        assert not result.exhausted

    def test_one_dimensional_kink_solution(self):
        # two identical rows pulling toward 1 with a unit quadratic: the
        # minimizer sits exactly on the kink at z = 1.  Left of it P - P* =
        # delta^2/2 at z = 1 - delta, so a gap of eps certifies only
        # delta <= sqrt(2 eps): 5e-13 is the largest eps that certifies 1e-6
        m = 2
        a_mat = np.column_stack([np.ones(m), np.zeros(m)])
        y_tilde = np.ones(m)
        result = admm_lad_prox(a_mat, 1, y_tilde, beta=1.0, eps=5e-13)
        assert result.z[0] == pytest.approx(1.0, abs=1e-6)
        assert result.z[1] == pytest.approx(0.0, abs=1e-8)
        oracle = grid_lad_prox_1d(np.ones((m, 1)), y_tilde, 1.0, -3.0, 3.0)
        assert result.z[0] == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_matches_two_dimensional_grid(self, beta):
        for seed in range(8):
            a_mat, y_tilde = column_instance(300 + seed)
            result = admm_lad_prox(a_mat, 1, y_tilde, beta=beta, eps=1e-8)
            oracle = grid_lad_prox_2d(a_mat, y_tilde, beta, -3.0, 3.0)
            np.testing.assert_allclose(result.z, oracle, atol=1e-4)

    def test_never_worse_than_zero(self):
        for seed in range(12):
            a_dense, y_tilde = column_instance(400 + seed, m=8)
            result = admm_lad_prox(a_dense, 1, y_tilde, beta=0.7, eps=1e-7)
            at_z = lad_prox_objective(a_dense, y_tilde, 0.7, result.z)[0]
            at_zero = lad_prox_objective(a_dense, y_tilde, 0.7, np.zeros(2))[0]
            assert at_z <= at_zero + 1e-9

    def test_exhaustion_is_flagged(self, monkeypatch):
        monkeypatch.setattr(solvers, "_MAX_NEWTON", 3)
        a_mat, y_tilde = column_instance(22)
        result = admm_lad_prox(a_mat, 1, y_tilde, beta=1.0, eps=1e-12)
        assert result.exhausted
        assert result.iterations == 3

    def test_region_constraint_respected(self):
        a_dense, y_tilde = column_instance(24)
        y_tilde = y_tilde + 5.0  # push the unconstrained solution outside
        region = FeasibleRegion(radius=0.05)
        result = admm_lad_prox(a_dense, 1, y_tilde, beta=0.1, region=region, eps=1e-8)
        assert abs(result.z[0]) <= region.radius + 1e-12
        assert abs(result.z[1]) <= region.radius + 1e-12
        at_z = lad_prox_objective(a_dense, y_tilde, 0.1, result.z)[0]
        at_zero = lad_prox_objective(a_dense, y_tilde, 0.1, np.zeros(2))[0]
        assert at_z <= at_zero + 1e-9

    def test_zero_duals_are_the_default(self):
        a_mat, y_tilde = column_instance(27)
        default = admm_lad_prox(a_mat, 1, y_tilde, beta=1.0, eps=1e-8)
        explicit = admm_lad_prox(
            a_mat, 1, y_tilde, beta=1.0, eps=1e-8, duals=(np.zeros(a_mat.shape[0]), np.zeros(2))
        )
        np.testing.assert_array_equal(default.z, explicit.z)
        assert default.iterations == explicit.iterations

    def test_converged_duals_warm_start_the_same_subproblem(self):
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=37)
        a_mat, y_tilde = linearized_residual_operator(inst, perturbed_start(inst, 0.2, 38))
        cold = admm_lad_prox(a_mat, inst.d1, y_tilde, beta=1.0, eps=1e-8)
        warm = admm_lad_prox(a_mat, inst.d1, y_tilde, beta=1.0, eps=1e-8, duals=cold.duals)
        assert not cold.exhausted and not warm.exhausted
        assert 2 * warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-5)

    def test_rejects_bad_tolerance(self):
        a_mat, y_tilde = column_instance(26)
        with pytest.raises(ValueError, match="eps"):
            admm_lad_prox(a_mat, 1, y_tilde, beta=1.0, eps=0.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_penalty(self, sigma):
        a_mat, y_tilde = column_instance(26)
        with pytest.raises(ValueError, match="sigma"):
            admm_lad_prox(a_mat, 1, y_tilde, beta=1.0, sigma=sigma)

    def test_gap_bounds_the_suboptimality(self):
        # 0 <= P(z) - P(z_opt) <= gap, with z_opt enumerated exactly; the
        # odd problems have one variable, their first weight column being zero.
        # Each problem is solved cold and warm-started as a prox-linear run
        # starts its later solves: from a nearby problem's multipliers, at a
        # penalty up to the peak sigma m ~ 2e6 that such runs reach
        rng, nearby_rng = np.random.default_rng(50), np.random.default_rng(51)
        for i in range(40):
            a_dense, y_tilde = column_instance(500 + i, m=5 + i % 4)
            m = y_tilde.size
            if i % 2:
                a_dense[:, 1] = 0.0
            beta = float(rng.uniform(0.4, 2.5))
            eps = float(10.0 ** rng.uniform(-9, -2))
            if i % 2:
                z_opt = np.array([exact_lad_prox_1d(a_dense[:, :1], y_tilde, beta), 0.0])
            else:
                z_opt = exact_lad_prox_2d(a_dense, y_tilde, beta)
            best = lad_prox_objective(a_dense, y_tilde, beta, z_opt)[0]
            nearby = admm_lad_prox(
                a_dense, 1, y_tilde + 0.1 * nearby_rng.standard_normal(m), beta=beta, eps=eps
            )
            for warm in ({}, *({"duals": nearby.duals, "sigma": s / m} for s in (1e3, 2e6))):
                result = admm_lad_prox(a_dense, 1, y_tilde, beta=beta, eps=eps, **warm)
                value = lad_prox_objective(a_dense, y_tilde, beta, result.z)[0]
                assert not result.exhausted
                assert 0.0 <= result.gap <= eps
                assert result.objective == pytest.approx(value, rel=1e-12)
                assert -1e-13 <= value - best <= result.gap + 1e-13

    def test_gap_bounds_the_suboptimality_in_a_region(self):
        # with one variable per factor the two balls are the box c +- r; its
        # exact minimizer is enumerated and cross-checked by a grid scan
        # (cold, and warm-started as in test_gap_bounds_the_suboptimality)
        rng, nearby_rng = np.random.default_rng(60), np.random.default_rng(61)
        radius, beta = 0.3, 0.5
        region = FeasibleRegion(radius=radius)
        offsets = np.linspace(-radius, radius, 201)
        binding = 0
        for seed in range(20):
            a_dense, y_tilde = column_instance(600 + seed)
            y_tilde = 3.0 * y_tilde
            m = y_tilde.size
            center = 0.2 * rng.standard_normal(2) if seed % 2 else np.zeros(2)
            eps = float(10.0 ** rng.uniform(-9, -2))
            z_opt = exact_lad_prox_box(a_dense, y_tilde, beta, center - radius, center + radius)
            best = lad_prox_objective(a_dense, y_tilde, beta, z_opt)[0]
            box = center + np.stack(np.meshgrid(offsets, offsets, indexing="ij"), -1).reshape(-1, 2)
            grid_best = float(lad_prox_objective(a_dense, y_tilde, beta, box).min())
            # between a box point and its nearest grid point the objective
            # moves by at most its Lipschitz constant times the spacing
            lipschitz = beta * math.sqrt(2.0) * np.abs(box).max() + np.abs(a_dense).sum(0).max()
            assert grid_best - lipschitz * (offsets[1] - offsets[0]) <= best <= grid_best + 1e-12
            nearby = admm_lad_prox(
                a_dense, 1, y_tilde + 0.3 * nearby_rng.standard_normal(m), beta=beta,
                region=region, eps=eps, center=center,
            )
            for warm in ({}, *({"duals": nearby.duals, "sigma": s / m} for s in (1e3, 2e6))):
                result = admm_lad_prox(
                    a_dense, 1, y_tilde, beta=beta, region=region, eps=eps, center=center, **warm
                )
                value = lad_prox_objective(a_dense, y_tilde, beta, result.z)[0]
                assert not result.exhausted
                assert np.max(np.abs(result.z - center)) <= radius + 1e-12
                assert 0.0 <= result.gap <= eps
                assert -1e-13 <= value - best <= result.gap + 1e-13
            free = exact_lad_prox_2d(a_dense, y_tilde, beta)
            binding += np.max(np.abs(free - center)) > radius
        assert binding >= 10


class TestNewtonFactor:
    """The direct LAPACK calls behind each LAD-prox Newton step."""

    def test_matches_scipy_bit_for_bit(self):
        import scipy.linalg as scipy_linalg
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((40, 12))
        hess = rows.T @ rows
        hess.flat[::13] += 0.5
        b = rng.standard_normal(12)
        factor = solvers.cho_factor(hess)
        reference = scipy_linalg.cho_factor(hess)
        np.testing.assert_array_equal(factor, reference[0])
        np.testing.assert_array_equal(
            solvers.cho_solve(factor, b), scipy_linalg.cho_solve(reference, b)
        )

    def test_factors_a_fortran_ordered_matrix_in_place(self):
        # the Newton matrix reaches dpotrf as hess.T, Fortran-ordered, so that
        # no copy is made; a C-ordered matrix is copied and left as it was
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((40, 12))
        hess = rows.T @ rows
        kept = hess.copy()
        expected = solvers.cho_factor(hess)
        np.testing.assert_array_equal(hess, kept)
        fortran = np.asfortranarray(hess)
        factor = solvers.cho_factor(fortran)
        assert np.shares_memory(factor, fortran)
        np.testing.assert_array_equal(factor, expected)

    @pytest.mark.parametrize(
        "hess, error",
        [
            # LAPACK does not check finiteness, so a NaN step would follow unchecked
            pytest.param([[1.0, 0.0], [0.0, np.inf]], ValueError, id="inf"),
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], ValueError, id="nan"),
            pytest.param([[1.0, 2.0], [2.0, 1.0]], np.linalg.LinAlgError, id="indefinite"),
        ],
    )
    def test_refuses_a_matrix_it_cannot_factor(self, hess, error):
        with pytest.raises(error):
            solvers.cho_factor(np.array(hess))


class TestActiveGram:
    """The Gram matrix A_J^T A_J that each Newton step carries on to the next."""

    def test_each_branch_gives_the_gram_of_the_active_rows(self):
        rng = np.random.default_rng(7)
        a_mat = rng.standard_normal((40, 6))
        mask = np.arange(40) < 30
        gram, last = solvers._active_gram(a_mat, mask, None, None)
        np.testing.assert_array_equal(gram, a_mat[:30].T @ a_mat[:30])
        # no row changes: the same matrix, untouched
        kept = gram.copy()
        same, _ = solvers._active_gram(a_mat, mask.copy(), gram, last)
        assert same is gram
        np.testing.assert_array_equal(same, kept)
        # two rows leave and one enters, fewer than the 29 active: in place
        moved = mask.copy()
        moved[[3, 17, 35]] = [False, False, True]
        updated, last = solvers._active_gram(a_mat, moved, gram, last)
        assert updated is gram
        np.testing.assert_allclose(updated, a_mat[moved].T @ a_mat[moved], rtol=1e-13, atol=1e-13)
        # all 40 rows change against 11 active: rebuilt from the active rows
        flipped = ~moved
        rebuilt, _ = solvers._active_gram(a_mat, flipped, updated, last)
        assert rebuilt is not updated
        np.testing.assert_array_equal(rebuilt, a_mat[flipped].T @ a_mat[flipped])

    @pytest.mark.parametrize("region", [None, FeasibleRegion(radius=1.5)],
                             ids=["unconstrained", "region"])
    def test_stays_the_fresh_gram_along_a_solve(self, monkeypatch, region):
        # the instances of test_solve_is_pinned_bit_for_bit; dpotrf factors
        # hess.T in place as the same matrix, so each must be symmetric to the bit
        branches = {"rebuilt": 0, "unchanged": 0, "updated": 0}
        factored = []

        def checked(a_mat, active, gram, last):
            kept = None if gram is None else gram.copy()
            result, mask = active_gram(a_mat, active, gram, last)
            rows = a_mat[active]
            fresh = rows.T @ rows
            np.testing.assert_array_equal(result, result.T)
            assert np.abs(result - fresh).max() <= 1e-12 * np.abs(fresh).max()
            if result is not gram:
                branches["rebuilt"] += 1
            elif np.array_equal(active, last):
                np.testing.assert_array_equal(result, kept)
                branches["unchanged"] += 1
            else:
                branches["updated"] += 1
            return result, mask

        def symmetric_factor(a):
            factored.append(np.array_equal(a, a.T))
            return cho_factor(a)

        active_gram, cho_factor = solvers._active_gram, solvers.cho_factor
        monkeypatch.setattr(solvers, "_active_gram", checked)
        monkeypatch.setattr(solvers, "cho_factor", symmetric_factor)
        if region is None:
            inst = generate_instance(
                32, 32, 512, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=403
            )
            est = spectral_initialize(inst)
            start = SignalPair(w=est.w0, x=est.x0)
            cfg = SolverConfig(max_iters=20, tol_rel_err=1e-8)
        else:
            inst = generate_instance(10, 10, 160, seed=1, magnitude=4.0)
            rng = np.random.default_rng(0)
            start = SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
            cfg = SolverConfig(max_iters=10, region=region)
        _, trace = prox_linear(inst, start, cfg)
        assert sum(branches.values()) == len(factored) == sum(trace.column("inner_iters"))
        assert all(factored)
        assert min(branches.values()) > 0, branches


class TestProxLinear:
    def test_single_outer_matches_grid_oracle(self, monkeypatch):
        monkeypatch.setattr(solvers, "_gap_tolerance", lambda k: 1e-8)
        inst = generate_instance(1, 1, 8, seed=27)
        start = perturbed_start(inst, 0.3, 28)
        cfg = SolverConfig(max_iters=1, prox_beta=1.0)
        moved, trace = prox_linear(inst, start, cfg)
        step = np.array([moved.w[0] - start.w[0], moved.x[0] - start.x[0]])
        a_mat, y_tilde = linearized_residual_operator(inst, start)
        oracle = grid_lad_prox_2d(a_mat, y_tilde, 1.0, -3.0, 3.0)
        np.testing.assert_allclose(step, oracle, atol=1e-4)

    def test_converges_quadratically_fast(self):
        inst = generate_instance(10, 10, 160, noise=NoiseSpec.gaussian(0.25), seed=29)
        cfg = SolverConfig(max_iters=15, tol_rel_err=1e-9)
        final, trace = prox_linear(inst, perturbed_start(inst, 0.2, 30), cfg)
        assert trace.final.relative_error <= 1e-9
        assert not any(trace.column("inner_exhausted"))

    def test_trace_records_certified_gaps(self):
        inst = generate_instance(10, 10, 160, noise=NoiseSpec.gaussian(0.25), seed=29)
        cfg = SolverConfig(max_iters=8)
        _, trace = prox_linear(inst, perturbed_start(inst, 0.2, 30), cfg)
        assert trace.records[0].inner_gap == 0.0
        for previous, record in zip(trace.records, trace.records[1:]):
            assert not record.inner_exhausted
            tolerance = gap_tolerance(record.iteration, cfg.prox_beta, previous.step_size)
            assert 0.0 <= record.inner_gap <= tolerance

    def test_outer_objective_decreases_up_to_inner_tolerance(self):
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=31)
        cfg = SolverConfig(max_iters=12)
        _, trace = prox_linear(inst, perturbed_start(inst, 0.25, 32), cfg)
        objectives = trace.column("objective")
        for k, (before, after) in enumerate(zip(objectives, objectives[1:]), start=1):
            assert after <= before + 2.0**-k

    def test_inner_exhaustion_is_recorded_and_run_continues(self, monkeypatch):
        monkeypatch.setattr(solvers, "_MAX_NEWTON", 2)
        monkeypatch.setattr(solvers, "_gap_tolerance", lambda k: 1e-12)
        inst = generate_instance(6, 6, 96, seed=33)
        cfg = SolverConfig(max_iters=3)
        _, trace = prox_linear(inst, perturbed_start(inst, 0.3, 34), cfg)
        assert any(trace.column("inner_exhausted"))
        assert trace.final.iteration == 3

    def test_region_confines_the_iterate(self):
        # the balls bound the point p + z, not the displacement z: clipping z
        # to origin-centred balls left both factors at norm ~2.0 here
        inst = generate_instance(10, 10, 160, seed=1, magnitude=4.0)
        rng = np.random.default_rng(0)
        start = SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
        region = FeasibleRegion(radius=1.5)
        cfg = SolverConfig(max_iters=10, region=region)
        final, trace = prox_linear(inst, start, cfg)
        assert trace.final.iteration == 10
        assert np.linalg.norm(final.w) <= region.radius + 1e-12
        assert np.linalg.norm(final.x) <= region.radius + 1e-12
        assert not any(trace.column("inner_exhausted"))

    def test_hadamard_left_reaches_high_accuracy(self):
        # the partial-Hadamard side goes through the same materialized map
        # as a dense one
        inst = generate_instance(
            32, 32, 256, left="hadamard", noise=NoiseSpec.gaussian(0.1), seed=500
        )
        est = spectral_initialize(inst)
        cfg = SolverConfig(max_iters=20, tol_rel_err=1e-8)
        _, trace = prox_linear(inst, SignalPair(w=est.w0, x=est.x0), cfg)
        assert trace.final.relative_error <= 1e-8
        assert not any(trace.column("inner_exhausted"))

    @pytest.mark.parametrize(
        "region, records, newton, error, value",
        [
            # a proxlinear-dense benchmark instance (d = 32, m = 512) from its spectral start
            pytest.param(None, 11, 73, "0x1.8afa29d9d1d99p-29", "0x1.aba5716a35934p-3",
                         id="unconstrained"),
            # the balls bind here (see test_region_confines_the_iterate), so the
            # ball terms of the Newton steps and line search are exercised
            pytest.param(FeasibleRegion(radius=1.5), 11, 173, "0x1.f05b458b254a1p-2",
                         "0x1.c9edb05ef1878p-1", id="region"),
        ],
    )
    def test_solve_is_pinned_bit_for_bit(self, region, records, newton, error, value):
        # pinned to the last bit with one BLAS thread, as conftest.py sets, so that a
        # faster LAD-prox solve is held to the same Newton steps and results
        if region is None:
            inst = generate_instance(
                32, 32, 512, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=403
            )
            est = spectral_initialize(inst)
            start = SignalPair(w=est.w0, x=est.x0)
            cfg = SolverConfig(max_iters=20, tol_rel_err=1e-8)
        else:
            inst = generate_instance(10, 10, 160, seed=1, magnitude=4.0)
            rng = np.random.default_rng(0)
            start = SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
            cfg = SolverConfig(max_iters=10, region=region)
        _, trace = prox_linear(inst, start, cfg)
        assert len(trace.records) == records
        assert sum(trace.column("inner_iters")) == newton
        assert trace.final.relative_error == float.fromhex(error)
        assert trace.final.objective == float.fromhex(value)

    @pytest.mark.parametrize("region", [None, FeasibleRegion(radius=1.5)],
                             ids=["unconstrained", "region"])
    def test_certificate_matches_a_recomputation_bit_for_bit(self, region):
        # without a region the solver takes the residual and A^T u of the gap
        # from its last Newton step; they must be the products of the returned
        # z and duals, to the bit, as the region path recomputes them
        if region is None:
            inst = generate_instance(
                32, 32, 512, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=403
            )
            est = spectral_initialize(inst)
            start = SignalPair(w=est.w0, x=est.x0)
        else:
            inst = generate_instance(10, 10, 160, seed=1, magnitude=4.0)
            rng = np.random.default_rng(0)
            start = SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
        beta = SolverConfig().prox_beta
        a_mat, y_tilde = linearized_residual_operator(inst, start)
        center = -np.concatenate([start.w, start.x])
        result = admm_lad_prox(a_mat, inst.d1, y_tilde, beta, region=region,
                               eps=solvers._gap_tolerance(1), center=center)
        assert result.iterations > 0 and not result.exhausted
        z, (u, u2) = result.z, result.duals
        objective = float(0.5 * beta * z @ z + np.abs(a_mat @ z - y_tilde).mean())
        dual_z = a_mat.T @ u + u2
        dual = -u @ y_tilde - dual_z @ dual_z / (2.0 * beta)
        if region is not None:
            dual -= sum(
                region.radius * np.linalg.norm(u2[part]) + center[part] @ u2[part]
                for part in (slice(0, inst.d1), slice(inst.d1, None))
            )
        assert result.objective == objective
        assert result.gap == max(objective - float(dual), 0.0)

    def test_certificate_rests_on_a_fresh_residual(self):
        # the line search builds its trial residuals up as t + alpha A step,
        # which drifts from Az - y~ at rounding level; P(z) must be computed
        # from the product itself (at eps 1e-8 the built-up residual gave a
        # P one ulp above it)
        inst = generate_instance(32, 32, 512, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=403)
        est = spectral_initialize(inst)
        a_mat, y_tilde = linearized_residual_operator(inst, SignalPair(w=est.w0, x=est.x0))
        for eps in (1e-6, 1e-8, 1e-10):
            result = admm_lad_prox(a_mat, inst.d1, y_tilde, 1.0, eps=eps)
            assert not result.exhausted
            z = result.z
            assert result.objective == float(0.5 * z @ z + np.abs(a_mat @ z - y_tilde).mean())

    def test_repeated_runs_are_bit_identical(self):
        # the warm-started multipliers live inside one call, so nothing carries over
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=39)
        start = perturbed_start(inst, 0.25, 40)
        cfg = SolverConfig(max_iters=8)
        first, first_trace = prox_linear(inst, start, cfg)
        second, second_trace = prox_linear(inst, start, cfg)
        np.testing.assert_array_equal(first.w, second.w)
        np.testing.assert_array_equal(first.x, second.x)
        assert first_trace == second_trace

    def test_each_solve_starts_from_the_last_multipliers_and_penalty(self, monkeypatch):
        # the first solve starts cold at sigma = 1/m; each later one takes the
        # previous result's multipliers and the geometric mean sqrt(sigma/m)
        # of the cold start and the penalty that solve ended on
        calls = []

        def recording(*args, **kwargs):
            result = admm_lad_prox(*args, **kwargs)
            calls.append((kwargs, result))
            return result

        monkeypatch.setattr(solvers, "admm_lad_prox", recording)
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=39)
        start = perturbed_start(inst, 0.25, 40)
        cfg = SolverConfig(max_iters=8)
        prox_linear(inst, start, cfg)
        assert len(calls) == 8
        first_kwargs, first = calls[0]
        assert first_kwargs["duals"] is None and first_kwargs["sigma"] is None
        # only a region reads the balls' center, so none is built without one
        assert all(kwargs["center"] is None for kwargs, _ in calls)
        a_mat, y_tilde = linearized_residual_operator(inst, start)
        explicit = admm_lad_prox(a_mat, inst.d1, y_tilde, cfg.prox_beta, eps=first_kwargs["eps"],
                                 center=first_kwargs["center"], sigma=1.0 / inst.m)
        np.testing.assert_array_equal(explicit.z, first.z)
        assert explicit.iterations == first.iterations
        for (_, previous), (kwargs, _) in zip(calls, calls[1:]):
            assert kwargs["duals"] is previous.duals
            assert kwargs["sigma"] == math.sqrt(previous.sigma / inst.m)
        # the penalty does travel: some solve ends above the cold start
        assert max(result.sigma for _, result in calls) > 1.0 / inst.m

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_each_solve_is_as_loose_as_the_last_step_allows(self, monkeypatch, beta):
        # solve 1 gets the schedule; solve k the larger of the schedule and
        # kappa (beta/2)||z||^2 of the displacement solve k - 1 returned
        calls = []

        def recording(*args, **kwargs):
            result = admm_lad_prox(*args, **kwargs)
            calls.append((kwargs["eps"], result))
            return result

        monkeypatch.setattr(solvers, "admm_lad_prox", recording)
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=39)
        cfg = SolverConfig(max_iters=8, prox_beta=beta)
        prox_linear(inst, perturbed_start(inst, 0.25, 40), cfg)
        assert len(calls) == 8
        assert calls[0][0] == solvers._gap_tolerance(1)
        loosened = 0
        for k, ((_, previous), (eps, _)) in enumerate(zip(calls, calls[1:]), start=2):
            step = float(np.linalg.norm(previous.z))
            assert eps == gap_tolerance(k, beta, step)
            loosened += eps > solvers._gap_tolerance(k)
        # the far phase is loosened and the steps near the solution are not
        assert 0 < loosened < len(calls) - 1

    def test_benchmark_panel_within_newton_budget(self):
        # the six proxlinear-dense benchmark instances from their spectral starts:
        # 1,398 Newton steps before the penalty warm start and growth 3, 1,110
        # after, and 400 once the far-phase solves were loosened by the step; a
        # slower penalty schedule or tighter tolerance shows here without the benchmark
        cfg = SolverConfig(max_iters=20, tol_rel_err=1e-8)
        newton = 0
        for seed in range(400, 406):
            inst = generate_instance(
                32, 32, 512, noise=NoiseSpec.gaussian(0.25, sigma=1.0), seed=seed
            )
            est = spectral_initialize(inst)
            _, trace = prox_linear(inst, SignalPair(w=est.w0, x=est.x0), cfg)
            assert trace.final.relative_error <= 1e-8
            assert not any(trace.column("inner_exhausted"))
            newton += sum(trace.column("inner_iters"))
        assert newton <= 450

    def test_default_run_stops_at_its_own_budget(self):
        # SolverConfig() once ran 500 outer steps with a 50-step stall stop:
        # 69 outer steps and 48 exhausted inner solves from this start, where
        # 20 reach machine precision
        inst = generate_instance(32, 32, 512, noise=NoiseSpec.gaussian(0.25), seed=400)
        est = spectral_initialize(inst)
        _, trace = prox_linear(inst, SignalPair(w=est.w0, x=est.x0), SolverConfig())
        assert len(trace.records) <= 21
        assert not any(trace.column("inner_exhausted"))

    def test_matvec_accounting_matches_inner_counts(self):
        inst = generate_instance(5, 5, 80, seed=35)
        cfg = SolverConfig(max_iters=4)
        with count_matvecs() as outer:
            _, trace = prox_linear(inst, perturbed_start(inst, 0.2, 36), cfg)
        # 2 products per linearization; the inner solver works on the
        # materialized map and makes none
        assert all(record.inner_iters > 0 for record in trace.records[1:])
        expected = 2 * len(trace.records)
        assert outer.count == expected
        assert trace.final.matvecs == expected


@pytest.mark.parametrize(
    "solver",
    [polyak_subgradient, geometric_subgradient, prox_linear],
    ids=["polyak", "geometric", "prox_linear"],
)
class TestRunLoop:
    """The stop rules all three solvers share."""

    def run(self, solver, **settings):
        # Polyak needs a known minimal value, so its instance is noiseless
        noise = None if solver is polyak_subgradient else NoiseSpec.gaussian(0.2)
        inst = generate_instance(8, 8, 128, noise=noise, seed=45)
        with count_matvecs() as outer:
            _, trace = solver(inst, perturbed_start(inst, 0.3, 46), SolverConfig(**settings))
        assert len(trace.records) <= trace.max_iters + 1
        assert trace.final.matvecs == outer.count
        return trace

    def test_budget_bounds_the_trace(self, solver):
        trace = self.run(solver, max_iters=3)
        assert trace.column("iteration") == [0, 1, 2, 3]

    def test_default_budget_is_the_solvers_own(self, solver):
        trace = self.run(solver)
        own = {polyak_subgradient: 500, geometric_subgradient: 2000, prox_linear: 20}
        assert trace.max_iters == own[solver]

    def test_tolerance_stops_at_first_record_at_or_below_it(self, solver):
        full = self.run(solver, max_iters=12)
        errors = full.column("relative_error")
        # the start already meets the second tolerance, and only iteration 1 may stop on it
        for tol in (errors[3], 2.0 * errors[0]):
            stop = next(k for k in range(1, len(errors)) if errors[k] <= tol)
            trace = self.run(solver, max_iters=12, tol_rel_err=tol)
            assert trace.final.iteration == stop >= 1
            assert trace.records == full.records[: stop + 1]

    def test_non_finite_start_diverges_at_record_zero(self, solver):
        inst = generate_instance(8, 8, 128, seed=1)
        start = SignalPair(w=1e160 * np.ones(8), x=1e160 * np.ones(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = solver(inst, start, SolverConfig())
        assert trace.diverged
        assert len(trace.records) == 1
        assert math.isinf(trace.final.objective)

    def test_overflowing_step_diverges_at_last_finite_point(self, solver, monkeypatch):
        settings = {
            polyak_subgradient: {"min_value": -1e308},
            # lambda0 / ||grad|| overflows here, where ||grad|| is 0.70 at the start
            geometric_subgradient: {"lambda0": 1.7e308},
            prox_linear: {},
        }[solver]
        if solver is prox_linear:
            # no LAD-prox solve on a finite instance overflows, so make the first one
            def overflowing(*args, **kwargs):
                result = admm_lad_prox(*args, **kwargs)
                return result._replace(z=np.full_like(result.z, np.inf))

            monkeypatch.setattr(solvers, "admm_lad_prox", overflowing)
        inst = generate_instance(8, 8, 128, noise=NoiseSpec.gaussian(0.2), seed=45)
        start = perturbed_start(inst, 0.3, 46)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point, trace = solver(inst, start, SolverConfig(max_iters=5, **settings))
        assert trace.diverged
        assert trace.column("iteration") == [0, 1]
        assert math.isinf(trace.final.objective)
        np.testing.assert_array_equal(point.w, start.w)
        np.testing.assert_array_equal(point.x, start.x)
        assert trace.final.relative_error == trace.records[0].relative_error


class TestConfigAndTrace:
    def test_trace_rejects_nonmonotone_iterations(self):
        trace = Trace(max_iters=5)
        trace.append(TraceRecord(0, 1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="increasing"):
            trace.append(TraceRecord(0, 0.5, 0.5, 0.1))

    def test_trace_rejects_overflow(self):
        trace = Trace(max_iters=1)
        trace.append(TraceRecord(0, 1.0, 1.0, 0.0))
        trace.append(TraceRecord(1, 0.5, 0.5, 0.1))
        with pytest.raises(ValueError, match="max_iters"):
            trace.append(TraceRecord(2, 0.2, 0.2, 0.1))

    @pytest.mark.parametrize(
        "solver", [geometric_subgradient, prox_linear], ids=["geometric", "prox_linear"]
    )
    def test_recorded_relative_error_matches_point(self, solver, monkeypatch):
        # every record holds, to the bit, relative_error of the iterate the
        # loop visited, and that value is the dense outer-product error
        visited = []

        def recording(p, truth):
            visited.append(p)
            return relative_error(p, truth)

        monkeypatch.setattr(solvers, "relative_error", recording)
        inst = generate_instance(10, 10, 160, noise=NoiseSpec.gaussian(0.2), seed=41)
        cfg = SolverConfig(max_iters=40 if solver is geometric_subgradient else 6)
        _, trace = solver(inst, perturbed_start(inst, 0.2, 42), cfg)
        assert len(visited) == len(trace.records) > 2
        planted = np.outer(inst.truth.w_bar, inst.truth.x_bar)
        for p, record in zip(visited, trace.records):
            assert record.relative_error == relative_error(p, inst.truth)
            dense = np.linalg.norm(np.outer(p.w, p.x) - planted) / np.linalg.norm(planted)
            # the dense form cancels to ~eps, about 1e-9 relative at the 1e-7 errors reached
            assert record.relative_error == pytest.approx(dense, rel=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"decay_q": 0.0},
            {"decay_q": 1.0},
            {"lambda0": 0.0},
            {"prox_beta": -1.0},
            # a float or bool count failed mid-run or was read as 0/1
            {"max_iters": 2.5},
            {"max_iters": True},
            # there is no stall stop, so any window but None is refused
            {"stall_window": 5.0},
            {"stall_window": True},
            {"stall_window": 0},
            # an infinite step or weight ran to a diverged run or a NaN gap
            {"lambda0": math.inf},
            {"lambda0": math.nan},
            {"prox_beta": math.inf},
            {"min_value": math.nan},
            {"min_value": -math.inf},
            {"tol_rel_err": -1e-8},
            {"tol_rel_err": math.nan},
        ],
    )
    def test_solver_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
