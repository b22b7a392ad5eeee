from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bideconv.geometry import (
    FeasibleRegion,
    LandscapeEstimate,
    SolutionSet,
    _dist_squared_many,
    dist_to_solution_set,
    estimate_rip_constants,
    project_feasible,
    relative_error,
)
from bideconv.linops import DenseOperator, MeasurementOperator
from bideconv.model import GroundTruth, SignalPair, generate_instance
from oracles import grid_ball_projection, grid_dist_to_solution_set, outer_product_relative_error


def random_truth(rng: np.random.Generator, d1: int, d2: int) -> GroundTruth:
    return GroundTruth.balanced(rng.standard_normal(d1), rng.standard_normal(d2))


class TestProjection:
    def test_interior_point_unchanged(self):
        region = FeasibleRegion(radius=5.0)
        p = SignalPair(w=np.array([1.0, 1.0]), x=np.array([0.5]))
        q = project_feasible(p, region)
        np.testing.assert_array_equal(q.w, p.w)
        np.testing.assert_array_equal(q.x, p.x)

    def test_boundary_overflow_halved(self):
        region = FeasibleRegion(radius=1.0)
        p = SignalPair(w=np.array([2.0, 0.0]), x=np.array([0.0, 0.5]))
        q = project_feasible(p, region)
        np.testing.assert_allclose(q.w, [1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(q.x, p.x)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_disks(self, seed):
        rng = np.random.default_rng(seed)
        region = FeasibleRegion(radius=1.25)
        p = SignalPair(w=rng.uniform(-2.5, 2.5, size=2), x=rng.uniform(-2.5, 2.5, size=2))
        q = project_feasible(p, region)
        for proj, raw in ((q.w, p.w), (q.x, p.x)):
            assert np.linalg.norm(proj) <= 1.25 + 1e-12
            oracle = grid_ball_projection(raw, 1.25)
            mine = np.linalg.norm(proj - raw)
            brute = np.linalg.norm(oracle - raw)
            # optimality: at least as close as the best brute-force grid point,
            # and no better than that point by more than one grid cell
            assert mine <= brute + 1e-9
            assert brute - mine <= 5e-3

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_radius_that_is_not_positive_and_finite(self, radius):
        # no region is region=None; an infinite ball would be a second way to say it
        with pytest.raises(ValueError):
            FeasibleRegion(radius=radius)


class TestDistance:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(0)
        truth = random_truth(rng, 4, 6)
        sol = SolutionSet(truth=truth, nu=2.0)
        assert dist_to_solution_set(truth.pair(), sol) == pytest.approx(0.0, abs=1e-7)

    def test_zero_at_in_set_rescaling(self):
        rng = np.random.default_rng(1)
        truth = random_truth(rng, 3, 3)
        sol = SolutionSet(truth=truth, nu=2.0)
        p = SignalPair(w=2.0 * truth.w_bar, x=truth.x_bar / 2.0)
        assert dist_to_solution_set(p, sol) == pytest.approx(0.0, abs=1e-7)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # inputs on which the square root of the cancelling expansion exceeded 1e-7
    @example(t=0.875, negate=False, seed=2398)
    @example(t=0.942775707835144, negate=False, seed=499)
    def test_zero_on_the_whole_scale_interval(self, t, negate, seed):
        nu = 2.5
        alpha = nu**t  # spans [1/nu, nu]
        if negate:
            alpha = -alpha
        rng = np.random.default_rng(seed)
        truth = random_truth(rng, 3, 4)
        sol = SolutionSet(truth=truth, nu=nu)
        p = SignalPair(w=alpha * truth.w_bar, x=truth.x_bar / alpha)
        assert dist_to_solution_set(p, sol) <= 1e-7

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        nu = float(rng.uniform(1.1, 3.0))
        truth = random_truth(rng, 5, 4)
        sol = SolutionSet(truth=truth, nu=nu)
        p = SignalPair(w=3.0 * rng.standard_normal(5), x=3.0 * rng.standard_normal(4))
        fast = dist_to_solution_set(p, sol)
        slow = grid_dist_to_solution_set(p.w, p.x, truth.w_bar, truth.x_bar, nu)
        assert fast == pytest.approx(slow, abs=1e-6)
        assert fast <= slow + 1e-12  # the quartic must never miss the grid's minimum

    def test_zero_point_distance(self):
        # with |alpha| in [1/nu, nu] the profile at the origin is
        # M(alpha^2 + 1/alpha^2), minimized at |alpha| = 1
        truth = GroundTruth(w_bar=np.array([1.0]), x_bar=np.array([1.0]))
        sol = SolutionSet(truth=truth, nu=1.0)
        p = SignalPair(w=np.array([0.0]), x=np.array([0.0]))
        assert dist_to_solution_set(p, sol) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(9)
        truth = random_truth(rng, 4, 4)
        sol = SolutionSet(truth=truth, nu=2.0)
        ws = rng.standard_normal((8, 4))
        xs = rng.standard_normal((8, 4))
        batch = np.sqrt(_dist_squared_many(ws, xs, truth, sol.nu))
        singles = [dist_to_solution_set(SignalPair(w=w, x=x), sol) for w, x in zip(ws, xs)]
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_tube_membership_monotone(self):
        rng = np.random.default_rng(10)
        truth = random_truth(rng, 3, 3)
        sol = SolutionSet(truth=truth, nu=2.0)
        gammas = [0.1, 0.5, 1.0, 2.0]
        for _ in range(20):
            p = SignalPair(w=rng.standard_normal(3), x=rng.standard_normal(3))
            d = dist_to_solution_set(p, sol)
            member = [d <= g for g in gammas]
            assert member == sorted(member)  # once inside, inside for all larger radii

    def test_rejects_nu_below_one(self):
        truth = GroundTruth(w_bar=np.array([1.0]), x_bar=np.array([1.0]))
        with pytest.raises(ValueError):
            SolutionSet(truth=truth, nu=0.5)


class TestRelativeError:
    def test_zero_at_truth(self):
        rng = np.random.default_rng(2)
        truth = random_truth(rng, 5, 5)
        assert relative_error(truth.pair(), truth) == pytest.approx(0.0, abs=1e-7)

    def test_sign_flip_is_two(self):
        rng = np.random.default_rng(3)
        truth = random_truth(rng, 4, 7)  # magnitude 1 not required for the /M normalization
        p = SignalPair(w=-truth.w_bar, x=truth.x_bar)
        assert relative_error(p, truth) == pytest.approx(2.0, rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_outer_product_oracle(self, seed):
        rng = np.random.default_rng(seed)
        truth = random_truth(rng, 3, 5)
        p = SignalPair(w=2.0 * rng.standard_normal(3), x=2.0 * rng.standard_normal(5))
        fast = relative_error(p, truth)
        slow = outer_product_relative_error(p.w, p.x, truth.w_bar, truth.x_bar)
        assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("scale", [-3.0, 0.5, 2.0])
    def test_resolves_errors_near_the_solution_set(self, scale):
        # (a w_bar + d, x_bar / a + d') with |d| ~ 1e-10 relative: an expansion
        # of the squared error cancels to ~eps here and reads 0; the oracle
        # takes extended-precision copies so its own outer-product rounding
        # stays far below the tolerance
        rng = np.random.default_rng(8)
        truth = random_truth(rng, 30, 20)
        dw = rng.standard_normal(30)
        dx = rng.standard_normal(20)
        p = SignalPair(
            w=scale * truth.w_bar + 1e-10 * np.linalg.norm(truth.w_bar) * dw / np.linalg.norm(dw),
            x=truth.x_bar / scale + 1e-10 * np.linalg.norm(truth.x_bar) * dx / np.linalg.norm(dx),
        )
        wide = [np.asarray(v, dtype=np.longdouble) for v in (p.w, p.x, truth.w_bar, truth.x_bar)]
        expected = outer_product_relative_error(*wide)
        assert expected > 1e-11
        assert relative_error(p, truth) == pytest.approx(expected, rel=1e-6)

    def test_zero_only_on_exact_factorizations(self):
        rng = np.random.default_rng(5)
        truth = random_truth(rng, 4, 4)
        assert relative_error(
            SignalPair(w=0.5 * truth.w_bar, x=2.0 * truth.x_bar), truth
        ) == pytest.approx(0.0, abs=1e-8)
        assert relative_error(SignalPair(w=truth.w_bar, x=2.0 * truth.x_bar), truth) > 0.1


class TestLandscapeProbes:
    def test_one_by_one_instance_by_hand(self):
        op = MeasurementOperator(
            left=DenseOperator(entries=np.array([[2.0]])),
            right=DenseOperator(entries=np.array([[3.0]])),
        )
        est = estimate_rip_constants(op, np.zeros(1, dtype=bool), samples=7, seed=0)
        # the only unit rank-1 choices are X = ±e1 e1^T, and |A(X)| = 6 either way
        assert est.c_lower == pytest.approx(6.0, rel=1e-12)
        assert est.c_upper == pytest.approx(6.0, rel=1e-12)
        assert est.sample_count == 7

    def test_empty_outlier_set_gap_equals_lower(self):
        inst = generate_instance(3, 3, 30, seed=6)
        est = estimate_rip_constants(inst.op, inst.outlier_mask, samples=25, seed=1)
        assert est.c_outlier == pytest.approx(est.c_lower, rel=1e-12)

    def test_gaussian_operator_well_conditioned(self):
        inst = generate_instance(10, 10, 50 * 20, seed=7)
        est = estimate_rip_constants(inst.op, inst.outlier_mask, samples=40, seed=2)
        assert est.c_lower > 0.0
        assert est.c_lower <= est.c_upper
        # at this oversampling the two-sided estimates concentrate near a ratio of ~1
        assert est.c_upper / est.c_lower < 2.0

    def test_outlier_gap_decreases_with_corruption(self):
        from bideconv.model import NoiseSpec

        clean = generate_instance(6, 6, 240, seed=8)
        dirty = generate_instance(6, 6, 240, noise=NoiseSpec.gaussian(0.45), seed=8)
        est_clean = estimate_rip_constants(clean.op, clean.outlier_mask, samples=30, seed=3)
        est_dirty = estimate_rip_constants(dirty.op, dirty.outlier_mask, samples=30, seed=3)
        assert est_dirty.c_outlier < est_clean.c_outlier

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            LandscapeEstimate(c_lower=2.0, c_upper=1.0, c_outlier=0.0, sample_count=5)
        with pytest.raises(ValueError):
            LandscapeEstimate(c_lower=0.0, c_upper=1.0, c_outlier=0.0, sample_count=0)


class TestSharpnessScan:
    def test_scalar_witness_by_hand(self):
        truth = GroundTruth(w_bar=np.array([1.0]), x_bar=np.array([1.0]))
        sol = SolutionSet(truth=truth, nu=1.0)
        p = SignalPair(w=np.array([0.0]), x=np.array([0.0]))
        num = relative_error(p, truth) * truth.magnitude
        den = dist_to_solution_set(p, sol)
        assert num / den == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert num / den >= sol.sharpness_bound

    def test_bound_value(self):
        truth = GroundTruth(w_bar=np.array([1.0]), x_bar=np.array([1.0]))
        sol = SolutionSet(truth=truth, nu=2.0)
        assert sol.sharpness_bound == pytest.approx(1.0 / (2.0 * math.sqrt(2.0) * 3.0), rel=1e-12)
