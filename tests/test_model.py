from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bideconv.linops import DenseOperator, DimensionError, MeasurementOperator, count_matvecs
from bideconv.model import (
    GroundTruth,
    NoiseSpec,
    ProblemInstance,
    SignalPair,
    corrupted_count,
    generate_instance,
    linearized_residual_operator,
    objective_and_subgradient,
    partial_hadamard_left,
)
from oracles import count_unidentifiable_groups, fd_gradient, objective, pattern_groups


def tiny_instance(left_entries, right_entries, y, w_bar=None, x_bar=None) -> ProblemInstance:
    """Hand-assembled instance for single-measurement arithmetic checks."""
    left = DenseOperator(entries=np.atleast_2d(np.asarray(left_entries, dtype=float)))
    right = DenseOperator(entries=np.atleast_2d(np.asarray(right_entries, dtype=float)))
    op = MeasurementOperator(left=left, right=right)
    truth = GroundTruth(
        w_bar=np.ones(op.d1) if w_bar is None else np.asarray(w_bar, dtype=float),
        x_bar=np.ones(op.d2) if x_bar is None else np.asarray(x_bar, dtype=float),
    )
    return ProblemInstance(
        op=op,
        y=np.asarray(y, dtype=float),
        truth=truth,
        outlier_mask=np.zeros(op.m, dtype=bool),
        seed=0,
    )


class TestGeneration:
    def test_noiseless_matches_truth_exactly(self):
        inst = generate_instance(6, 5, 40, seed=3)
        assert not inst.outlier_mask.any()
        expected = inst.op.bilinear_forward(inst.truth.w_bar, inst.truth.x_bar)
        np.testing.assert_array_equal(inst.y, expected)

    def test_same_seed_bit_identical(self):
        a = generate_instance(4, 7, 33, noise=NoiseSpec.gaussian(0.3), seed=99)
        b = generate_instance(4, 7, 33, noise=NoiseSpec.gaussian(0.3), seed=99)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.outlier_mask, b.outlier_mask)
        np.testing.assert_array_equal(a.truth.w_bar, b.truth.w_bar)
        np.testing.assert_array_equal(a.op.left.to_dense(), b.op.left.to_dense())
        np.testing.assert_array_equal(a.op.right.to_dense(), b.op.right.to_dense())

    def test_different_seeds_differ(self):
        a = generate_instance(4, 4, 16, seed=0)
        b = generate_instance(4, 4, 16, seed=1)
        assert not np.array_equal(a.y, b.y)

    def test_outlier_count_quarter_of_thousand(self):
        inst = generate_instance(5, 5, 1000, noise=NoiseSpec.gaussian(0.25), seed=1)
        assert inst.outlier_count == 250

    @pytest.mark.parametrize(
        "p,m,expected",
        [(0.25, 1000, 250), (0.45, 10, 5), (0.05, 10, 1), (0.25, 2, 1), (0.0, 17, 0), (0.3, 7, 2)],
    )
    def test_corrupted_count_rounds_half_up(self, p, m, expected):
        assert corrupted_count(p, m) == expected

    def test_truth_is_balanced_to_magnitude(self):
        inst = generate_instance(8, 3, 20, seed=5, magnitude=4.0)
        assert np.linalg.norm(inst.truth.w_bar) == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(inst.truth.x_bar) == pytest.approx(2.0, rel=1e-12)
        assert inst.truth.magnitude == pytest.approx(4.0, rel=1e-12)

    def test_inliers_always_exact(self):
        inst = generate_instance(6, 6, 50, noise=NoiseSpec.gaussian(0.4, sigma=10.0), seed=7)
        clean = inst.op.bilinear_forward(inst.truth.w_bar, inst.truth.x_bar)
        keep = ~inst.outlier_mask
        np.testing.assert_array_equal(inst.y[keep], clean[keep])
        assert inst.outlier_count == corrupted_count(0.4, 50)

    def test_gaussian_noise_shifts_outliers_additively(self):
        lo = generate_instance(6, 6, 50, noise=NoiseSpec.gaussian(0.4, sigma=1.0), seed=7)
        hi = generate_instance(6, 6, 50, noise=NoiseSpec.gaussian(0.4, sigma=2.0), seed=7)
        clean = lo.op.bilinear_forward(lo.truth.w_bar, lo.truth.x_bar)
        mask = lo.outlier_mask
        offsets = lo.y[mask] - clean[mask]
        assert np.all(offsets != 0.0)
        # Same seed, doubled sigma: the same offsets, twice as large (up to
        # the roundoff of subtracting clean back out).
        np.testing.assert_allclose(hi.y[mask] - clean[mask], 2.0 * offsets, rtol=1e-12, atol=1e-14)
        # A vanishing sigma leaves the measurements near the clean values
        # rather than near zero, which is what separates a shift from an
        # overwrite.
        tiny = generate_instance(6, 6, 50, noise=NoiseSpec.gaussian(0.4, sigma=1e-9), seed=7)
        np.testing.assert_allclose(tiny.y[mask], clean[mask], atol=1e-8)
        assert not np.array_equal(tiny.y[mask], clean[mask])

    def test_implant_noise_uses_second_pair(self):
        pair = SignalPair(w=np.array([1.0, 0.0, 0.0]), x=np.array([0.0, 1.0]))
        inst = generate_instance(3, 2, 30, noise=NoiseSpec.implanted(0.2, pair), seed=11)
        implanted = inst.op.bilinear_forward(pair.w, pair.x)
        np.testing.assert_array_equal(inst.y[inst.outlier_mask], implanted[inst.outlier_mask])

    def test_implant_noise_default_pair_is_seeded(self):
        a = generate_instance(3, 2, 30, noise=NoiseSpec.implanted(0.2), seed=11)
        b = generate_instance(3, 2, 30, noise=NoiseSpec.implanted(0.2), seed=11)
        np.testing.assert_array_equal(a.y, b.y)
        clean = a.op.bilinear_forward(a.truth.w_bar, a.truth.x_bar)
        assert not np.array_equal(a.y[a.outlier_mask], clean[a.outlier_mask])

    def test_rejects_p_fail_half(self):
        with pytest.raises(ValueError):
            NoiseSpec.gaussian(0.5)

    def test_implant_rejects_the_sigma_it_never_reads(self):
        with pytest.raises(ValueError, match="reads no sigma"):
            NoiseSpec(0.2, kind="implant", sigma=100.0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DimensionError):
            generate_instance(0, 4, 8)

    @pytest.mark.parametrize("sizes, named", [((True, 4, 16), "d1=True"),
                                              ((4, True, 16), "d2=True"),
                                              ((4, 4, True), "m=True")])
    def test_rejects_a_bool_size(self, sizes, named):
        # a bool is an integer to Python, and reached NumPy's sampler as one
        with pytest.raises(DimensionError, match=named):
            generate_instance(*sizes)

    @pytest.mark.parametrize(
        "seed, message",
        [
            # True drew seed 1's instance; 1.5 and -1 failed in NumPy's seeding,
            # with messages that named no setting
            (True, "seed must be an integer, got True"),
            (1.5, "seed must be an integer, got 1.5"),
            (-1, "seed must be non-negative, got -1"),
        ],
        ids=["seed-bool", "seed-float", "seed-negative"],
    )
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(4, 4, 32, seed=seed)

    @pytest.mark.parametrize("m", [16, 24])
    def test_hadamard_left_is_seed_independent(self, m):
        a = generate_instance(4, 4, m, left="hadamard", seed=0)
        b = generate_instance(4, 4, m, left="hadamard", seed=123)
        np.testing.assert_array_equal(a.op.left.to_dense(), b.op.left.to_dense())

    def test_hadamard_left_is_truncated_classical_construction(self):
        # Rows of the first-d1-columns construction depend only on the
        # low-order row-index bits, so any admissible m reads off the first
        # m rows of a large enough Hadamard matrix.
        inst = generate_instance(4, 4, 24, left="hadamard", seed=0)
        dense = inst.op.left.to_dense()
        i = np.arange(24)[:, None]
        k = np.arange(4)[None, :]
        bits = np.zeros((24, 4), dtype=int)
        for shift in range(5):
            bits += ((i >> shift) & 1) * ((k >> shift) & 1)
        np.testing.assert_array_equal(dense, np.where(bits % 2 == 0, 1.0, -1.0))

    def test_hadamard_left_columns_have_norm_sqrt_m(self):
        for m in (16, 24, 40):  # power of two and two mixed factorizations
            inst = generate_instance(4, 3, m, left="hadamard", seed=2)
            dense = inst.op.left.to_dense()
            np.testing.assert_allclose(
                np.linalg.norm(dense, axis=0), np.full(4, np.sqrt(m)), atol=1e-10
            )
            np.testing.assert_allclose(dense.T @ dense, m * np.eye(4), atol=1e-9)

    def test_hadamard_left_rejects_incompatible_m(self):
        with pytest.raises(DimensionError):
            partial_hadamard_left(96, 48)  # largest power-of-two factor is 32
        with pytest.raises(DimensionError):
            generate_instance(5, 5, 15, left="hadamard")


class TestPatternIdentifiability:
    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_matches_grid_scan_of_objective(self, seed):
        # Scan f itself along w_bar + s * l_g / ||l_g||^2 with x = x_bar: the
        # oracle flags a pattern group exactly when some grid point of that
        # line lies strictly below f at the planted pair.
        inst = generate_instance(
            16, 6, 64, left="hadamard", noise=NoiseSpec.gaussian(0.3), seed=seed
        )
        left = inst.op.left.to_dense()
        right_x = inst.op.right.to_dense() @ inst.truth.x_bar
        group, flagged = pattern_groups(inst)

        def f_along(direction, steps):
            w = inst.truth.w_bar[None, :] + steps[:, None] * direction[None, :]
            return np.abs((w @ left.T) * right_x[None, :] - inst.y[None, :]).mean(axis=1)

        base = f_along(np.zeros(inst.d1), np.zeros(1))[0]
        descent = []
        for g in range(flagged.size):
            rows = np.flatnonzero(group == g)
            pattern = left[rows[0]]
            offsets = inst.y[rows] / right_x[rows] - pattern @ inst.truth.w_bar
            reach = float(np.max(np.abs(offsets))) + 1.0
            steps = np.linspace(-reach, reach, 20_001)
            drop = base - f_along(pattern / (pattern @ pattern), steps).min()
            assert drop <= 1e-12 or drop >= 1e-6  # no borderline grid verdicts
            descent.append(drop > 1e-12)
        np.testing.assert_array_equal(flagged, descent)
        assert 0 < count_unidentifiable_groups(inst) == sum(descent) < flagged.size


class TestObjective:
    def test_zero_at_truth_noiseless(self):
        inst = generate_instance(5, 6, 30, seed=13)
        assert objective(inst, inst.truth.pair()) == 0.0

    def test_scale_ambiguity_alpha_three(self):
        inst = generate_instance(5, 6, 30, seed=13)
        p = SignalPair(w=3.0 * inst.truth.w_bar, x=inst.truth.x_bar / 3.0)
        assert objective(inst, p) == pytest.approx(0.0, abs=1e-14)

    def test_single_measurement_value(self):
        inst = tiny_instance([[1.0]], [[1.0]], [2.0])
        assert objective(inst, SignalPair(w=np.array([1.0]), x=np.array([1.0]))) == 1.0

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_property(self, alpha, negate, seed):
        if negate:
            alpha = -alpha
        rng = np.random.default_rng(seed)
        inst = generate_instance(3, 4, 12, noise=NoiseSpec.gaussian(0.25), seed=seed % 1000)
        w = rng.standard_normal(3)
        x = rng.standard_normal(4)
        base = objective(inst, SignalPair(w=w, x=x))
        scaled = objective(inst, SignalPair(w=alpha * w, x=x / alpha))
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestSubgradient:
    def test_zero_at_truth_noiseless(self):
        inst = generate_instance(4, 4, 20, seed=17)
        grad = objective_and_subgradient(inst, inst.truth.pair())[1]
        np.testing.assert_array_equal(grad, np.zeros(8))

    def test_single_measurement_arithmetic(self):
        inst = tiny_instance([[1.0]], [[1.0]], [0.0])
        g = objective_and_subgradient(inst, SignalPair(w=np.array([2.0]), x=np.array([3.0])))[1]
        np.testing.assert_allclose(g, [3.0, 2.0], atol=1e-14)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(19)
        inst = generate_instance(4, 5, 25, noise=NoiseSpec.gaussian(0.2), seed=19)
        found = 0
        while found < 5:
            w = rng.standard_normal(4)
            x = rng.standard_normal(5)
            resid = inst.op.bilinear_forward(w, x) - inst.y
            if np.min(np.abs(resid)) < 1e-3:
                continue  # too close to a kink for finite differences
            found += 1
            point = np.concatenate([w, x])

            def fun(z):
                return objective(inst, SignalPair(w=z[:4], x=z[4:]))

            fd = fd_gradient(fun, point, h=1e-6)
            np.testing.assert_allclose(
                objective_and_subgradient(inst, SignalPair(w=w, x=x))[1], fd, atol=1e-5
            )

    def test_uses_four_operator_products(self):
        inst = generate_instance(6, 6, 24, seed=23)
        p = SignalPair(w=np.ones(6), x=np.ones(6))
        with count_matvecs() as counter:
            value, grad = objective_and_subgradient(inst, p)
        assert counter.count == 4
        assert grad.shape == (12,)
        assert value >= 0.0

    def test_fused_matches_separate_calls(self):
        inst = generate_instance(3, 7, 21, noise=NoiseSpec.gaussian(0.3), seed=29)
        p = SignalPair(w=np.arange(1.0, 4.0), x=np.arange(1.0, 8.0))
        value, grad = objective_and_subgradient(inst, p)
        assert value == objective(inst, p)
        left, right = inst.op.left.to_dense(), inst.op.right.to_dense()
        sign = np.sign((left @ p.w) * (right @ p.x) - inst.y)
        dense = np.concatenate([left.T @ (sign * (right @ p.x)), right.T @ (sign * (left @ p.w))])
        np.testing.assert_allclose(grad, dense / inst.m, rtol=1e-14, atol=1e-15)


class TestLinearization:
    def test_zero_displacement_recovers_objective(self):
        inst = generate_instance(4, 6, 18, noise=NoiseSpec.gaussian(0.25), seed=31)
        base = SignalPair(w=np.ones(4), x=np.full(6, 0.5))
        a_mat, y_tilde = linearized_residual_operator(inst, base)
        zero = np.zeros(10)
        lin_obj = np.abs(a_mat @ zero - y_tilde).mean()
        assert lin_obj == pytest.approx(objective(inst, base), abs=1e-14)

    def test_offset_vanishes_at_truth_noiseless(self):
        inst = generate_instance(4, 4, 12, seed=37)
        _, y_tilde = linearized_residual_operator(inst, inst.truth.pair())
        np.testing.assert_allclose(y_tilde, np.zeros(12), atol=1e-14)

    @pytest.mark.parametrize("left", ["gaussian", "hadamard"])
    def test_operator_form_matches_dense(self, left):
        inst = generate_instance(5, 6, 16, left=left, noise=NoiseSpec.gaussian(0.2), seed=41)
        base = SignalPair(
            w=np.linspace(-1.0, 1.0, 5), x=np.linspace(0.5, 2.0, 6)
        )
        dense, _ = linearized_residual_operator(inst, base)
        assert dense.shape == (16, 11)
        # the operator form: row i is [<x, r_i> l_i^T | <l_i, w> r_i^T]
        lw = inst.op.left.apply_forward(base.w)
        rx = inst.op.right.apply_forward(base.x)
        rng = np.random.default_rng(43)
        z = rng.standard_normal(11)
        u = rng.standard_normal(16)
        forward = rx * inst.op.left.apply_forward(z[:5]) + lw * inst.op.right.apply_forward(z[5:])
        transpose = np.concatenate(
            [inst.op.left.apply_transpose(rx * u), inst.op.right.apply_transpose(lw * u)]
        )
        np.testing.assert_allclose(forward, dense @ z, atol=1e-10)
        np.testing.assert_allclose(transpose, dense.T @ u, atol=1e-10)

    @pytest.mark.parametrize("left", ["gaussian", "hadamard"])
    def test_matrix_is_the_stacked_scaled_sides_bit_for_bit(self, left):
        # the two scaled blocks are written into one matrix; each entry is
        # the same single product as in the stacked formula
        inst = generate_instance(8, 6, 48, left=left, noise=NoiseSpec.gaussian(0.2), seed=42)
        base = SignalPair(w=np.linspace(-1.0, 1.0, 8), x=np.linspace(0.5, 2.0, 6))
        a_mat, y_tilde = linearized_residual_operator(inst, base)
        lw = inst.op.left.apply_forward(base.w)
        rx = inst.op.right.apply_forward(base.x)
        stacked = np.hstack(
            [rx[:, None] * inst.op.left.to_dense(), lw[:, None] * inst.op.right.to_dense()]
        )
        np.testing.assert_array_equal(a_mat, stacked)
        np.testing.assert_array_equal(y_tilde, inst.y - lw * rx)

    def test_model_accuracy_identity_and_bound(self):
        rng = np.random.default_rng(47)
        inst = generate_instance(3, 3, 15, noise=NoiseSpec.gaussian(0.2), seed=47)
        for _ in range(10):
            base = SignalPair(w=rng.standard_normal(3), x=rng.standard_normal(3))
            target = SignalPair(w=rng.standard_normal(3), x=rng.standard_normal(3))
            a_mat, y_tilde = linearized_residual_operator(inst, base)
            delta = target.stacked() - base.stacked()
            true_args = inst.op.bilinear_forward(target.w, target.x) - inst.y
            lin_args = a_mat @ delta - y_tilde
            cross = inst.op.bilinear_forward(target.w - base.w, target.x - base.x)
            # per-measurement, the linearization error is exactly the cross term
            np.testing.assert_allclose(np.abs(true_args - lin_args), np.abs(cross), atol=1e-11)
            gap = abs(objective(inst, target) - float(np.abs(lin_args).mean()))
            assert gap <= np.abs(cross).mean() + 1e-12

    def test_dimension_mismatch(self):
        inst = generate_instance(3, 3, 9, seed=53)
        with pytest.raises(DimensionError):
            linearized_residual_operator(inst, SignalPair(w=np.ones(2), x=np.ones(3)))


class TestSignalTypes:
    def test_stack_round_trip(self):
        p = SignalPair(w=np.array([1.0, 2.0]), x=np.array([3.0]))
        q = SignalPair.from_stacked(p.stacked(), 2)
        np.testing.assert_array_equal(q.w, p.w)
        np.testing.assert_array_equal(q.x, p.x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SignalPair(w=np.array([np.inf]), x=np.array([1.0]))

    def test_ground_truth_balanced_constructor(self):
        t = GroundTruth.balanced(np.array([4.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert np.linalg.norm(t.w_bar) == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(t.x_bar) == pytest.approx(2.0, rel=1e-12)
        assert t.magnitude == pytest.approx(4.0, rel=1e-12)

    def test_ground_truth_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            GroundTruth(w_bar=np.zeros(3), x_bar=np.ones(2))
