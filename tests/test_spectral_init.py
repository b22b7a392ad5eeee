from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bideconv.geometry import relative_error
from bideconv.linops import DenseOperator, HadamardSignOperator, MeasurementOperator
from bideconv.model import GroundTruth, NoiseSpec, ProblemInstance, SignalPair, generate_instance
from bideconv.spectral_init import (
    DegenerateFitError,
    build_direction_matrices,
    direction_error,
    lad_scalar_fit,
    min_eigenvector,
    select_inliers,
    spectral_initialize,
)


class TestSelectInliers:
    def test_odd_median_keeps_lower_two(self):
        np.testing.assert_array_equal(select_inliers(np.array([1.0, 2.0, 3.0])), [0, 1])

    def test_all_equal_keeps_everything(self):
        np.testing.assert_array_equal(select_inliers(np.full(5, 7.0)), np.arange(5))

    def test_even_length_uses_lower_median(self):
        # lower median of [0, 0, 5, 5] is 0, so only the zeros survive
        np.testing.assert_array_equal(select_inliers(np.array([0.0, 0.0, 5.0, 5.0])), [0, 1])

    def test_magnitudes_not_values(self):
        np.testing.assert_array_equal(select_inliers(np.array([-10.0, 1.0, -1.0])), [1, 2])

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_keeps_at_least_half(self, values, seed):
        rng = np.random.default_rng(seed)
        y = np.array(values)
        if rng.uniform() < 0.5 and y.size >= 2:
            y[rng.integers(y.size)] = y[rng.integers(y.size)]  # encourage ties
        kept = select_inliers(y)
        assert kept.size >= -(-y.size // 2)  # ceil(m/2)


class TestMinEigenvector:
    def test_diagonal(self):
        v = min_eigenvector(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-12)

    def test_rank_one_deflation(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = min_eigenvector(np.eye(6) - np.outer(u, u))
        assert abs(abs(v @ u) - 1.0) < 1e-10
        nz = np.flatnonzero(v)
        assert v[nz[0]] > 0.0  # sign convention

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_against_full_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((5, 5))
        mat = mat + mat.T
        v = min_eigenvector(mat)
        lam = np.linalg.eigvalsh(mat)[0]
        assert np.linalg.norm(mat @ v - lam * v) <= 1e-8
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_symmetrizes_input(self):
        mat = np.array([[2.0, 1.0], [0.0, 1.0]])  # asymmetric; acts like [[2, .5], [.5, 1]]
        v = min_eigenvector(mat)
        sym = (mat + mat.T) / 2.0
        lam = np.linalg.eigvalsh(sym)[0]
        assert np.linalg.norm(sym @ v - lam * v) <= 1e-10


class TestLadScalarFit:
    def test_single_kink(self):
        assert lad_scalar_fit(np.array([6.0]), np.array([2.0])) == 3.0

    def test_unweighted_median_of_ratios(self):
        assert lad_scalar_fit(np.array([1.0, 2.0, 10.0]), np.ones(3)) == 2.0

    def test_zero_products_dropped(self):
        # the middle term has a zero product and is ignored entirely, leaving
        # ratios {1, 9} with equal weight; the tie resolves to the lower kink
        assert lad_scalar_fit(np.array([1.0, 5.0, 9.0]), np.array([1.0, 0.0, 1.0])) == 1.0

    def test_all_zero_products_error(self):
        with pytest.raises(DegenerateFitError):
            lad_scalar_fit(np.array([1.0, 2.0]), np.zeros(2))

    def test_exact_tie_takes_lower_kink(self):
        assert lad_scalar_fit(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_attains_grid_minimum(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(51)
        a = rng.standard_normal(51)

        def g(beta):
            return np.abs(y[None, :] - np.atleast_1d(beta)[:, None] * a[None, :]).mean(axis=1)

        fit = lad_scalar_fit(y, a)
        grid = np.linspace(-20.0, 20.0, 1_000_001)
        assert g(np.array([fit]))[0] <= g(grid).min() + 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_global_minimality_probes(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        y = rng.standard_normal(m)
        a = rng.standard_normal(m)
        fit = lad_scalar_fit(y, a)
        probes = rng.uniform(-30.0, 30.0, size=1000)

        def g(beta):
            return np.abs(y[None, :] - beta[:, None] * a[None, :]).mean(axis=1)

        assert g(np.array([fit]))[0] <= g(probes).min() + 1e-12


class TestDirectionMatrices:
    def test_trace_matches_direct_sum(self):
        inst = generate_instance(6, 4, 40, noise=NoiseSpec.gaussian(0.2), seed=3)
        selected = select_inliers(inst.y)
        moments = build_direction_matrices(inst, selected)
        lrows = inst.op.left.to_dense()[selected]
        rrows = inst.op.right.to_dense()[selected]
        assert np.trace(moments.left_moment) == pytest.approx(
            (lrows**2).sum() / inst.m, rel=1e-12
        )
        assert np.trace(moments.right_moment) == pytest.approx(
            (rrows**2).sum() / inst.m, rel=1e-12
        )

    def test_positive_semidefinite(self):
        inst = generate_instance(5, 5, 30, noise=NoiseSpec.gaussian(0.3), seed=4)
        moments = build_direction_matrices(inst, select_inliers(inst.y))
        assert np.linalg.eigvalsh(moments.left_moment)[0] >= -1e-12
        assert np.linalg.eigvalsh(moments.right_moment)[0] >= -1e-12

    def test_scaling_is_by_total_count(self):
        inst = generate_instance(3, 3, 20, seed=5)
        all_idx = np.arange(20)
        half_idx = np.arange(10)
        full = build_direction_matrices(inst, all_idx)
        half = build_direction_matrices(inst, half_idx)
        # scaling by 1/m (not by the selected count) means fewer rows -> smaller trace
        assert np.trace(half.left_moment) < np.trace(full.left_moment)

    def test_rows_are_built_only_where_the_moment_needs_them(self, monkeypatch):
        # a Hadamard side forms its moment from index counts, a dense one from
        # the selected rows
        rng = np.random.default_rng(8)
        left = HadamardSignOperator(rng.choice([-1.0, 1.0], size=(3, 16)), 12)
        right = DenseOperator(rng.standard_normal((48, 5)))
        inst = ProblemInstance(
            op=MeasurementOperator(left, right),
            y=rng.standard_normal(48),
            truth=GroundTruth(rng.standard_normal(12), rng.standard_normal(5)),
            outlier_mask=np.zeros(48, dtype=bool),
            seed=0,
        )
        calls = []
        for side in (HadamardSignOperator, DenseOperator):
            def counted(op, indices, rows=side.rows):
                calls.append(type(op))
                return rows(op, indices)
            monkeypatch.setattr(side, "rows", counted)
        spectral_initialize(inst)
        assert calls == [DenseOperator]


class TestSpectralInitialize:
    @pytest.mark.parametrize(
        "d,m,seed,m_hat,w0_sha,x0_sha",
        [
            # the benchmark's partial-Hadamard shape: one 1024-row block
            (64, 1024, 11, "-0x1.c68bac1e2c55ep-3", "152105dbe2156140", "5d33fe0734677751"),
            # three 64-row blocks, input_dim not a power of two
            (50, 192, 12, "-0x1.30a1247d6c5acp-3", "8dbb96bec63a8269", "18f13eb87a5c798a"),
        ],
    )
    def test_hadamard_left_init_is_pinned_bit_for_bit(self, d, m, seed, m_hat, w0_sha, x0_sha):
        # values from the row-product moments, which the count-based Hadamard
        # moments must reproduce to the bit
        inst = generate_instance(d, d, m, left="hadamard", noise=NoiseSpec.gaussian(0.05, sigma=1.0), seed=seed)
        est = spectral_initialize(inst)
        assert est.m_hat.hex() == m_hat
        assert hashlib.sha256(est.w0.tobytes()).hexdigest()[:16] == w0_sha
        assert hashlib.sha256(est.x0.tobytes()).hexdigest()[:16] == x0_sha

    def test_invariants(self):
        inst = generate_instance(8, 6, 112, noise=NoiseSpec.gaussian(0.25), seed=11)
        est = spectral_initialize(inst)
        assert np.linalg.norm(est.w_dir) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(est.x_dir) == pytest.approx(1.0, abs=1e-10)
        root = np.sqrt(abs(est.m_hat))
        assert np.linalg.norm(est.w0) == pytest.approx(root, rel=1e-12)
        assert np.linalg.norm(est.x0) == pytest.approx(root, rel=1e-12)
        # Frobenius norm of the rank-one initial matrix equals |M_hat|
        assert np.linalg.norm(np.outer(est.w0, est.x0)) == pytest.approx(
            est.magnitude, rel=1e-12
        )

    def test_noiseless_quality_monte_carlo(self):
        # constant-relative-error initialization: at this oversampling the
        # observed error distribution has median ~0.63 and 95th percentile
        # ~0.75 (the error shrinks like 1/sqrt(m), see the scaling test below)
        hits = 0
        for trial in range(100):
            inst = generate_instance(50, 50, 8 * 100, seed=1000 + trial)
            est = spectral_initialize(inst)
            err = relative_error(SignalPair(w=est.w0, x=est.x0), inst.truth)
            hits += err <= 0.8
        assert hits >= 95

    def test_corrupted_quality_monte_carlo(self):
        # unit-variance outliers are the hard rejection regime (their
        # magnitudes overlap the clean ones); the error stays below ~1 but
        # not much below it
        hits = 0
        for trial in range(100):
            inst = generate_instance(
                50, 50, 8 * 100, noise=NoiseSpec.gaussian(0.25), seed=2000 + trial
            )
            est = spectral_initialize(inst)
            err = relative_error(SignalPair(w=est.w0, x=est.x0), inst.truth)
            hits += err <= 1.05
        assert hits >= 90

    def test_error_decays_with_oversampling(self):
        medians = []
        for m in (400, 1600, 6400):
            errs = []
            for trial in range(15):
                inst = generate_instance(50, 50, m, seed=5000 + trial)
                est = spectral_initialize(inst)
                errs.append(relative_error(SignalPair(w=est.w0, x=est.x0), inst.truth))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] < 0.35

    def test_sign_of_fit_matches_best_alignment(self):
        for trial in range(20):
            inst = generate_instance(12, 12, 400, seed=3000 + trial)
            est = spectral_initialize(inst)
            if direction_error(est.w_dir, est.x_dir, inst.truth) >= 1.0:
                continue
            u = inst.truth.w_bar / np.linalg.norm(inst.truth.w_bar)
            v = inst.truth.x_bar / np.linalg.norm(inst.truth.x_bar)
            best_sign = np.sign((est.w_dir @ u) * (est.x_dir @ v))
            assert np.sign(est.m_hat) == best_sign

    def test_fit_beats_random_probes(self):
        rng = np.random.default_rng(13)
        inst = generate_instance(6, 6, 60, noise=NoiseSpec.gaussian(0.2), seed=13)
        est = spectral_initialize(inst)
        products = inst.op.bilinear_forward(est.w_dir, est.x_dir)

        def g(beta):
            return np.abs(inst.y[None, :] - beta[:, None] * products[None, :]).mean(axis=1)

        probes = rng.uniform(-10.0, 10.0, size=1000)
        assert g(np.array([est.m_hat]))[0] <= g(probes).min() + 1e-12

    def test_outlier_magnitude_does_not_hurt_directions(self):
        # Among gross outliers the offsets' scale no longer matters (sigma
        # 100 -> 10^4 barely moves the median), and selection is what keeps
        # the directions accurate: keeping all rows is clearly worse.  The
        # seed fixes the corrupted set and offset pattern, so both sigmas
        # scale the same offsets.
        meds, keep_all = {}, []
        for sigma in (100.0, 1e4):
            errs = []
            for trial in range(30):
                inst = generate_instance(
                    20,
                    20,
                    8 * 40,
                    noise=NoiseSpec.gaussian(0.25, sigma=sigma),
                    seed=4000 + trial,
                )
                est = spectral_initialize(inst)
                errs.append(direction_error(est.w_dir, est.x_dir, inst.truth))
                if sigma == 1e4:
                    moments = build_direction_matrices(inst, np.arange(inst.m))
                    keep_all.append(
                        direction_error(
                            min_eigenvector(moments.left_moment),
                            min_eigenvector(moments.right_moment),
                            inst.truth,
                        )
                    )
            meds[sigma] = float(np.median(errs))
        assert abs(meds[1e4] - meds[100.0]) <= 0.05
        assert float(np.median(keep_all)) >= meds[1e4] + 0.05

    def test_direction_error_range(self):
        inst = generate_instance(4, 4, 32, seed=17)
        u = inst.truth.w_bar / np.linalg.norm(inst.truth.w_bar)
        v = inst.truth.x_bar / np.linalg.norm(inst.truth.x_bar)
        assert direction_error(u, v, inst.truth) == pytest.approx(0.0, abs=1e-12)
        assert direction_error(-u, v, inst.truth) == pytest.approx(0.0, abs=1e-12)  # sign-invariant
        w_perp = np.array([1.0, 0.0, 0.0, 0.0])
        w_perp -= (w_perp @ u) * u
        w_perp /= np.linalg.norm(w_perp)
        assert direction_error(w_perp, v, inst.truth) == pytest.approx(np.sqrt(2.0), rel=1e-10)
