from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bideconv.linops import (
    DenseOperator,
    DimensionError,
    HadamardSignOperator,
    MeasurementOperator,
    count_matvecs,
    fwht,
)
from oracles import dense_hadamard, fwht_butterfly, hadamard_forward_full, hadamard_transpose_full


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shapes and equal float64 bit patterns, signed zeros and NaN payloads included."""
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def wide_range(rng: np.random.Generator, shape, nonfinite: bool = False) -> np.ndarray:
    """Gaussian entries scaled by 10^e, e uniform in -8..8; optionally a few ±inf and nan."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if nonfinite:
        x.flat[rng.integers(0, x.size, size=3)] = rng.choice([np.inf, -np.inf, np.nan], size=3)
    return x


def random_hadamard_op(rng: np.random.Generator, k: int, d: int, input_dim: int) -> HadamardSignOperator:
    signs = rng.choice([-1.0, 1.0], size=(k, d))
    return HadamardSignOperator(sign_diagonals=signs, input_dim=input_dim)


class TestFwht:
    def test_four_point_unnormalized(self):
        out = fwht(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out, [10.0, -2.0, -4.0, 0.0], atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 64, 256])
    def test_matches_dense_matrix(self, d):
        rng = np.random.default_rng(d)
        v = rng.standard_normal(d)
        h = dense_hadamard(d)
        np.testing.assert_allclose(fwht(v), h @ v, atol=1e-10 * max(1.0, d))

    def test_batched_last_axis(self):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((3, 5, 8))
        out = fwht(batch)
        for i in range(3):
            for j in range(5):
                np.testing.assert_allclose(out[i, j], fwht(batch[i, j]), atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3), (1,)], ids=["vector", "batch", "batch2d", "single-row"])
    def test_bit_identical_to_butterfly(self, lead):
        # the butterfly oracle sums over the transform's addition tree, so every
        # output must match it to the last bit, at every length up to 1024 and
        # for inputs in any memory layout
        rng = np.random.default_rng(len(lead))
        for log_d in range(11):
            for nonfinite in (False, True):
                x = wide_range(rng, lead + (2**log_d,), nonfinite)
                x_strided = wide_range(rng, (2**log_d,) + lead[::-1], nonfinite).T  # not C-ordered
                with np.errstate(invalid="ignore"):
                    assert_same_bits(fwht(x), fwht_butterfly(x))
                    assert_same_bits(fwht(x_strided), fwht_butterfly(x_strided))

    def test_input_not_mutated(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        fwht(v)
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("d", [3, 5, 6, 12, 0])
    def test_rejects_non_power_of_two(self, d):
        with pytest.raises(DimensionError):
            fwht(np.ones(d) if d else np.ones((2, 0)))

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_involution(self, log_d, seed):
        d = 2**log_d
        v = np.random.default_rng(seed).standard_normal(d)
        np.testing.assert_allclose(fwht(fwht(v)) / d, v, atol=1e-10)


class TestDenseOperator:
    def test_forward_and_transpose(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3))
        op = DenseOperator(entries=a)
        v = rng.standard_normal(3)
        u = rng.standard_normal(7)
        np.testing.assert_allclose(op.apply_forward(v), a @ v, atol=1e-14)
        np.testing.assert_allclose(op.apply_transpose(u), a.T @ u, atol=1e-14)
        assert op.m == 7 and op.input_dim == 3

    def test_rows_and_to_dense(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 4))
        op = DenseOperator(entries=a)
        np.testing.assert_array_equal(op.to_dense(), a)
        np.testing.assert_array_equal(op.rows(np.array([3, 0])), a[[3, 0]])

    def test_selected_gram_is_the_rows_product(self):
        rng = np.random.default_rng(2)
        op = DenseOperator(entries=rng.standard_normal((9, 4)))
        idx = np.array([7, 1, 1, 4])
        assert_same_bits(op.selected_gram(idx), op.rows(idx).T @ op.rows(idx))

    def test_rejects_nonfinite(self):
        a = np.ones((2, 2))
        a[0, 1] = np.nan
        with pytest.raises(ValueError):
            DenseOperator(entries=a)

    def test_dimension_mismatch(self):
        op = DenseOperator(entries=np.ones((4, 3)))
        with pytest.raises(DimensionError):
            op.apply_forward(np.ones(2))
        with pytest.raises(DimensionError):
            op.apply_transpose(np.ones(3))


class TestHadamardSignOperator:
    @pytest.mark.parametrize("k,d,input_dim", [(1, 8, 8), (1, 8, 5), (3, 16, 16), (4, 8, 6)])
    def test_matches_dense(self, k, d, input_dim):
        rng = np.random.default_rng(k * 100 + d)
        op = random_hadamard_op(rng, k, d, input_dim)
        dense = op.to_dense()
        v = rng.standard_normal(input_dim)
        u = rng.standard_normal(k * d)
        np.testing.assert_allclose(op.apply_forward(v), dense @ v, atol=1e-10)
        np.testing.assert_allclose(op.apply_transpose(u), dense.T @ u, atol=1e-10)

    def test_dense_is_signed_hadamard_columns(self):
        rng = np.random.default_rng(3)
        op = random_hadamard_op(rng, 2, 8, 8)
        h = dense_hadamard(8)
        expected = np.vstack([h @ np.diag(op.sign_diagonals[0]), h @ np.diag(op.sign_diagonals[1])])
        np.testing.assert_allclose(op.to_dense(), expected, atol=1e-12)

    def test_unnormalized_columns_have_norm_sqrt_m(self):
        rng = np.random.default_rng(5)
        op = random_hadamard_op(rng, 3, 8, 6)
        dense = op.to_dense()
        np.testing.assert_allclose(
            np.linalg.norm(dense, axis=0), np.full(6, np.sqrt(op.m)), atol=1e-10
        )

    def test_rows_match_dense(self):
        # against an oracle independent of the operator's own formula: SciPy's
        # Sylvester matrix times each sign block, at random unsorted indices;
        # the last case is the benchmark's partial-Hadamard shape
        for k, d, input_dim in [(1, 8, 8), (3, 8, 5), (2, 16, 16), (4, 32, 7), (1, 1024, 64)]:
            rng = np.random.default_rng(k * 1000 + d)
            op = random_hadamard_op(rng, k, d, input_dim)
            h = scipy.linalg.hadamard(d).astype(np.float64)
            dense = np.vstack([h * signs for signs in op.sign_diagonals])[:, :input_dim]
            idx = rng.permutation(op.m)[: max(3, op.m // 3)]
            np.testing.assert_array_equal(op.rows(idx), dense[idx])
            np.testing.assert_array_equal(op.to_dense(), dense)

    def test_selected_gram_is_the_rows_product(self):
        # to the bit, zeros as +0.0, for every input_dim of dims 1-64 and two
        # 1024-row blocks (the benchmark's partial-Hadamard shape first), at
        # sorted, unsorted and repeated indices
        rng = np.random.default_rng(17)
        ops = [
            random_hadamard_op(rng, k, d, input_dim)
            for k in range(1, 5)
            for d in (1, 2, 4, 8, 16, 32, 64)
            for input_dim in range(1, d + 1)
        ]
        ops += [
            HadamardSignOperator(np.ones((1, 1024)), 64),
            random_hadamard_op(rng, 2, 1024, 1000),
        ]
        for op in ops:
            size = int(rng.integers(1, op.m + 1))
            for idx in (
                np.sort(rng.choice(op.m, size=size, replace=False)),
                rng.permutation(op.m)[:size],
                rng.integers(0, op.m, size=2 * size),
            ):
                rows = op.rows(idx)
                assert_same_bits(op.selected_gram(idx), rows.T @ rows)

    @pytest.mark.parametrize("k,d,input_dim", [(1, 1, 1), (3, 8, 5), (2, 64, 64), (1, 1024, 64)])
    def test_selected_gram_of_one_row_and_of_all_rows(self, k, d, input_dim):
        rng = np.random.default_rng(k + d + input_dim)
        op = random_hadamard_op(rng, k, d, input_dim)
        for idx in (np.array([op.m - 1]), np.arange(op.m)):
            rows = op.rows(idx)
            assert_same_bits(op.selected_gram(idx), rows.T @ rows)
        # the columns are orthogonal with norm sqrt(m)
        assert_same_bits(op.selected_gram(np.arange(op.m)), op.m * np.eye(input_dim))

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, k, log_d, seed):
        d = 2**log_d
        rng = np.random.default_rng(seed)
        input_dim = int(rng.integers(1, d + 1))
        op = random_hadamard_op(rng, k, d, input_dim)
        v = rng.standard_normal(input_dim)
        u = rng.standard_normal(k * d)
        lhs = float(op.apply_forward(v) @ u)
        rhs = float(v @ op.apply_transpose(u))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_products_bit_identical_to_full_length(self, k):
        # pruned products against zero-padded full-length FWHTs, for input
        # dims that fill, half-fill and barely touch a power-of-two support
        rng = np.random.default_rng(k)
        for log_d in range(11):
            dim = 2**log_d
            for input_dim in sorted({1, 3, dim // 16, dim // 2 - 1, dim // 2, dim} & set(range(1, dim + 1))):
                op = random_hadamard_op(rng, k, dim, input_dim)
                for nonfinite in (False, True):
                    v = wide_range(rng, input_dim, nonfinite)
                    u = wide_range(rng, k * dim, nonfinite)
                    with np.errstate(invalid="ignore"):
                        assert_same_bits(
                            op.apply_forward(v),
                            hadamard_forward_full(op.sign_diagonals, input_dim, v),
                        )
                        assert_same_bits(
                            op.apply_transpose(u),
                            hadamard_transpose_full(op.sign_diagonals, input_dim, u),
                        )

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            HadamardSignOperator(sign_diagonals=np.array([[1.0, 0.5]]), input_dim=2)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(DimensionError):
            HadamardSignOperator(sign_diagonals=np.ones((1, 3)), input_dim=3)

    def test_rejects_input_dim_out_of_range(self):
        with pytest.raises(DimensionError):
            HadamardSignOperator(sign_diagonals=np.ones((1, 4)), input_dim=5)
        with pytest.raises(DimensionError):
            HadamardSignOperator(sign_diagonals=np.ones((1, 4)), input_dim=0)


class TestMeasurementOperator:
    def _make(self, rng: np.random.Generator, m: int = 12, d1: int = 3, d2: int = 4) -> MeasurementOperator:
        return MeasurementOperator(
            left=DenseOperator(entries=rng.standard_normal((m, d1))),
            right=DenseOperator(entries=rng.standard_normal((m, d2))),
        )

    def test_bilinear_forward_matches_rowwise(self):
        rng = np.random.default_rng(11)
        op = self._make(rng)
        w = rng.standard_normal(3)
        x = rng.standard_normal(4)
        left = op.left.to_dense()
        right = op.right.to_dense()
        expected = (left @ w) * (right @ x)
        np.testing.assert_allclose(op.bilinear_forward(w, x), expected, atol=1e-13)

    def test_worked_example(self):
        left = DenseOperator(entries=np.array([[1.0, 0.0], [0.0, 1.0]]))
        right = DenseOperator(entries=np.array([[2.0, 0.0], [0.0, 3.0]]))
        op = MeasurementOperator(left=left, right=right)
        out = op.bilinear_forward(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [6.0, 24.0], atol=1e-14)

    def test_rejects_mismatched_row_counts(self):
        with pytest.raises(DimensionError):
            MeasurementOperator(
                left=DenseOperator(entries=np.ones((4, 2))),
                right=DenseOperator(entries=np.ones((5, 2))),
            )

    def test_shape_properties(self):
        rng = np.random.default_rng(13)
        op = self._make(rng, m=10, d1=2, d2=6)
        assert (op.m, op.d1, op.d2) == (10, 2, 6)


class TestMatvecCounting:
    def test_counts_forward_and_transpose(self):
        rng = np.random.default_rng(17)
        op = DenseOperator(entries=rng.standard_normal((6, 3)))
        with count_matvecs() as counter:
            op.apply_forward(np.ones(3))
            op.apply_forward(np.ones(3))
            op.apply_transpose(np.ones(6))
        assert counter.count == 3

    def test_nested_contexts_both_tick(self):
        rng = np.random.default_rng(19)
        op = random_hadamard_op(rng, 2, 4, 4)
        with count_matvecs() as outer:
            op.apply_forward(np.ones(4))
            with count_matvecs() as inner:
                op.apply_transpose(np.ones(8))
            op.apply_forward(np.ones(4))
        assert inner.count == 1
        assert outer.count == 3

    def test_no_count_outside_context(self):
        rng = np.random.default_rng(23)
        op = DenseOperator(entries=rng.standard_normal((2, 2)))
        with count_matvecs() as counter:
            pass
        op.apply_forward(np.ones(2))
        assert counter.count == 0
