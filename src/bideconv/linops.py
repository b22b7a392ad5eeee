"""Measurement operators for bilinear sensing.

The recovery problem observes a rank-one matrix through m bilinear
measurements ``y_i = <l_i, w> <r_i, x>``.  This module provides the two
realizations of the row stacks L and R used throughout the package:

* :class:`DenseOperator` — an explicit m×d matrix.
* :class:`HadamardSignOperator` — a stack of Hadamard-times-sign blocks
  ``[H S_1; ...; H S_k]`` whose products run in O(m log n), n the smallest
  power of two >= ``input_dim``, via the fast Walsh-Hadamard transform.  H
  is the ±1 Hadamard matrix, so the columns have norm sqrt(m) and
  (1/m) LᵀL = I, the scale of a Gaussian side.  With all-plus signs it is
  the deterministic partial-Hadamard construction, with random ones a
  random-sign stack.

Each side also forms the second moment ``selected_gram(indices)`` of a row
subset, which spectral initialization needs: the dense side from the
selected rows, the Hadamard side from per-block row counts without building
any row.

A :class:`MeasurementOperator` pairs one left and one right side sharing the
same number of rows.  All operators are immutable and their products are
pure functions; ``count_matvecs`` offers an opt-in counter of forward and
transpose products for cost accounting.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import ClassVar, Iterator, Union

import numpy as np


class DimensionError(ValueError):
    """Shapes passed to an operator or transform do not line up."""


# --- matrix-vector product accounting -------------------------------------

class MatvecCounter:
    """Mutable counter of operator products observed in a ``count_matvecs`` scope."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_ACTIVE_COUNTERS: ContextVar[tuple[MatvecCounter, ...]] = ContextVar(
    "bideconv_matvec_counters", default=()
)


@contextlib.contextmanager
def count_matvecs() -> Iterator[MatvecCounter]:
    """Count forward/transpose operator products performed in this context.

    Contexts nest: every active counter sees every product, so a harness can
    meter a whole run while a solver meters its own loop.
    """
    counter = MatvecCounter()
    token = _ACTIVE_COUNTERS.set(_ACTIVE_COUNTERS.get() + (counter,))
    try:
        yield counter
    finally:
        _ACTIVE_COUNTERS.reset(token)


def _tick_matvec() -> None:
    for counter in _ACTIVE_COUNTERS.get():
        counter.count += 1


# --- fast Walsh-Hadamard transform -----------------------------------------

def fwht(v: np.ndarray) -> np.ndarray:
    """Multiply by the ±1 (Sylvester-ordered) Hadamard matrix H along the last axis.

    H is symmetric and H H = d I, so applying the transform twice scales by
    d.  Constant-geometry (Pease) butterfly, O(d log d) per vector: stage s
    adds and subtracts adjacent pairs, which hold the entries whose indices
    differ in bit s, into the halves of the other buffer.  Every output is
    the same sum over the same tree as in the in-place radix-2 butterfly, to
    the last bit.

    Accepts any array whose last axis has power-of-two length; leading axes
    are treated as a batch of R rows.  The stages run on the whole batch as
    one flat vector, so each is two NumPy calls whatever R is: none of the
    log2(d) stages pairs entries of two rows, and together they leave entry
    j of row r at flat position j·R + r, which one transposing copy puts
    back.  Returns a new C-ordered array.
    """
    a = np.array(v, dtype=np.float64, order="C")  # always copies, also promotes ints
    d = a.shape[-1]
    if d < 1 or (d & (d - 1)) != 0:
        raise DimensionError(f"fwht length must be a power of two, got {d}")
    x = a.reshape(-1)
    y = np.empty_like(x)
    h = x.size // 2
    views = ((x[0::2], x[1::2], y[:h], y[h:]), (y[0::2], y[1::2], x[:h], x[h:]))
    stages = d.bit_length() - 1
    for s in range(stages):
        even, odd, sums, diffs = views[s & 1]
        np.add(even, odd, sums)
        np.subtract(even, odd, diffs)
    out = (y if stages & 1 else x).reshape(d, -1)  # entry j of row r is out[j, r]
    return np.ascontiguousarray(out.T).reshape(a.shape)


# Operator products call ``fwht`` by its module-global name, where a tracer
# counts them; ``selected_gram``, which is not a product, calls this alias.
_butterfly = fwht


def _as_vector(v: np.ndarray, length: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise DimensionError(f"{what} must be a vector of length {length}, got shape {arr.shape}")
    return arr


# --- operator kinds ---------------------------------------------------------

@dataclass(frozen=True)
class DenseOperator:
    """Explicit m×d measurement side, stored row-major (rows = measurements)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise DimensionError(f"dense operator needs an m×d matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("dense operator entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def input_dim(self) -> int:
        return self.entries.shape[1]

    def apply_forward(self, v: np.ndarray) -> np.ndarray:
        v = _as_vector(v, self.input_dim, "input")
        _tick_matvec()
        return self.entries @ v

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        u = _as_vector(u, self.m, "input")
        _tick_matvec()
        return self.entries.T @ u

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Materialize the requested measurement rows as a (len(indices), d) array."""
        return self.entries[np.asarray(indices, dtype=np.intp)]

    def selected_gram(self, indices: np.ndarray) -> np.ndarray:
        """Sum of l_i l_iᵀ over the requested rows, as ``rows.T @ rows``."""
        rows = self.rows(indices)
        return rows.T @ rows

    def to_dense(self) -> np.ndarray:
        return self.entries


@dataclass(frozen=True)
class HadamardSignOperator:
    """Stacked Hadamard-sign blocks ``[H S_1; ...; H S_k]``, first ``input_dim`` columns.

    ``sign_diagonals`` holds the k diagonal ±1 blocks as a (k, dim) array;
    ``dim`` must be a power of two and the operator has m = k·dim rows.  The
    entries are ±1 and the stacked columns are orthogonal with norm sqrt(m).
    A single all-plus block is exactly the deterministic partial Hadamard
    matrix.  Products run FWHTs of length n (the smallest power of two
    >= ``input_dim``) and skip the top stages, which on zero-padded inputs
    would only add zeros.
    """

    sign_diagonals: np.ndarray
    input_dim: int
    # not a field: H is never scaled; kept only for bench/checks.py::dense_side
    normalized: ClassVar[bool] = False

    def __post_init__(self) -> None:
        signs = np.ascontiguousarray(self.sign_diagonals, dtype=np.float64)
        if signs.ndim != 2 or signs.shape[0] < 1:
            raise DimensionError(
                f"sign_diagonals must be a (block_count, dim) array, got shape {signs.shape}"
            )
        d = signs.shape[1]
        if d < 1 or (d & (d - 1)) != 0:
            raise DimensionError(f"Hadamard dim must be a power of two, got {d}")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("sign diagonals must have entries in {-1, +1}")
        if not 1 <= self.input_dim <= d:
            raise DimensionError(f"input_dim must lie in [1, {d}], got {self.input_dim}")
        object.__setattr__(self, "sign_diagonals", signs)

    @property
    def block_count(self) -> int:
        return self.sign_diagonals.shape[0]

    @property
    def dim(self) -> int:
        return self.sign_diagonals.shape[1]

    @property
    def m(self) -> int:
        return self.block_count * self.dim

    def apply_forward(self, v: np.ndarray) -> np.ndarray:
        """L v: block b is H_n (S_b v) repeated dim/n times, by one broadcast
        copy; v is zero-padded to length n only if ``input_dim`` is not n."""
        v = _as_vector(v, self.input_dim, "input")
        _tick_matvec()
        n = 1 << (self.input_dim - 1).bit_length()  # smallest power of two >= input_dim
        if n > self.input_dim:
            v = np.concatenate((v, np.zeros(n - self.input_dim)))
        blocks = fwht(self.sign_diagonals[:, :n] * v)
        out = np.empty((self.block_count, self.dim // n, n))
        out[...] = blocks[:, None, :]
        return out.reshape(-1)

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        """Lᵀ u = sum_b S_b H u_b (H is symmetric), first n entries only: the
        top stages of H_dim just sum adjacent length-n parts, so one batched
        FWHT of length n precedes log2(dim/n) pairwise sums of parts."""
        u = _as_vector(u, self.m, "input")
        _tick_matvec()
        n = 1 << (self.input_dim - 1).bit_length()
        parts = fwht(u.reshape(-1, n))
        for _ in range((self.dim // n).bit_length() - 1):
            parts = parts[0::2] + parts[1::2]
        return (self.sign_diagonals[:, :n] * parts).sum(axis=0)[: self.input_dim]

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Materialize the requested rows: row j of block b is (h_j ⊙ s_b)[:input_dim]."""
        idx = np.asarray(indices, dtype=np.intp)
        block, j = np.divmod(idx, self.dim)
        bits = j[:, None] & np.arange(self.input_dim)  # H[j, c] = (-1)^popcount(j & c)
        for shift in (1, 2, 4, 8, 16, 32):  # fold the parity of all 64 bits into bit 0
            bits ^= bits >> shift
        h_rows = 1.0 - 2.0 * (bits & 1)
        return h_rows * self.sign_diagonals[block, : self.input_dim]

    def selected_gram(self, indices: np.ndarray) -> np.ndarray:
        """Sum of l_i l_iᵀ over the requested rows (repeats count again).

        The rows are never built.  H[j, a] H[j, c] = H[j, a ⊕ c], and for
        a, c < n only j mod n matters, so with cnt_b the count of the indices
        in block b per residue j mod n and ĉ_b = H_n cnt_b,
        G[a, c] = Σ_b s_b[a] s_b[c] ĉ_b[a ⊕ c].  Every term is an integer,
        so the sum is exact and equals ``rows.T @ rows`` to the bit, zeros
        as +0.0.  Beyond the k·n counts, memory is O(input_dim²) whatever
        the block count k.
        """
        idx = np.asarray(indices, dtype=np.intp)
        d = self.input_dim
        n = 1 << (d - 1).bit_length()
        key = (idx // self.dim) * n + (idx & (n - 1))  # n divides dim
        counts = np.bincount(key, minlength=self.block_count * n).reshape(-1, n)
        xor = np.bitwise_xor.outer(np.arange(d), np.arange(d))
        gram = np.zeros((d, d))  # a -0.0 term added to this +0.0 start gives +0.0
        for signs, spectrum in zip(self.sign_diagonals[:, :d], _butterfly(counts)):
            gram += signs[:, None] * spectrum[xor] * signs
        return gram

    def to_dense(self) -> np.ndarray:
        return self.rows(np.arange(self.m))


OperatorSide = Union[DenseOperator, HadamardSignOperator]


@dataclass(frozen=True)
class MeasurementOperator:
    """The (L, R) pair; both sides must share the measurement count m."""

    left: OperatorSide
    right: OperatorSide

    def __post_init__(self) -> None:
        if self.left.m != self.right.m:
            raise DimensionError(
                f"left and right sides disagree on m: {self.left.m} vs {self.right.m}"
            )

    @property
    def m(self) -> int:
        return self.left.m

    @property
    def d1(self) -> int:
        return self.left.input_dim

    @property
    def d2(self) -> int:
        return self.right.input_dim

    def bilinear_forward(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Measurements of the rank-one matrix w xᵀ: (Lw) ⊙ (Rx), never materialized."""
        return self.left.apply_forward(w) * self.right.apply_forward(x)
