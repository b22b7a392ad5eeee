"""Measurement operators for bilinear sensing.

The recovery problem observes a rank-one matrix through m bilinear
measurements ``y_i = <l_i, w> <r_i, x>``.  This module provides the two
realizations of the row stacks L and R used throughout the package:

* :class:`DenseOperator` — an explicit m×d matrix.
* :class:`HadamardSignOperator` — a stack of Hadamard-times-sign blocks
  ``[H S_1; ...; H S_k]`` whose products run in O(m log d) via the fast
  Walsh-Hadamard transform, covering both the deterministic partial-Hadamard
  construction (keep the first ``input_dim`` columns, unnormalized, columns
  of norm sqrt(m)) and the normalized randomized-sign stacks.

A :class:`MeasurementOperator` pairs one left and one right side sharing the
same number of rows.  All operators are immutable and their products are
pure functions; ``count_matvecs`` offers an opt-in counter of forward and
transpose products for cost accounting.
"""

from __future__ import annotations

import contextlib
import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Union

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

def fwht(v: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Multiply by the symmetric Hadamard matrix along the last axis.

    Iterative in-place butterfly, O(d log d) per vector.  With
    ``normalized=True`` the result is scaled by 1/sqrt(d), which makes the
    transform an involution and an isometry; the unnormalized variant is the
    plain ±1 (Sylvester-ordered) Hadamard product.

    Accepts any array whose last axis has power-of-two length; leading axes
    are treated as a batch.
    """
    a = np.array(v, dtype=np.float64)  # always copies, also promotes ints
    d = a.shape[-1]
    if d < 1 or (d & (d - 1)) != 0:
        raise DimensionError(f"fwht length must be a power of two, got {d}")
    h = 1
    while h < d:
        view = a.reshape(a.shape[:-1] + (d // (2 * h), 2, h))
        top = view[..., 0, :]
        bot = view[..., 1, :]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    if normalized:
        a *= 1.0 / math.sqrt(d)
    return a


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

    def to_dense(self) -> np.ndarray:
        return self.entries


@dataclass(frozen=True)
class HadamardSignOperator:
    """Stacked Hadamard-sign blocks ``[H S_1; ...; H S_k]``, first ``input_dim`` columns.

    ``sign_diagonals`` holds the k diagonal ±1 blocks as a (k, dim) array;
    ``dim`` must be a power of two and the operator has m = k·dim rows.  With
    ``normalized=False`` (the partial-Hadamard convention) the entries are ±1
    and the stacked columns are orthogonal with norm sqrt(m); with
    ``normalized=True`` H carries a 1/sqrt(dim) factor.  A single all-plus
    block is exactly the deterministic partial Hadamard matrix: the forward
    product zero-pads its input to ``dim`` and applies one FWHT.
    """

    sign_diagonals: np.ndarray
    input_dim: int
    normalized: bool = False

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
        v = _as_vector(v, self.input_dim, "input")
        _tick_matvec()
        padded = np.zeros(self.dim)
        padded[: self.input_dim] = v
        # L v = H (S_b v) blockwise; one batched FWHT over all blocks.
        return fwht(self.sign_diagonals * padded, self.normalized).ravel()

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        u = _as_vector(u, self.m, "input")
        _tick_matvec()
        blocks = u.reshape(self.block_count, self.dim)
        # (H S_b)^T u_b = S_b H u_b since H is symmetric.
        full = (self.sign_diagonals * fwht(blocks, self.normalized)).sum(axis=0)
        return full[: self.input_dim]

    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Materialize the requested rows: row j of block b is (h_j ⊙ s_b)[:input_dim]."""
        idx = np.asarray(indices, dtype=np.intp)
        block, j = np.divmod(idx, self.dim)
        bits = j[:, None] & np.arange(self.input_dim)  # H[j, c] = (-1)^popcount(j & c)
        for shift in (1, 2, 4, 8, 16, 32):  # fold the parity of all 64 bits into bit 0
            bits ^= bits >> shift
        h_rows = 1.0 - 2.0 * (bits & 1)
        if self.normalized:
            h_rows *= 1.0 / math.sqrt(self.dim)
        return h_rows * self.sign_diagonals[block, : self.input_dim]

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

    @property
    def is_dense(self) -> bool:
        return isinstance(self.left, DenseOperator) and isinstance(self.right, DenseOperator)

    def bilinear_forward(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Measurements of the rank-one matrix w xᵀ: (Lw) ⊙ (Rx), never materialized."""
        return self.left.apply_forward(w) * self.right.apply_forward(x)
