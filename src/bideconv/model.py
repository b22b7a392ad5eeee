"""Synthetic bilinear measurement instances and the robust recovery objective.

An instance couples a measurement operator pair (L, R) with observations

    y_i = <l_i, w_bar> <r_i, x_bar>,   i = 1..m,

where a seeded random subset of the measurements fails: each failed entry is
either shifted by an independent Gaussian offset or overwritten with the
measurements of an implanted second signal pair.  The recovery objective is
the scaled least-absolute-deviation loss

    f(w, x) = (1/m) sum_i | <l_i, w> <r_i, x> - y_i |,

whose subgradients are provided here as operator products, so structured
(fast-transform) sides are not materialized for them.  Its local
linearization is a dense matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import (
    DenseOperator,
    DimensionError,
    HadamardSignOperator,
    MeasurementOperator,
)


def _clean_vector(v: np.ndarray, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{what} must be a nonempty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SignalPair:
    """A candidate factor pair (w, x), the optimization variable."""

    w: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _clean_vector(self.w, "w"))
        object.__setattr__(self, "x", _clean_vector(self.x, "x"))

    @property
    def d1(self) -> int:
        return self.w.size

    @property
    def d2(self) -> int:
        return self.x.size

    def stacked(self) -> np.ndarray:
        """Concatenate into a single vector of length d1 + d2."""
        return np.concatenate([self.w, self.x])

    @classmethod
    def from_stacked(cls, z: np.ndarray, d1: int) -> "SignalPair":
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 1 or not 0 < d1 < z.size:
            raise DimensionError(f"cannot split vector of shape {z.shape} at {d1}")
        return cls(w=z[:d1], x=z[d1:])


@dataclass(frozen=True)
class GroundTruth:
    """The planted pair, stored balanced: ``norm(w_bar) == norm(x_bar)``.

    The product magnitude ``norm(w_bar) * norm(x_bar)`` equals the Frobenius
    norm of the rank-one matrix ``w_bar x_bar^T`` and is the natural scale for
    error metrics and ball radii.
    """

    w_bar: np.ndarray
    x_bar: np.ndarray

    def __post_init__(self) -> None:
        w = _clean_vector(self.w_bar, "w_bar")
        x = _clean_vector(self.x_bar, "x_bar")
        if np.linalg.norm(w) == 0.0 or np.linalg.norm(x) == 0.0:
            raise ValueError("ground-truth factors must be nonzero")
        object.__setattr__(self, "w_bar", w)
        object.__setattr__(self, "x_bar", x)

    @cached_property
    def magnitude(self) -> float:
        """``norm(w_bar x_bar^T)_F``, the size of the planted matrix."""
        return float(np.linalg.norm(self.w_bar) * np.linalg.norm(self.x_bar))

    @cached_property
    def w_bar_sqnorm(self) -> np.float64:
        """``w_bar @ w_bar``, which every relative-error evaluation needs."""
        return self.w_bar @ self.w_bar

    @classmethod
    def balanced(cls, w: np.ndarray, x: np.ndarray) -> "GroundTruth":
        """Rescale an arbitrary nonzero pair so both factors share one norm."""
        w = _clean_vector(w, "w")
        x = _clean_vector(x, "x")
        nw = np.linalg.norm(w)
        nx = np.linalg.norm(x)
        if nw == 0.0 or nx == 0.0:
            raise ValueError("cannot balance a zero factor")
        target = math.sqrt(nw * nx)
        return cls(w_bar=w * (target / nw), x_bar=x * (target / nx))

    def pair(self) -> SignalPair:
        return SignalPair(w=self.w_bar, x=self.x_bar)


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption model: which fraction of measurements fail, and how.

    ``kind="gaussian"`` shifts each failed measurement by an independent
    ``sigma``-scaled Gaussian offset, so the failed entries are inconsistent
    with the planted pair but carry no structure of their own.
    ``kind="implant"`` instead overwrites failed measurements with the
    measurements of a second signal pair (drawn at generation time when not
    supplied), so the corruption is a consistent signal; it reads no sigma.
    """

    p_fail: float
    kind: str = "gaussian"
    sigma: float = 1.0
    implant: SignalPair | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail < 0.5:
            raise ValueError(f"p_fail must lie in [0, 1/2), got {self.p_fail}")
        if self.kind not in ("gaussian", "implant"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.kind == "implant" and self.sigma != 1.0:
            raise ValueError(f"the implant model reads no sigma, got {self.sigma}")

    @classmethod
    def gaussian(cls, p_fail: float, sigma: float = 1.0) -> "NoiseSpec":
        return cls(p_fail=p_fail, kind="gaussian", sigma=sigma)

    @classmethod
    def implanted(cls, p_fail: float, pair: SignalPair | None = None) -> "NoiseSpec":
        return cls(p_fail=p_fail, kind="implant", implant=pair)


@dataclass(frozen=True)
class ProblemInstance:
    """One generated recovery problem: operator, observations, and provenance."""

    op: MeasurementOperator
    y: np.ndarray
    truth: GroundTruth
    outlier_mask: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        y = _clean_vector(self.y, "y")
        mask = np.ascontiguousarray(self.outlier_mask, dtype=bool)
        if y.size != self.op.m or mask.size != self.op.m:
            raise DimensionError("y and outlier_mask must have one entry per measurement")
        if self.truth.w_bar.size != self.op.d1 or self.truth.x_bar.size != self.op.d2:
            raise DimensionError("ground-truth dimensions do not match the operator")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "outlier_mask", mask)

    @property
    def m(self) -> int:
        return self.op.m

    @property
    def d1(self) -> int:
        return self.op.d1

    @property
    def d2(self) -> int:
        return self.op.d2

    @property
    def outlier_count(self) -> int:
        return int(self.outlier_mask.sum())


def corrupted_count(p_fail: float, m: int) -> int:
    """Number of corrupted measurements: p_fail * m rounded half-up."""
    return int(math.floor(p_fail * m + 0.5))


def _unit_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # probability zero, but keep the contract airtight
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return v / norm


def pick(table: dict, name: str, what: str):
    """``table[name]``, or a ValueError that lists the names ``table`` knows."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}; choose from {', '.join(table)}")
    return table[name]


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1."""
    return is_integer(value) and value >= 1


def check_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not a non-negative integer (a bool is none)."""
    if not is_integer(seed):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")


def check_instance_shape(d1: int, d2: int, m: int, left: str) -> None:
    """Refuse a shape ``generate_instance`` cannot build: a size that is not an
    integer (a bool is none) or is below 1, an unknown left side, or a
    Hadamard left side whose m has no power-of-two block >= d1."""
    sizes = (d1, d2, m)
    if not all(is_count(size) for size in sizes):
        rule = "positive" if all(is_integer(size) for size in sizes) else "integers"
        raise DimensionError(f"dimensions must be {rule}, got d1={d1} d2={d2} m={m}")
    pick(LEFT_SIDES, left, "left side")
    block = m & (-m)  # largest power-of-two divisor
    if left == "hadamard" and block < d1:
        raise DimensionError(
            f"m={m} admits Hadamard blocks of dimension at most {block}, "
            f"too small for d1={d1}; choose m with a power-of-two factor >= d1"
        )


def partial_hadamard_left(m: int, d1: int) -> HadamardSignOperator:
    """Deterministic-left operator with orthogonal columns of norm sqrt(m).

    Rows are the first ``d1`` columns of a Hadamard matrix read off row by
    row.  Only the low-order index bits reach those columns, so the rows
    repeat with the period of the block dimension (the largest power of two
    dividing m): the classical partial construction truncated to m rows, for
    any m that ``check_instance_shape`` admits.
    """
    check_instance_shape(d1, 1, m, "hadamard")  # the right side plays no part
    block = m & (-m)
    signs = np.ones((m // block, block))
    return HadamardSignOperator(sign_diagonals=signs, input_dim=d1)


# left side name -> its builder from (rng, m, d1), drawn after the truth
LEFT_SIDES = {
    "gaussian": lambda rng, m, d1: DenseOperator(entries=rng.standard_normal((m, d1))),
    "hadamard": lambda rng, m, d1: partial_hadamard_left(m, d1),
}


def generate_instance(
    d1: int,
    d2: int,
    m: int,
    *,
    left: str = "gaussian",
    noise: NoiseSpec | None = None,
    seed: int = 0,
    magnitude: float = 1.0,
) -> ProblemInstance:
    """Draw a complete instance from a single integer seed.

    The random stream is consumed in a fixed order (ground truth, left
    operator, right operator, corrupted index set, corruption values), so the
    same seed always yields a bit-identical instance.

    Parameters
    ----------
    d1, d2, m:
        Factor dimensions and measurement count.
    left:
        ``"gaussian"`` draws both sides i.i.d. standard Gaussian;
        ``"hadamard"`` makes the left side a deterministic-column structured
        operator (see :func:`partial_hadamard_left`) with a Gaussian right.
    noise:
        Corruption model; defaults to no corruption.
    magnitude:
        Frobenius norm of the planted rank-one matrix; factors are balanced,
        each with norm ``sqrt(magnitude)``.
    """
    check_instance_shape(d1, d2, m, left)
    check_seed(seed)
    if not magnitude > 0.0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    if noise is None:
        noise = NoiseSpec.gaussian(0.0)

    rng = np.random.default_rng(np.random.SeedSequence(seed))

    root = math.sqrt(magnitude)
    truth = GroundTruth(w_bar=root * _unit_sphere(rng, d1), x_bar=root * _unit_sphere(rng, d2))

    left_op = LEFT_SIDES[left](rng, m, d1)
    right_op = DenseOperator(entries=rng.standard_normal((m, d2)))
    op = MeasurementOperator(left=left_op, right=right_op)

    n_bad = corrupted_count(noise.p_fail, m)
    mask = np.zeros(m, dtype=bool)
    if n_bad:
        mask[rng.choice(m, size=n_bad, replace=False)] = True

    y = op.bilinear_forward(truth.w_bar, truth.x_bar)
    if n_bad:
        if noise.kind == "gaussian":
            y[mask] += noise.sigma * rng.standard_normal(n_bad)
        else:
            pair = noise.implant
            if pair is None:
                pair = SignalPair(w=root * _unit_sphere(rng, d1), x=root * _unit_sphere(rng, d2))
            if pair.d1 != d1 or pair.d2 != d2:
                raise DimensionError("implanted pair dimensions do not match the instance")
            y[mask] = op.bilinear_forward(pair.w, pair.x)[mask]

    return ProblemInstance(op=op, y=y, truth=truth, outlier_mask=mask, seed=seed)


def objective_and_subgradient(inst: ProblemInstance, p: SignalPair) -> tuple[float, np.ndarray]:
    """Objective value and a stacked subgradient, sharing operator products.

    With s = sign(residual) (and sign(0) = 0) the returned vector is

        (1/m) [ L^T (s * (R x)) ; R^T (s * (L w)) ],

    computed with exactly four operator products: the two forward products
    feed both the value and the weighting of the two transpose products.
    """
    left, right = inst.op.left, inst.op.right
    # R, L, L^T, R^T: the next call starts with R, so each side is read twice in a row
    rx = right.apply_forward(p.x)
    lw = left.apply_forward(p.w)
    resid = lw * rx - inst.y
    sign = np.sign(resid)
    grad = np.concatenate([left.apply_transpose(sign * rx), right.apply_transpose(sign * lw)])
    grad *= 1.0 / resid.size
    return float(np.add.reduce(np.abs(resid)) / resid.size), grad


def linearized_residual_operator(
    inst: ProblemInstance, base: SignalPair
) -> tuple[np.ndarray, np.ndarray]:
    """Linearize the bilinear map at ``base``.

    Returns the m x (d1 + d2) matrix A whose row i is
    ``[ <x_base, r_i> l_i^T  |  <l_i, w_base> r_i^T ]`` and the offset vector
    ``y_tilde = y - <l_i, w_base><x_base, r_i>``, so that the locally linear
    model of the objective at base + displacement z is (1/m)||A z - y_tilde||_1.
    The weights cost two operator products; materializing the sides
    (``to_dense``, structured ones too) costs none.  A is a plain matrix, but
    the function keeps the name the benchmark's tracer wraps it by.
    """
    if base.d1 != inst.d1 or base.d2 != inst.d2:
        raise DimensionError("base pair dimensions do not match the instance")
    lw = inst.op.left.apply_forward(base.w)
    rx = inst.op.right.apply_forward(base.x)
    a_mat = np.empty((inst.m, inst.d1 + inst.d2))
    np.multiply(rx[:, None], inst.op.left.to_dense(), out=a_mat[:, : inst.d1])
    np.multiply(lw[:, None], inst.op.right.to_dense(), out=a_mat[:, inst.d1 :])
    return a_mat, inst.y - lw * rx
