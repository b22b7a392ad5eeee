"""Outlier-robust spectral initialization.

The estimator works in three stages, none of which needs to know which
measurements are corrupted:

1. keep the measurements whose magnitude is at most the (lower) median --
   gross outliers are mostly large, so at least half the kept set is clean;
2. estimate each factor's direction as the minimal eigenvector of the
   selected rows' second-moment matrix (corrupted rows push energy uniformly,
   clean rows are deficient exactly along the planted direction);
3. recover the signed magnitude by a one-dimensional least-absolute-deviation
   fit of y against the bilinear products of the direction estimates, which
   reduces to a weighted median of ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linops import DimensionError
from .model import GroundTruth, ProblemInstance


class DegenerateFitError(ValueError):
    """All bilinear products vanished; the scalar fit has no information."""


def select_inliers(y: np.ndarray) -> np.ndarray:
    """Indices with |y_i| at most the lower median of |y| (ties included).

    The lower-median convention (order statistic ceil(m/2), i.e. no averaging
    for even m) guarantees at least ceil(m/2) indices are returned.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise DimensionError(f"y must be a nonempty vector, got shape {y.shape}")
    mag = np.abs(y)
    cutoff = np.partition(mag, (y.size - 1) // 2)[(y.size - 1) // 2]
    return np.flatnonzero(mag <= cutoff)


class DirectionMatrices(NamedTuple):
    """Second-moment matrices of the selected rows, scaled by 1/m.

    The scaling is by the full measurement count, not the selected count, so
    the matrices shrink when fewer measurements survive selection.
    """

    left_moment: np.ndarray
    right_moment: np.ndarray


def build_direction_matrices(inst: ProblemInstance, selected: np.ndarray) -> DirectionMatrices:
    """(1/m) sum of l_i l_i^T and r_i r_i^T over the selected rows.

    Each side forms its sum with ``selected_gram``: a dense side as the
    product of the selected rows, a ±1 Hadamard-sign side from
    Walsh-transformed counts of the selected indices, building no row and
    giving the same exact integers.
    """
    selected = np.asarray(selected, dtype=np.intp)
    return DirectionMatrices(
        left_moment=inst.op.left.selected_gram(selected) / inst.m,
        right_moment=inst.op.right.selected_gram(selected) / inst.m,
    )


def _fix_sign(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0.0:
        return -v
    return v


def min_eigenvector(mat: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of a symmetric matrix.

    The input is symmetrized, (M + M^T)/2, before the dense symmetric
    eigendecomposition.  The sign is normalized so the first nonzero
    coordinate is positive.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {mat.shape}")
    _, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    return _fix_sign(v)


def lad_scalar_fit(y: np.ndarray, a: np.ndarray) -> float:
    """Global minimizer of (1/m) sum_i |y_i - beta * a_i| over beta.

    Equals a weighted median of the ratios y_i/a_i with weights |a_i|;
    measurements with a_i = 0 contribute constants and are dropped.  On an
    exact cumulative-weight tie the lower kink is returned (any point between
    the two adjacent kinks is optimal).
    """
    y = np.asarray(y, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if y.shape != a.shape or y.ndim != 1:
        raise DimensionError("y and a must be equal-length vectors")
    keep = a != 0.0
    if not keep.any():
        raise DegenerateFitError("every bilinear product is zero; cannot fit a magnitude")
    ratios = y[keep] / a[keep]
    weights = np.abs(a[keep])
    order = np.argsort(ratios, kind="stable")
    ratios = ratios[order]
    cumulative = np.cumsum(weights[order])
    half = cumulative[-1] / 2.0
    return float(ratios[np.searchsorted(cumulative, half)])


@dataclass(frozen=True)
class InitEstimate:
    """Output of the initialization: scaled point, directions, and provenance."""

    w0: np.ndarray
    x0: np.ndarray
    m_hat: float
    selected: np.ndarray
    w_dir: np.ndarray
    x_dir: np.ndarray

    @property
    def magnitude(self) -> float:
        """|M_hat| = the Frobenius norm of the rank-one initial matrix."""
        return abs(self.m_hat)


def spectral_initialize(inst: ProblemInstance) -> InitEstimate:
    """Full pipeline: selection, directional eigenvectors, scalar LAD fit.

    The returned point satisfies ``norm(w0) = norm(x0) = sqrt(|M_hat|)`` with
    the sign of the fit carried by ``w0``.
    """
    if inst.m < 2:
        raise DimensionError("initialization needs at least two measurements")
    selected = select_inliers(inst.y)
    moments = build_direction_matrices(inst, selected)
    w_dir = min_eigenvector(moments.left_moment)
    x_dir = min_eigenvector(moments.right_moment)
    products = inst.op.bilinear_forward(w_dir, x_dir)
    m_hat = lad_scalar_fit(inst.y, products)
    root = math.sqrt(abs(m_hat))
    sign = math.copysign(1.0, m_hat) if m_hat != 0.0 else 0.0
    return InitEstimate(
        w0=sign * root * w_dir,
        x0=root * x_dir,
        m_hat=m_hat,
        selected=selected,
        w_dir=w_dir,
        x_dir=x_dir,
    )


def direction_error(w_dir: np.ndarray, x_dir: np.ndarray, truth: GroundTruth) -> float:
    """Sign-invariant distance between unit rank-one matrices.

    min over s in {-1, +1} of ||w_dir x_dir^T - s * u v^T||_F where u, v are
    the planted directions; equals sqrt(2 - 2|<w_dir,u><x_dir,v>|).
    """
    u = truth.w_bar / np.linalg.norm(truth.w_bar)
    v = truth.x_bar / np.linalg.norm(truth.x_bar)
    inner = float(np.dot(w_dir, u) * np.dot(x_dir, v))
    return math.sqrt(max(2.0 - 2.0 * abs(inner), 0.0))
