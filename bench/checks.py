"""Output checks computed apart from the package.

Each check recomputes what the package reports from dense copies of the
measurement sides and plain NumPy/SciPy, never through bideconv's operators
or helpers.  The Hadamard side is rebuilt with ``scipy.linalg.hadamard``.
A check returns an error message, or None when the output is right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

RTOL = 1e-9  # rounding slack for recomputed sums of a few thousand terms


@dataclass(frozen=True)
class Reference:
    """Dense data of one instance, built once and reused for every trial."""

    left: np.ndarray
    right: np.ndarray
    y: np.ndarray
    w_bar: np.ndarray
    x_bar: np.ndarray
    selected: np.ndarray  # lower-median rule applied by sorting
    left_moment: np.ndarray
    right_moment: np.ndarray
    left_eigenvalues: np.ndarray  # ascending
    right_eigenvalues: np.ndarray


def dense_side(side) -> np.ndarray:
    """The m×d matrix of an operator side, rebuilt from its defining data."""
    if hasattr(side, "entries"):
        return np.asarray(side.entries, dtype=np.float64)
    d = side.input_dim
    h = scipy.linalg.hadamard(side.dim)[:, :d].astype(np.float64)
    if side.normalized:
        h /= np.sqrt(side.dim)
    return np.vstack([h * signs[None, :d] for signs in side.sign_diagonals])


def lower_median_selection(y: np.ndarray) -> np.ndarray:
    magnitude = np.abs(y)
    cutoff = np.sort(magnitude)[(y.size - 1) // 2]
    return np.flatnonzero(magnitude <= cutoff)


def build_reference(inst) -> Reference:
    left = dense_side(inst.op.left)
    right = dense_side(inst.op.right)
    y = np.asarray(inst.y)
    selected = lower_median_selection(y)
    left_moment = left[selected].T @ left[selected] / y.size
    right_moment = right[selected].T @ right[selected] / y.size
    return Reference(
        left=left,
        right=right,
        y=y,
        w_bar=np.asarray(inst.truth.w_bar),
        x_bar=np.asarray(inst.truth.x_bar),
        selected=selected,
        left_moment=left_moment,
        right_moment=right_moment,
        left_eigenvalues=scipy.linalg.eigvalsh(left_moment),
        right_eigenvalues=scipy.linalg.eigvalsh(right_moment),
    )


def relative_error(ref: Reference, w: np.ndarray, x: np.ndarray) -> float:
    planted = np.outer(ref.w_bar, ref.x_bar)
    return float(np.linalg.norm(np.outer(w, x) - planted) / np.linalg.norm(planted))


def objective(ref: Reference, w: np.ndarray, x: np.ndarray) -> float:
    return float(np.mean(np.abs((ref.left @ w) * (ref.right @ x) - ref.y)))


def meets_target(error: float, target: float) -> bool:
    return error <= target * (1.0 + 1e-6)


def check_point(
    ref: Reference, w: np.ndarray, x: np.ndarray, reported_error: float
) -> tuple[float, str | None]:
    """(recomputed relative error, error message) for the returned pair.

    Missing the target is a failed trial, not a wrong output; reporting an
    error the dense recomputation does not confirm is a wrong output.  The
    package evaluates the squared error as ||w||^2 ||x||^2 - 2 <w, w_bar>
    <x, x_bar> + M^2, whose rounding leaves squared relative errors below a
    few eps unresolved, so the two are compared as squares.
    """
    error = relative_error(ref, w, x)
    if abs(error**2 - reported_error**2) > 64 * np.finfo(np.float64).eps:
        return error, f"relative error {reported_error:.6e} reported, {error:.6e} recomputed"
    return error, None


def check_objective(ref: Reference, w: np.ndarray, x: np.ndarray, reported: float) -> str | None:
    value = objective(ref, w, x)
    if abs(value - reported) > RTOL * max(abs(value), 1e-300):
        return f"objective {reported!r} reported, {value!r} recomputed"
    return None


def check_selection(ref: Reference, selected: np.ndarray) -> str | None:
    if not np.array_equal(np.asarray(selected), ref.selected):
        return f"selected {len(selected)} rows, the lower-median rule keeps {ref.selected.size}"
    return None


def check_direction(moment: np.ndarray, eigenvalues: np.ndarray, v: np.ndarray) -> str | None:
    """The Rayleigh quotient of v must be the smallest eigenvalue of the moment."""
    lowest = float(eigenvalues[0])
    quotient = float(v @ moment @ v / (v @ v))
    if abs(quotient - lowest) > 1e-9 * float(np.abs(eigenvalues).max()):
        return f"Rayleigh quotient {quotient:.12e}, smallest eigenvalue {lowest:.12e}"
    return None


def lad_values(y: np.ndarray, a: np.ndarray, betas: np.ndarray, chunk: int = 256) -> np.ndarray:
    """sum_i |y_i - beta a_i| for every beta, evaluated term by term."""
    out = np.empty(betas.size)
    for start in range(0, betas.size, chunk):
        block = betas[start : start + chunk]
        out[start : start + chunk] = np.abs(y[None, :] - block[:, None] * a[None, :]).sum(axis=1)
    return out


def check_fit(ref: Reference, w_dir: np.ndarray, x_dir: np.ndarray, m_hat: float) -> str | None:
    """m_hat must attain the least 1-D LAD value over all kinks y_i / a_i."""
    a = (ref.left @ w_dir) * (ref.right @ x_dir)
    nonzero = a != 0.0
    kinks = ref.y[nonzero] / a[nonzero]
    best = float(lad_values(ref.y, a, kinks).min())
    value = float(lad_values(ref.y, a, np.array([m_hat]))[0])
    if value > best * (1.0 + RTOL):
        return f"m_hat {m_hat!r} gives LAD value {value!r}, a kink gives {best!r}"
    return None


def check_init(ref: Reference, est) -> list[str]:
    """Every check on a spectral initialization's output."""
    found = [
        check_selection(ref, est.selected),
        check_direction(ref.left_moment, ref.left_eigenvalues, est.w_dir),
        check_direction(ref.right_moment, ref.right_eigenvalues, est.x_dir),
        check_fit(ref, est.w_dir, est.x_dir, est.m_hat),
    ]
    return [msg for msg in found if msg is not None]
