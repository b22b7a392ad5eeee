"""Solution-set geometry: projections, distances, and Monte-Carlo landscape probes.

The solution set of a bilinear recovery problem is a one-parameter family of
rank-one factorizations, (alpha * w_bar, x_bar / alpha) with the scale alpha
confined to [1/nu, nu] in absolute value.  Distances to that set reduce to a
one-dimensional minimization whose stationary points are roots of a quartic,
which we solve by companion-matrix eigenvalues, batched over stacked
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import MeasurementOperator
from .model import GroundTruth, SignalPair, check_seed, is_count


@dataclass(frozen=True)
class FeasibleRegion:
    """Product of two origin-centered Euclidean balls of a common, finite radius.

    A solver with no region takes ``region=None``.
    """

    radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


def project_feasible(p: SignalPair, region: FeasibleRegion) -> SignalPair:
    """Nearest point of the ball product: each factor shrunk onto its ball."""
    w = p.w
    x = p.x
    nw = float(np.linalg.norm(w))
    nx = float(np.linalg.norm(x))
    if nw > region.radius:
        w = w * (region.radius / nw)
    if nx > region.radius:
        x = x * (region.radius / nx)
    return SignalPair(w=w, x=x)


@dataclass(frozen=True)
class SolutionSet:
    """All factorizations (alpha * w_bar, x_bar / alpha), 1/nu <= |alpha| <= nu."""

    truth: GroundTruth
    nu: float

    def __post_init__(self) -> None:
        if not self.nu >= 1.0:
            raise ValueError(f"nu must be >= 1, got {self.nu}")

    @property
    def sharpness_bound(self) -> float:
        """Guaranteed ratio of matrix error to factor distance on the ball region."""
        return math.sqrt(self.truth.magnitude) / (2.0 * math.sqrt(2.0) * (self.nu + 1.0))


def _companion_real_roots(a: np.ndarray, b: float, c: np.ndarray, e: float) -> np.ndarray:
    """Real parts of the roots of b t^4 - a t^3 + c t - e, batched over a, c.

    Clamping (rather than discarding) complex roots is safe because every
    candidate is re-evaluated through the objective before the final min.
    """
    n = a.shape[0]
    comp = np.zeros((n, 4, 4))
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    comp[:, 3, 2] = 1.0
    comp[:, 0, 3] = e / b
    comp[:, 1, 3] = -c / b  # comp[:, 2, 3], the t^2 coefficient, stays zero
    comp[:, 3, 3] = a / b
    return np.linalg.eigvals(comp).real


def _dist_squared_many(
    w_stack: np.ndarray, x_stack: np.ndarray, truth: GroundTruth, nu: float
) -> np.ndarray:
    """Squared distance to the solution set, the scale profile
    ||w - alpha w_bar||^2 + ||x - x_bar / alpha||^2 minimized over alpha, for
    a batch of stacked candidates."""
    w_bar = truth.w_bar
    x_bar = truth.x_bar
    b = float(truth.w_bar_sqnorm)
    e = float(x_bar @ x_bar)
    a = w_stack @ w_bar
    c = x_stack @ x_bar
    norm_w2 = np.einsum("ij,ij->i", w_stack, w_stack)
    norm_x2 = np.einsum("ij,ij->i", x_stack, x_stack)

    roots = _companion_real_roots(a, b, c, e)  # (n, 4)
    lo, hi = 1.0 / nu, nu
    candidates = np.concatenate(
        [
            np.clip(roots, lo, hi),
            np.clip(roots, -hi, -lo),
            np.broadcast_to(np.array([lo, hi, -hi, -lo]), (a.shape[0], 4)),
        ],
        axis=1,
    )  # (n, 12), every entry has |alpha| in [1/nu, nu]

    g = (
        norm_w2[:, None]
        - 2.0 * a[:, None] * candidates
        + b * candidates**2
        + norm_x2[:, None]
        - 2.0 * c[:, None] / candidates
        + e / candidates**2
    )
    # The expansion picks the best scale but cancels to ~eps * ||(w, x)||^2 on
    # the set, which the square root would inflate to ~1e-7; re-evaluate the
    # winning residuals directly.
    best = candidates[np.arange(a.shape[0]), g.argmin(axis=1)][:, None]
    dw = w_stack - best * w_bar
    dx = x_stack - x_bar / best
    return (dw * dw).sum(axis=1) + (dx * dx).sum(axis=1)


def dist_to_solution_set(p: SignalPair, sol: SolutionSet) -> float:
    """Euclidean distance from (w, x) to the nearest in-set factorization."""
    d2 = _dist_squared_many(p.w[None, :], p.x[None, :], sol.truth, sol.nu)
    return float(np.sqrt(d2[0]))


def relative_error(p: SignalPair, truth: GroundTruth) -> float:
    """||w x^T - w_bar x_bar^T||_F / ||w_bar x_bar^T||_F via inner products.

    With alpha = <w, w_bar> / ||w_bar||^2 the error splits into
    w_bar (alpha x - x_bar)^T + (w - alpha w_bar) x^T, two rank-one parts that
    are Frobenius-orthogonal because w - alpha w_bar is orthogonal to w_bar.
    Their squared norms add with no cancellation, so the result keeps full
    relative accuracy down to exact recovery.
    """
    w, x, w_bar = p.w, p.x, truth.w_bar
    b = truth.w_bar_sqnorm
    alpha = (w @ w_bar) / b
    dw = w - alpha * w_bar
    dx = alpha * x - truth.x_bar
    # np.add.reduce is ndarray.sum's pairwise sum; a dot product rounds differently
    err2 = b * np.add.reduce(dx * dx) + np.add.reduce(dw * dw) * np.add.reduce(x * x)
    return math.sqrt(err2) / truth.magnitude


@dataclass(frozen=True)
class LandscapeEstimate:
    """Empirical restricted-isometry and outlier-gap constants.

    ``c_lower``/``c_upper`` bracket (1/m)||A(X)||_1 over sampled unit-norm
    rank-<=2 matrices X; ``c_outlier`` is the smallest sampled inlier-minus-
    outlier mass gap.  Positive values certify nothing but calibrate step
    sizes and corroborate recovery behavior.
    """

    c_lower: float
    c_upper: float
    c_outlier: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("estimates require at least one sample")
        if self.c_lower > self.c_upper:
            raise ValueError(
                f"lower estimate {self.c_lower} exceeds upper estimate {self.c_upper}"
            )


def _unit_rank2_factors(
    rng: np.random.Generator, d1: int, d2: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Orthonormal factor pairs and a random spectrum on the unit quarter circle."""
    if min(d1, d2) < 2:
        # rank-2 matrices do not exist; fall back to unit rank-1 samples
        u = rng.standard_normal((d1, 1))
        v = rng.standard_normal((d2, 1))
        u, _ = np.linalg.qr(u)
        v, _ = np.linalg.qr(v)
        return u, v, 1.0, 0.0
    u, _ = np.linalg.qr(rng.standard_normal((d1, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((d2, 2)))
    theta = rng.uniform(0.0, math.pi / 4.0)
    return u, v, math.cos(theta), math.sin(theta)


def estimate_rip_constants(
    op: MeasurementOperator,
    outlier_mask: np.ndarray,
    samples: int,
    seed: int = 0,
) -> LandscapeEstimate:
    """Monte-Carlo probe of the operator's behavior on rank-<=2 matrices.

    Each sample draws X = s1 u1 v1^T + s2 u2 v2^T with unit Frobenius norm and
    evaluates (1/m)||A(X)||_1 through two bilinear products, plus the gap
    (1/m)(||A(X) on inliers||_1 - ||A(X) on outliers||_1).
    """
    if not is_count(samples):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    check_seed(seed)
    mask = np.ascontiguousarray(outlier_mask, dtype=bool)
    if mask.size != op.m:
        raise ValueError("outlier mask length must equal the measurement count")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    c_lo = math.inf
    c_hi = -math.inf
    gap_lo = math.inf
    for _ in range(samples):
        u, v, s1, s2 = _unit_rank2_factors(rng, op.d1, op.d2)
        ax = s1 * op.bilinear_forward(u[:, 0], v[:, 0])
        if s2 != 0.0:
            ax = ax + s2 * op.bilinear_forward(u[:, 1], v[:, 1])
        mass = np.abs(ax)
        total = float(mass.mean())
        gap = float((mass[~mask].sum() - mass[mask].sum()) / op.m)
        c_lo = min(c_lo, total)
        c_hi = max(c_hi, total)
        gap_lo = min(gap_lo, gap)

    return LandscapeEstimate(
        c_lower=c_lo, c_upper=c_hi, c_outlier=gap_lo, sample_count=samples
    )
