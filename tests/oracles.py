"""Slow-but-obviously-correct reference implementations used to pin test expectations.

Everything here is deliberately independent of the package internals: the
Hadamard matrix comes from the bit-count closed form, fast Hadamard products
from the textbook in-place butterfly over zero-padded full-length blocks,
distances from dense grid scans, gradients from central finite differences,
and subproblem solutions from brute-force grids.  Tests freeze values
produced by these oracles or compare against them live.
"""

from __future__ import annotations

import numpy as np


def dense_hadamard(d: int) -> np.ndarray:
    """Sylvester-ordered Hadamard matrix via H[i, j] = (-1)^popcount(i & j)."""
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError(f"d must be a power of two, got {d}")
    idx = np.arange(d)
    bits = np.bitwise_and(idx[:, None], idx[None, :])
    # vectorized popcount of the AND table
    pop = np.zeros_like(bits)
    val = bits.copy()
    while val.any():
        pop += val & 1
        val >>= 1
    return np.where(pop % 2 == 0, 1.0, -1.0)


def fwht_butterfly(v: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform by the in-place radix-2 butterfly.

    Stage h combines the entries whose indices differ in the bit of value h,
    from the lowest bit up, over the last axis.  The package's transform sums
    over the same addition tree, so it must equal this one to the last bit.
    """
    a = np.array(v, dtype=np.float64)
    d = a.shape[-1]
    h = 1
    while h < d:
        view = a.reshape(a.shape[:-1] + (d // (2 * h), 2, h))
        top = view[..., 0, :]
        bot = view[..., 1, :]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    return a


def hadamard_forward_full(signs: np.ndarray, input_dim: int, v: np.ndarray) -> np.ndarray:
    """[H S_1; ...; H S_k] v: v zero-padded to the full block length, one full-length FWHT."""
    padded = np.zeros(signs.shape[1])
    padded[:input_dim] = v
    return fwht_butterfly(signs * padded).ravel()


def hadamard_transpose_full(signs: np.ndarray, input_dim: int, u: np.ndarray) -> np.ndarray:
    """[H S_1; ...; H S_k]^T u: a full-length FWHT of each block, then its first input_dim entries."""
    blocks = fwht_butterfly(u.reshape(signs.shape))
    return (signs * blocks).sum(axis=0)[:input_dim]


def grid_dist_to_solution_set(
    w: np.ndarray,
    x: np.ndarray,
    w_bar: np.ndarray,
    x_bar: np.ndarray,
    nu: float,
    coarse: int = 20_000,
    fine: int = 20_000,
) -> float:
    """Two-stage grid scan of the scale parameter in [-nu, -1/nu] ∪ [1/nu, nu].

    The profile g(alpha) = ||w - alpha w_bar||^2 + ||x - x_bar/alpha||^2 has at
    most four stationary points overall, so a coarse scan per interval followed
    by a refinement window around the best coarse point resolves the global
    minimum far below the tolerances the tests use.
    """

    def g(alpha: np.ndarray) -> np.ndarray:
        a = float(w @ w_bar)
        b = float(w_bar @ w_bar)
        c = float(x @ x_bar)
        e = float(x_bar @ x_bar)
        return (
            float(w @ w)
            - 2.0 * a * alpha
            + b * alpha**2
            + float(x @ x)
            - 2.0 * c / alpha
            + e / alpha**2
        )

    best = np.inf
    for lo, hi in ((1.0 / nu, nu), (-nu, -1.0 / nu)):
        alphas = np.linspace(lo, hi, coarse)
        vals = g(alphas)
        j = int(np.argmin(vals))
        best = min(best, float(vals[j]))
        # refine around the coarse winner (clipped to the interval)
        step = (hi - lo) / (coarse - 1) if coarse > 1 else (hi - lo)
        wlo = max(lo, alphas[j] - 2 * step)
        whi = min(hi, alphas[j] + 2 * step)
        refined = np.linspace(wlo, whi, fine)
        best = min(best, float(np.min(g(refined))))
    return float(np.sqrt(max(best, 0.0)))


def objective(inst, p) -> float:
    """Mean absolute residual (1/m) * sum_i |<l_i,w><r_i,x> - y_i| of the pair
    ``p`` on the instance ``inst``, from one bilinear product."""
    resid = inst.op.bilinear_forward(p.w, p.x) - inst.y
    return float(np.abs(resid).mean())


def values(table, statistic: str, **match: int | float | str) -> list[float]:
    """All values of one statistic in a result table whose config contains
    the given items, in the table's order."""
    wanted = set(match.items())
    return [value for config, name, value in table if name == statistic and wanted <= set(config)]


def fd_gradient(fun, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    for i in range(point.size):
        bump = np.zeros_like(point)
        bump[i] = h
        grad[i] = (fun(point + bump) - fun(point - bump)) / (2.0 * h)
    return grad


def outer_product_relative_error(
    w: np.ndarray, x: np.ndarray, w_bar: np.ndarray, x_bar: np.ndarray
) -> float:
    """Relative error computed the naive way, materializing both outer products."""
    diff = np.outer(w, x) - np.outer(w_bar, x_bar)
    return float(np.linalg.norm(diff, "fro") / np.linalg.norm(np.outer(w_bar, x_bar), "fro"))


def lad_prox_objective(a_mat: np.ndarray, y_tilde: np.ndarray, beta: float, z: np.ndarray):
    """(1/m)||A z - y~||_1 + (beta/2)||z||^2, broadcast over a batch of z columns."""
    z = np.atleast_2d(z)  # (batch, n)
    resid = z @ a_mat.T - y_tilde[None, :]
    return np.abs(resid).mean(axis=1) + 0.5 * beta * (z**2).sum(axis=1)


def _best_candidate(a_mat, y_tilde, beta, candidates):
    candidates = np.asarray(candidates, dtype=np.float64)
    vals = lad_prox_objective(a_mat, y_tilde, beta, candidates)
    return candidates[int(np.argmin(vals))]


def exact_lad_prox_1d(a_mat: np.ndarray, y_tilde: np.ndarray, beta: float) -> float:
    """Exact minimizer of the 1-D LAD-prox objective by candidate enumeration.

    The objective is convex and piecewise quadratic in z, so its minimizer is
    either a kink (some residual exactly zero) or the stationary point of one
    of the smooth pieces, where the derivative beta*z + (1/m) sum(s_i a_i)
    vanishes for the piece's fixed sign vector.  Enumerating every kink and
    every piece's stationary point and taking the best is therefore exact.
    """
    a = np.asarray(a_mat, dtype=np.float64).reshape(-1)
    m = a.size
    kinks = [y_tilde[i] / a[i] for i in range(m) if a[i] != 0.0]
    breaks = sorted(kinks)
    probes = (
        [breaks[0] - 1.0]
        + [0.5 * (u + v) for u, v in zip(breaks, breaks[1:])]
        + [breaks[-1] + 1.0]
        if breaks
        else [0.0]
    )
    stationary = [
        -np.sum(np.sign(a * t - y_tilde) * a) / (beta * m) for t in probes
    ]
    cands = np.array(kinks + stationary + [0.0])[:, None]
    return float(_best_candidate(a[:, None], y_tilde, beta, cands)[0])


def grid_lad_prox_1d(
    a_mat: np.ndarray,
    y_tilde: np.ndarray,
    beta: float,
    lo: float,
    hi: float,
    coarse: int = 40_000,
    fine: int = 40_000,
) -> float:
    """Exact 1-D LAD-prox minimizer, cross-checked against a brute-force scan.

    A pure grid cannot certify the minimizer location tightly: near a flat
    valley the argmin wanders by about sqrt(spacing / beta) even though the
    grid's best value is nearly optimal.  The enumeration oracle is exact; the
    scan only guards it against gross errors.
    """
    zs = np.linspace(lo, hi, coarse)[:, None]
    vals = lad_prox_objective(a_mat, y_tilde, beta, zs)
    grid_best = float(vals.min())
    exact = exact_lad_prox_1d(a_mat, y_tilde, beta)
    exact_val = float(
        lad_prox_objective(a_mat, y_tilde, beta, np.array([[exact]]))[0]
    )
    assert exact_val <= grid_best + 1e-12
    return exact


def exact_lad_prox_2d(a_mat: np.ndarray, y_tilde: np.ndarray, beta: float) -> np.ndarray:
    """Exact minimizer of the 2-variable LAD-prox objective by enumeration.

    Convex piecewise-quadratic structure: the minimizer is (a) smooth, i.e.
    the stationary point z = -(1/(beta m)) A^T s of one orthant's quadratic
    piece, (b) on a single kink line, where it is a stationary point of the
    restricted one-dimensional piecewise quadratic, or (c) at an intersection
    of two kink lines.  All three families are finite; evaluating the
    objective over their union and returning the best is exact.
    """
    a = np.asarray(a_mat, dtype=np.float64)
    m = a.shape[0]
    cands = [np.zeros(2)]

    # (a) every sign pattern's smooth stationary point
    for bits in range(2**m):
        s = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(m)])
        cands.append(-(a.T @ s) / (beta * m))

    rows = [i for i in range(m) if np.linalg.norm(a[i]) > 0.0]

    # (b) per kink line, stationary points of the restricted 1-D function
    for i in rows:
        ai = a[i]
        base = ai * (y_tilde[i] / (ai @ ai))
        tang = np.array([-ai[1], ai[0]]) / np.linalg.norm(ai)
        slope = a @ tang
        offset = a @ base - y_tilde
        breaks = sorted(
            -offset[j] / slope[j] for j in range(m) if abs(slope[j]) > 1e-14
        )
        probes = (
            [breaks[0] - 1.0]
            + [0.5 * (u + v) for u, v in zip(breaks, breaks[1:])]
            + [breaks[-1] + 1.0]
            if breaks
            else [0.0]
        )
        for t in probes:
            s = np.sign(offset + slope * t)
            t_star = -(base @ tang + (s @ slope) / (beta * m))
            cands.append(base + t_star * tang)
        for t in breaks:
            cands.append(base + t * tang)

    # (c) kink-line intersections
    for i_pos in range(len(rows)):
        for j_pos in range(i_pos + 1, len(rows)):
            i, j = rows[i_pos], rows[j_pos]
            mat = np.stack([a[i], a[j]])
            if abs(np.linalg.det(mat)) < 1e-12:
                continue
            cands.append(np.linalg.solve(mat, np.array([y_tilde[i], y_tilde[j]])))

    return _best_candidate(a, y_tilde, beta, np.array(cands))


def exact_lad_prox_box(
    a_mat: np.ndarray, y_tilde: np.ndarray, beta: float, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Exact minimizer of the 2-variable LAD-prox objective over lo <= z <= hi.

    The objective is convex, so when its unconstrained minimizer lies outside
    the box the constrained one lies on an edge.  Along an edge the objective
    is a 1-D LAD prox in the free coordinate (plus a constant), whose exact
    minimizer clipped to the edge is the edge's best point; the best of the
    four edges is the answer.
    """
    a = np.asarray(a_mat, dtype=np.float64)
    free = exact_lad_prox_2d(a, y_tilde, beta)
    if np.all(lo <= free) and np.all(free <= hi):
        return free
    cands = []
    for fixed, other in ((0, 1), (1, 0)):
        for value in (lo[fixed], hi[fixed]):
            z = np.empty(2)
            z[fixed] = value
            z[other] = np.clip(
                exact_lad_prox_1d(a[:, [other]], y_tilde - a[:, fixed] * value, beta),
                lo[other],
                hi[other],
            )
            cands.append(z)
    return _best_candidate(a, y_tilde, beta, np.array(cands))


def grid_lad_prox_2d(
    a_mat: np.ndarray,
    y_tilde: np.ndarray,
    beta: float,
    lo: float,
    hi: float,
    coarse: int = 400,
    fine: int = 400,
) -> np.ndarray:
    """Exact 2-D LAD-prox minimizer, cross-checked against a grid scan.

    See ``grid_lad_prox_1d`` for why the grid alone cannot certify the
    location: its best value sits within O(spacing) of optimal but its argmin
    can wander sqrt(spacing / beta) along nearly flat valley floors.
    """
    grid = np.linspace(lo, hi, coarse)
    zz = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    grid_best = float(lad_prox_objective(a_mat, y_tilde, beta, zz).min())
    exact = exact_lad_prox_2d(a_mat, y_tilde, beta)
    exact_val = float(lad_prox_objective(a_mat, y_tilde, beta, exact)[0])
    assert exact_val <= grid_best + 1e-12
    return exact


def pattern_groups(inst) -> tuple[np.ndarray, np.ndarray]:
    """Group label of every measurement, and per group whether it is unidentifiable.

    Rows sharing one left pattern l_g form a group.  With x held at x_bar and
    w moved only along l_g (for mutually orthogonal patterns this changes
    nothing but t = <l_g, w>), the objective restricted to the group is the
    weighted 1-D LAD  sum_i |<r_i, x_bar>| * |t - y_i / <r_i, x_bar>|.
    Clean rows put all their weight on the planted value a_g = <l_g, w_bar>,
    corrupted rows sit above or below it, so the one-sided slopes at a_g are
    clean + below - above (right) and -(clean + above - below) (left).  The
    group is unidentifiable when clean <= |above - below|: then moving w
    along l_g does not increase f (it strictly decreases f unless equality
    holds), and the planted pair is not a sharp minimizer.
    """
    patterns, group = np.unique(inst.op.left.to_dense(), axis=0, return_inverse=True)
    group = group.reshape(-1)
    planted = (patterns @ inst.truth.w_bar)[group]
    b = inst.op.right.to_dense() @ inst.truth.x_bar
    ratio = np.divide(inst.y, b, out=np.zeros_like(b), where=b != 0.0)
    bad = inst.outlier_mask

    def weight(rows: np.ndarray) -> np.ndarray:
        return np.bincount(group[rows], weights=np.abs(b[rows]), minlength=patterns.shape[0])

    above, below = weight(bad & (ratio > planted)), weight(bad & (ratio < planted))
    return group, weight(~bad) <= np.abs(above - below)


def count_unidentifiable_groups(inst) -> int:
    """Number of unidentifiable pattern groups (see :func:`pattern_groups`).

    An instance with none is called pattern-identifiable.
    """
    return int(pattern_groups(inst)[1].sum())


def grid_ball_projection(point: np.ndarray, radius: float, half_width: float = 3.0) -> np.ndarray:
    """Brute-force nearest point of the 2-D disk of the given radius."""
    grid = np.linspace(-half_width, half_width, 2001)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    inside = xx**2 + yy**2 <= radius**2
    cand = np.stack([xx[inside], yy[inside]], axis=1)
    dist2 = ((cand - point[None, :]) ** 2).sum(axis=1)
    return cand[int(np.argmin(dist2))]
