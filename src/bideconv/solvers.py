"""Local refinement: two subgradient methods and a prox-linear outer loop.

All three solvers share the same geometry: the objective is sharp (grows
linearly off the solution set) and weakly convex, so

* the value-gap step (Polyak) contracts the distance to the solution set
  whenever the target minimal value is known exactly,
* geometrically decaying normalized steps converge linearly without knowing
  that value, and
* the prox-linear method converges quadratically by solving a strongly convex
  least-absolute-deviation subproblem per iteration, which we do with a
  semismooth Newton augmented Lagrangian method on the linearized map as a
  matrix.  Each solve returns its duality gap, a certified bound on its
  suboptimality, and hands its multipliers on to the next solve.

They also share one run loop, ``_run``: each solver only generates its
iterates (the two subgradient methods differ only in their step rule), and
the loop records every iterate and decides when the run stops.

SciPy is a dependency, but only the prox-linear Newton steps use it, so it is
loaded on their first Cholesky factorization rather than when the package is
imported; a subgradient run never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .geometry import (
    FeasibleRegion,
    dist_to_solution_set,  # unused here; the benchmark's tracer wraps it by this name
    project_feasible,
    relative_error,
)
from .linops import count_matvecs
from .model import (
    ProblemInstance,
    SignalPair,
    linearized_residual_operator,
    objective_and_subgradient,
)


@functools.cache
def _scipy_linalg():
    import scipy.linalg

    return scipy.linalg


# Module globals that ``admm_lad_prox`` looks up at each call, so that a tracer
# can wrap them by name (the benchmark's does).
def cho_factor(*args, **kwargs):
    """``scipy.linalg.cho_factor``; SciPy is imported on the first call."""
    return _scipy_linalg().cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    """``scipy.linalg.cho_solve``; SciPy is imported on the first call."""
    return _scipy_linalg().cho_solve(*args, **kwargs)


# Objective decrease below which the stall counter does not reset.
_STALL_TOL = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver parameters; each algorithm reads the subset it needs.

    ``min_value=None`` means "not supplied": the value-gap method treats a
    noiseless instance as having minimum zero but refuses corrupted instances,
    where the minimal value is unknown and silently assuming zero would chase
    a phantom gap.
    """

    max_iters: int = 500
    lambda0: float = 1.0
    decay_q: float = 0.98
    min_value: float | None = None
    prox_beta: float = 1.0
    region: FeasibleRegion | None = None
    tol_rel_err: float = 0.0
    stall_window: int | None = 50

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.decay_q < 1.0:
            raise ValueError(f"decay_q must lie in (0, 1), got {self.decay_q}")
        if not self.lambda0 > 0.0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if not self.prox_beta > 0.0:
            raise ValueError(f"prox_beta must be positive, got {self.prox_beta}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    relative_error: float
    step_size: float
    inner_iters: int = 0
    matvecs: int = 0
    inner_exhausted: bool = False
    inner_gap: float = 0.0  # duality gap of the inner solve, prox-linear only


@dataclass
class Trace:
    """Per-iteration progress log; one record per visited iterate.

    ``diverged`` is set when a run stopped because its objective became
    non-finite; the last record is then the first non-finite iterate.  When a
    step leaves the floating-point range, so that the new point has non-finite
    entries, the run returns the last finite point, and the last record holds
    that point's relative error with an infinite objective.
    """

    max_iters: int
    records: list[TraceRecord] = field(default_factory=list)
    diverged: bool = False

    def append(self, record: TraceRecord) -> None:
        if len(self.records) > self.max_iters:
            raise ValueError("trace already holds max_iters + 1 records")
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        self.records.append(record)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


def _project(p: SignalPair, region: FeasibleRegion | None) -> SignalPair:
    return p if region is None else project_feasible(p, region)


# A solver's iterates: (point, objective, recorded step, extra TraceRecord fields).
Iterates = Iterator[tuple[SignalPair, float, float, dict]]


def _run(
    inst: ProblemInstance,
    start: SignalPair,
    cfg: SolverConfig,
    iterates: Callable[[SignalPair], Iterates],
) -> tuple[SignalPair, Trace]:
    """Record what ``iterates`` yields from the projected start until a stop.

    The run ends at a non-finite objective (``Trace.diverged``), from
    iteration 1 on at a relative error at or below ``cfg.tol_rel_err`` or
    after ``cfg.stall_window`` iterations without an objective decrease of
    more than ``_STALL_TOL``, after iteration ``cfg.max_iters``, or when the
    iterates end at a stationary point.
    """
    trace = Trace(max_iters=cfg.max_iters)
    best_objective, last_improvement = math.inf, 0
    p = _project(start, cfg.region)
    with count_matvecs() as counter, np.errstate(over="ignore", invalid="ignore"):
        for k, (p, f, step, inner) in zip(range(cfg.max_iters + 1), iterates(p)):
            trace.append(
                TraceRecord(
                    iteration=k,
                    objective=f,
                    relative_error=relative_error(p, inst.truth),
                    step_size=step,
                    matvecs=counter.count,
                    **inner,
                )
            )
            if not math.isfinite(f):
                trace.diverged = True
                break
            if k == 0:
                continue
            if f < best_objective - _STALL_TOL:
                best_objective, last_improvement = f, k
            if cfg.tol_rel_err > 0.0 and trace.final.relative_error <= cfg.tol_rel_err:
                break
            if cfg.stall_window is not None and k - last_improvement >= cfg.stall_window:
                break
    return p, trace


def _subgradient_iterates(
    inst: ProblemInstance,
    cfg: SolverConfig,
    rule: Callable[[int, float, np.ndarray], tuple[float, float] | None],
    p: SignalPair,
) -> Iterates:
    """Steps along -grad; ``rule(k, f, grad)`` gives iteration k's scale of
    -grad and the step to record, or None at a stationary point."""
    f, grad = objective_and_subgradient(inst, p)
    yield p, f, 0.0, {}
    for k in itertools.count(1):
        taken = rule(k, f, grad)
        if taken is None:
            return
        scale, step = taken
        try:
            moved = SignalPair(w=p.w - scale * grad[: inst.d1], x=p.x - scale * grad[inst.d1 :])
        except ValueError:  # non-finite entries
            yield p, math.inf, step, {}
            return
        p = _project(moved, cfg.region)
        f, grad = objective_and_subgradient(inst, p)
        yield p, f, step, {}


def polyak_subgradient(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Value-gap subgradient method: step (f - f_min)/||g||^2 along -g.

    Requires the true minimal value.  On noiseless instances that value is
    zero and is assumed when ``cfg.min_value`` is unset; corrupted instances
    are refused without an explicit value, since the residuals of the planted
    signal no longer vanish.
    """
    if cfg.min_value is None:
        if inst.outlier_count > 0:
            raise ValueError(
                "corrupted instance: the minimal objective value is unknown; "
                "pass min_value explicitly to run the value-gap method"
            )
        min_value = 0.0
    else:
        min_value = cfg.min_value

    def rule(k: int, f: float, grad: np.ndarray) -> tuple[float, float] | None:
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            return None
        gap = max(f - min_value, 0.0)
        return gap / gnorm2, gap / math.sqrt(gnorm2)

    return _run(inst, start, cfg, functools.partial(_subgradient_iterates, inst, cfg, rule))


def geometric_subgradient(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Normalized subgradient steps with geometrically decaying lengths.

    The displacement at iteration k has norm exactly lambda0 * decay_q**(k-1)
    (before any projection), independent of the subgradient's magnitude.
    """

    def rule(k: int, f: float, grad: np.ndarray) -> tuple[float, float] | None:
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            return None
        step = cfg.lambda0 * cfg.decay_q ** (k - 1)
        return step / gnorm, step

    return _run(inst, start, cfg, functools.partial(_subgradient_iterates, inst, cfg, rule))


class LadProxResult(NamedTuple):
    z: np.ndarray
    iterations: int  # Newton steps
    exhausted: bool
    objective: float  # P(z)
    gap: float  # P(z) - D(duals) >= 0, a bound on P(z) - min P
    duals: tuple[np.ndarray, np.ndarray]  # (u, u2), a warm start for a nearby subproblem


def _gap_tolerance(k: int) -> float:
    """Duality-gap tolerance 1e-3 * 4^(-k) for the k-th prox-linear step.

    The outer loop's final accuracy is capped by how well its last
    subproblems were solved, so the tolerance tightens geometrically; at
    quartering it stays ahead of the quadratic outer convergence within a
    20-step budget.
    """
    return 1e-3 * 4.0**-k


# Augmented-Lagrangian penalty growth per multiplier update; each solve
# starts the penalty at 1/m, the scale of the 1/m objective weight.
_SIGMA_GROWTH = 5.0
# Newton steps one LAD-prox solve may take before it reports exhaustion.
_MAX_NEWTON = 200


def admm_lad_prox(
    a_mat: np.ndarray,
    d1: int,
    y_tilde: np.ndarray,
    beta: float,
    region: FeasibleRegion | None = None,
    eps: float = 1e-8,
    center: np.ndarray | None = None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> LadProxResult:
    """Semismooth Newton augmented Lagrangian (SSNAL; Li, Sun & Toh, SIAM J.
    Optim. 2018) for min P(z) = (beta/2)||z||^2 + (1/m)||Az - y~||_1.

    With ``region``, z is also confined to two balls of its radius around
    ``center`` (split like z into its first ``d1`` and remaining entries; the
    origin when None).  The constraints t = Az - y~ and s = z carry the
    multipliers u and u2.  With v = Az - y~ + u/sigma and w = z + u2/sigma,
    each penalty sigma minimizes

        phi(z) = (beta/2)||z||^2 + sigma Huber_{1/(m sigma)}(v)
                 + (sigma/2) dist(w, balls)^2

    by Newton steps on beta I + sigma A_J^T A_J (+ sigma times the generalized
    Jacobian of w - proj(w)), J = {|v_i| < 1/(m sigma)}, with Armijo
    backtracking, until ||grad phi|| <= eps; then u = sigma clip(v, +-1/(m
    sigma)), u2 = sigma (w - proj(w)) and sigma grows.  Each update keeps
    (u, u2) dual feasible, so the gap P(z) - D(u, u2), with

        D = -<u, y~> - ||A^T u + u2||^2/(2 beta) - sum_b (r||u2_b|| + <c_b, u2_b>),

    bounds P(z) - min P; the solve stops once it is at most ``eps`` and
    reports exhaustion when the Newton-step cap comes first.  P and the gap
    are evaluated at z projected onto the balls, which is what it returns.

    A is the m x n matrix ``a_mat``, so the solve makes no operator
    products.  z starts at zero and (u, u2) at ``duals`` (zero when None);
    the result carries the final multipliers for the next solve.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    m, n = a_mat.shape
    clip = region is not None
    center = np.zeros(n) if center is None else center
    u, u2 = (np.zeros(m), np.zeros(n)) if duals is None else duals
    blocks = (slice(0, d1), slice(d1, n))

    def project(w: np.ndarray) -> np.ndarray:
        if not clip:
            return w
        pair = project_feasible(SignalPair.from_stacked(w - center, d1), region)
        return pair.stacked() + center

    def phi(z: np.ndarray, sigma: float):
        """Value (up to a constant), gradient, clipped residual and ball point."""
        t = a_mat @ z - y_tilde
        cap = np.clip(sigma * t + u, -1.0 / m, 1.0 / m)  # sigma clip(v, +-tau)
        w = z + u2 / sigma
        out = w - project(w)
        value = 0.5 * beta * z @ z + cap @ (t + (u - 0.5 * cap) / sigma) + 0.5 * sigma * out @ out
        return value, beta * z + a_mat.T @ cap + sigma * out, cap, w

    z = np.zeros(n)
    sigma = 1.0 / m
    newton = 0
    converged = False
    for _ in range(_MAX_NEWTON):  # multiplier updates, capped too so no solve can spin
        value, grad, cap, w = phi(z, sigma)
        while newton < _MAX_NEWTON and float(np.linalg.norm(grad)) > eps:
            rows = a_mat[np.abs(cap) < 1.0 / m]
            hess = sigma * (rows.T @ rows)
            hess[np.diag_indices(n)] += beta
            if clip:
                for part in blocks:
                    q = w[part] - center[part]
                    norm = float(np.linalg.norm(q))
                    if norm > region.radius:
                        ratio = region.radius / norm
                        hess[part, part] += sigma * (
                            (1.0 - ratio) * np.eye(q.size) + ratio / norm**2 * np.outer(q, q)
                        )
            step = -cho_solve(cho_factor(hess), grad, check_finite=False)
            slope = float(grad @ step)
            alpha = 1.0
            trial = phi(z + step, sigma)
            while trial[0] > value + 1e-4 * alpha * slope and alpha > 1e-12:  # Armijo
                alpha *= 0.5
                trial = phi(z + alpha * step, sigma)
            z = z + alpha * step
            value, grad, cap, w = trial
            newton += 1
        u, u2 = cap, sigma * (w - project(w))
        feasible = project(z)
        dual_z = a_mat.T @ u + u2  # -beta times the dual's z
        dual = -u @ y_tilde - dual_z @ dual_z / (2.0 * beta)
        if clip:
            dual -= sum(
                region.radius * np.linalg.norm(u2[part]) + center[part] @ u2[part]
                for part in blocks
            )
        residual = a_mat @ feasible - y_tilde
        objective = float(0.5 * beta * feasible @ feasible + np.abs(residual).mean())
        # weak duality makes the gap nonnegative; clamp what rounding leaves below
        gap = max(objective - float(dual), 0.0)
        if gap <= eps:
            converged = True
            break
        if newton == _MAX_NEWTON:
            break
        sigma *= _SIGMA_GROWTH
    return LadProxResult(
        z=feasible,
        iterations=newton,
        exhausted=not converged,
        objective=objective,
        gap=gap,
        duals=(u, u2),
    )


def _prox_linear_iterates(inst: ProblemInstance, cfg: SolverConfig, p: SignalPair) -> Iterates:
    a_mat, y_tilde = linearized_residual_operator(inst, p)
    yield p, float(np.abs(y_tilde).mean()), 0.0, {}
    duals = None
    for k in itertools.count(1):
        result = admm_lad_prox(
            a_mat,
            inst.d1,
            y_tilde,
            cfg.prox_beta,
            region=cfg.region,
            eps=_gap_tolerance(k),
            center=-np.concatenate([p.w, p.x]),
            duals=duals,
        )
        duals = result.duals
        step = float(np.linalg.norm(result.z))
        inner = {
            "inner_iters": result.iterations,
            "inner_exhausted": result.exhausted,
            "inner_gap": result.gap,
        }
        try:
            p = SignalPair(w=p.w + result.z[: inst.d1], x=p.x + result.z[inst.d1 :])
        except ValueError:  # non-finite entries
            yield p, math.inf, step, inner
            return
        a_mat, y_tilde = linearized_residual_operator(inst, p)
        yield p, float(np.abs(y_tilde).mean()), step, inner


def prox_linear(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Outer prox-linear loop with SSNAL-solved linearized subproblems.

    Each outer iteration k linearizes the bilinear map at the current point
    and minimizes model + (beta/2)||displacement||^2 until the duality gap is
    at most ``_gap_tolerance(k)``; the displacement is added to the point.
    With ``cfg.region`` the displacement is confined so that the new point
    stays in the region.  Each inner solve starts from the previous one's
    final multipliers (zero for the first): successive linearizations share
    most of the LAD subgradient's sign pattern, which the multipliers carry.
    The trace records each solve's Newton steps, gap and exhaustion.
    """
    return _run(inst, start, cfg, functools.partial(_prox_linear_iterates, inst, cfg))
