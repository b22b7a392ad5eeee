"""Local refinement: two subgradient methods and a prox-linear outer loop.

All three solvers share the same geometry: the objective is sharp (grows
linearly off the solution set) and weakly convex, so

* the value-gap step (Polyak) contracts the distance to the solution set
  whenever the target minimal value is known exactly,
* geometrically decaying normalized steps converge linearly without knowing
  that value, and
* the prox-linear method converges quadratically by solving a strongly convex
  least-absolute-deviation subproblem per iteration, which we do with a
  graph-splitting ADMM where the only per-iteration costs are two operator
  products and a cached linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, cg

from .geometry import (
    FeasibleRegion,
    SolutionSet,
    dist_to_solution_set,
    project_feasible,
    relative_error,
)
from .linops import MatvecCounter, count_matvecs
from .model import (
    LinearizedResidual,
    ProblemInstance,
    SignalPair,
    linearized_residual_operator,
    objective_and_subgradient,
)


def quartering_tolerances(k: int) -> float:
    """Inner tolerance 4^(-k) for the k-th outer iteration.

    This is the default: the outer loop's final accuracy is capped by the
    last inner tolerance (empirically about 0.2x of it), so halving alone
    cannot push the outer error to 1e-8 within a 20-iteration budget, while
    quartering reaches it with a comfortable margin.
    """
    return 4.0**-k


# Objective decrease below which the stall counter does not reset.
_STALL_TOL = 1e-14


@dataclass(frozen=True)
class AdmmConfig:
    """Knobs for the least-absolute-deviation inner solver.

    The ADMM penalty is fixed at 1/m, the scaling that balances the 1/m
    objective weight.
    """

    eps_schedule: Callable[[int], float] = quartering_tolerances
    max_inner: int = 100_000

    def __post_init__(self) -> None:
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")


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
    admm: AdmmConfig = field(default_factory=AdmmConfig)

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
    dist_to_solset: float
    step_size: float
    inner_iters: int = 0
    matvecs: int = 0
    inner_exhausted: bool = False


@dataclass
class Trace:
    """Per-iteration progress log; one record per visited iterate.

    ``diverged`` is set when a run stopped because its objective became
    non-finite; the last record is then the first non-finite iterate.
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

    @property
    def any_inner_exhausted(self) -> bool:
        return any(r.inner_exhausted for r in self.records)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]


class _RunState:
    """Bookkeeping shared by the iterative solvers: metrics, stall, tolerance."""

    def __init__(self, inst: ProblemInstance, cfg: SolverConfig, counter: MatvecCounter):
        self.solset = SolutionSet(truth=inst.truth, nu=inst.nu)
        self.inst = inst
        self.cfg = cfg
        self.counter = counter
        self.trace = Trace(max_iters=cfg.max_iters)
        self.best_objective = math.inf
        self.last_improvement = 0

    def record(
        self,
        k: int,
        p: SignalPair,
        objective: float,
        step: float,
        inner_iters: int = 0,
        inner_exhausted: bool = False,
    ) -> None:
        self.trace.append(
            TraceRecord(
                iteration=k,
                objective=objective,
                relative_error=relative_error(p, self.inst.truth),
                dist_to_solset=dist_to_solution_set(p, self.solset),
                step_size=step,
                inner_iters=inner_iters,
                matvecs=self.counter.count,
                inner_exhausted=inner_exhausted,
            )
        )

    def should_stop(self, k: int, objective: float) -> bool:
        if not math.isfinite(objective):
            self.trace.diverged = True
            return True
        if objective < self.best_objective - _STALL_TOL:
            self.best_objective = objective
            self.last_improvement = k
        if self.cfg.tol_rel_err > 0.0 and self.trace.final.relative_error <= self.cfg.tol_rel_err:
            return True
        window = self.cfg.stall_window
        return window is not None and (k - self.last_improvement) >= window


def _project(p: SignalPair, region: FeasibleRegion | None) -> SignalPair:
    return p if region is None else project_feasible(p, region)


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

    p = _project(start, cfg.region)
    with count_matvecs() as counter:
        state = _RunState(inst, cfg, counter)
        f, grad = objective_and_subgradient(inst, p)
        state.record(0, p, f, step=0.0)
        for k in range(1, cfg.max_iters + 1):
            gnorm2 = float(grad @ grad)
            if gnorm2 == 0.0:
                break  # stationary: clean exit
            gap = max(f - min_value, 0.0)
            scale = gap / gnorm2
            p = _project(
                SignalPair(
                    w=p.w - scale * grad[: inst.d1], x=p.x - scale * grad[inst.d1 :]
                ),
                cfg.region,
            )
            f, grad = objective_and_subgradient(inst, p)
            state.record(k, p, f, step=gap / math.sqrt(gnorm2))
            if state.should_stop(k, f):
                break
    return p, state.trace


def geometric_subgradient(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Normalized subgradient steps with geometrically decaying lengths.

    The displacement at iteration k has norm exactly lambda0 * decay_q**k
    (before any projection), independent of the subgradient's magnitude.
    """
    p = _project(start, cfg.region)
    with count_matvecs() as counter:
        state = _RunState(inst, cfg, counter)
        f, grad = objective_and_subgradient(inst, p)
        state.record(0, p, f, step=0.0)
        for k in range(1, cfg.max_iters + 1):
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            step = cfg.lambda0 * cfg.decay_q ** (k - 1)
            scale = step / gnorm
            p = _project(
                SignalPair(
                    w=p.w - scale * grad[: inst.d1], x=p.x - scale * grad[inst.d1 :]
                ),
                cfg.region,
            )
            f, grad = objective_and_subgradient(inst, p)
            state.record(k, p, f, step=step)
            if state.should_stop(k, f):
                break
    return p, state.trace


class AdmmResult(NamedTuple):
    z: np.ndarray
    iterations: int
    exhausted: bool
    objective: float
    lam: np.ndarray  # final scaled duals, a warm start for a nearby subproblem
    nu: np.ndarray


# Widest dense linearized map whose normal equations get a Cholesky factor.
_DENSE_CUTOFF = 4096


def _make_normal_solver(
    amap: LinearizedResidual
) -> Callable[[np.ndarray, np.ndarray | None, float], np.ndarray]:
    """Solver for (I + A^T A) z = rhs: cached Cholesky when A is small and
    dense, matrix-free conjugate gradient otherwise."""
    n = amap.shape[1]
    if amap.is_dense and n <= _DENSE_CUTOFF:
        dense = amap.to_dense()
        gram = dense.T @ dense
        gram[np.diag_indices_from(gram)] += 1.0
        factor = cho_factor(gram, lower=False)

        def solve(rhs: np.ndarray, guess: np.ndarray | None, tol: float) -> np.ndarray:
            # cho_factor already checked the matrix; skipping the scan of rhs
            # leaves the same LAPACK solve at a lower per-call cost
            return cho_solve(factor, rhs, check_finite=False)

        return solve

    operator = LinearOperator(
        shape=(n, n),
        matvec=lambda v: v + amap.rmatvec(amap.matvec(np.asarray(v, dtype=np.float64))),
        dtype=np.float64,
    )

    def solve(rhs: np.ndarray, guess: np.ndarray | None, tol: float) -> np.ndarray:
        out, info = cg(operator, rhs, x0=guess, rtol=tol, atol=0.0)
        if info > 0:
            # CG hit its internal cap; the partial solve still decreases the
            # residual and the outer loop's stopping test remains in charge
            return out
        if info < 0:
            raise RuntimeError(f"conjugate gradient failed with status {info}")
        return out

    return solve


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise shrink toward zero: sign(v) * max(|v| - threshold, 0)."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def _clip_balls(
    z: np.ndarray, d1: int, radius: float, center: np.ndarray | None = None
) -> np.ndarray:
    """Project z blockwise onto two balls of the given radius, centred at
    ``center`` (split like z into its first d1 and remaining entries) or at
    the origin when ``center`` is None."""
    out = z.copy() if center is None else z - center
    for part in (out[:d1], out[d1:]):
        norm = np.linalg.norm(part)
        if norm > radius:
            part *= radius / norm
    return out if center is None else out + center


def admm_lad_prox(
    amap: LinearizedResidual,
    y_tilde: np.ndarray,
    beta: float,
    cfg: AdmmConfig,
    region: FeasibleRegion | None = None,
    eps: float = 1e-6,
    center: np.ndarray | None = None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> AdmmResult:
    """Graph-splitting ADMM for min (1/m)||Az - y~||_1 + (beta/2)||z||^2.

    The consensus constraint t = Az is enforced through the half-step

        z+ = (I + A^T A)^{-1} (z' + lam + A^T (t' + nu)),   t+ = A z+,

    so each iteration costs one forward and one transpose product plus a
    cached factorization solve.  Both prox steps are closed-form: the z-prox
    is the scalar shrink rho/(beta+rho) followed by an exact projection onto
    ``region``'s two balls, centred at ``center`` (the origin by default),
    and the t-prox is soft-thresholding toward y~ with threshold 1/(m*rho),
    where the penalty rho is 1/m.
    Termination follows the paired primal/dual residual tests scaled by
    sqrt(d1+d2) + the running iterate norms.

    z and t start at zero; the scaled duals (lam, nu) start at ``duals``, or
    at zero when None.  The result carries the final duals, so a sequence of
    nearby subproblems can pass each solve's duals on to the next.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = amap.m
    n = amap.shape[1]
    rho = 1.0 / m
    shrink = rho / (beta + rho)
    threshold = 1.0 / (m * rho)
    scale = math.sqrt(n)
    clip = region is not None and not math.isinf(region.radius)

    solve = _make_normal_solver(amap)

    z = np.zeros(n)
    t = np.zeros(m)
    lam, nu = (np.zeros(n), np.zeros(m)) if duals is None else duals

    def lad_objective(point: np.ndarray, mapped: np.ndarray) -> float:
        return float(np.abs(mapped - y_tilde).mean() + 0.5 * beta * point @ point)

    best_z = z
    best_obj = lad_objective(z, t)
    iterations = 0
    exhausted = True
    for iterations in range(1, cfg.max_inner + 1):
        z_half = shrink * (z - lam)
        if clip:
            z_half = _clip_balls(z_half, amap.d1, region.radius, center)
        t_half = y_tilde + soft_threshold(t - nu - y_tilde, threshold)

        v = z_half + lam
        w_vec = t_half + nu
        z_next = solve(v + amap.rmatvec(w_vec), z, 0.1 * eps)
        t_next = amap.matvec(z_next)
        lam_next = lam + z_half - z_next
        nu_next = nu + t_half - t_next

        obj = lad_objective(z_next, t_next)
        if obj < best_obj:
            best_obj = obj
            best_z = z_next

        primal = math.hypot(
            float(np.linalg.norm(z_next - z)), float(np.linalg.norm(t_next - t))
        )
        primal_cap = eps * (
            scale + max(float(np.linalg.norm(z)), float(np.linalg.norm(t)))
        )
        dual = math.hypot(
            float(np.linalg.norm(lam_next - lam)), float(np.linalg.norm(nu_next - nu))
        )
        dual_cap = eps * (
            scale + max(float(np.linalg.norm(lam)), float(np.linalg.norm(nu)))
        )
        z, t, lam, nu = z_next, t_next, lam_next, nu_next
        if primal <= primal_cap and dual <= dual_cap:
            exhausted = False
            break

    if clip:
        # the half-step iterate is the feasible one; return its latest value
        best_z = _clip_balls(z, amap.d1, region.radius, center)
        best_obj = lad_objective(best_z, amap.matvec(best_z))
    return AdmmResult(
        z=best_z, iterations=iterations, exhausted=exhausted, objective=best_obj, lam=lam, nu=nu
    )


def prox_linear(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Outer prox-linear loop with ADMM-solved linearized subproblems.

    Each outer iteration linearizes the bilinear map at the current point and
    minimizes model + (beta/2)||displacement||^2 to tolerance
    ``cfg.admm.eps_schedule(k)``; the displacement is added to the point.
    With ``cfg.region`` the displacement is confined so that the new point
    stays in the region.  Each inner solve starts from the previous one's
    final duals (zero for the first): successive linearizations share most of
    the LAD subgradient's sign pattern, which the duals carry.  Inner
    exhaustion is flagged on the trace and the best inner iterate is used.
    """
    p = _project(start, cfg.region)
    duals = None
    with count_matvecs() as counter:
        state = _RunState(inst, cfg, counter)
        amap, y_tilde = linearized_residual_operator(inst, p)
        state.record(0, p, float(np.abs(y_tilde).mean()), step=0.0)
        for k in range(1, cfg.max_iters + 1):
            eps_k = cfg.admm.eps_schedule(k)
            result = admm_lad_prox(
                amap,
                y_tilde,
                beta=cfg.prox_beta,
                cfg=cfg.admm,
                region=cfg.region,
                eps=eps_k,
                center=-np.concatenate([p.w, p.x]),
                duals=duals,
            )
            duals = (result.lam, result.nu)
            p = SignalPair(w=p.w + result.z[: inst.d1], x=p.x + result.z[inst.d1 :])
            amap, y_tilde = linearized_residual_operator(inst, p)
            state.record(
                k,
                p,
                float(np.abs(y_tilde).mean()),
                step=float(np.linalg.norm(result.z)),
                inner_iters=result.iterations,
                inner_exhausted=result.exhausted,
            )
            if state.should_stop(k, state.trace.final.objective):
                break
    return p, state.trace
