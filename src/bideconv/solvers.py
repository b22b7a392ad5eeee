"""Local refinement: two subgradient methods and a prox-linear outer loop.

All three solvers share the same geometry: the objective is sharp (grows
linearly off the solution set) and weakly convex, so

* the value-gap step (Polyak) contracts the distance to the solution set
  whenever the target minimal value is known exactly,
* geometrically decaying normalized steps converge linearly without knowing
  that value, and
* the prox-linear method converges quadratically by solving a strongly convex
  least-absolute-deviation subproblem per iteration (``admm_lad_prox``).

They also share one run loop, ``_run``: each solver only generates its
iterates (the two subgradient methods differ only in their step rule), and
the loop records every iterate and decides when the run stops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import cache, partial
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
    is_count,
    linearized_residual_operator,
    objective_and_subgradient,
)


# SciPy is a dependency, but only the prox-linear Newton steps use it, so it is
# loaded here, on their first Cholesky factorization, rather than when the
# package is imported: a subgradient run never loads it.
@cache
def _scipy_linalg():
    import scipy.linalg

    return scipy.linalg


# Module globals that ``admm_lad_prox`` looks up at each call, so that a tracer
# can wrap them by name (the benchmark's does).
def cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of the symmetric matrix ``a``, by LAPACK ``dpotrf``.

    The LAPACK call that ``scipy.linalg.cho_factor(a, overwrite_a=True)``
    makes, so the factor is the one it returns, bit for bit: a
    Fortran-ordered ``a`` is factored in place, without a copy, and any other
    is copied first.  Like it, a non-finite or non-positive-definite ``a``
    raises (``ValueError``, ``numpy.linalg.LinAlgError``) rather than giving a
    factor with NaNs.
    """
    if not np.isfinite(a).all():
        raise ValueError("the matrix to factor must not contain infs or NaNs")
    c, info = _scipy_linalg().lapack.dpotrf(a, lower=False, clean=False, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} of the matrix is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf rejected its argument {-info}")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b from ``c = cho_factor(A)`` by LAPACK ``dpotrs``, as
    ``scipy.linalg.cho_solve((c, False), b)`` does."""
    x, info = _scipy_linalg().lapack.dpotrs(c, b, lower=False)
    if info != 0:
        raise ValueError(f"dpotrs rejected its argument {-info}")
    return x


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver parameters; each algorithm reads the subset it needs.

    ``max_iters=None`` runs the solver's own budget (Polyak 500, geometric
    2,000, prox-linear 20).  ``min_value=None`` means "not supplied": the
    value-gap method treats a noiseless instance as having minimum zero but
    refuses corrupted instances, where the minimal value is unknown and
    silently assuming zero would chase a phantom gap.  No run stops on a
    stalled objective: ``stall_window`` is no field but a keyword that must be
    None, kept because the benchmark's configs still pass it.
    """

    max_iters: int | None = None
    lambda0: float = 1.0
    decay_q: float = 0.98
    min_value: float | None = None
    prox_beta: float = 1.0
    region: FeasibleRegion | None = None
    tol_rel_err: float = 0.0
    stall_window: InitVar[None] = None

    def __post_init__(self, stall_window: None) -> None:
        if stall_window is not None:
            raise ValueError(f"no run stops on a stall; stall_window must be None: {stall_window}")
        if not (self.max_iters is None or is_count(self.max_iters)):
            raise ValueError(f"max_iters must be None or an integer >= 1, got {self.max_iters!r}")
        if not 0.0 < self.decay_q < 1.0:
            raise ValueError(f"decay_q must lie in (0, 1), got {self.decay_q}")
        if not 0.0 < self.lambda0 < math.inf:
            raise ValueError(f"lambda0 must be positive and finite, got {self.lambda0}")
        if not 0.0 < self.prox_beta < math.inf:
            raise ValueError(f"prox_beta must be positive and finite, got {self.prox_beta}")
        if self.min_value is not None and not math.isfinite(self.min_value):
            raise ValueError(f"min_value must be finite, got {self.min_value}")
        if not self.tol_rel_err >= 0.0:
            raise ValueError(f"tol_rel_err must be >= 0, got {self.tol_rel_err}")


class TraceRecord(NamedTuple):
    """One visited iterate: its value, error, step and the work spent so far."""

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
    budget: int,
) -> tuple[SignalPair, Trace]:
    """Record what ``iterates`` yields from the projected start until a stop.

    The run ends at a non-finite objective (``Trace.diverged``), from
    iteration 1 on at a relative error at or below ``cfg.tol_rel_err``,
    after iteration ``cfg.max_iters`` (the solver's ``budget`` when None), or
    when the iterates end at a stationary point.
    """
    trace = Trace(max_iters=budget if cfg.max_iters is None else cfg.max_iters)
    p = _project(start, cfg.region)
    with count_matvecs() as counter, np.errstate(over="ignore", invalid="ignore"):
        for k, (p, f, step, inner) in zip(range(trace.max_iters + 1), iterates(p)):
            error = relative_error(p, inst.truth)
            trace.append(
                TraceRecord(
                    iteration=k,
                    objective=f,
                    relative_error=error,
                    step_size=step,
                    matvecs=counter.count,
                    **inner,
                )
            )
            if not math.isfinite(f):
                trace.diverged = True
                break
            if k > 0 and cfg.tol_rel_err > 0.0 and error <= cfg.tol_rel_err:
                break
    return p, trace


def _subgradient_iterates(
    inst: ProblemInstance,
    cfg: SolverConfig,
    rule: Callable[[int, float, float], tuple[float, float]],
    p: SignalPair,
) -> Iterates:
    """Steps along -grad until grad is zero; ``rule(k, f, ||grad||^2)`` gives
    iteration k's scale of -grad and the step to record."""
    f, grad = objective_and_subgradient(inst, p)
    yield p, f, 0.0, {}
    for k in itertools.count(1):
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:  # a stationary point
            return
        scale, step = rule(k, f, gnorm2)
        try:
            moved = SignalPair(w=p.w - scale * grad[: inst.d1], x=p.x - scale * grad[inst.d1 :])
        except ValueError:  # non-finite entries
            yield p, math.inf, step, {}
            return
        p = _project(moved, cfg.region)
        f, grad = objective_and_subgradient(inst, p)
        yield p, f, step, {}


def polyak_min_value(min_value: float | None, outlier_count: int) -> float:
    """Polyak's target value: ``min_value``, else zero if no measurement is
    corrupted; otherwise the planted residuals do not vanish, so it is unknown.
    The refusal names both remedies: the library's ``SolverConfig.min_value``,
    which no command-line flag sets, and the solvers that need no such value."""
    if min_value is None and outlier_count > 0:
        raise ValueError(
            "corrupted instance: the minimal objective value is unknown; "
            "set SolverConfig.min_value to run the value-gap method, "
            "or run --solver geometric|proxlinear, which need no min_value"
        )
    return 0.0 if min_value is None else min_value


def polyak_subgradient(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Value-gap subgradient method: step (f - f_min)/||g||^2 along -g.

    Requires the true minimal value, by ``polyak_min_value``: the rule that
    ``ExperimentSpec`` applies to every cell before the first trial.
    """
    min_value = polyak_min_value(cfg.min_value, inst.outlier_count)

    def rule(k: int, f: float, gnorm2: float) -> tuple[float, float]:
        gap = max(f - min_value, 0.0)
        return gap / gnorm2, gap / math.sqrt(gnorm2)

    return _run(inst, start, cfg, partial(_subgradient_iterates, inst, cfg, rule), budget=500)


def geometric_subgradient(
    inst: ProblemInstance, start: SignalPair, cfg: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Normalized subgradient steps with geometrically decaying lengths.

    The displacement at iteration k has norm exactly lambda0 * decay_q**(k-1)
    (before any projection), independent of the subgradient's magnitude.
    """

    def rule(k: int, f: float, gnorm2: float) -> tuple[float, float]:
        step = cfg.lambda0 * cfg.decay_q ** (k - 1)
        return step / math.sqrt(gnorm2), step

    return _run(inst, start, cfg, partial(_subgradient_iterates, inst, cfg, rule), budget=2000)


class LadProxResult(NamedTuple):
    z: np.ndarray
    iterations: int  # Newton steps
    exhausted: bool
    objective: float  # P(z)
    gap: float  # P(z) - D(duals) >= 0, a bound on P(z) - min P
    duals: tuple[np.ndarray, np.ndarray]  # (u, u2), a warm start for a nearby subproblem
    sigma: float  # the penalty the solve ended on


def _gap_tolerance(k: int) -> float:
    """Scheduled duality-gap tolerance 1e-3 * 4^(-k) for the k-th prox-linear step.

    The outer loop's final accuracy is capped by how well its last
    subproblems were solved, so the schedule tightens geometrically; at
    quartering it stays ahead of the quadratic outer convergence within a
    20-step budget.
    """
    return 1e-3 * 4.0**-k


# Augmented-Lagrangian penalty growth per multiplier update.
_SIGMA_GROWTH = 3.0
# A solve's gap tolerance is the larger of ``_gap_tolerance(k)`` and this times
# (beta/2)||z||^2, z the outer step before it.  The loosening rules only in the
# far phase, while steps are long and an exact solve of a poor model is
# wasted; it stays a fraction of the objective, since (beta/2)||z||^2 is at
# most the previous subproblem's value, and is summable when the steps are
# square-summable, as inexact prox-linear needs (Drusvyatskiy & Paquette,
# Math. Program. 2019).
_STEP_TOLERANCE = 0.2
# Newton steps one LAD-prox solve may take before it reports exhaustion.
_MAX_NEWTON = 200


def _active_gram(
    a_mat: np.ndarray, active: np.ndarray, gram: np.ndarray | None, last: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrix A_J^T A_J of the rows J = ``active`` of ``a_mat``, and J.

    ``gram`` is A_K^T A_K for the rows K = ``last`` (both None when there is
    none yet).  It is updated in place by the rows that enter J (added) and
    leave it (subtracted) when they are fewer than the rows of J, and rebuilt
    from J otherwise: each way is one symmetric product (``syrk``) per set of
    rows, so its cost follows its row count, and each keeps the matrix
    symmetric to the bit.
    """
    if gram is not None:
        changed = active != last
        count = np.count_nonzero(changed)
        if count < np.count_nonzero(active):
            if count:
                entering = np.compress(changed & active, a_mat, axis=0)
                leaving = np.compress(changed & last, a_mat, axis=0)
                gram += entering.T @ entering
                gram -= leaving.T @ leaving
            return gram, active
    rows = np.compress(active, a_mat, axis=0)
    return rows.T @ rows, active


def admm_lad_prox(
    a_mat: np.ndarray,
    d1: int,
    y_tilde: np.ndarray,
    beta: float,
    region: FeasibleRegion | None = None,
    eps: float = 1e-8,
    center: np.ndarray | None = None,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
    sigma: float | None = None,
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
    sigma)), u2 = sigma (w - proj(w)) and sigma grows by ``_SIGMA_GROWTH``.
    Each update keeps (u, u2) dual feasible, so the gap P(z) - D(u, u2), with

        D = -<u, y~> - ||A^T u + u2||^2/(2 beta) - sum_b (r||u2_b|| + <c_b, u2_b>),

    bounds P(z) - min P; the solve stops once it is at most ``eps`` and
    reports exhaustion when the Newton-step cap comes first.  P and the gap
    are evaluated at z projected onto the balls, which is what it returns.

    A is the m x n matrix ``a_mat``, so the solve makes no operator
    products.  The Gram matrix A_J^T A_J is kept across the Newton steps and
    penalty stages of the call (``_active_gram``).  Each Newton step forms
    A step once, and the Armijo trials take their residuals by linearity,
    t + alpha A step, so a trial makes no product; they evaluate phi's value
    only, and phi's gradient is formed once per step, at the accepted point.
    Each penalty stage ends on a fresh residual Az - y~, which starts the next
    stage and, without a region, gives the gap's P, so the certificate never
    rests on the residual the trials accumulated.

    z starts at zero, (u, u2) at ``duals`` (zero when None) and the penalty
    at ``sigma`` (when None, 1/m, the scale of the objective's 1/m weight);
    the result carries the final multipliers and penalty for the next solve.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    m, n = a_mat.shape
    tau = 1.0 / m
    if sigma is None:
        sigma = tau
    elif not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    clip = region is not None
    if clip and center is None:
        center = np.zeros(n)
    u, u2 = (np.zeros(m), np.zeros(n)) if duals is None else duals
    blocks = (slice(0, d1), slice(d1, n))

    def project(w: np.ndarray) -> np.ndarray:
        pair = project_feasible(SignalPair.from_stacked(w - center, d1), region)
        return pair.stacked() + center

    def phi(z: np.ndarray, t: np.ndarray, sigma: float):
        """Value (up to a constant) from z and its residual t = Az - y~, the
        clipped residual and w - proj(w), which is None without a region,
        where the ball terms are zero."""
        cap = sigma * t
        cap += u
        np.maximum(cap, -tau, out=cap)
        np.minimum(cap, tau, out=cap)  # sigma clip(v, +-tau)
        s = 0.5 * cap
        np.subtract(u, s, out=s)
        s /= sigma
        s += t  # t + (u - cap/2)/sigma
        value = 0.5 * beta * z @ z + cap @ s
        if not clip:
            return value, cap, None
        w = z + u2 / sigma
        out = w - project(w)
        return value + 0.5 * sigma * out @ out, cap, out

    def gradient(z: np.ndarray, sigma: float, cap: np.ndarray, out: np.ndarray | None):
        """grad phi and its term A^T cap."""
        atc = a_mat.T @ cap
        grad = beta * z
        grad += atc
        if out is not None:
            grad += sigma * out
        return grad, atc

    z = np.zeros(n)
    t = -y_tilde  # the residual at z = 0
    gram = active = None  # A_J^T A_J and J of the last Newton step, kept across stages
    newton = 0
    converged = False
    for _ in range(_MAX_NEWTON):  # multiplier updates, capped too so no solve can spin
        value, cap, out = phi(z, t, sigma)
        grad, atc = gradient(z, sigma, cap, out)
        while newton < _MAX_NEWTON and math.sqrt(grad @ grad) > eps:
            gram, active = _active_gram(a_mat, np.abs(cap) < tau, gram, active)
            hess = sigma * gram
            hess.reshape(-1)[:: n + 1] += beta
            if clip:
                w = z + u2 / sigma
                for part in blocks:
                    q = w[part] - center[part]
                    norm = float(np.linalg.norm(q))
                    if norm > region.radius:
                        ratio = region.radius / norm
                        hess[part, part] += sigma * (
                            (1.0 - ratio) * np.eye(q.size) + ratio / norm**2 * np.outer(q, q)
                        )
            # hess is symmetric to the bit (each syrk behind the Gram fills one
            # triangle from the other; the ball terms are symmetric), so hess.T
            # is the same matrix in Fortran order, which dpotrf factors in place
            step = cho_solve(cho_factor(hess.T), grad)
            np.negative(step, out=step)
            slope = float(grad @ step)
            a_step = a_mat @ step
            alpha = 1.0
            trial_z, trial_t = z + step, t + a_step
            trial = phi(trial_z, trial_t, sigma)
            while trial[0] > value + 1e-4 * alpha * slope and alpha > 1e-12:  # Armijo
                alpha *= 0.5
                trial_z, trial_t = z + alpha * step, t + alpha * a_step
                trial = phi(trial_z, trial_t, sigma)
            z, t = trial_z, trial_t
            value, cap, out = trial
            grad, atc = gradient(z, sigma, cap, out)
            newton += 1
        u = cap
        t = a_mat @ z  # fresh: the trials built t up by accumulation
        t -= y_tilde
        # the last gradient formed A^T u; without a region u2 is zero and z feasible
        feasible, residual, dual_z = z, t, atc
        if clip:
            u2 = sigma * out
            feasible = project(z)
            residual = a_mat @ feasible - y_tilde
            dual_z = atc + u2  # -beta times the dual's z
        dual = -u @ y_tilde - dual_z @ dual_z / (2.0 * beta)
        if clip:
            dual -= sum(
                region.radius * np.linalg.norm(u2[part]) + center[part] @ u2[part]
                for part in blocks
            )
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
        duals=(u, u2 if clip else np.zeros(n)),
        sigma=sigma,
    )


def _prox_linear_iterates(inst: ProblemInstance, cfg: SolverConfig, p: SignalPair) -> Iterates:
    a_mat, y_tilde = linearized_residual_operator(inst, p)
    yield p, float(np.abs(y_tilde).mean()), 0.0, {}
    duals = sigma = None
    step = 0.0
    for k in itertools.count(1):
        result = admm_lad_prox(
            a_mat,
            inst.d1,
            y_tilde,
            cfg.prox_beta,
            region=cfg.region,
            eps=max(_gap_tolerance(k), _STEP_TOLERANCE * 0.5 * cfg.prox_beta * step**2),
            center=None if cfg.region is None else -np.concatenate([p.w, p.x]),
            duals=duals,
            sigma=sigma,
        )
        # the next solve starts from this solve's multipliers, which carry the
        # LAD subgradient's sign pattern that successive linearizations mostly
        # share, and at the geometric mean of the cold start 1/m and this
        # solve's final penalty: the penalty a run needs peaks mid-run and then
        # falls, so starting at the peak overshoots
        duals, sigma = result.duals, math.sqrt(result.sigma / inst.m)
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

    Each outer iteration linearizes the bilinear map at the current point,
    minimizes model + (beta/2)||displacement||^2 by ``admm_lad_prox`` to the
    gap tolerance that ``_STEP_TOLERANCE`` states, warm-started from the
    previous solve, and adds the displacement to the point.  With ``cfg.region`` the displacement is
    confined so that the new point stays in the region.  The trace records
    each solve's Newton steps, gap and exhaustion.
    """
    return _run(inst, start, cfg, partial(_prox_linear_iterates, inst, cfg), budget=20)
