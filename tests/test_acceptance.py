"""Full-scale acceptance runs for the whole package.

Each test records exactly one ``[PASS]``/``[FAIL]`` summary line; the lines
are echoed in an "acceptance verdicts" section at the end of the pytest run
(and printed live under ``-s``), so a plain run of this file doubles as the
acceptance report.  The scenarios run at benchmark size and take several
minutes of wall time in total; everything is seeded and deterministic.
"""

import math
import sys
import time
from collections import defaultdict

import numpy as np

import pytest
from verdicts import VERDICTS

from bideconv.experiments import ExperimentSpec, run_experiment, run_trials, trial_instance
from bideconv.geometry import SolutionSet, _dist_squared_many, dist_to_solution_set
from bideconv.model import (
    GroundTruth,
    NoiseSpec,
    SignalPair,
    generate_instance,
    objective_and_subgradient,
)
from bideconv.solvers import (
    SolverConfig,
    admm_lad_prox,
    geometric_subgradient,
    polyak_subgradient,
    prox_linear,
)
from bideconv.spectral_init import (
    build_direction_matrices,
    direction_error,
    min_eigenvector,
    spectral_initialize,
)

from oracles import (
    count_unidentifiable_groups,
    exact_lad_prox_1d,
    exact_lad_prox_2d,
    fd_gradient,
    grid_dist_to_solution_set,
    values,
)


def report(name: str, passed: bool, detail: str) -> None:
    """One always-visible verdict line per criterion."""
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] {name}: {detail}"
    VERDICTS.append(line)
    print(line, flush=True)


def spectral_start(inst) -> SignalPair:
    est = spectral_initialize(inst)
    return SignalPair(w=est.w0, x=est.x0)


def test_noiseless_polyak_recovery():
    """d1 = d2 = 100, m = 8(d1+d2), no corruption: value-gap steps from the
    spectral start reach relative error 1e-5 within 500 iterations in at
    least 19 of 20 trials, each within a minute."""
    trials, successes, slowest = 20, 0, 0.0
    cfg = SolverConfig(max_iters=500, tol_rel_err=1e-5)
    for trial in range(trials):
        tic = time.perf_counter()
        inst = generate_instance(100, 100, 1600, seed=100 + trial)
        _, trace = polyak_subgradient(inst, spectral_start(inst), cfg)
        slowest = max(slowest, time.perf_counter() - tic)
        if trace.final.relative_error <= 1e-5:
            successes += 1
    ok = successes >= math.ceil(0.95 * trials) and slowest <= 60.0
    report(
        "noiseless recovery (polyak)",
        ok,
        f"{successes}/{trials} trials at rel err <= 1e-5, slowest {slowest:.1f}s",
    )
    assert successes >= 19, f"only {successes}/20 trials reached 1e-5"
    assert slowest <= 60.0, f"slowest trial took {slowest:.1f}s"


def _geometric_success_count(
    trials: int, seed0: int, m: int, p_fail: float
) -> tuple[int, list[float]]:
    cfg = SolverConfig(max_iters=2000, lambda0=1.0, decay_q=0.98, tol_rel_err=1e-4)
    finals = []
    for trial in range(trials):
        noise = NoiseSpec.gaussian(p_fail, sigma=1.0)
        inst = generate_instance(100, 100, m, noise=noise, seed=seed0 + trial)
        _, trace = geometric_subgradient(inst, spectral_start(inst), cfg)
        finals.append(trace.final.relative_error)
    return sum(err <= 1e-4 for err in finals), finals


def test_moderate_corruption_geometric():
    """m = 5(d1+d2) with a quarter of the measurements knocked off their
    clean values by Gaussian offsets: decaying-step runs succeed (rel err
    <= 1e-4 within 2000 steps) in at least 16 of 20 trials."""
    successes, finals = _geometric_success_count(20, 200, 1000, 0.25)
    report(
        "moderate corruption (geometric)",
        successes >= 16,
        f"{successes}/20 trials at rel err <= 1e-4, median final {np.median(finals):.2e}",
    )
    assert successes >= 16, f"only {successes}/20 trials reached 1e-4"


def test_high_corruption_geometric():
    """m = 8(d1+d2) with 45% corruption: success in at least 14 of 20 trials."""
    successes, finals = _geometric_success_count(20, 300, 1600, 0.45)
    report(
        "high corruption (geometric)",
        successes >= 14,
        f"{successes}/20 trials at rel err <= 1e-4, median final {np.median(finals):.2e}",
    )
    assert successes >= 14, f"only {successes}/20 trials reached 1e-4"


def test_prox_linear_high_accuracy():
    """m = 8(d1+d2), 25% corruption: the prox-linear outer loop reaches
    relative error 1e-8 within 20 linearizations in at least 8 of 10 trials."""
    trials, successes = 10, 0
    worst = 0.0
    cfg = SolverConfig(max_iters=20, tol_rel_err=1e-8)
    for trial in range(trials):
        noise = NoiseSpec.gaussian(0.25, sigma=1.0)
        inst = generate_instance(100, 100, 1600, noise=noise, seed=400 + trial)
        _, trace = prox_linear(inst, spectral_start(inst), cfg)
        worst = max(worst, trace.final.relative_error)
        if trace.final.relative_error <= 1e-8:
            successes += 1
    report(
        "high-accuracy refinement (prox-linear)",
        successes >= 8,
        f"{successes}/{trials} trials at rel err <= 1e-8 within 20 outers, worst {worst:.2e}",
    )
    assert successes >= 8, f"only {successes}/10 trials reached 1e-8"


def test_hadamard_left_fragility():
    """Structured left side at 30% corruption, d1 = d2 = 64, c = 1..8: the
    decaying-step method succeeds on at most 10% of the trials in each cell
    that are not pattern-identifiable.

    ``left="hadamard"`` is the all-plus partial Hadamard: at d1 = 64 it has
    only 64 distinct, mutually orthogonal left rows l_g, each repeated 2c
    times.  Holding x at x_bar and moving w along one l_g changes only
    a_g = <l_g, w>, so f reduces to a weighted 1-D LAD over that group with
    ratios y_i / <r_i, x_bar> and weights |<r_i, x_bar>|.  When a group's
    clean weight is at most |corrupted weight above a_g - corrupted weight
    below a_g|, the planted pair is not a sharp minimizer along l_g and there
    is nothing for a local method to converge to.  A trial is
    pattern-identifiable when no group is in that state.  The trials are the
    ones ``run_trials`` runs for this grid, so the verdict line
    reports successes / identifiable trials per c.
    """
    spec = ExperimentSpec(
        kind="phase",
        d1=64,
        d2=64,
        m_ratios=tuple(range(1, 9)),
        p_fails=(0.30,),
        sigmas=(1.0,),
        trials=20,
        base_seed=500,
        solver="geometric",
        success_threshold=1e-4,
        solver_config=SolverConfig(max_iters=2000, lambda0=1.0, tol_rel_err=1e-4),
        left="hadamard",
        qs=(0.98,),
    )
    outcomes = defaultdict(list)  # cell -> (success, identifiable) per trial
    for record in run_trials(spec):
        inst = trial_instance(spec, record.cell, record.trial)
        success = record.error <= spec.success_threshold
        outcomes[record.cell].append((success, count_unidentifiable_groups(inst) == 0))
    counts, rates = [], []
    for trials in outcomes.values():  # c = 1..8
        successes = sum(success for success, _ in trials)
        identifiable = sum(ok for _, ok in trials)
        unidentified_successes = sum(success for success, ok in trials if not ok)
        counts.append(f"{successes}/{identifiable}")
        rates.append(unidentified_successes / max(spec.trials - identifiable, 1))
    worst = max(rates)
    report(
        "structured-left fragility",
        worst <= 0.10 + 1e-12,
        f"successes/identifiable per c=1..8: {', '.join(counts)}; max success rate "
        f"on unidentifiable trials {worst:.2f} (must stay <= 0.10)",
    )
    assert worst <= 0.10 + 1e-12, f"unidentifiable trials succeeded at rate {worst:.2f}"


def test_sharpness_lower_bound():
    """100k random points in the nu-ball region around a unit-magnitude truth
    (nu = 2, d1 = d2 = 5): the rank-one matrix error dominates the guaranteed
    multiple of the distance to the solution set, up to 1e-9 slack."""
    rng = np.random.default_rng(600)
    w_bar = rng.standard_normal(5)
    x_bar = rng.standard_normal(5)
    scale = math.sqrt(np.linalg.norm(w_bar) * np.linalg.norm(x_bar))
    truth = GroundTruth(w_bar=w_bar / scale, x_bar=x_bar / scale)  # magnitude 1
    sol = SolutionSet(truth=truth, nu=2.0)
    bound = sol.sharpness_bound
    radius = sol.nu * math.sqrt(truth.magnitude)

    def ball(n: int, dim: int) -> np.ndarray:
        v = rng.standard_normal((n, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * (radius * rng.random(n) ** (1.0 / dim))[:, None]

    tic = time.perf_counter()
    samples, batch, margin = 100_000, 20_000, np.inf
    for _ in range(samples // batch):
        w_stack, x_stack = ball(batch, 5), ball(batch, 5)
        dist = np.sqrt(_dist_squared_many(w_stack, x_stack, truth, sol.nu))
        cross = (w_stack @ truth.w_bar) * (x_stack @ truth.x_bar)
        err_sq = (
            np.einsum("ij,ij->i", w_stack, w_stack)
            * np.einsum("ij,ij->i", x_stack, x_stack)
            - 2.0 * cross
            + truth.magnitude**2
        )
        matrix_err = np.sqrt(np.maximum(err_sq, 0.0))
        margin = min(margin, float(np.min(matrix_err - bound * dist)))
    elapsed = time.perf_counter() - tic
    ok = margin >= -1e-9 and elapsed <= 10.0
    report(
        "sharpness lower bound",
        ok,
        f"min(matrix err - {bound:.4f} * dist) = {margin:.2e} over {samples} samples, {elapsed:.1f}s",
    )
    assert margin >= -1e-9, f"lower bound violated by {-margin:.2e}"
    assert elapsed <= 10.0, f"scan took {elapsed:.1f}s"


def test_components_match_oracles():
    """Four independent-oracle sweeps: solution-set distance vs a dense grid
    scan, the inner LAD prox vs exact enumeration on scalar and two-variable
    problems, subgradients vs central differences at smooth points, and
    structured operator products vs their dense materializations."""
    rng = np.random.default_rng(700)

    # (a) distance to the solution set vs two-stage grid scan, 1000 points
    truth = GroundTruth(w_bar=rng.standard_normal(7), x_bar=rng.standard_normal(5))
    sol = SolutionSet(truth=truth, nu=2.0)
    dist_dev = 0.0
    for _ in range(1000):
        p = SignalPair(w=2.0 * rng.standard_normal(7), x=2.0 * rng.standard_normal(5))
        fast = dist_to_solution_set(p, sol)
        slow = grid_dist_to_solution_set(p.w, p.x, truth.w_bar, truth.x_bar, sol.nu)
        dist_dev = max(dist_dev, abs(fast - slow))

    # (b) LAD prox vs exact minimizer enumeration, 50 scalar + 50 planar
    admm_dev = 0.0
    for i in range(50):
        m = 5 + (i % 4)
        left, _, right_weights = rng.standard_normal((3, m))  # the unused draw keeps the stream
        a_mat = np.column_stack([right_weights * left, np.zeros(m)])  # scalar problem
        y_tilde = rng.standard_normal(m)
        beta = float(rng.uniform(0.4, 2.5))
        got = admm_lad_prox(a_mat, 1, y_tilde, beta, eps=1e-8)
        want = exact_lad_prox_1d(a_mat[:, :1], y_tilde, beta)
        admm_dev = max(admm_dev, abs(float(got.z[0]) - want), abs(float(got.z[1])))
    for i in range(50):
        m = 5 + (i % 4)
        left, right, left_weights, right_weights = rng.standard_normal((4, m))
        a_mat = np.column_stack([right_weights * left, left_weights * right])
        y_tilde = rng.standard_normal(m)
        beta = float(rng.uniform(0.4, 2.5))
        got = admm_lad_prox(a_mat, 1, y_tilde, beta, eps=1e-8)
        want = exact_lad_prox_2d(a_mat, y_tilde, beta)
        admm_dev = max(admm_dev, float(np.max(np.abs(got.z - want))))

    # (c) analytic subgradient vs central differences at 1000 smooth points
    grad_dev = 0.0
    d1, d2 = 6, 5
    for block in range(20):
        noise = NoiseSpec.gaussian(0.25) if block % 2 else None
        inst = generate_instance(d1, d2, 66, noise=noise, seed=710 + block)
        checked = 0
        while checked < 50:
            p = SignalPair(w=rng.standard_normal(d1), x=rng.standard_normal(d2))
            resid = inst.op.bilinear_forward(p.w, p.x) - inst.y
            if np.min(np.abs(resid)) <= 1e-3:
                continue  # too close to a kink for differencing
            checked += 1
            _, grad = objective_and_subgradient(inst, p)

            def fun(stacked: np.ndarray) -> float:
                pair = SignalPair(w=stacked[:d1], x=stacked[d1:])
                return objective_and_subgradient(inst, pair)[0]

            fd = fd_gradient(fun, np.concatenate([p.w, p.x]), h=1e-6)
            grad_dev = max(grad_dev, float(np.max(np.abs(grad - fd))))

    # (d) structured operator products vs dense materializations
    struct_dev = 0.0
    inst = generate_instance(48, 40, 768, left="hadamard", seed=730)
    left_dense = inst.op.left.to_dense()
    for _ in range(25):
        v, u = rng.standard_normal(48), rng.standard_normal(768)
        struct_dev = max(
            struct_dev,
            float(np.max(np.abs(inst.op.left.apply_forward(v) - left_dense @ v))),
            float(np.max(np.abs(inst.op.left.apply_transpose(u) - left_dense.T @ u))),
        )

    ok = dist_dev <= 1e-6 and admm_dev <= 1e-4 and grad_dev <= 1e-5 and struct_dev <= 1e-10
    report(
        "oracle agreement",
        ok,
        f"dist {dist_dev:.1e} (<=1e-6), lad-prox {admm_dev:.1e} (<=1e-4), "
        f"subgrad {grad_dev:.1e} (<=1e-5), structured {struct_dev:.1e} (<=1e-10)",
    )
    assert dist_dev <= 1e-6
    assert admm_dev <= 1e-4
    assert grad_dev <= 1e-5
    assert struct_dev <= 1e-10


def test_init_robust_to_corruption_magnitude():
    """Once the offsets are gross outliers, their scale no longer matters to
    the spectral initializer, and its inlier selection is what keeps it
    accurate.  At d1 = d2 = 50, m = 800, 25% corruption, over 50 trials:
    (a) growing sigma a hundredfold from 100 to 10^4 moves the median
    direction error by at most 0.05, and (b) at sigma = 10^4 the median is
    at least 0.05 below that of the same pipeline with the selection stage
    removed (all rows kept) on the same instances.

    sigma = 1 is reported, not bounded: offsets the size of clean
    measurements are not outliers, and keeping some of them lowers the
    selection cutoff, which leaves the kept rows more deficient along the
    planted direction.
    """
    spec = ExperimentSpec(
        kind="init",
        d1=50,
        d2=50,
        m_ratios=(8,),
        p_fails=(0.25,),
        sigmas=(1.0, 100.0, 1e4),
        trials=50,
        base_seed=800,
    )
    table = run_experiment(spec)
    med = {s: values(table, "median_direction_error", sigma=s)[0] for s in spec.sigmas}
    keep_all = []
    for trial in range(spec.trials):
        inst = trial_instance(spec, (("c", 8), ("p_fail", 0.25), ("sigma", 1e4)), trial)
        moments = build_direction_matrices(inst, np.arange(inst.m))
        keep_all.append(
            direction_error(
                min_eigenvector(moments.left_moment),
                min_eigenvector(moments.right_moment),
                inst.truth,
            )
        )
    med_keep_all = float(np.median(keep_all))
    shift = med[1e4] - med[100.0]
    gain = med_keep_all - med[1e4]
    report(
        "initialization noise robustness",
        abs(shift) <= 0.05 and gain >= 0.05,
        f"median direction error {med[1.0]:.3f} (sigma=1), {med[100.0]:.3f} (sigma=100) -> "
        f"{med[1e4]:.3f} (sigma=1e4), shift {shift:+.3f} (|.| <= 0.05); all rows kept "
        f"{med_keep_all:.3f} at sigma=1e4, selection gain {gain:.3f} (>= 0.05)",
    )
    assert abs(shift) <= 0.05, f"median direction error moved by {shift:+.3f}"
    assert gain >= 0.05, f"selection beat keeping all rows by only {gain:.3f}"


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
