"""The benchmark's output checks accept right outputs and reject wrong ones.

Run from the repository root with ``python3 -m pytest bench``.
"""

import numpy as np
import pytest
import scipy.linalg

import checks
import tracing
from bideconv import linops, model, solvers, spectral_init

CONFIG = solvers.SolverConfig(
    max_iters=2000, lambda0=1.0, decay_q=0.98, tol_rel_err=1e-4, stall_window=None
)


def solved(left: str, d: int, p_fail: float, seed: int):
    inst = model.generate_instance(
        d, d, 16 * d, left=left, noise=model.NoiseSpec.gaussian(p_fail), seed=seed
    )
    est = spectral_init.spectral_initialize(inst)
    point, trace = solvers.geometric_subgradient(
        inst, model.SignalPair(w=est.w0, x=est.x0), CONFIG
    )
    return inst, checks.build_reference(inst), est, point, trace


@pytest.fixture(scope="module", params=[("gaussian", 20, 0.25, 3), ("hadamard", 16, 0.05, 4)])
def run(request):
    return solved(*request.param)


def test_dense_side_rebuilds_the_operator(run):
    inst, ref, *_ = run
    assert np.array_equal(ref.left, inst.op.left.to_dense())
    assert np.array_equal(ref.right, inst.op.right.to_dense())


def test_right_outputs_pass(run):
    _, ref, est, point, trace = run
    error, msg = checks.check_point(ref, point.w, point.x, trace.final.relative_error)
    assert checks.meets_target(error, 1e-4) and msg is None
    assert checks.check_objective(ref, point.w, point.x, trace.final.objective) is None
    assert checks.check_init(ref, est) == []


def test_point_perturbed_by_1e_3_is_rejected(run):
    _, ref, _, point, trace = run
    u = np.random.default_rng(0).standard_normal(point.w.size)
    w = point.w + 1e-3 * np.linalg.norm(point.w) * u / np.linalg.norm(u)
    error, msg = checks.check_point(ref, w, point.x, trace.final.relative_error)
    assert not checks.meets_target(error, 1e-4) and msg is not None
    assert checks.check_objective(ref, w, point.x, trace.final.objective) is not None


def test_missed_target_is_a_failure_not_a_wrong_output(run):
    _, ref, _, point, trace = run
    error, msg = checks.check_point(ref, point.w, point.x, trace.final.relative_error)
    assert not checks.meets_target(error, trace.final.relative_error / 2) and msg is None


def test_m_hat_off_the_weighted_median_is_rejected(run):
    _, ref, est, *_ = run
    a = (ref.left @ est.w_dir) * (ref.right @ est.x_dir)
    kinks = np.sort(ref.y[a != 0.0] / a[a != 0.0])
    at = int(np.searchsorted(kinks, est.m_hat))
    assert kinks[at] == est.m_hat
    for moved in (kinks[at + 1], kinks[at - 1], est.m_hat * (1.0 + 1e-3)):
        assert checks.check_fit(ref, est.w_dir, est.x_dir, moved) is not None


def test_direction_that_is_not_minimal_is_rejected(run):
    _, ref, est, *_ = run
    for moment, eigenvalues, v in (
        (ref.left_moment, ref.left_eigenvalues, est.w_dir),
        (ref.right_moment, ref.right_eigenvalues, est.x_dir),
    ):
        assert checks.check_direction(moment, eigenvalues, v) is None
        _, vectors = scipy.linalg.eigh(moment)
        top = np.flatnonzero(eigenvalues > eigenvalues[0] * (1 + 1e-6) + 1e-12)[0]
        assert checks.check_direction(moment, eigenvalues, vectors[:, top]) is not None
        tilted = v + 1e-3 * vectors[:, top]
        assert checks.check_direction(moment, eigenvalues, tilted) is not None


def test_selection_off_the_lower_median_is_rejected(run):
    _, ref, est, *_ = run
    assert checks.check_selection(ref, est.selected[:-1]) is not None
    outside = np.setdiff1d(np.arange(ref.y.size), est.selected)[0]
    assert checks.check_selection(ref, np.union1d(est.selected, [outside])) is not None


def test_spans_nest_and_count_every_product():
    inst = model.generate_instance(8, 8, 128, left="hadamard", seed=5)
    recorder = tracing.SpanRecorder()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracing.TARGETS}
    with recorder.installed(), linops.count_matvecs() as counter:
        est = spectral_init.spectral_initialize(inst)
        solvers.geometric_subgradient(
            inst, model.SignalPair(w=est.w0, x=est.x0), solvers.SolverConfig(max_iters=20)
        )
    assert {(o, a): vars(o)[a] for o, a, _ in tracing.TARGETS} == originals
    summary = recorder.summarize(0, len(recorder))
    products = sum(summary["calls"][tracing.SPAN_NAMES.index(n)] for n in tracing.PRODUCT_SPANS)
    assert products == counter.count
    assert summary["self_s"].sum() == pytest.approx(summary["root_s"], rel=1e-9)
    assert (summary["self_s"] >= -1e-9).all()
