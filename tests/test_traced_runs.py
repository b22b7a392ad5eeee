"""The contract a traced benchmark run checks, on one small instance per solver kind.

``bench/tracing.py`` replaces the package's layer functions with span-recording
wrappers.  A traced run is only valid when every counted operator product is
one product span, every Hadamard product runs its FWHT through the wrapped
module global, and the traced solve returns exactly what the plain solve
returned, so no state may carry over from one solve to the next.  The
benchmark also bounds the tracer's timing overhead; a timing bound would be
flaky here, so it stays there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from bideconv import linops, solvers, spectral_init  # noqa: E402
from bideconv.model import NoiseSpec, SignalPair, generate_instance  # noqa: E402

GEOMETRIC = solvers.SolverConfig(max_iters=2000, lambda0=1.0, decay_q=0.98, tol_rel_err=1e-4, stall_window=None)
PROXLINEAR = solvers.SolverConfig(max_iters=20, tol_rel_err=1e-8, stall_window=None)


def solve(inst, solver: str, cfg: solvers.SolverConfig):
    """Init then solve, looking both up at call time the way the benchmark does."""
    with linops.count_matvecs() as counter:
        est = spectral_init.spectral_initialize(inst)
        point, trace = getattr(solvers, solver)(inst, SignalPair(w=est.w0, x=est.x0), cfg)
    return point, trace, counter.count


@pytest.mark.parametrize(
    "solver,left,d,cfg",
    [
        ("geometric_subgradient", "gaussian", 16, GEOMETRIC),
        ("geometric_subgradient", "hadamard", 16, GEOMETRIC),
        ("prox_linear", "gaussian", 8, PROXLINEAR),
    ],
    ids=["geometric-dense", "geometric-hadamard", "proxlinear-dense"],
)
def test_traced_solve_matches_plain_solve(solver, left, d, cfg):
    inst = generate_instance(d, d, 16 * d, left=left, noise=NoiseSpec.gaussian(0.1, sigma=1.0), seed=7)
    plain_point, plain_trace, plain_products = solve(inst, solver, cfg)

    recorder = tracing.SpanRecorder()
    with recorder.installed():
        point, trace, products = solve(inst, solver, cfg)
    calls = recorder.summarize(0, len(recorder))["calls"]

    def spans(name: str) -> int:
        return int(calls[tracing.SPAN_NAMES.index(name)])

    assert products == plain_products > 0
    assert sum(spans(name) for name in tracing.PRODUCT_SPANS) == products
    assert spans("linops.fwht") == spans("linops.hadamard_product")
    assert (spans("linops.hadamard_product") > 0) == (left == "hadamard")
    np.testing.assert_array_equal(point.w, plain_point.w)
    np.testing.assert_array_equal(point.x, plain_point.x)
    assert len(trace.records) == len(plain_trace.records) > 1
    assert trace.records == plain_trace.records
