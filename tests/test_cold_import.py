"""The package imports without SciPy, and loads it on the first Cholesky.

Only the prox-linear Newton steps use SciPy (``solvers.cho_factor`` and
``solvers.cho_solve``), and its import costs more than the rest of the
package's together.  This test process may already hold SciPy, so the checks
run in a fresh interpreter.  No timing is bounded here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from bideconv.model import NoiseSpec, SignalPair, generate_instance
from bideconv.solvers import SolverConfig, prox_linear

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = f"""
import json
import sys

sys.path.insert(0, {str(TESTS)!r})


def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")


import bideconv
from bideconv import cli

after_import = scipy_modules()
code = cli.main(
    ["solve", "--d1", "5", "--d2", "5", "--c", "4", "--seed", "3", "--solver", "geometric"]
)
after_geometric = scipy_modules()

from test_cold_import import prox_linear_case

result = prox_linear_case()
print(json.dumps({{
    "after_import": after_import,
    "geometric_code": code,
    "after_geometric": after_geometric,
    "linalg_after_prox_linear": "scipy.linalg" in sys.modules,
    "result": result,
}}))
"""


def prox_linear_case() -> dict:
    """A small prox-linear solve, as bytes that must match across interpreters."""
    inst = generate_instance(6, 6, 96, noise=NoiseSpec.gaussian(0.1), seed=5)
    start = SignalPair(w=inst.truth.w_bar + 0.1, x=inst.truth.x_bar - 0.1)
    point, trace = prox_linear(inst, start, SolverConfig(max_iters=6, stall_window=None))
    assert sum(trace.column("inner_iters")) > 0
    return {
        "w": point.w.tobytes().hex(),
        "x": point.x.tobytes().hex(),
        "records": repr(trace.records),
        "diverged": trace.diverged,
    }


def test_scipy_waits_for_the_first_cholesky():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["geometric_code"] == 0
    assert report["after_geometric"] == []
    assert report["linalg_after_prox_linear"]
    assert report["result"] == prox_linear_case()
