"""Print one SHA-256 per benchmark workload over seeded solver outputs.

For each workload in ``bench/workloads.py`` this builds the first six
instances of its panel at ``--seed N``, runs ``spectral_initialize`` and the
workload's solver on each, and hashes the start ``w0``, ``x0``, the final
``w`` and ``x``, ``repr(trace.records)`` and ``trace.diverged``.  Two trees
print the same lines exactly when all of these agree to the bit, so a change
meant to leave results alone is checked by running, in each tree,

    python3 tests/panel_digest.py --seed 1

and comparing the output.  BLAS is pinned to one thread before NumPy loads,
as in the tests and the benchmark, because results depend on the thread
count.  The file name does not match ``test_*.py``, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from bideconv import model, solvers, spectral_init  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INSTANCES = 6


def digest(name: str, seed: int) -> str:
    wl = WORKLOADS[name]
    h = hashlib.sha256()
    for k, instance_seed in enumerate(wl.instance_seeds(seed)[:INSTANCES]):
        inst = wl.generate(instance_seed, k)
        est = spectral_init.spectral_initialize(inst)
        start = model.SignalPair(w=est.w0, x=est.x0)
        point, trace = getattr(solvers, wl.solver)(inst, start, wl.config)
        for arr in (est.w0, est.x0, point.w, point.x):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(repr(trace.records).encode())
        h.update(repr(trace.diverged).encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="benchmark run seed")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        print(f"{name}  seed {args.seed}  {digest(name, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
