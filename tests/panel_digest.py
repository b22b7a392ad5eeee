"""Print one SHA-256 per benchmark workload and per README or extra command.

For each workload in ``bench/workloads.py`` this builds the first six
instances of its panel at ``--seed N``, runs ``spectral_initialize`` and the
workload's solver on each, and hashes the start ``w0``, ``x0``, the final
``w`` and ``x``, ``repr(trace.records)`` and ``trace.diverged``.  Then it runs
each ``bideconv`` command of the README's "Command line" block, read as
``tests/test_readme.py`` reads it and run as written (so these lines do not
depend on ``--seed``), with ``--out table.csv`` in a temporary directory, and
hashes its exit code, its stdout and the CSV bytes.  It hashes the commands
of ``EXTRA_COMMANDS``, which the README block does not cover, the same way,
and last one prox-linear solve confined to a ``FeasibleRegion``, a library
call that no command makes.
Two trees print the same lines exactly when all of these agree to the bit,
so a change meant to leave results alone is checked by running, in each tree,

    python3 tests/panel_digest.py --seed 1

and comparing the output.  Run as a script, it pins BLAS to one thread
before NumPy loads, as the tests and the benchmark do, because results
depend on the thread count.  The file name does not match ``test_*.py``, so
pytest does not collect it, but ``tests/test_panel_digest.py`` pins its
``--seed 1`` lines in tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator

if __name__ == "__main__":  # imported by a test, it leaves the environment alone
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from bideconv import geometry, model, solvers, spectral_init  # noqa: E402
from bideconv.cli import main as cli_main  # noqa: E402
from test_readme import readme_commands  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INSTANCES = 6
# a converge run, whose stdout is the per-cell median summary, an n2 run, a
# random-heuristic start, a Hadamard phase grid over two c, two prox-linear
# solves on a Hadamard left side, the second at n = d1 + d2 = 128, where most
# Newton matrices come from the rows that enter or leave the active set, and a
# noiseless Polyak phase grid, the one line that runs Polyak's value-gap steps
# past a start, a geometric solve on a Hadamard side whose d1 = 12 is padded
# to n = 16 before each transform, and a landscape probe at d1 = 1, where no
# rank-2 direction exists and the probe draws rank-1 ones
EXTRA_COMMANDS = [
    "converge --d1 10 --d2 10 --c 4,6 --pfail 0.1 --trials 3 --solver geometric --q 0.95"
    " --iters 300 --seed 2",
    "init --d1 16 --d2 16 --c 8 --pfail 0.1,0.2 --left hadamard --noise n2 --trials 3 --seed 4",
    "solve --d1 10 --d2 10 --c 8 --pfail 0.2 --solver proxlinear --init random-heuristic --seed 4",
    "phase --d1 16 --d2 16 --c 4,8 --pfail 0.05,0.1 --left hadamard --trials 2 --solver geometric"
    " --iters 300 --seed 3",
    "solve --d1 16 --d2 16 --c 8 --pfail 0.1 --left hadamard --solver proxlinear --seed 2",
    "solve --d1 64 --d2 64 --c 8 --pfail 0.05 --left hadamard --solver proxlinear --seed 700",
    "phase --d1 10 --d2 10 --c 4,6 --pfail 0 --trials 2 --solver polyak --iters 200 --seed 5",
    "solve --d1 12 --d2 12 --c 8 --pfail 0.05 --left hadamard --solver geometric --iters 300"
    " --seed 3",
    "rip-probe --d1 1 --d2 6 --c 4 --pfail 0.1 --trials 50 --seed 2",
]


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


def region_digest() -> str:
    """SHA-256 over a prox-linear solve held in a ``FeasibleRegion``: 10 outer
    steps from a random start, as ``tests/test_solvers.py`` runs it."""
    inst = model.generate_instance(10, 10, 160, seed=1, magnitude=4.0)
    rng = np.random.default_rng(0)
    start = model.SignalPair(w=rng.standard_normal(10), x=rng.standard_normal(10))
    cfg = solvers.SolverConfig(max_iters=10, region=geometry.FeasibleRegion(radius=1.5))
    point, trace = solvers.prox_linear(inst, start, cfg)
    h = hashlib.sha256()
    for arr in (point.w, point.x):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(trace.records).encode())
    h.update(repr(trace.diverged).encode())
    return h.hexdigest()


def command_digest(argv: list[str]) -> str:
    """SHA-256 over one command's exit code, stdout and ``--out`` CSV bytes."""
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([*argv, "--out", "table.csv"])
            h.update(f"exit {code}\n".encode())
            h.update(stdout.getvalue().encode())
            table = Path("table.csv")
            h.update(table.read_bytes() if table.exists() else b"no table")
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def lines(seed: int) -> Iterator[str]:
    """The output lines at ``--seed seed``, one per digest."""
    for name in WORKLOADS:
        yield f"{name}  seed {seed}  {digest(name, seed)}"
    for command in readme_commands():
        yield f"readme {command[0]}  {command_digest(command)}"
    for text in EXTRA_COMMANDS:
        command = text.split()
        yield f"extra {command[0]}  {command_digest(command)}"
    yield f"library prox_linear region  {region_digest()}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="benchmark run seed")
    args = parser.parse_args(argv)
    for line in lines(args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
