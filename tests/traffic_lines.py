"""Print, per ``src/bideconv`` module, the executable lines that the benchmark
and the panel digest never run.

The script runs, in this process and under a ``sys.settrace`` hook that
records the lines executed in frames whose code lies under ``src/bideconv``,

* ``bench/run.py --workload W --seed 1 --seconds 3 --trace 0`` for each
  workload ``W`` of ``bench/workloads.py``, and
* every line of ``panel_digest.lines(1)``: the workload panels, the README
  commands, the extra commands and the confined prox-linear solve.

The hook is set before the package is imported, so module-level lines count
too.  A line is executable when the compiled module holds an instruction on
it.  What is left is code that only a test reaches (guards, error paths,
inputs no command uses) or that nothing reaches.  Run it from anywhere with

    python3 tests/traffic_lines.py

It took about 20 s on a 2-vCPU host; the hook slows every package line.
The benchmark runs write their records to the ignored ``.bench_out/``; nothing
else is written.  The file name does not match ``test_*.py``, so pytest does
not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"  # before NumPy loads, as the benchmark and the digest pin it
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bideconv"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold at least one compiled instruction."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        pending.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def traced_lines(run) -> dict[str, set[int]]:
    """The package lines, by file name, that ``run()`` executes."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def run_all() -> None:
    import panel_digest  # imports the package, so only under the hook
    from run import main as bench_main
    from workloads import WORKLOADS

    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", "1", "--seconds", "3", "--trace", "0"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = bench_main(argv)
        if code != 0:
            raise SystemExit(f"bench/run.py {' '.join(argv)} exited {code}")
        print(f"ran bench/run.py {' '.join(argv)}", file=sys.stderr, flush=True)
    for line in panel_digest.lines(1):
        print(f"ran {line}", file=sys.stderr, flush=True)


def main() -> int:
    hits = traced_lines(run_all)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits[str(path)])
        total += len(missed)
        print(f"bideconv/{path.name}: {len(missed)} lines not run")
        source = path.read_text(encoding="utf-8").splitlines()
        for number in missed:
            print(f"  {number:4d}  {source[number - 1].strip()}")
    print(f"total: {total} lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
