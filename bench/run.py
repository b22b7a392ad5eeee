"""Time-to-accuracy benchmark for bideconv's solver stack.

Run from the repository root:

    python3 bench/run.py --workload geometric-dense --seed 1 --seconds 30 --trace 0

Each trial runs ``spectral_initialize`` and then the workload's solver, the
way ``experiments.solve_instance`` does, and every output is checked against
dense recomputations (``checks.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps the package's layer functions (``tracing.py``)
and prints the per-layer metrics.  The last line of standard output is one
JSON object; a fuller record, with the environment and every trial, is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# The host's speed drifts by up to +-25% over minutes, which no run of a few
# tens of seconds averages away.  Every timing is therefore scaled by
# CALIBRATION_REF_S / c, where c is the calibration (see make_calibration)
# measured right before and after it: seconds at the speed at which the
# reference host (2-vCPU Intel Xeon VM at 2.0 GHz) gives c = CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.0048
CALIBRATION_REPEATS = 3
# Extra spectral_initialize calls after each trial, up to this share of the
# trial's time.  init_s is the fastest init call of the run: at 1 to 35 ms a
# call is short enough that the host's slow phases move single calls by up to
# 1.9x, in bursts the calibration does not follow (a 1-ms prox-linear init
# flips between 0.6 and 1.2 ms): over ten proxlinear-dense runs the median of
# the calls spread 0.22 where the fastest call spread 0.05, and 0.13 on a
# second set of ten.
INIT_SHARE = 0.02
IMPORT_PROBE = "import time; t = time.perf_counter(); import bideconv; print(time.perf_counter() - t)"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Wall time of ``import bideconv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def make_calibration():
    """Return a function timing two fixed kernels that run no package code.

    One does products with a 1600x100 matrix, the other is a pure-Python
    integer loop; the host's slow phases hit them, and the package's mix of
    BLAS and interpreter work, differently.  The calibration is the geometric
    mean of each kernel's median time over a few back-to-back runs.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1600, 100))
    v = rng.standard_normal(100)
    y = rng.standard_normal(1600)

    def products() -> float:
        tic = time.perf_counter()
        w = v
        for _ in range(60):
            g = a.T @ np.sign(a @ w - y)
            w = v - 1e-3 * g / np.linalg.norm(g)
        return time.perf_counter() - tic

    def interpreter() -> float:
        tic = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        return time.perf_counter() - tic

    def calibrate() -> float:
        return math.sqrt(
            statistics.median(products() for _ in range(CALIBRATION_REPEATS))
            * statistics.median(interpreter() for _ in range(CALIBRATION_REPEATS))
        )

    return calibrate


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bideconv" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import checks
    import tracing
    from bideconv import linops, model, solvers, spectral_init
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seeds = wl.instance_seeds(args.seed)

    def generate_panel() -> list:
        return [wl.generate(s, k) for k, s in enumerate(seeds)]

    calibrate = make_calibration()

    # set-up: a fresh-interpreter import plus generating the panel, repeated
    setup_samples = []
    setup_scaled = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        tic = time.perf_counter()
        panel = generate_panel()
        setup_samples.append(imported + time.perf_counter() - tic)
        setup_scaled.append(setup_samples[-1] * CALIBRATION_REF_S / calibrate())
    references = [checks.build_reference(inst) for inst in panel]

    def solve(inst):
        """One trial: init then solve, looked up at call time like a caller would."""
        with linops.count_matvecs() as counter:
            tic = time.perf_counter()
            est = spectral_init.spectral_initialize(inst)
            mid = time.perf_counter()
            point, trace = getattr(solvers, wl.solver)(
                inst, model.SignalPair(w=est.w0, x=est.x0), wl.config
            )
            toc = time.perf_counter()
        return est, point, trace, mid - tic, toc - tic, counter.count

    # warm-up on a small instance of the same kind, outside all measurement
    small = model.generate_instance(
        8, 8, 128, left=wl.left, noise=model.NoiseSpec.gaussian(wl.p_fail(0)), seed=args.seed
    )
    solve(small)

    errors: list[str] = []
    trials: list[dict] = []
    calibrations = [calibrate()]

    def init_repeats(inst, budget: float) -> list[float]:
        """Time further spectral_initialize calls until they take ``budget`` s."""
        times: list[float] = []
        while sum(times) < budget:
            tic = time.perf_counter()
            spectral_init.spectral_initialize(inst)
            times.append(time.perf_counter() - tic)
        return times

    def check(k: int, est, point, trace) -> float:
        """Run every output check; return the recomputed relative error."""
        ref = references[k]
        error, msg = checks.check_point(ref, point.w, point.x, trace.final.relative_error)
        found = [msg, checks.check_objective(ref, point.w, point.x, trace.final.objective)]
        found += checks.check_init(ref, est)
        errors.extend(f"instance {seeds[k]}: {m}" for m in found if m is not None)
        return error

    def attempt(k: int) -> dict:
        try:
            est, point, trace, init_s, solve_s, products = solve(panel[k])
        except Exception:  # a crashing trial is a failed operation, reported with its traceback
            record = {"instance_seed": seeds[k], "ok": False, "error": traceback.format_exc()}
        else:
            calibrations.append(calibrate())
            repeats = init_repeats(panel[k], INIT_SHARE * solve_s - init_s)
            error = check(k, est, point, trace)
            record = {
                "instance_seed": seeds[k],
                "ok": checks.meets_target(error, wl.target),
                "init_s": init_s,
                "init_repeats_s": repeats,
                "solve_s": solve_s,
                "scale": CALIBRATION_REF_S / statistics.fmean(calibrations[-2:]),
                "matvecs": products,
                "iterations": len(trace.records) - 1,
                "inner_iters": sum(trace.column("inner_iters")),
                "inner_exhausted": sum(trace.column("inner_exhausted")),
                "reported_relative_error": trace.final.relative_error,
                "recomputed_relative_error": error,
                "_outputs": (est, point, trace),
            }
        trials.append(record)
        return record

    recorder = tracing.SpanRecorder() if args.trace else None
    traced: list[dict] = []
    trial_offsets: list[int] = []
    summaries: list[dict] = []
    generate_s = 0.0
    if recorder is not None:
        with recorder.installed():
            generate_panel()
        generate_s = recorder.summarize(0, len(recorder))["inclusive_s"][
            tracing.SPAN_NAMES.index("model.generate")
        ]

    def traced_attempt(k: int, plain: dict) -> None:
        """Trace a second solve of panel[k] and check its spans and outputs."""
        begin = len(recorder)
        trial_offsets.append(begin)
        with recorder.installed():
            est, point, trace, _, solve_s, products = solve(panel[k])
        summary = recorder.summarize(begin, len(recorder))
        summaries.append(summary)
        records = trace.records[1:]
        traced.append(
            {
                "instance_seed": seeds[k],
                "solve_s": solve_s,
                "plain_solve_s": plain["solve_s"],
                "products": products,
                "outer_iters": len(records),
                "inner_iters": sum(r.inner_iters for r in records),
                "converged_calls": sum(
                    1 for r in records if r.inner_iters and not r.inner_exhausted
                ),
                "self_sum_s": float(summary["self_s"].sum()),
            }
        )
        counted = sum(
            summary["calls"][tracing.SPAN_NAMES.index(n)] for n in tracing.PRODUCT_SPANS
        )
        if counted != products:
            errors.append(f"instance {seeds[k]}: {counted} product spans, {products} counted")
        if abs(summary["self_s"].sum() - solve_s) > 0.01 * solve_s:
            errors.append(
                f"instance {seeds[k]}: layer self times sum to {summary['self_s'].sum():.6f} s, "
                f"traced init + solve took {solve_s:.6f} s"
            )
        _, plain_point, plain_trace = plain["_outputs"]
        if not (
            np.array_equal(point.w, plain_point.w)
            and np.array_equal(point.x, plain_point.x)
            and len(trace.records) == len(plain_trace.records)
        ):
            errors.append(f"instance {seeds[k]}: traced solve returned a different result")

    # measurement: whole passes over the panel; stop before a pass would overrun
    passes = 0
    first_pass_products = 0
    start = time.perf_counter()
    while True:
        tic = time.perf_counter()
        for k in range(len(panel)):
            record = attempt(k)
            if passes == 0:
                first_pass_products += record.get("matvecs", 0)
            if recorder is not None and "_outputs" in record:
                traced_attempt(k, record)
            record.pop("_outputs", None)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - tic) > args.seconds:
            break

    done = [t for t in trials if t["ok"]]
    failed = len(trials) - len(done)
    if recorder is not None:
        total = {key: sum(s[key] for s in summaries) for key in ("calls", "inclusive_s", "self_s")}
        plain_median = statistics.median(t["plain_solve_s"] for t in traced)
        layers = tracing.layer_metrics(
            total,
            passes=passes,
            products=sum(t["products"] for t in traced),
            m=wl.m,
            d=wl.d,
            outer_iters=sum(t["outer_iters"] for t in traced),
            inner_iters=sum(t["inner_iters"] for t in traced),
            converged_calls=sum(t["converged_calls"] for t in traced),
            generate_s=float(generate_s),
            overhead_ratio=statistics.median(t["solve_s"] for t in traced) / plain_median,
        )
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        busy = sum(t["solve_s"] * t["scale"] for t in trials if "scale" in t)
        inits = [x for t in done for x in [t["init_s"], *t["init_repeats_s"]]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "solve_s": {"value": statistics.median(t["solve_s"] * t["scale"] for t in done) if done else math.nan, "unit": "s"},
            "init_s": {"value": min(inits) if inits else math.nan, "unit": "s"},
            "trials_per_s": {"value": len(done) / busy if busy else 0.0, "unit": "1/s"},
            "matvecs": {"value": first_pass_products, "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.save(OUT_DIR / f"{stem}-spans.npz", trial_offsets)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "instance_seeds": seeds,
        "passes": passes,
        "setup_samples_s": setup_samples,
        "calibrations_s": calibrations,
        "errors": errors,
        "metrics": metrics,
        "trials": trials,
        "traced_trials": traced,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for msg in errors:
        print(f"bench: wrong output: {msg}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(trials), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
