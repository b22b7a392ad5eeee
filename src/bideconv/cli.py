"""Command-line front end for single solves and the Monte-Carlo experiments.

Settings resolve in three layers: hard defaults, then a flat ``key=value``
config file (``--config``), then explicit command-line flags, later layers
winning.  Exit codes: 0 success, 2 configuration error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .experiments import (
    SOLVER_FUNCTIONS,
    ExperimentSpec,
    ResultTable,
    emit_csv,
    initial_point,
    run_experiment,
)
from .geometry import estimate_rip_constants
from .linops import DimensionError
from .model import NoiseSpec, generate_instance
from .solvers import AdmmConfig, SolverConfig
from .spectral_init import DegenerateFitError


class ConfigError(Exception):
    pass


_KEYS = (
    "d1",
    "d2",
    "c",
    "pfail",
    "trials",
    "seed",
    "solver",
    "noise",
    "left",
    "q",
    "lambda",
    "beta",
    "nu",
    "threshold",
    "out",
    "init",
    "iters",
)

_DEFAULTS = {
    "d1": "100",
    "d2": "100",
    "c": "8",
    "pfail": "0.0",
    "trials": None,  # per command
    "seed": "0",
    "solver": "polyak",
    "noise": "n1,sigma=1.0",
    "left": "gaussian",
    "q": "0.98",
    "lambda": "1.0",
    "beta": None,
    "nu": repr(math.sqrt(2.0)),
    "threshold": "1e-5",
    "out": None,
    "init": "spectral",
    "iters": None,  # per solver
}

_TRIAL_DEFAULTS = {"sweep-q": 50, "rip-probe": 500}
_ITER_DEFAULTS = {"polyak": 500, "geometric": 2000, "proxlinear": 20}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_noise(text: str) -> tuple[str, tuple[float, ...]]:
    """``n1,sigma=1.0`` (sigma accepts a comma list) or ``n2``."""
    tokens = text.split(",")
    kind = tokens[0].strip()
    if kind not in ("n1", "n2"):
        raise ConfigError(f"noise model must be n1 or n2, got {kind!r}")
    sigmas = (1.0,)
    if len(tokens) > 1:
        if kind == "n2":
            raise ConfigError("the implant model takes no sigma")
        spec = ",".join(tokens[1:])
        if not spec.startswith("sigma="):
            raise ConfigError(f"expected sigma=..., got {spec!r}")
        sigmas = _parse_float_list(spec[len("sigma=") :])
        if any(s <= 0 for s in sigmas):
            raise ConfigError("sigma values must be positive")
    return kind, sigmas


def read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


@dataclass
class Settings:
    command: str
    d1: int
    d2: int
    cs: tuple[int, ...]
    p_fails: tuple[float, ...]
    trials: int
    seed: int
    solver: str
    noise_kind: str
    sigmas: tuple[float, ...]
    left: str
    qs: tuple[float, ...]
    lambda0: float
    beta: float | None
    nu: float
    threshold: float
    out: str | None
    init: str
    iters: int


def _resolve(args: argparse.Namespace) -> Settings:
    file_values = read_config_file(args.config) if args.config else {}

    def pick(key: str) -> str | None:
        flag = getattr(args, key.replace("-", "_") if key != "lambda" else "lam")
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return _DEFAULTS[key]

    solver = pick("solver")
    if solver not in ("polyak", "geometric", "proxlinear"):
        raise ConfigError(f"unknown solver {solver!r}")
    left = pick("left")
    if left not in ("gaussian", "hadamard"):
        raise ConfigError(f"left operator must be gaussian or hadamard, got {left!r}")
    init = pick("init")
    if init not in ("spectral", "random-heuristic"):
        raise ConfigError(f"init must be spectral or random-heuristic, got {init!r}")
    noise_kind, sigmas = _parse_noise(pick("noise"))

    trials_text = pick("trials")
    if trials_text is None:
        trials = _TRIAL_DEFAULTS.get(args.command, 20)
    else:
        trials = _parse_int_list(trials_text)[0]
    iters_text = pick("iters")
    iters = (
        _ITER_DEFAULTS[solver] if iters_text is None else _parse_int_list(iters_text)[0]
    )
    beta_text = pick("beta")

    try:
        return Settings(
            command=args.command,
            d1=_parse_int_list(pick("d1"))[0],
            d2=_parse_int_list(pick("d2"))[0],
            cs=_parse_int_list(pick("c")),
            p_fails=_parse_float_list(pick("pfail")),
            trials=trials,
            seed=_parse_int_list(pick("seed"))[0],
            solver=solver,
            noise_kind=noise_kind,
            sigmas=sigmas,
            left=left,
            qs=_parse_float_list(pick("q")),
            lambda0=float(pick("lambda")),
            beta=None if beta_text is None else float(beta_text),
            nu=float(pick("nu")),
            threshold=float(pick("threshold")),
            out=pick("out"),
            init=init,
            iters=iters,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config(s: Settings, tol_rel_err: float = 0.0) -> SolverConfig:
    return SolverConfig(
        max_iters=s.iters,
        lambda0=s.lambda0,
        decay_q=s.qs[0],
        prox_beta=s.beta,
        tol_rel_err=tol_rel_err,
        stall_window=None,
        admm=AdmmConfig(),
    )


def _experiment_spec(s: Settings, kind: str) -> ExperimentSpec:
    return ExperimentSpec(
        kind=kind,
        d1=s.d1,
        d2=s.d2,
        m_ratios=s.cs,
        p_fails=s.p_fails,
        trials=s.trials,
        base_seed=s.seed,
        solver=s.solver,
        success_threshold=s.threshold,
        solver_config=_solver_config(s),
        init=s.init,
        noise_kind=s.noise_kind,
        sigmas=s.sigmas,
        left=s.left,
        nu=s.nu,
        qs=s.qs,
    )


def _print_table(table: ResultTable) -> None:
    for row in table.sorted_rows():
        config = ";".join(f"{k}={v}" for k, v in row.config)
        print(f"{config}  {row.statistic} = {row.value:.10g}")


def _maybe_emit(table: ResultTable, out: str | None) -> None:
    if out is not None:
        emit_csv(table, out)
        print(f"wrote {len(table)} rows to {out}")


def _single_instance(s: Settings):
    noise = None
    if s.p_fails[0] > 0.0:
        noise = (
            NoiseSpec.gaussian(s.p_fails[0], sigma=s.sigmas[0])
            if s.noise_kind == "n1"
            else NoiseSpec.implanted(s.p_fails[0])
        )
    return generate_instance(
        s.d1,
        s.d2,
        s.cs[0] * (s.d1 + s.d2),
        left=s.left,
        noise=noise,
        seed=s.seed,
        nu=s.nu,
    )


def _cmd_solve(s: Settings) -> int:
    inst = _single_instance(s)
    start = initial_point(inst, s.init)
    cfg = _solver_config(s, tol_rel_err=s.threshold)
    final, trace = SOLVER_FUNCTIONS[s.solver](inst, start, cfg)
    print("iteration  objective      rel_error      step_size      matvecs")
    for r in trace.records:
        print(
            f"{r.iteration:9d}  {r.objective:13.6e}  {r.relative_error:13.6e}  "
            f"{r.step_size:13.6e}  {r.matvecs:7d}"
        )
    if trace.diverged:
        raise RuntimeError(
            f"solver diverged: non-finite objective at iteration {trace.final.iteration}"
        )
    status = "reached" if trace.final.relative_error <= s.threshold else "missed"
    print(
        f"final relative error {trace.final.relative_error:.6e} "
        f"({status} threshold {s.threshold:g})"
    )
    if s.out is not None:
        table = ResultTable()
        for r in trace.records:
            config = (("iteration", r.iteration),)
            table.add(config, "objective", r.objective)
            table.add(config, "relative_error", r.relative_error)
            table.add(config, "step_size", r.step_size)
            table.add(config, "matvecs", r.matvecs)
        _maybe_emit(table, s.out)
    return 0


def _cmd_experiment(s: Settings, kind: str) -> int:
    table = run_experiment(_experiment_spec(s, kind))
    if kind == "convergence":
        # the full trace table is large; print per-cell final errors only
        summary = ResultTable()
        for c in s.cs:
            for p_fail in s.p_fails:
                for sigma in s.sigmas:
                    finals = []
                    for trial in range(s.trials):
                        errs = table.values(
                            "relative_error", c=c, p_fail=p_fail, sigma=sigma, trial=trial
                        )
                        finals.append(errs[-1])
                    summary.add(
                        (("c", c), ("p_fail", p_fail), ("sigma", sigma)),
                        "median_final_error",
                        float(np.median(finals)),
                    )
        _print_table(summary)
    else:
        _print_table(table)
    _maybe_emit(table, s.out)
    return 0


def _cmd_rip_probe(s: Settings) -> int:
    inst = _single_instance(s)
    est = estimate_rip_constants(
        inst.op, inst.outlier_mask, samples=s.trials, seed=s.seed
    )
    print(f"c_lower      = {est.c_lower:.10g}")
    print(f"c_upper      = {est.c_upper:.10g}")
    print(f"c_outlier    = {est.c_outlier:.10g}")
    print(f"upper/lower  = {est.c_upper / est.c_lower:.10g}")
    print(f"samples      = {est.sample_count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value settings file")
    shared.add_argument("--d1", help="left factor dimension")
    shared.add_argument("--d2", help="right factor dimension")
    shared.add_argument("--c", help="oversampling ratio(s) m = c*(d1+d2), comma list")
    shared.add_argument("--pfail", help="corruption fraction(s), comma list")
    shared.add_argument("--trials", help="Monte-Carlo trials per cell")
    shared.add_argument("--seed", help="base seed")
    shared.add_argument(
        "--solver", help="polyak | geometric | proxlinear", dest="solver"
    )
    shared.add_argument("--noise", help="n1,sigma=... (sigma accepts a list) or n2")
    shared.add_argument("--left", help="gaussian | hadamard")
    shared.add_argument("--q", help="geometric decay rate(s), comma list")
    shared.add_argument("--lambda", dest="lam", help="initial step length")
    shared.add_argument("--beta", help="prox-linear quadratic weight")
    shared.add_argument("--nu", help="solution-set looseness (>= 1)")
    shared.add_argument("--threshold", help="success / stopping relative error")
    shared.add_argument("--out", help="CSV output path")
    shared.add_argument("--init", help="spectral | random-heuristic")
    shared.add_argument("--iters", help="iteration budget")

    parser = argparse.ArgumentParser(
        prog="bideconv",
        description="Robust rank-one bilinear recovery: solvers and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[shared], help="solve one instance, print the trace")
    sub.add_parser("init", parents=[shared], help="initialization accuracy table")
    sub.add_parser("converge", parents=[shared], help="per-iteration error traces")
    sub.add_parser("phase", parents=[shared], help="success-rate grid over (p_fail, c)")
    sub.add_parser("sweep-q", parents=[shared], help="decay-rate sweep, mean final error")
    sub.add_parser("rip-probe", parents=[shared], help="landscape constants probe")
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "init": lambda s: _cmd_experiment(s, "init"),
    "converge": lambda s: _cmd_experiment(s, "convergence"),
    "phase": lambda s: _cmd_experiment(s, "phase"),
    "sweep-q": lambda s: _cmd_experiment(s, "qsweep"),
    "rip-probe": _cmd_rip_probe,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _resolve(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](settings)
    except DegenerateFitError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DimensionError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
