"""Command-line front end for single solves and the Monte-Carlo experiments.

Each setting is one row of ``_SETTINGS``: its key is both the flag
(``--key``) and the config-file key, and its parse turns the text into
``ExperimentSpec`` / ``SolverConfig`` fields.  Settings resolve in three
layers: the dataclass defaults (plus the few CLI defaults that differ from
them), then a flat ``key=value`` config file (``--config``), then explicit
command-line flags, later layers winning.  Exit codes: 0 success, 2
configuration error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from dataclasses import fields, replace
from typing import Any, Callable

import numpy as np

from .experiments import (
    SOLVER_FUNCTIONS,
    ExperimentSpec,
    ResultTable,
    emit_csv,
    initial_point,
    make_instance,
    run_experiment,
)
from .geometry import estimate_rip_constants
from .linops import DimensionError
from .model import ProblemInstance
from .solvers import SolverConfig
from .spectral_init import DegenerateFitError


class ConfigError(Exception):
    pass


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected one integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected one number, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in text.split(","))


def _parse_noise(text: str) -> dict[str, Any]:
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
    return {"noise_kind": kind, "sigmas": sigmas}


def _parse_qs(text: str) -> dict[str, Any]:
    qs = _parse_float_list(text)
    return {"qs": qs, "decay_q": qs[0]}


# key -> (help, parse of its text into ExperimentSpec / SolverConfig fields;
# "out" is the one key that is neither)
_SETTINGS: dict[str, tuple[str, Callable[[str], dict[str, Any]]]] = {
    "d1": ("left factor dimension", lambda t: {"d1": _parse_int(t)}),
    "d2": ("right factor dimension", lambda t: {"d2": _parse_int(t)}),
    "c": (
        "oversampling ratio(s) m = c*(d1+d2), comma list",
        lambda t: {"m_ratios": _parse_int_list(t)},
    ),
    "pfail": ("corruption fraction(s), comma list", lambda t: {"p_fails": _parse_float_list(t)}),
    "trials": ("Monte-Carlo trials per cell", lambda t: {"trials": _parse_int(t)}),
    "seed": ("base seed", lambda t: {"base_seed": _parse_int(t)}),
    "solver": ("polyak | geometric | proxlinear", lambda t: {"solver": t}),
    "noise": ("n1,sigma=... (sigma accepts a list) or n2", _parse_noise),
    "left": ("gaussian | hadamard", lambda t: {"left": t}),
    "q": ("geometric decay rate(s), comma list", _parse_qs),
    "lambda": ("initial step length", lambda t: {"lambda0": _parse_float(t)}),
    "beta": ("prox-linear quadratic weight", lambda t: {"prox_beta": _parse_float(t)}),
    "threshold": (
        "success / stopping relative error",
        lambda t: {"success_threshold": _parse_float(t)},
    ),
    "out": ("CSV output path", lambda t: {"out": t}),
    "init": ("spectral | random-heuristic", lambda t: {"init": t}),
    "iters": ("iteration budget", lambda t: {"max_iters": _parse_int(t)}),
}

# the CLI defaults that differ from the dataclasses'
_TRIAL_DEFAULTS = {"sweep-q": 50, "rip-probe": 500}
_ITER_DEFAULTS = {"geometric": 2000, "proxlinear": 20}
_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}
# the grids a command reads one value of, by ExperimentSpec field and setting:
# only sweep-q fans out over q (ExperimentSpec itself rejects a sweep-q grid
# of several p_fails or sigmas)
_GRID_NAMES = {"m_ratios": "c", "p_fails": "pfail", "sigmas": "noise sigma", "qs": "q"}
_ONE_VALUE_GRIDS = {
    "solve": ("m_ratios", "p_fails", "sigmas", "qs"),
    "rip-probe": ("m_ratios", "p_fails", "sigmas", "qs"),
    "init": ("qs",),
    "converge": ("qs",),
    "phase": ("qs",),
}


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
                if key not in _SETTINGS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> tuple[ExperimentSpec, str | None]:
    """The command's spec and CSV path: flags over file values over defaults."""
    texts = read_config_file(args.config) if args.config else {}
    flags = vars(args)
    texts.update((key, flags[key]) for key in _SETTINGS if flags[key] is not None)
    values: dict[str, Any] = {"stall_window": None}
    if args.command in _TRIAL_DEFAULTS:
        values["trials"] = _TRIAL_DEFAULTS[args.command]
    for key, text in texts.items():
        values.update(_SETTINGS[key][1](text))
    out = values.pop("out", None)
    solver = values.get("solver", ExperimentSpec.solver)
    if "max_iters" not in values and solver in _ITER_DEFAULTS:
        values["max_iters"] = _ITER_DEFAULTS[solver]
    solver_values = {k: values.pop(k) for k in _SOLVER_FIELDS & values.keys()}
    try:
        spec = ExperimentSpec(
            kind=_COMMANDS[args.command][1],
            solver_config=SolverConfig(**solver_values),
            **values,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for grid in _ONE_VALUE_GRIDS.get(args.command, ()):
        if len(getattr(spec, grid)) > 1:
            raise ConfigError(f"{args.command} takes one value of {_GRID_NAMES[grid]}")
    return spec, out


def _print_table(table: ResultTable) -> None:
    for row in table.sorted_rows():
        config = ";".join(f"{k}={v}" for k, v in row.config)
        print(f"{config}  {row.statistic} = {row.value:.10g}")


def _maybe_emit(table: ResultTable, out: str | None) -> None:
    if out is not None:
        emit_csv(table, out)
        print(f"wrote {len(table)} rows to {out}")


def _first_instance(spec: ExperimentSpec) -> ProblemInstance:
    return make_instance(
        spec, spec.m_ratios[0], spec.p_fails[0], spec.sigmas[0], spec.base_seed
    )


def _cmd_solve(spec: ExperimentSpec, out: str | None) -> int:
    inst = _first_instance(spec)
    start = initial_point(inst, spec.init)
    cfg = replace(spec.solver_config, tol_rel_err=spec.success_threshold)
    final, trace = SOLVER_FUNCTIONS[spec.solver](inst, start, cfg)
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
    threshold = spec.success_threshold
    status = "reached" if trace.final.relative_error <= threshold else "missed"
    print(
        f"final relative error {trace.final.relative_error:.6e} "
        f"({status} threshold {threshold:g})"
    )
    if out is not None:
        table = ResultTable()
        for r in trace.records:
            config = (("iteration", r.iteration),)
            table.add(config, "objective", r.objective)
            table.add(config, "relative_error", r.relative_error)
            table.add(config, "step_size", r.step_size)
            table.add(config, "matvecs", r.matvecs)
        _maybe_emit(table, out)
    return 0


def _final_error_medians(table: ResultTable) -> ResultTable:
    """Per (c, p_fail, sigma) cell of a convergence table, the median over
    trials of each trial's last relative error, in one scan of the rows."""
    finals = {}
    for row in table.rows:  # a trial's iterations are added in order
        if row.statistic == "relative_error":
            finals[row.config[:4]] = row.value  # (c, p_fail, sigma, trial)
    cells = defaultdict(list)
    for config, value in finals.items():
        cells[config[:3]].append(value)
    summary = ResultTable()
    for cell, values in cells.items():
        summary.add(cell, "median_final_error", float(np.median(values)))
    return summary


def _cmd_experiment(spec: ExperimentSpec, out: str | None) -> int:
    table = run_experiment(spec)
    # the full convergence trace table is large; print per-cell final errors only
    _print_table(_final_error_medians(table) if spec.kind == "convergence" else table)
    _maybe_emit(table, out)
    return 0


def _cmd_rip_probe(spec: ExperimentSpec, out: str | None) -> int:
    inst = _first_instance(spec)
    est = estimate_rip_constants(
        inst.op, inst.outlier_mask, samples=spec.trials, seed=spec.base_seed
    )
    print(f"c_lower      = {est.c_lower:.10g}")
    print(f"c_upper      = {est.c_upper:.10g}")
    print(f"c_outlier    = {est.c_outlier:.10g}")
    print(f"upper/lower  = {est.c_upper / est.c_lower:.10g}")
    print(f"samples      = {est.sample_count}")
    table = ResultTable()
    config = (("c", spec.m_ratios[0]), ("p_fail", spec.p_fails[0]), ("sigma", spec.sigmas[0]))
    for statistic in ("c_lower", "c_upper", "c_outlier"):
        table.add(config, statistic, getattr(est, statistic))
    table.add(config, "samples", est.sample_count)
    _maybe_emit(table, out)
    return 0


# command -> (help, ExperimentSpec.kind, handler); solve and rip-probe read
# the spec's one cell, so their kind is nominal
_COMMANDS: dict[str, tuple[str, str, Callable[[ExperimentSpec, str | None], int]]] = {
    "solve": ("solve one instance, print the trace", "convergence", _cmd_solve),
    "init": ("initialization accuracy table", "init", _cmd_experiment),
    "converge": ("per-iteration error traces", "convergence", _cmd_experiment),
    "phase": ("success-rate grid over (p_fail, c)", "phase", _cmd_experiment),
    "sweep-q": ("decay-rate sweep, mean final error", "qsweep", _cmd_experiment),
    "rip-probe": ("landscape constants probe", "init", _cmd_rip_probe),
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value settings file")
    for key, (help_text, _) in _SETTINGS.items():
        shared.add_argument(f"--{key}", help=help_text)

    parser = argparse.ArgumentParser(
        prog="bideconv",
        description="Robust rank-one bilinear recovery: solvers and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(command, parents=[shared], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec, out = _resolve(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][2](spec, out)
    except DegenerateFitError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
