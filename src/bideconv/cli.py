"""Command-line front end for single solves and the Monte-Carlo experiments.

Each setting is one row of ``_SETTINGS``: its key is both the flag
(``--key``) and the config-file key, and its parse turns the text into
``ExperimentSpec`` / ``SolverConfig`` fields.  Each command takes only the
settings it reads (its ``_COMMANDS`` row), so any other flag or config-file
key is a configuration error, never silently ignored, as is a solver setting
the chosen solver never reads (``_SOLVER_ONLY``).  Settings resolve in
three layers: the dataclass defaults (plus ``_COMMAND_DEFAULTS``), then a
flat ``key=value`` config file (``--config``), then explicit command-line
flags, later layers winning.  An unset ``--iters`` runs the solver's own
budget, and no run stops on a stalled objective.  Exit codes: 0 success, 2
configuration error (every setting is judged before the first trial), 1
runtime failure (whatever a command raises after that).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Any, Callable

import numpy as np

from .experiments import (
    CHOICES,
    KINDS,
    NOISE_KINDS,
    ExperimentSpec,
    Row,
    _per_cell,
    cell_setup,
    cells,
    emit_csv,
    make_instance,
    result_table,
    run_trials,
    solve_instance,
)
from .geometry import estimate_rip_constants
from .solvers import SolverConfig


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"expected one integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"expected one number, got {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in text.split(","))


def _parse_noise(text: str) -> dict[str, Any]:
    """``n1,sigma=1.0`` (sigma accepts a comma list) or ``n2``."""
    kind, comma, spec = text.partition(",")
    kind = kind.strip()
    if kind not in NOISE_KINDS:
        raise ValueError(f"noise model must be {' or '.join(NOISE_KINDS)}, got {kind!r}")
    sigmas = (1.0,)
    if comma:
        if NOISE_KINDS[kind] == "implant":  # even sigma=1: the spec cannot tell it from unset
            raise ValueError("the implant model takes no sigma")
        if not spec.startswith("sigma="):
            raise ValueError(f"expected sigma=..., got {spec!r}")
        sigmas = _parse_float_list(spec[len("sigma=") :])
    return {"noise_kind": kind, "sigmas": sigmas}


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
    "solver": (" | ".join(CHOICES["solver"]), lambda t: {"solver": t}),
    "noise": (" | ".join(NOISE_KINDS) + "; n1,sigma=... takes a list", _parse_noise),
    "left": (" | ".join(CHOICES["left"]), lambda t: {"left": t}),
    "q": ("geometric decay rate(s), comma list", lambda t: {"qs": _parse_float_list(t)}),
    "lambda": ("initial step length", lambda t: {"lambda0": _parse_float(t)}),
    "beta": ("prox-linear quadratic weight", lambda t: {"prox_beta": _parse_float(t)}),
    "threshold": (
        "success / stopping relative error",
        lambda t: {"success_threshold": _parse_float(t)},
    ),
    "out": ("CSV output path", lambda t: {"out": t}),
    "init": (" | ".join(CHOICES["init"]), lambda t: {"init": t}),
    "iters": ("iteration budget", lambda t: {"max_iters": _parse_int(t)}),
}

# the per-command defaults that differ from the dataclasses'
_COMMAND_DEFAULTS = {"sweep-q": {"trials": 50, "solver": "geometric"}, "rip-probe": {"trials": 500}}
_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}
# the setting that gives each ExperimentSpec grid; a command takes one value of
# every grid it does not fan out over
_GRID_NAMES = {"m_ratios": "c", "p_fails": "pfail", "sigmas": "noise sigma", "qs": "q"}
# the solver settings that one solver alone reads -> that solver
_SOLVER_ONLY = {"q": "geometric", "lambda": "geometric", "beta": "proxlinear"}


def read_config_file(path: str, command: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _READS[command]:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
                if key in values:
                    raise ValueError(f"{path}:{lineno}: key {key!r} is given twice")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace) -> tuple[ExperimentSpec, str | None]:
    """The command's spec and CSV path: flags over file values over defaults."""
    texts = read_config_file(args.config, args.command) if args.config else {}
    flags = vars(args)
    texts.update((key, flags[key]) for key in _READS[args.command] if flags[key] is not None)
    values: dict[str, Any] = dict(_COMMAND_DEFAULTS.get(args.command, {}))
    for key, text in texts.items():
        values.update(_SETTINGS[key][1](text))
    out = values.pop("out", None)
    _, kind, handler, _ = _COMMANDS[args.command]
    fanned_out = KINDS[kind][0] if handler is _cmd_experiment else ()
    for grid, name in _GRID_NAMES.items():
        if grid not in fanned_out and len(values.get(grid, ())) > 1:
            raise ValueError(f"{args.command} takes one value of {name}")
    solver_values = {k: values.pop(k) for k in _SOLVER_FIELDS & values.keys()}
    spec = ExperimentSpec(kind=kind, solver_config=SolverConfig(**solver_values), **values)
    for key, reader in _SOLVER_ONLY.items():
        if key in texts and spec.solver != reader:
            raise ValueError(f"solver {spec.solver!r} reads no {key}; only {reader} does")
    return spec, out


# a handler prints what its command prints and returns its table unbuilt, for
# main to build only when --out asks for it
PendingTable = Callable[[], list[Row]]


def _cmd_solve(spec: ExperimentSpec) -> PendingTable:
    [cell] = cells(spec)
    stop = replace(cell_setup(spec, cell).config, tol_rel_err=spec.success_threshold)
    _, trace = solve_instance(make_instance(spec, cell, spec.base_seed), spec, stop)
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
    statistics = ("objective", "relative_error", "step_size", "matvecs")
    return lambda: result_table(
        ((("iteration", r.iteration),), s, getattr(r, s)) for r in trace.records for s in statistics
    )


def _cmd_experiment(spec: ExperimentSpec) -> PendingTable:
    records = run_trials(spec)
    reduce = KINDS[spec.kind][1]
    # the full convergence trace table is large; print per-cell final errors only
    convergence = spec.kind == "convergence"
    if convergence:
        shown = result_table(_per_cell(records, median_final_error=np.median))
    else:
        shown = reduce(spec, records)
    for config, statistic, value in shown:
        text = ";".join(f"{k}={v}" for k, v in config)
        print(f"{text}  {statistic} = {value:.10g}")
    return (lambda: reduce(spec, records)) if convergence else (lambda: shown)


def _cmd_rip_probe(spec: ExperimentSpec) -> PendingTable:
    [cell] = cells(spec)
    inst = make_instance(spec, cell, spec.base_seed)
    est = estimate_rip_constants(
        inst.op, inst.outlier_mask, samples=spec.trials, seed=spec.base_seed
    )
    print(f"c_lower      = {est.c_lower:.10g}")
    print(f"c_upper      = {est.c_upper:.10g}")
    print(f"c_outlier    = {est.c_outlier:.10g}")
    print(f"upper/lower  = {est.c_upper / est.c_lower:.10g}")
    print(f"samples      = {est.sample_count}")
    rows = [(cell, s, getattr(est, s)) for s in ("c_lower", "c_upper", "c_outlier")]
    return lambda: result_table([*rows, (cell, "samples", est.sample_count)])


# command -> (help, ExperimentSpec.kind, handler, the settings it reads besides
# the _SHARED ones); solve and rip-probe read the spec's one cell, so their
# kind is nominal
_COMMANDS: dict[str, tuple[str, str, Callable[[ExperimentSpec], PendingTable], str]] = {
    "solve": ("solve one instance, print the trace", "convergence", _cmd_solve,
              "solver q lambda beta init iters threshold"),
    "init": ("initialization accuracy table", "init", _cmd_experiment, "trials"),
    "converge": ("per-iteration error traces", "convergence", _cmd_experiment,
                 "trials solver q lambda beta init iters"),
    "phase": ("success-rate grid over (p_fail, c)", "phase", _cmd_experiment,
              "trials solver q lambda beta init iters threshold"),
    "sweep-q": ("decay-rate sweep, mean final error", "qsweep", _cmd_experiment,
                "trials q lambda init iters"),
    "rip-probe": ("landscape constants probe", "init", _cmd_rip_probe, "trials"),
}
# the instance settings and the CSV path, which every command reads
_SHARED = "d1 d2 c pfail noise left seed out"
_READS = {
    command: [key for key in _SETTINGS if key in f"{_SHARED} {row[3]}".split()]
    for command, row in _COMMANDS.items()
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bideconv",
        description="Robust rank-one bilinear recovery: solvers and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _, _) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.add_argument("--config", help="flat key=value settings file")
        for key in _READS[command]:
            command_parser.add_argument(f"--{key}", help=_SETTINGS[key][0])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec, out = _resolve(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        build_table = _COMMANDS[args.command][2](spec)
        if out is not None:
            rows = build_table()
            emit_csv(rows, out)
            print(f"wrote {len(rows)} rows to {out}")
    except (ValueError, OSError, RuntimeError) as exc:  # every setting was judged above
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
