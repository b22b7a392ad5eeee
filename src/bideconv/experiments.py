"""Seeded Monte-Carlo experiment drivers with CSV output.

Every trial's randomness derives from the base seed plus the cell's parameter
VALUES (not grid positions), so a cell's result is a pure function of its
configuration: reordering, subsetting, or parallelizing the grid cannot change
any number in the output table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Literal

import numpy as np

from .model import (
    NoiseSpec,
    ProblemInstance,
    SignalPair,
    generate_instance,
)
from .solvers import (
    SolverConfig,
    Trace,
    geometric_subgradient,
    polyak_subgradient,
    prox_linear,
)
from .spectral_init import direction_error, spectral_initialize

SolverName = Literal["polyak", "geometric", "proxlinear"]
InitName = Literal["spectral", "random-heuristic"]
Kind = Literal["convergence", "phase", "qsweep", "init"]

SOLVER_FUNCTIONS = {
    "polyak": polyak_subgradient,
    "geometric": geometric_subgradient,
    "proxlinear": prox_linear,
}


def derive_seed(base_seed: int, *parts: int | float | str) -> int:
    """Collapse a base seed plus heterogeneous cell coordinates into one seed.

    Floats contribute their exact bit pattern, so distinct values (including
    ones that print alike) give independent streams, while the same value
    always gives the same stream no matter where it sits in a grid.
    """
    entropy: list[int] = [int(base_seed)]
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("booleans are ambiguous seed material")
        if isinstance(part, str):
            entropy.append(int.from_bytes(part.encode(), "little"))
        elif isinstance(part, float):
            entropy.append(int(np.float64(part).view(np.uint64)))
        else:
            entropy.append(int(part))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's full configuration; every field participates in seeding
    only through explicit ``derive_seed`` calls, never through global state."""

    kind: Kind
    d1: int = 100
    d2: int = 100
    m_ratios: tuple[int, ...] = (8,)
    p_fails: tuple[float, ...] = (0.0,)
    trials: int = 20
    base_seed: int = 0
    solver: SolverName = "polyak"
    success_threshold: float = 1e-5
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    init: InitName = "spectral"
    noise_kind: Literal["n1", "n2"] = "n1"
    sigmas: tuple[float, ...] = (1.0,)
    left: Literal["gaussian", "hadamard"] = "gaussian"
    qs: tuple[float, ...] = (0.98,)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("dimensions must be positive")
        for name, grid in (
            ("m_ratios", self.m_ratios),
            ("p_fails", self.p_fails),
            ("sigmas", self.sigmas),
            ("qs", self.qs),
        ):
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if self.kind == "qsweep" and name in ("p_fails", "sigmas") and len(grid) > 1:
                raise ValueError(f"a qsweep runs at one value of {name}, got {len(grid)}")
        if self.solver not in SOLVER_FUNCTIONS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.init not in ("spectral", "random-heuristic"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.left not in ("gaussian", "hadamard"):
            raise ValueError(f"left operator must be gaussian or hadamard, got {self.left!r}")
        if not self.success_threshold > 0.0:
            raise ValueError("success_threshold must be positive")


Config = tuple[tuple[str, int | float | str], ...]


@dataclass(frozen=True)
class ResultRow:
    config: Config
    statistic: str
    value: float


class ResultTable:
    """Append-only (config, statistic) -> value store with a canonical order."""

    def __init__(self) -> None:
        self.rows: list[ResultRow] = []
        self._seen: set[tuple[Config, str]] = set()

    def add(self, config: Config, statistic: str, value: float) -> None:
        key = (config, statistic)
        if key in self._seen:
            raise ValueError(f"duplicate row for {config} / {statistic}")
        self._seen.add(key)
        self.rows.append(ResultRow(config=config, statistic=statistic, value=float(value)))

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(self.rows, key=lambda r: (r.config, r.statistic))

    def values(self, statistic: str, **match: int | float | str) -> list[float]:
        """All values of one statistic whose config contains the given items."""
        wanted = set(match.items())
        return [
            r.value
            for r in self.sorted_rows()
            if r.statistic == statistic and wanted <= set(r.config)
        ]


def _noise(spec: ExperimentSpec, p_fail: float, sigma: float) -> NoiseSpec | None:
    if p_fail == 0.0:
        return None
    if spec.noise_kind == "n1":
        return NoiseSpec.gaussian(p_fail, sigma=sigma)
    return NoiseSpec.implanted(p_fail)


def make_instance(
    spec: ExperimentSpec, c: int, p_fail: float, sigma: float, seed: int
) -> ProblemInstance:
    """The instance of cell (c, p_fail, sigma) drawn from ``seed``: m = c(d1 + d2)
    measurements with the spec's left side and noise model."""
    return generate_instance(
        spec.d1,
        spec.d2,
        c * (spec.d1 + spec.d2),
        left=spec.left,
        noise=_noise(spec, p_fail, sigma),
        seed=seed,
    )


def initial_point(inst: ProblemInstance, init: InitName) -> SignalPair:
    """Starting point for a solver run.

    ``spectral`` is the robust pipeline.  ``random-heuristic`` draws uniform
    directions, rescales both factors by the true magnitude, and takes a
    single value-gap step (with target value 0, a heuristic under corruption)
    to pull the random point toward the measurement-consistent set.
    """
    if init == "spectral":
        est = spectral_initialize(inst)
        return SignalPair(w=est.w0, x=est.x0)
    rng = np.random.default_rng(derive_seed(inst.seed, "random-heuristic"))
    root = math.sqrt(inst.truth.magnitude)
    dw = rng.standard_normal(inst.d1)
    dx = rng.standard_normal(inst.d2)
    start = SignalPair(
        w=root * dw / np.linalg.norm(dw), x=root * dx / np.linalg.norm(dx)
    )
    one_step = SolverConfig(max_iters=1, min_value=0.0, stall_window=None)
    pulled, _ = polyak_subgradient(inst, start, one_step)
    return pulled


def solve_instance(
    inst: ProblemInstance, spec: ExperimentSpec, cfg: SolverConfig | None = None
) -> tuple[SignalPair, Trace]:
    """Initialize and solve one instance; a diverged run raises RuntimeError."""
    start = initial_point(inst, spec.init)
    point, trace = SOLVER_FUNCTIONS[spec.solver](
        inst, start, cfg if cfg is not None else spec.solver_config
    )
    if trace.diverged:
        raise RuntimeError(
            f"solver diverged on instance seed {inst.seed}: "
            f"non-finite objective at iteration {trace.final.iteration}"
        )
    return point, trace


def _cells(spec: ExperimentSpec) -> Iterable[tuple[int, float, float]]:
    for c in spec.m_ratios:
        for p_fail in spec.p_fails:
            for sigma in spec.sigmas:
                yield c, p_fail, sigma


def run_convergence(spec: ExperimentSpec) -> ResultTable:
    """Per-iteration error traces for every (c, p_fail, trial)."""
    table = ResultTable()
    for c, p_fail, sigma in _cells(spec):
        for trial in range(spec.trials):
            seed = derive_seed(spec.base_seed, "convergence", c, p_fail, sigma, trial)
            inst = make_instance(spec, c, p_fail, sigma, seed)
            _, trace = solve_instance(inst, spec)
            for record in trace.records:
                config: Config = (
                    ("c", c),
                    ("p_fail", p_fail),
                    ("sigma", sigma),
                    ("trial", trial),
                    ("iteration", record.iteration),
                )
                table.add(config, "relative_error", record.relative_error)
                table.add(config, "objective", record.objective)
                table.add(config, "matvecs", record.matvecs)
    return table


def run_phase_transition(spec: ExperimentSpec) -> ResultTable:
    """Success-rate grid over (c, p_fail): fraction of trials whose final
    relative error is at or below the success threshold."""
    table = ResultTable()
    for c, p_fail, sigma in _cells(spec):
        successes = 0
        finals = []
        for trial in range(spec.trials):
            seed = derive_seed(spec.base_seed, "phase", c, p_fail, sigma, trial)
            inst = make_instance(spec, c, p_fail, sigma, seed)
            _, trace = solve_instance(inst, spec)
            finals.append(trace.final.relative_error)
            if trace.final.relative_error <= spec.success_threshold:
                successes += 1
        config: Config = (("c", c), ("p_fail", p_fail), ("sigma", sigma))
        table.add(config, "success_rate", successes / spec.trials)
        table.add(config, "median_final_error", float(np.median(finals)))
    return table


def run_q_sweep(spec: ExperimentSpec) -> ResultTable:
    """Mean final error of the decaying-step method per (q, c) cell, at the
    spec's p_fail and sigma (a qsweep spec holds one of each)."""
    table = ResultTable()
    p_fail, sigma = spec.p_fails[0], spec.sigmas[0]
    geometric = replace(spec, solver="geometric")
    for c in spec.m_ratios:
        for q in spec.qs:
            finals = []
            for trial in range(spec.trials):
                seed = derive_seed(spec.base_seed, "qsweep", c, q, trial)
                inst = make_instance(spec, c, p_fail, sigma, seed)
                cfg = replace(spec.solver_config, decay_q=q)
                _, trace = solve_instance(inst, geometric, cfg)
                finals.append(trace.final.relative_error)
            table.add((("c", c), ("q", q)), "mean_final_error", float(np.mean(finals)))
    return table


def run_init_quality(spec: ExperimentSpec) -> ResultTable:
    """Initialization accuracy per (c, p_fail, sigma) cell.

    Emits the per-trial direction errors (sign-invariant distance between the
    unit rank-one matrices) plus their per-cell median, the statistic used to
    judge robustness to growing corruption magnitude.
    """
    table = ResultTable()
    for c, p_fail, sigma in _cells(spec):
        errors = []
        for trial in range(spec.trials):
            seed = derive_seed(spec.base_seed, "init", c, p_fail, sigma, trial)
            inst = make_instance(spec, c, p_fail, sigma, seed)
            est = spectral_initialize(inst)
            err = direction_error(est.w_dir, est.x_dir, inst.truth)
            errors.append(err)
            table.add(
                (("c", c), ("p_fail", p_fail), ("sigma", sigma), ("trial", trial)),
                "direction_error",
                err,
            )
        table.add(
            (("c", c), ("p_fail", p_fail), ("sigma", sigma)),
            "median_direction_error",
            float(np.median(errors)),
        )
    return table


_RUNNERS = {
    "convergence": run_convergence,
    "phase": run_phase_transition,
    "qsweep": run_q_sweep,
    "init": run_init_quality,
}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return _RUNNERS[spec.kind](spec)


def _format_value(value: int | float | str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def emit_csv(table: ResultTable, path) -> None:
    """Write ``config,statistic,value`` rows in canonical order.

    Floats carry 17 significant digits, enough to round-trip float64 exactly,
    and rows are sorted by (config, statistic), so equal tables produce
    byte-identical files.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["config", "statistic", "value"])
            for row in table.sorted_rows():
                config = ";".join(f"{k}={_format_value(v)}" for k, v in row.config)
                writer.writerow([config, row.statistic, "%.17g" % row.value])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
