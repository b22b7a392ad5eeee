"""Seeded Monte-Carlo experiment drivers with CSV output.

``KINDS`` maps each experiment kind to the grids it fans out over and the
runner that reduces its trials to a table.  ``trial_instances`` is the one
place trials are seeded: it enumerates a spec's cells and trials and draws
each trial's instance from the base seed plus the cell's parameter VALUES
(not grid positions), so a cell's result is a pure function of its
configuration: reordering, subsetting, or parallelizing the grid cannot
change any number in the output table.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .model import (
    LEFT_SIDES,
    NoiseSpec,
    ProblemInstance,
    SignalPair,
    check_instance_shape,
    check_seed,
    corrupted_count,
    generate_instance,
    is_count,
    pick,
)
from .solvers import (
    SolverConfig,
    Trace,
    geometric_subgradient,
    polyak_min_value,
    polyak_subgradient,
    prox_linear,
)
from .spectral_init import direction_error, spectral_initialize

SOLVER_FUNCTIONS = {
    "polyak": polyak_subgradient,
    "geometric": geometric_subgradient,
    "proxlinear": prox_linear,
}

# ExperimentSpec grid field -> its key in a cell's config
GRID_KEYS = {"m_ratios": "c", "p_fails": "p_fail", "sigmas": "sigma", "qs": "q"}
# ExperimentSpec.noise_kind -> the NoiseSpec kind it draws
NOISE_KINDS = {"n1": "gaussian", "n2": "implant"}


def derive_seed(base_seed: int, *parts: int | float | str) -> int:
    """Collapse a base seed plus heterogeneous cell coordinates into one seed.

    The base seed is judged like every part.  Floats contribute their exact
    bit pattern, so distinct values (including ones that print alike) give
    independent streams, while the same value always gives the same stream
    no matter where it sits in a grid.
    """
    entropy: list[int] = []
    for part in (base_seed, *parts):
        if isinstance(part, (bool, np.bool_)):  # np.bool_ is no bool subclass
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
    only through explicit ``derive_seed`` calls, never through global state.

    ``qs`` is the one home of the geometric decay rate: every solver runs at
    its cell's q, which is the spec's one ``qs`` value for a kind that does
    not fan out over q, so ``solver_config.decay_q`` must keep its default.
    Every name is a key of its ``CHOICES`` table, and every cell's shape,
    noise, decay rate, seed and Polyak minimal value are judged before any trial.
    """

    kind: str
    d1: int = 100
    d2: int = 100
    m_ratios: tuple[int, ...] = (8,)
    p_fails: tuple[float, ...] = (0.0,)
    trials: int = 20
    base_seed: int = 0
    solver: str = "polyak"
    success_threshold: float = 1e-5
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    init: str = "spectral"
    noise_kind: str = "n1"
    sigmas: tuple[float, ...] = (1.0,)
    left: str = "gaussian"
    qs: tuple[float, ...] = (SolverConfig.decay_q,)

    def __post_init__(self) -> None:
        if not is_count(self.trials):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        check_seed(self.base_seed, "the base seed")
        for name, table in CHOICES.items():
            pick(table, getattr(self, name), name)
        grids = KINDS[self.kind][0]
        for name in GRID_KEYS:
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if len(set(grid)) < len(grid):
                raise ValueError(f"{name} repeats a value")
            if name not in grids and len(grid) > 1:
                raise ValueError(f"a {self.kind} runs at one value of {name}, got {len(grid)}")
        if self.solver_config.decay_q != SolverConfig.decay_q:
            raise ValueError(
                f"set the decay rate in qs, not solver_config.decay_q={self.solver_config.decay_q}"
            )
        for q in self.qs:
            replace(self.solver_config, decay_q=q)
        if self.kind == "qsweep" and self.solver != "geometric":
            raise ValueError(f"a qsweep runs the geometric solver, got solver {self.solver!r}")
        cells = itertools.product(self.m_ratios, self.p_fails, self.sigmas)
        shapes = [_m_noise(self, *cell) for cell in cells]
        if not self.success_threshold > 0.0:
            raise ValueError("success_threshold must be positive")
        for values in itertools.product(*(getattr(self, name) for name in grids)):
            try:
                derive_seed(self.base_seed, self.kind, *values, 0)  # as trial_instances does
            except TypeError as exc:
                raise ValueError(f"cell {dict(zip(grids, values))}: {exc}") from exc
        if self.solver == "polyak" and self.kind != "init":  # init runs no solver
            for m, noise in shapes:
                polyak_min_value(self.solver_config.min_value, corrupted_count(noise.p_fail, m))


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


def _m_noise(spec: ExperimentSpec, c: int, p_fail: float, sigma: float) -> tuple[int, NoiseSpec]:
    """A cell's m = c(d1 + d2) and noise, judged by the model's own rules:
    ``check_instance_shape`` and ``NoiseSpec``."""
    m = c * (spec.d1 + spec.d2)
    check_instance_shape(spec.d1, spec.d2, m, spec.left)
    return m, NoiseSpec(p_fail, kind=NOISE_KINDS[spec.noise_kind], sigma=sigma)


def _cell_values(spec: ExperimentSpec, cell: Config) -> dict[str, int | float]:
    """Every grid key's value in ``cell``: the cell's own, or the spec's one
    value of a grid the cell does not name."""
    return {key: getattr(spec, name)[0] for name, key in GRID_KEYS.items()} | dict(cell)


def make_instance(spec: ExperimentSpec, cell: Config, seed: int) -> ProblemInstance:
    """The instance of ``cell`` drawn from ``seed`` with the spec's sizes,
    left side and noise model."""
    at = _cell_values(spec, cell)
    m, noise = _m_noise(spec, at["c"], at["p_fail"], at["sigma"])
    return generate_instance(spec.d1, spec.d2, m, left=spec.left, noise=noise, seed=seed)


def _spectral_start(inst: ProblemInstance) -> SignalPair:
    est = spectral_initialize(inst)
    return SignalPair(w=est.w0, x=est.x0)


def _random_heuristic_start(inst: ProblemInstance) -> SignalPair:
    """Uniform directions rescaled by the true magnitude, then a single
    value-gap step (with target value 0, a heuristic under corruption) to
    pull the random point toward the measurement-consistent set."""
    rng = np.random.default_rng(derive_seed(inst.seed, "random-heuristic"))
    root = math.sqrt(inst.truth.magnitude)
    dw = rng.standard_normal(inst.d1)
    dx = rng.standard_normal(inst.d2)
    start = SignalPair(w=root * dw / np.linalg.norm(dw), x=root * dx / np.linalg.norm(dx))
    return polyak_subgradient(inst, start, SolverConfig(max_iters=1, min_value=0.0))[0]


# start name -> its function of the instance; ``spectral`` is the robust pipeline
STARTS = {"spectral": _spectral_start, "random-heuristic": _random_heuristic_start}


def initial_point(inst: ProblemInstance, init: str) -> SignalPair:
    """Starting point for a solver run from the ``STARTS`` entry ``init``."""
    return pick(STARTS, init, "init")(inst)


def solve_instance(
    inst: ProblemInstance, spec: ExperimentSpec, q: float
) -> tuple[SignalPair, Trace]:
    """Initialize and solve one instance at decay rate ``q``; a diverged run
    raises RuntimeError."""
    start = initial_point(inst, spec.init)
    cfg = replace(spec.solver_config, decay_q=q)
    point, trace = SOLVER_FUNCTIONS[spec.solver](inst, start, cfg)
    if trace.diverged:
        raise RuntimeError(
            f"solver diverged on instance seed {inst.seed}: "
            f"non-finite objective at iteration {trace.final.iteration}"
        )
    return point, trace


def trial_instances(spec: ExperimentSpec) -> Iterator[tuple[Config, int, ProblemInstance]]:
    """Every ``(cell, trial, instance)`` of the spec, cell by cell in grid order.

    A cell is the config of the grids its kind fans out over, e.g.
    ``(("c", 8), ("p_fail", 0.25), ("sigma", 1.0))``; the other grids hold one
    value each.  Trial ``t`` of a cell draws its instance from
    ``derive_seed(base_seed, kind, *cell values, t)``.
    """
    grids = KINDS[spec.kind][0]
    for values in itertools.product(*(getattr(spec, name) for name in grids)):
        cell: Config = tuple(zip((GRID_KEYS[name] for name in grids), values))
        for trial in range(spec.trials):
            seed = derive_seed(spec.base_seed, spec.kind, *values, trial)
            yield cell, trial, make_instance(spec, cell, seed)


def run_convergence(spec: ExperimentSpec) -> ResultTable:
    """Per-iteration error traces for every (c, p_fail, sigma, trial)."""
    table = ResultTable()
    for cell, trial, inst in trial_instances(spec):
        _, trace = solve_instance(inst, spec, _cell_values(spec, cell)["q"])
        for record in trace.records:
            config = cell + (("trial", trial), ("iteration", record.iteration))
            table.add(config, "relative_error", record.relative_error)
            table.add(config, "objective", record.objective)
            table.add(config, "matvecs", record.matvecs)
    return table


def _final_errors(spec: ExperimentSpec) -> dict[Config, list[float]]:
    """Each cell's final relative errors, every trial solved at its cell's q."""
    finals = defaultdict(list)
    for cell, _, inst in trial_instances(spec):
        _, trace = solve_instance(inst, spec, _cell_values(spec, cell)["q"])
        finals[cell].append(trace.final.relative_error)
    return finals


def run_phase_transition(spec: ExperimentSpec) -> ResultTable:
    """Success-rate grid over (c, p_fail, sigma): fraction of trials whose
    final relative error is at or below the success threshold."""
    table = ResultTable()
    for cell, errors in _final_errors(spec).items():
        successes = sum(error <= spec.success_threshold for error in errors)
        table.add(cell, "success_rate", successes / spec.trials)
        table.add(cell, "median_final_error", float(np.median(errors)))
    return table


def run_q_sweep(spec: ExperimentSpec) -> ResultTable:
    """Mean final error of the geometric method per (c, q) cell, each cell's
    trials run at its q, at the spec's p_fail and sigma (a qsweep spec holds
    one of each and names the geometric solver)."""
    table = ResultTable()
    for cell, errors in _final_errors(spec).items():
        table.add(cell, "mean_final_error", float(np.mean(errors)))
    return table


def run_init_quality(spec: ExperimentSpec) -> ResultTable:
    """Initialization accuracy per (c, p_fail, sigma) cell.

    Emits the per-trial direction errors (sign-invariant distance between the
    unit rank-one matrices) plus their per-cell median, the statistic used to
    judge robustness to growing corruption magnitude.
    """
    table = ResultTable()
    errors = defaultdict(list)
    for cell, trial, inst in trial_instances(spec):
        est = spectral_initialize(inst)
        err = direction_error(est.w_dir, est.x_dir, inst.truth)
        errors[cell].append(err)
        table.add(cell + (("trial", trial),), "direction_error", err)
    for cell, cell_errors in errors.items():
        table.add(cell, "median_direction_error", float(np.median(cell_errors)))
    return table


# kind -> (the grids it fans out over, its runner); a kind runs at the one
# value of every other grid
KINDS = {
    "convergence": (("m_ratios", "p_fails", "sigmas"), run_convergence),
    "phase": (("m_ratios", "p_fails", "sigmas"), run_phase_transition),
    "qsweep": (("m_ratios", "qs"), run_q_sweep),
    "init": (("m_ratios", "p_fails", "sigmas"), run_init_quality),
}


# ExperimentSpec field -> the table whose keys are its valid names
CHOICES = {"kind": KINDS, "solver": SOLVER_FUNCTIONS, "init": STARTS, "noise_kind": NOISE_KINDS,
           "left": LEFT_SIDES}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return KINDS[spec.kind][1](spec)


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
