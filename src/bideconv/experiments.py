"""Seeded Monte-Carlo experiments with CSV output.

A trial's instance is drawn from the base seed plus its cell's parameter
VALUES, not grid positions, so a record is a pure function of the spec, the
cell and the trial number: reordering, subsetting or parallelizing the trials
cannot change any number in the output.  Every table, an experiment's or a
command's, is the sorted list of (config, statistic, value) rows that
``result_table`` builds.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

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
    is_integer,
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

    The base seed is judged like every part.  Floats, NumPy's included,
    contribute their exact float64 bit pattern, so distinct values (including
    ones that print alike) give independent streams, while the same value
    always gives the same stream no matter where it sits in a grid.  Integers
    contribute their value and strings their bytes; any other part is refused.
    """
    entropy: list[int] = []
    for part in (base_seed, *parts):
        if isinstance(part, (bool, np.bool_)):  # np.bool_ is no bool subclass
            raise TypeError("booleans are ambiguous seed material")
        if isinstance(part, str):
            entropy.append(int.from_bytes(part.encode(), "little"))
        elif isinstance(part, (float, np.floating)):
            entropy.append(int(np.float64(part).view(np.uint64)))
        elif is_integer(part):
            entropy.append(int(part))
        else:
            raise TypeError(f"{part!r} is no seed material: give an int, float or str")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's full configuration; every field participates in seeding
    only through explicit ``derive_seed`` calls, never through global state.

    ``qs`` is the one home of the geometric decay rate: every solver runs at
    its cell's q, which is the spec's one ``qs`` value for a kind that does
    not fan out over q, so ``solver_config.decay_q`` must keep its default.
    Every name is a key of its ``CHOICES`` table.  Every cell's setup (by
    ``cell_setup``, as its trials build it), seed and Polyak minimal value are
    judged before any trial.
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
        if self.kind == "qsweep" and self.solver != "geometric":
            raise ValueError(f"a qsweep runs the geometric solver, got solver {self.solver!r}")
        setups = [cell_setup(self, cell) for cell in cells(self)]
        if not self.success_threshold > 0.0:
            raise ValueError("success_threshold must be positive")
        for cell in cells(self):
            try:
                trial_seed(self, cell, 0)
            except TypeError as exc:
                raise ValueError(f"cell {dict(zip(grids, (v for _, v in cell)))}: {exc}") from exc
        if self.solver == "polyak" and self.kind != "init":  # init runs no solver
            for m, noise, config in setups:
                polyak_min_value(config.min_value, corrupted_count(noise.p_fail, m))


Config = tuple[tuple[str, int | float | str], ...]
Row = tuple[Config, str, float]


def result_table(rows: Iterable[tuple[Config, str, int | float]]) -> list[Row]:
    """The rows as a table: each value a float, in the canonical order (by
    config, then statistic).  A (config, statistic) pair given twice is
    refused."""
    table = sorted((config, statistic, float(value)) for config, statistic, value in rows)
    for (config, statistic, _), (next_config, next_statistic, _) in itertools.pairwise(table):
        if statistic == next_statistic and config == next_config:
            raise ValueError(f"duplicate row for {config} / {statistic}")
    return table


def cells(spec: ExperimentSpec) -> Iterator[Config]:
    """Each cell's config, in grid order: the product of the grids its kind
    fans out over, e.g. ``(("c", 8), ("p_fail", 0.25), ("sigma", 1.0))``."""
    items = ([(GRID_KEYS[name], v) for v in getattr(spec, name)] for name in KINDS[spec.kind][0])
    return itertools.product(*items)


class CellSetup(NamedTuple):
    """What every trial of a cell runs with."""

    m: int
    noise: NoiseSpec
    config: SolverConfig  # the spec's, at the cell's decay rate


def cell_setup(spec: ExperimentSpec, cell: Config) -> CellSetup:
    """The setup of ``cell``, which takes the spec's one value of every grid it
    does not name: m = c(d1 + d2) and the noise, judged by the model's own
    rules (``check_instance_shape`` and ``NoiseSpec``), and the solver config
    at the cell's q."""
    at = {key: getattr(spec, name)[0] for name, key in GRID_KEYS.items()} | dict(cell)
    config = replace(spec.solver_config, decay_q=at["q"])
    m = at["c"] * (spec.d1 + spec.d2)
    check_instance_shape(spec.d1, spec.d2, m, spec.left)
    return CellSetup(m, NoiseSpec(at["p_fail"], NOISE_KINDS[spec.noise_kind], at["sigma"]), config)


def make_instance(spec: ExperimentSpec, cell: Config, seed: int) -> ProblemInstance:
    """The instance of ``cell`` drawn from ``seed`` with the spec's sizes and
    left side."""
    m, noise, _ = cell_setup(spec, cell)
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
    inst: ProblemInstance, spec: ExperimentSpec, config: SolverConfig
) -> tuple[SignalPair, Trace]:
    """Start from the spec's init and run its solver with ``config``.  A
    diverged run returns like any other, with ``trace.diverged`` set, for the
    caller to check."""
    return SOLVER_FUNCTIONS[spec.solver](inst, initial_point(inst, spec.init), config)


def trial_seed(spec: ExperimentSpec, cell: Config, trial: int) -> int:
    """The instance seed of trial ``trial`` of ``cell``."""
    return derive_seed(spec.base_seed, spec.kind, *(value for _, value in cell), trial)


def trial_instance(spec: ExperimentSpec, cell: Config, trial: int) -> ProblemInstance:
    """The instance of trial ``trial`` of ``cell``, drawn from its ``trial_seed``."""
    return make_instance(spec, cell, trial_seed(spec, cell, trial))


class TrialRecord(NamedTuple):
    """One trial's outcome, as ``run_trial`` returns it; it pickles, so it can
    come back from another process."""

    cell: Config
    trial: int
    seed: int  # the instance's
    trace: Trace | None  # None for an init trial, which runs no solver
    error: float  # the final relative error; an init trial's direction error


def run_trial(spec: ExperimentSpec, cell: Config, trial: int) -> TrialRecord:
    """Trial ``trial`` of ``cell``, a pure function of its arguments: an init
    trial measures the spectral start, any other solves at its cell's q."""
    inst = trial_instance(spec, cell, trial)
    if spec.kind == "init":
        est = spectral_initialize(inst)
        error = direction_error(est.w_dir, est.x_dir, inst.truth)
        return TrialRecord(cell, trial, inst.seed, None, error)
    _, trace = solve_instance(inst, spec, cell_setup(spec, cell).config)
    return TrialRecord(cell, trial, inst.seed, trace, trace.final.relative_error)


def run_trials(spec: ExperimentSpec) -> list[TrialRecord]:
    """Every trial's record, cell by cell in grid order; a diverged solve
    raises RuntimeError, naming its instance seed, once its record exists."""
    records = []
    for cell in cells(spec):
        for trial in range(spec.trials):
            records.append(record := run_trial(spec, cell, trial))
            if record.trace is not None and record.trace.diverged:
                raise RuntimeError(
                    f"solver diverged on instance seed {record.seed}: "
                    f"non-finite objective at iteration {record.trace.final.iteration}"
                )
    return records


def _per_cell(records: list[TrialRecord], **statistics) -> Iterator[tuple[Config, str, float]]:
    """The rows of each named statistic, a function of a list of errors, of
    every cell's trial errors, for ``result_table``."""
    errors = defaultdict(list)
    for record in records:
        errors[record.cell].append(record.error)
    for cell, values in errors.items():
        for statistic, reduce in statistics.items():
            yield cell, statistic, reduce(values)


def _convergence_table(spec: ExperimentSpec, records: list[TrialRecord]) -> list[Row]:
    """Per-iteration error traces for every (c, p_fail, sigma, trial)."""
    rows = []
    for cell, trial, _, trace, _ in records:
        for r in trace.records:
            config = cell + (("trial", trial), ("iteration", r.iteration))
            rows += [(config, s, getattr(r, s)) for s in ("relative_error", "objective", "matvecs")]
    return result_table(rows)


def _phase_table(spec: ExperimentSpec, records: list[TrialRecord]) -> list[Row]:
    """Success-rate grid over (c, p_fail, sigma): fraction of trials whose
    final relative error is at or below the success threshold, and the median
    final error."""

    def success_rate(errors: list[float]) -> float:
        return sum(error <= spec.success_threshold for error in errors) / spec.trials

    return result_table(_per_cell(records, success_rate=success_rate, median_final_error=np.median))


def _qsweep_table(spec: ExperimentSpec, records: list[TrialRecord]) -> list[Row]:
    """Mean final error of the geometric method per (c, q) cell, at the spec's
    one p_fail and sigma."""
    return result_table(_per_cell(records, mean_final_error=np.mean))


def _init_table(spec: ExperimentSpec, records: list[TrialRecord]) -> list[Row]:
    """Each trial's direction error (the sign-invariant distance between the
    unit rank-one matrices) and each (c, p_fail, sigma) cell's median of them."""
    trial_rows = [(r.cell + (("trial", r.trial),), "direction_error", r.error) for r in records]
    return result_table([*_per_cell(records, median_direction_error=np.median), *trial_rows])


# kind -> (the grids it fans out over, the reducer of its trial records to a
# table); a kind runs at the one value of every other grid
KINDS = {
    "convergence": (("m_ratios", "p_fails", "sigmas"), _convergence_table),
    "phase": (("m_ratios", "p_fails", "sigmas"), _phase_table),
    "qsweep": (("m_ratios", "qs"), _qsweep_table),
    "init": (("m_ratios", "p_fails", "sigmas"), _init_table),
}


# ExperimentSpec field -> the table whose keys are its valid names
CHOICES = {"kind": KINDS, "solver": SOLVER_FUNCTIONS, "init": STARTS, "noise_kind": NOISE_KINDS,
           "left": LEFT_SIDES}


def run_experiment(spec: ExperimentSpec) -> list[Row]:
    return KINDS[spec.kind][1](spec, run_trials(spec))


def _format_value(value: int | float | str) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def emit_csv(table: list[Row], path) -> None:
    """Write a ``result_table`` as ``config,statistic,value`` rows, in the
    canonical order the table carries.

    Floats carry 17 significant digits, enough to round-trip float64 exactly,
    so equal tables produce byte-identical files.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["config", "statistic", "value"])
            for config, rows in itertools.groupby(table, key=lambda row: row[0]):
                text = ";".join(f"{k}={_format_value(v)}" for k, v in config)
                writer.writerows([text, statistic, "%.17g" % value] for _, statistic, value in rows)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
