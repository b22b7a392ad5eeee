"""Seeded Monte-Carlo experiments with CSV output.

An experiment runs ``trials`` trials in each cell of the grids its kind fans
out over.  ``run_trial`` does one trial's whole work and returns its
``TrialRecord``; ``trial_instance``, the one seeding rule, draws the trial's
instance from the base seed plus the cell's parameter VALUES (not grid
positions), so a record is a pure function of the spec, the cell and the
trial number: reordering, subsetting, or parallelizing the trials cannot
change any number in the output table.  ``KINDS`` maps each kind to its grids
and the reducer that turns the records of ``run_trials`` into a table, which
is all ``run_experiment`` does.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
                derive_seed(self.base_seed, self.kind, *values, 0)  # as trial_instance does
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
    """Initialize and solve one instance at decay rate ``q``.  A diverged run
    returns like any other, with ``trace.diverged`` set, for the caller to
    check."""
    start = initial_point(inst, spec.init)
    return SOLVER_FUNCTIONS[spec.solver](inst, start, replace(spec.solver_config, decay_q=q))


def trial_instance(spec: ExperimentSpec, cell: Config, trial: int) -> ProblemInstance:
    """The instance of trial ``trial`` of ``cell``.

    A cell is the config of the grids its kind fans out over, e.g.
    ``(("c", 8), ("p_fail", 0.25), ("sigma", 1.0))``; the other grids hold one
    value each.  The instance is drawn from
    ``derive_seed(base_seed, kind, *cell values, trial)``.
    """
    seed = derive_seed(spec.base_seed, spec.kind, *(value for _, value in cell), trial)
    return make_instance(spec, cell, seed)


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
    _, trace = solve_instance(inst, spec, _cell_values(spec, cell)["q"])
    return TrialRecord(cell, trial, inst.seed, trace, trace.final.relative_error)


def run_trials(spec: ExperimentSpec) -> list[TrialRecord]:
    """Every trial's record, cell by cell in grid order; a diverged solve
    raises RuntimeError, naming its instance seed, once its record exists."""
    grids = KINDS[spec.kind][0]
    records = []
    for values in itertools.product(*(getattr(spec, name) for name in grids)):
        cell: Config = tuple(zip((GRID_KEYS[name] for name in grids), values))
        for trial in range(spec.trials):
            records.append(record := run_trial(spec, cell, trial))
            if record.trace is not None and record.trace.diverged:
                raise RuntimeError(
                    f"solver diverged on instance seed {record.seed}: "
                    f"non-finite objective at iteration {record.trace.final.iteration}"
                )
    return records


def _per_cell(records: list[TrialRecord], **statistics) -> ResultTable:
    """A table of each named statistic, a function of a list of errors, of
    every cell's trial errors."""
    errors = defaultdict(list)
    for record in records:
        errors[record.cell].append(record.error)
    table = ResultTable()
    for cell, values in errors.items():
        for statistic, reduce in statistics.items():
            table.add(cell, statistic, reduce(values))
    return table


def _convergence_table(spec: ExperimentSpec, records: list[TrialRecord]) -> ResultTable:
    """Per-iteration error traces for every (c, p_fail, sigma, trial)."""
    table = ResultTable()
    for cell, trial, _, trace, _ in records:
        for r in trace.records:
            config = cell + (("trial", trial), ("iteration", r.iteration))
            for statistic in ("relative_error", "objective", "matvecs"):
                table.add(config, statistic, getattr(r, statistic))
    return table


def median_final_errors(spec: ExperimentSpec, records: list[TrialRecord]) -> ResultTable:
    """Each cell's median final relative error over its trials."""
    return _per_cell(records, median_final_error=np.median)


def _phase_table(spec: ExperimentSpec, records: list[TrialRecord]) -> ResultTable:
    """Success-rate grid over (c, p_fail, sigma): fraction of trials whose
    final relative error is at or below the success threshold, and the median
    final error."""

    def success_rate(errors: list[float]) -> float:
        return sum(error <= spec.success_threshold for error in errors) / spec.trials

    return _per_cell(records, success_rate=success_rate, median_final_error=np.median)


def _qsweep_table(spec: ExperimentSpec, records: list[TrialRecord]) -> ResultTable:
    """Mean final error of the geometric method per (c, q) cell, at the spec's
    one p_fail and sigma."""
    return _per_cell(records, mean_final_error=np.mean)


def _init_table(spec: ExperimentSpec, records: list[TrialRecord]) -> ResultTable:
    """Initialization accuracy per (c, p_fail, sigma) cell.

    Emits the per-trial direction errors (sign-invariant distance between the
    unit rank-one matrices) plus their per-cell median, the statistic used to
    judge robustness to growing corruption magnitude.
    """
    table = _per_cell(records, median_direction_error=np.median)
    for record in records:
        table.add(record.cell + (("trial", record.trial),), "direction_error", record.error)
    return table


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


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return KINDS[spec.kind][1](spec, run_trials(spec))


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
