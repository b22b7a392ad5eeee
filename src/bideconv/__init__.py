"""Bilinear deconvolution under gross corruption: sensing models, sharp
nonsmooth solvers, and robust spectral initialization."""

from __future__ import annotations

from .experiments import (
    ExperimentSpec,
    derive_seed,
    emit_csv,
    result_table,
    run_experiment,
)
from .geometry import (
    FeasibleRegion,
    SolutionSet,
    dist_to_solution_set,
    estimate_rip_constants,
    relative_error,
)
from .linops import (
    DenseOperator,
    DimensionError,
    HadamardSignOperator,
    MeasurementOperator,
    fwht,
)
from .model import (
    GroundTruth,
    NoiseSpec,
    ProblemInstance,
    SignalPair,
    generate_instance,
    objective_and_subgradient,
)
from .solvers import (
    SolverConfig,
    Trace,
    geometric_subgradient,
    polyak_subgradient,
    prox_linear,
)
from .spectral_init import InitEstimate, spectral_initialize

__version__ = "0.1.0"

__all__ = [
    "DenseOperator",
    "DimensionError",
    "ExperimentSpec",
    "FeasibleRegion",
    "GroundTruth",
    "HadamardSignOperator",
    "InitEstimate",
    "MeasurementOperator",
    "NoiseSpec",
    "ProblemInstance",
    "SignalPair",
    "SolutionSet",
    "SolverConfig",
    "Trace",
    "derive_seed",
    "dist_to_solution_set",
    "emit_csv",
    "estimate_rip_constants",
    "fwht",
    "generate_instance",
    "geometric_subgradient",
    "objective_and_subgradient",
    "polyak_subgradient",
    "prox_linear",
    "relative_error",
    "result_table",
    "run_experiment",
    "spectral_initialize",
    "__version__",
]
