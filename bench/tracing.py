"""In-memory spans around the package's layer functions.

``SpanRecorder.installed()`` replaces each function in ``TARGETS`` at the name
its caller looks it up by (a module global or a class attribute) with a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  The package itself is not modified, and the
originals are restored when the context exits.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Iterator

import numpy as np

from bideconv import linops, model, solvers, spectral_init

TARGETS = (
    (linops.DenseOperator, "apply_forward", "linops.dense_product"),
    (linops.DenseOperator, "apply_transpose", "linops.dense_product"),
    (linops.HadamardSignOperator, "apply_forward", "linops.hadamard_product"),
    (linops.HadamardSignOperator, "apply_transpose", "linops.hadamard_product"),
    (linops, "fwht", "linops.fwht"),
    (linops.DenseOperator, "rows", "linops.rows"),
    (linops.HadamardSignOperator, "rows", "linops.rows"),
    (model, "generate_instance", "model.generate"),
    (solvers, "objective_and_subgradient", "model.subgrad"),
    (solvers, "linearized_residual_operator", "model.linearize"),
    (solvers, "geometric_subgradient", "solvers.loop"),
    (solvers, "prox_linear", "solvers.loop"),
    (solvers, "admm_lad_prox", "solvers.admm"),
    (solvers, "cho_factor", "solvers.chol_factor"),
    (solvers, "cho_solve", "solvers.chol_solve"),
    (solvers, "relative_error", "geometry.oracle"),
    (solvers, "dist_to_solution_set", "geometry.oracle"),
    (spectral_init, "spectral_initialize", "spectral_init.pipeline"),
    (spectral_init, "select_inliers", "spectral_init.select"),
    (spectral_init, "build_direction_matrices", "spectral_init.moments"),
    (spectral_init, "min_eigenvector", "spectral_init.eig"),
    (spectral_init, "lad_scalar_fit", "spectral_init.fit"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
PRODUCT_SPANS = ("linops.dense_product", "linops.hadamard_product")


class SpanRecorder:
    """Spans stored column-wise in flat arrays, in call-start order."""

    def __init__(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrappers = [
            (owner, attr, self._wrap(SPAN_NAMES.index(name), vars(owner)[attr]))
            for owner, attr, name in TARGETS
        ]

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, nid: int, fn):
        name_id, parent, start, end, stack = (
            self.name_id,
            self.parent,
            self.start,
            self.end,
            self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
        try:
            for owner, attr, wrapper in self._wrappers:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def summarize(self, begin: int, stop: int) -> dict[str, np.ndarray]:
        """Per-name call count, inclusive time and self time of spans [begin, stop)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[begin:stop]
        parents = np.frombuffer(self.parent, dtype=np.int32)[begin:stop] - begin
        duration = (
            np.frombuffer(self.end, dtype=np.float64)[begin:stop]
            - np.frombuffer(self.start, dtype=np.float64)[begin:stop]
        )
        child = parents >= 0
        self_time = duration - np.bincount(
            parents[child], weights=duration[child], minlength=duration.size
        )
        width = len(SPAN_NAMES)
        return {
            "calls": np.bincount(names, minlength=width),
            "inclusive_s": np.bincount(names, weights=duration, minlength=width),
            "self_s": np.bincount(names, weights=self_time, minlength=width),
            "root_s": float(duration[~child].sum()),
        }

    def save(self, path, trial_offsets: list[int]) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            trial_offsets=np.array(trial_offsets, dtype=np.int64),
        )


def layer_metrics(
    summary: dict[str, np.ndarray],
    *,
    passes: int,
    products: int,
    m: int,
    d: int,
    outer_iters: int,
    inner_iters: int,
    converged_calls: int,
    generate_s: float,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, per pass over the panel.

    ``summary`` holds the summed span statistics of every traced trial.
    Metrics named ``*_self_s`` are self times; every other ``*_s`` is the
    inclusive time of its spans.
    """

    def col(key: str, name: str) -> float:
        return float(summary[key][SPAN_NAMES.index(name)])

    def per_pass(value: float) -> float:
        return value / passes

    dense_s = col("inclusive_s", "linops.dense_product")
    dense_calls = col("calls", "linops.dense_product")
    admm_calls = col("calls", "solvers.admm")
    admm_s = col("inclusive_s", "solvers.admm")
    return {
        "linops.products": (per_pass(products), "count"),
        "linops.dense_product_s": (per_pass(dense_s), "s"),
        "linops.dense_gflop_s": (2.0 * m * d * dense_calls / dense_s / 1e9 if dense_s else 0.0, "GFLOP/s"),
        "linops.hadamard_product_s": (per_pass(col("inclusive_s", "linops.hadamard_product")), "s"),
        "linops.fwht_s": (per_pass(col("inclusive_s", "linops.fwht")), "s"),
        "linops.rows_s": (per_pass(col("inclusive_s", "linops.rows")), "s"),
        "model.subgrad_calls": (per_pass(col("calls", "model.subgrad")), "count"),
        "model.subgrad_self_s": (per_pass(col("self_s", "model.subgrad")), "s"),
        "model.linearize_calls": (per_pass(col("calls", "model.linearize")), "count"),
        "model.linearize_self_s": (per_pass(col("self_s", "model.linearize")), "s"),
        "model.generate_s": (generate_s, "s"),
        "solvers.outer_iters": (per_pass(outer_iters), "count"),
        "solvers.loop_self_s": (per_pass(col("self_s", "solvers.loop")), "s"),
        "solvers.admm_calls": (per_pass(admm_calls), "count"),
        "solvers.admm_inner_iters": (per_pass(inner_iters), "count"),
        "solvers.admm_self_s": (per_pass(col("self_s", "solvers.admm")), "s"),
        "solvers.admm_us_per_inner": (1e6 * admm_s / inner_iters if inner_iters else 0.0, "us"),
        "solvers.admm_converged_ratio": (converged_calls / admm_calls if admm_calls else 0.0, "ratio"),
        "solvers.chol_factor_s": (per_pass(col("inclusive_s", "solvers.chol_factor")), "s"),
        "solvers.chol_solves": (per_pass(col("calls", "solvers.chol_solve")), "count"),
        "solvers.chol_solve_s": (per_pass(col("inclusive_s", "solvers.chol_solve")), "s"),
        "geometry.oracle_calls": (per_pass(col("calls", "geometry.oracle")), "count"),
        "geometry.oracle_s": (per_pass(col("inclusive_s", "geometry.oracle")), "s"),
        "spectral_init.select_s": (per_pass(col("inclusive_s", "spectral_init.select")), "s"),
        "spectral_init.moments_s": (per_pass(col("inclusive_s", "spectral_init.moments")), "s"),
        "spectral_init.eig_s": (per_pass(col("inclusive_s", "spectral_init.eig")), "s"),
        "spectral_init.fit_s": (per_pass(col("inclusive_s", "spectral_init.fit")), "s"),
        "tracing.overhead_ratio": (overhead_ratio, "ratio"),
    }
