"""The benchmark's workloads: instance panels, solver settings and targets.

A workload's panel is the list of instances one run solves; a run repeats
whole passes over its panel.  Every instance seed comes from the run's
``--seed`` through the streams below, so the same seed always gives the same
panel in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from bideconv import model, solvers


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # attribute name in bideconv.solvers
    d: int  # d1 = d2 = d
    left: str  # "gaussian" or "hadamard"
    p_fails: tuple[float, ...]  # cycled over the panel
    sigma: float
    target: float  # relative error the solver must reach
    config: solvers.SolverConfig
    instance_seeds: Callable[[int], list[int]]

    @property
    def m(self) -> int:
        return 8 * (2 * self.d)

    def p_fail(self, k: int) -> float:
        return self.p_fails[k % len(self.p_fails)]

    def generate(self, seed: int, k: int) -> model.ProblemInstance:
        """The k-th instance of the panel, drawn from instance seed ``seed``.

        Looks ``generate_instance`` up on the module at call time, so a
        traced run sees the call.
        """
        return model.generate_instance(
            self.d,
            self.d,
            self.m,
            left=self.left,
            noise=model.NoiseSpec.gaussian(self.p_fail(k), sigma=self.sigma),
            seed=seed,
        )


def _drawn_seeds(tag: int, count: int) -> Callable[[int], list[int]]:
    """``count`` instance seeds drawn from (run seed, workload tag, k)."""

    def seeds(run_seed: int) -> list[int]:
        return [
            int(np.random.SeedSequence([run_seed, tag, k]).generate_state(1, np.uint32)[0])
            for k in range(count)
        ]

    return seeds


# Prox-linear time to 1e-8 at d = 32 varies 15x across instances (9k to 139k
# ADMM inner iterations over 63 seeds), so a panel the run seed draws afresh
# would move the median of a 6-trial run by about 30% from seed to seed.  The
# panel is therefore the fixed instance seeds 400..405, whose seed 403
# exhausts max_inner (the waste this workload exists to show), and the run
# seed only sets the order in which they are solved.
PROXLINEAR_PANEL = (400, 401, 402, 403, 404, 405)


def _shuffled_panel(run_seed: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(run_seed).permutation(PROXLINEAR_PANEL)]


# Every geometric trial must reach 1e-4, so the corruption levels are set where
# none misses it: at p_fail 0.45 (dense, d = 100) 10 of 600 instances stopped
# at 1.9e-4 to 1.4e-3 after 2000 iterations, at 0.40 none of 600 did; with a
# partial-Hadamard left side (d = 64) 4 of 200 missed at 0.10, none of 800 at
# 0.05.  Misses that depend on the seed would make the failed share differ
# from run to run.
GEOMETRIC = solvers.SolverConfig(
    max_iters=2000, lambda0=1.0, decay_q=0.98, tol_rel_err=1e-4, stall_window=None
)
PROXLINEAR = solvers.SolverConfig(max_iters=20, tol_rel_err=1e-8, stall_window=None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geometric-dense",
            solver="geometric_subgradient",
            d=100,
            left="gaussian",
            p_fails=(0.25, 0.40),
            sigma=1.0,
            target=1e-4,
            config=GEOMETRIC,
            instance_seeds=_drawn_seeds(1, 16),
        ),
        Workload(
            name="proxlinear-dense",
            solver="prox_linear",
            d=32,
            left="gaussian",
            p_fails=(0.25,),
            sigma=1.0,
            target=1e-8,
            config=PROXLINEAR,
            instance_seeds=_shuffled_panel,
        ),
        Workload(
            name="geometric-hadamard",
            solver="geometric_subgradient",
            d=64,
            left="hadamard",
            p_fails=(0.05,),
            sigma=1.0,
            target=1e-4,
            config=GEOMETRIC,
            instance_seeds=_drawn_seeds(3, 16),
        ),
    )
}
