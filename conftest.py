"""Pin BLAS and OpenMP to one thread for the whole test run, as bench/run.py does.

This file loads before any test module imports NumPy, so the settings reach
BLAS when it starts.  On a small shared host, threaded BLAS oversubscribes
the cores: on two cores the prox-linear acceptance test, which factors many
small matrices, ran about six times slower with two threads than with one.
A value already set in the environment wins.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
