"""Survival models and a benchmark harness for right-censored
purchase-timing cohorts."""

import os

# BLAS sums in an order set by its thread count: pin one thread, unless
# the environment sets a count, before anything imports NumPy.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
