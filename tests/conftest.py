"""Run the suite with one BLAS and OpenMP thread, the configuration
perfbench/benchenv.py pins and perfbench/reference.json was recorded in.

pytest imports this file before any test module, so before numpy loads and
sizes its thread pools.
"""

import os

os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"),
    "1"))
