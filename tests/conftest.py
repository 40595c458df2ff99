"""Run the suite with one BLAS and OpenMP thread, the configuration
perfbench/benchenv.py pins and perfbench/reference.json was recorded in.

pytest imports this file before any test module, so before numpy loads and
sizes its thread pools.
"""

import os

import pytest

os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"),
    "1"))


@pytest.fixture(autouse=True)
def _fresh_sampling_caches():
    """Empty the sampling caches before each test, so no result depends on
    which test ran before it."""
    from amtrl import instance

    instance._target_draw.cache_clear()
    instance._sample_seed_table.cache_clear()
