"""Pinned environment and the import of amtrl from the checkout's sources.

Importing this module pins the BLAS and OpenMP thread pools to one thread,
so it must be imported before numpy is.
"""

import os
import platform
import subprocess
import sys

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


class MissingProgram(RuntimeError):
    """The checkout holds no amtrl sources to benchmark."""


def import_amtrl():
    """Import amtrl from ROOT/src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "amtrl", "__init__.py")):
        raise MissingProgram(f"no amtrl package under {SRC}")
    sys.path.insert(0, SRC)
    import amtrl
    import amtrl.harness  # noqa: F401  (not imported by the package itself)
    if os.path.dirname(os.path.dirname(os.path.abspath(amtrl.__file__))) != SRC:
        raise MissingProgram(f"amtrl was imported from {amtrl.__file__}, "
                             f"not from {SRC}")
    return amtrl


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed):
    """Machine, library versions, thread settings and commit of this run."""
    import numpy as np
    import scipy
    threads = {k: os.environ.get(k) for k in PINNED_THREADS}
    threads["AMTRL_THREADS"] = os.environ.get("AMTRL_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np),
        "threads": threads,
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }
