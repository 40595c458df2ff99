"""Output checks applied to every strategy run the benchmark makes.

Invariants are checked on every run. The timed panel is the same on every
workload seed, so its outputs are also compared, on every run, with
``reference.json``, which ``record_reference.py`` recorded from the panel.

Reference tolerance: the runs are bit-reproducible in the oracle seed, so on
the machine that recorded the reference the comparison is exact. Floats are
compared at a relative 1e-6 so that last-bit differences from another BLAS
kernel (OpenBLAS picks its kernels by CPU at run time), carried through the
fit's relative stopping rule of 1e-10 on the loss, do not read as failures.
Every defect the negative control plants (a skipped phase-2 refit, the
phase-1 relevance returned instead of the estimate) moves ER by far more
than that; support sizes and the integer CSV columns must match exactly.
"""

import json
import math
import os

REF_RTOL = 1e-6
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def run_problems(res, drawn):
    """Invariant violations of one RunResult; drawn is the oracle's count."""
    problems = []
    if res.status != "ok":
        problems.append(f"status {res.status!r}")
    for i, a in enumerate(res.allocations):
        if int(a.n.sum()) != int(a.N_tot):
            problems.append(f"allocation {i} sums to {int(a.n.sum())}, "
                            f"not N_tot={a.N_tot}")
        if a.n.min() < a.N_floor:
            problems.append(f"allocation {i} has n={int(a.n.min())} below "
                            f"the floor {a.N_floor}")
    if res.total_samples != drawn:
        problems.append(f"total_samples {res.total_samples} != "
                        f"oracle.total_drawn {drawn}")
    problems += value_problems(res.excess_risk, res.subspace_distance)
    return problems


def value_problems(er, sd):
    problems = []
    if not (math.isfinite(er) and er > 0.0):
        problems.append(f"ER {er!r} is not finite and positive")
    if not (0.0 <= sd <= 1.0):
        problems.append(f"subspace distance {sd!r} is outside [0, 1]")
    return problems


def row_problems(row):
    """Invariant violations of one runs.csv row (strings, as read back)."""
    if row["status"] != "ok":
        return [f"status {row['status']!r}"]
    return value_problems(float(row["ER"]), float(row["subspace_dist"]))


def _close(a, b):
    return a == b or abs(a - b) <= REF_RTOL * max(abs(a), abs(b))


def run_mismatch(ref, er, support):
    """Difference from one recorded run {"ER": .., "support": ..}, or None."""
    if not _close(er, ref["ER"]):
        return f"ER {er!r} differs from the reference {ref['ER']!r}"
    if support != ref["support"]:
        return f"support {support} differs from the reference {ref['support']}"
    return None


CSV_FLOATS = ("ER", "subspace_dist", "nu_l1")
CSV_EXACT = ("strategy", "seed", "N_tot", "N_floor", "support", "status")


def csv_row_mismatch(ref, row):
    """Difference between a runs.csv row and its recorded reference row,
    over every column but wall_ms."""
    for c in CSV_EXACT:
        if row[c] != ref[c]:
            return f"{c} {row[c]!r} differs from the reference {ref[c]!r}"
    for c in CSV_FLOATS:
        if not _close(float(row[c]), float(ref[c])):
            return f"{c} {row[c]} differs from the reference {ref[c]}"
    return None


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload]
