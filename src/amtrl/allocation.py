"""Sampling-budget allocation driven by relevance vectors.

Converts a relevance vector into per-task sample counts via water-filling
with a per-task floor, evaluates the allocation-weighted relevance norm
that governs the excess-risk bound, keeps the above-floor budget on the
support of a sparse relevance vector, and prices allocations under
linear or saltus per-task costs. The brute-force joint-optimum and
cheapest-support searches that check these routes live with the tests.
"""

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .instance import finite, int64_count
from .relevance import dead_banded


class InfeasibleBudgetError(ValueError):
    """Raised when N_tot cannot cover the per-task floors."""


@dataclass(frozen=True)
class Allocation:
    """Integer per-task sample counts plus the constants that produced them.

    n sums to N_tot exactly; every floor-mandated task has n_t >= N_floor.
    continuous holds the pre-rounding water-filling solution and c_prime
    the proportionality constant in the units of the supplied nu.
    """

    n: np.ndarray
    N_tot: int
    N_floor: int
    c_prime: float
    continuous: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        n = np.asarray(self.n, dtype=int)
        n.setflags(write=False)
        object.__setattr__(self, "n", n)
        if np.any(n < self.N_floor):
            raise ValueError(f"a sample count is below the floor {self.N_floor}")
        if int(n.sum()) != int(self.N_tot):
            raise ValueError("allocation does not exhaust the budget")
        if self.continuous is not None:
            c = np.asarray(self.continuous, dtype=float)
            c.setflags(write=False)
            object.__setattr__(self, "continuous", c)


def _check_budget(T, N_tot, N_floor, name="N_tot"):
    """Refuse a negative budget, called name, or floor (ValueError), and a
    budget below T floors (InfeasibleBudgetError)."""
    for key, value in ((name, N_tot), ("N_floor", N_floor)):
        if value < 0:
            raise ValueError(f"{key} must be >= 0, got {value}")
    if N_tot < T * N_floor:
        raise InfeasibleBudgetError(
            f"{name} = {N_tot} cannot cover {T} floors of {N_floor}")


def continuous_allocation(nu, N_tot, N_floor):
    """Exact water-filling solution x_t = max(c'|nu_t|, N_floor).

    The map c' -> sum_t max(c'|nu_t|, N_floor) is piecewise linear with at
    most T breakpoints, so c' is solved on every piece at once, not by
    bisection.
    Internally |nu| is normalized by its max, which makes the result
    exactly invariant under rescaling nu by a power of two; other positive
    factors can move the normalized weights by an ulp.
    Returns (x, c_prime) with c_prime in the units of the original nu; a
    non-finite entry of nu raises ValueError.
    """
    a = np.abs(np.asarray(nu, dtype=float))
    T = a.size
    if T == 0:
        raise ValueError("empty nu")
    _check_budget(T, N_tot, N_floor)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"nu must be finite, got {nu!r}")
    amax = float(a.max())
    if amax == 0.0:
        raise ValueError("nu is identically zero")
    a = a / amax
    F = float(N_floor)
    if F == 0.0:
        c = float(N_tot) / float(a.sum())
        return c * a, c / amax
    # activation points: c'a_t crosses the floor at c' = u_t; a zero weight,
    # or one so small that F / a_t overflows, never leaves the floor
    with np.errstate(divide="ignore", over="ignore"):
        u = F / a
    pos = np.isfinite(u)
    u = u[pos]
    order = np.argsort(u, kind="stable")
    lo = u[order]
    hi = np.append(lo[1:], math.inf)
    # piece i (i = 1..P, c' in [u_i, u_i+1]) has i active tasks, so its
    # budget equation gives c' = (N - (T - i) F) / csum_i; take the first
    # candidate that lies within its own piece. One always does: at u_1 the
    # floored sum is T F <= N_tot, and the last piece is unbounded.
    i = np.arange(1, lo.size + 1)
    cand = (float(N_tot) - (T - i) * F) / np.cumsum(a[pos][order])
    inside = ((cand >= lo - 1e-12 * (1.0 + lo))
              & (cand <= hi + 1e-12 * (1.0 + hi)))
    c = max(float(cand[np.argmax(inside)]), 0.0)
    x = np.maximum(c * a, F)
    return x, c / amax


def _round_largest_remainder(x, N_tot, N_floor):
    """Integerize a continuous allocation by one rule, keeping the budget
    exact and every count at or above N_floor. Counts start at floor(x), a
    share at the floor at N_floor. A gap that one unit per share above the
    floor cannot close (an overshoot, or a larger shortfall, as float shares
    give from budgets of about 2**52 on) moves once in proportion to the
    counts above the floor (evenly if none is), each move rounded down. The
    units left go one each: to positive shares rounded down to zero, then by
    largest remainder, then lower index; shares at the floor last, so they
    stay there while any share is above it. Sums are Python ints, as an
    int64 sum can wrap near 2**63."""
    T, F = x.size, float(N_floor)  # F can round past N_floor from 2**53 on
    base = [N_floor if v <= F else int(v) for v in x.tolist()]
    rem = x - np.array(base, dtype=float)
    gap = N_tot - sum(base)
    if not 0 <= gap <= np.count_nonzero(x > F):
        room = sum(base) - T * N_floor  # above the floors
        weight = [b - N_floor for b in base] if room else [1] * T
        base = [b + gap * w // (room or T) for b, w in zip(base, weight)]
        gap = N_tot - sum(base)
    base = np.array(base)
    starved = (x > 0.0) & (base == 0)
    base[np.lexsort((np.arange(T), -rem, ~starved, x <= F))[:gap]] += 1
    return base


def allocate_fixed_nu(nu, N_tot, N_floor):
    """Water-filling allocation n_t = max(c'|nu_t|, N_floor), integerized.

    c' is solved exactly from the piecewise-linear budget equation and the
    shares rounded by _round_largest_remainder: the budget exact, every
    count at or above the floor, a share at the floor kept there while any
    is above it, a nonzero-nu share rounded down to zero fed first. nu = 0
    gives a uniform allocation with a warning; an empty or non-finite nu
    raises ValueError; N_tot and N_floor are int64_count counts.
    """
    N_tot, N_floor = int64_count(N_tot, "N_tot"), int64_count(N_floor,
                                                               "N_floor")
    nu = np.asarray(nu, dtype=float)
    T = nu.size
    if T and not np.any(nu):
        _check_budget(T, N_tot, N_floor)
        # name the first caller outside this module, past its wrappers
        frame, level = sys._getframe(), 1
        while frame.f_code.co_filename == __file__ and frame.f_back:
            frame, level = frame.f_back, level + 1
        warnings.warn("nu is identically zero; falling back to a uniform "
                      "allocation", RuntimeWarning, stacklevel=level)
        x = np.full(T, N_tot / T)
        c_prime = 0.0
    else:
        x, c_prime = continuous_allocation(nu, N_tot, N_floor)
    n = _round_largest_remainder(x, N_tot, N_floor)
    return Allocation(n=n, N_tot=N_tot, N_floor=N_floor,
                      c_prime=float(c_prime), continuous=x)


def _lpnq_weights(nu, q, name="nu"):
    """|nu|^q, refused (ValueError naming q, name or |name|^q) unless q is
    a finite number (instance.finite) > 0 and every weight is finite."""
    q = finite(q, "q")
    if q <= 0:
        raise ValueError(f"q must be > 0, got {q!r}")
    with np.errstate(over="ignore"):
        weights = np.abs(np.asarray(nu, dtype=float)) ** q
    if not np.all(np.isfinite(weights)):
        what = f"|{name}|^q" if np.all(np.isfinite(nu)) else name
        raise ValueError(f"{what} must be finite, got q = {q!r} and "
                         f"{name} = {nu!r}")
    return weights


def lpnq_allocation(nu_p, q, N_tot, N_floor):
    """Allocation proportional to |nu_p|^q with the same floor rule.

    q = 1 reproduces allocate_fixed_nu exactly; q = 2 on the min-L2
    relevance vector is the classic squared-weights split.
    """
    return allocate_fixed_nu(_lpnq_weights(nu_p, q), N_tot, N_floor)


def nu_tilde_objective(nu, allocation):
    """Allocation-weighted squared relevance norm, sum nu_t^2 / n_t.

    Accepts an Allocation (integer counts) or a raw count vector, which
    may be continuous. A task with nu_t != 0 and n_t = 0 makes the value
    infinite and raises instead of returning.
    """
    nu = np.asarray(nu, dtype=float)
    n = allocation.n if isinstance(allocation, Allocation) else np.asarray(
        allocation, dtype=float)
    if n.shape != nu.shape:
        raise ValueError("nu and allocation length mismatch")
    mask = nu != 0.0
    if np.any(n[mask] == 0):
        t = int(np.flatnonzero(mask & (n == 0))[0])
        raise ValueError(
            f"objective is infinite: task {t} has nu != 0 but n = 0")
    return float(np.sum(nu[mask] ** 2 / n[mask]))


COST_KINDS = ("linear", "saltus")


@dataclass(frozen=True)
class CostFunction:
    """Per-task sampling cost, non-negative and non-decreasing in n.

    linear: C_var * n. saltus: free up to N_free, then a fixed charge plus
    a linear rate.
    """

    kind: str
    C_fix: float = 0.0
    C_var: float = 0.0
    N_free: int = 0

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.C_fix < 0 or self.C_var < 0 or self.N_free < 0:
            raise ValueError("cost parameters must be non-negative")

    def value(self, n):
        if n < 0:
            raise ValueError("negative sample count")
        if self.kind == "linear":
            return self.C_var * n
        if n <= self.N_free:
            return 0.0
        return self.C_fix + self.C_var * (n - self.N_free)


def linear_cost(C_var):
    return CostFunction(kind="linear", C_var=C_var)


def saltus_cost(C_fix, C_var, N_free):
    return CostFunction(kind="saltus", C_fix=C_fix, C_var=C_var,
                        N_free=N_free)


def _counts_of(allocation):
    if allocation is None:
        return None
    if isinstance(allocation, Allocation):
        return allocation.n
    return np.asarray(allocation)


def eval_cost(allocation, phase1, cost_fns):
    """Total cost of the combined phase-1 + phase-2 counts."""
    n2 = _counts_of(allocation)
    n1 = _counts_of(phase1)
    combined = n2 if n1 is None else n1 + n2
    if len(cost_fns) != combined.size:
        raise ValueError("need one cost function per task")
    return float(sum(cf.value(int(n)) for cf, n in zip(cost_fns, combined)))


def cost_aware_allocate(nu, N_tot, N_floor):
    """allocate_fixed_nu on relevance.dead_banded(nu), where the entries
    with |nu_t| <= 1e-9 max|nu| are zero.

    Water-filling with a floor already gives every task off the support
    of nu exactly the floor, so the above-floor budget stays on the
    support. For a minimum-L1 relevance vector that support is at most k
    tasks, which is what keeps fixed per-task charges small: the saving
    comes from nu's sparsity, not from a separate split. The dead band is
    relative, so the support does not change when nu is rescaled.
    """
    return allocate_fixed_nu(dead_banded(nu), N_tot, N_floor)
