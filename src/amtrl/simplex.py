"""Dense two-phase simplex for small equality-form linear programs.

Solves min c@x subject to A@x = b, x >= 0 and always returns a basic
feasible (vertex) solution, so the support of x never exceeds the row rank
of A. Bland's rule is used for both the entering and leaving choice, which
makes the method deterministic and cycling-free. Intended for desk-scale
problems (hundreds of columns), not industrial LP work.
"""

import dataclasses

import numpy as np

# pivot, ratio-test and feasibility tolerance
_TOL = 1e-9


class InfeasibleError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    value: float
    iterations: int


def _pivot(tab, rhs, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            f = tab[i, col]
            tab[i] -= f * tab[row]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _iterate(tab, rhs, basis, costs, allowed, max_iters):
    iters = 0
    m = tab.shape[0]
    while True:
        cb = costs[basis]
        reduced = costs - cb @ tab
        entering = -1
        for j in allowed:
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return iters
        ratio = np.inf
        row = -1
        for i in range(m):
            a = tab[i, entering]
            if a > _TOL:
                r = rhs[i] / a
                if r < ratio - _TOL or (abs(r - ratio) <= _TOL and
                                       (row < 0 or basis[i] < basis[row])):
                    ratio = min(r, ratio)
                    row = i
        if row < 0:
            raise UnboundedError("objective unbounded below")
        _pivot(tab, rhs, basis, row, entering)
        iters += 1
        if iters > max_iters:
            raise RuntimeError("simplex iteration limit exceeded")


def solve_lp(c, A, b):
    """Minimize c@x over {A@x = b, x >= 0}; returns a vertex solution.
    Raises RuntimeError after 200 (n + m + 10) pivots in either phase."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if A.ndim != 2 or c.shape != (A.shape[1],) or b.shape != (A.shape[0],):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape
    max_iters = 200 * (n + m + 10)
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b = b.copy()
    b[flip] *= -1.0

    # phase 1: artificial identity basis, minimize the artificial mass
    tab = np.hstack([A, np.eye(m)])
    rhs = b.copy()
    basis = np.arange(n, n + m)
    costs1 = np.concatenate([np.zeros(n), np.ones(m)])
    it1 = _iterate(tab, rhs, basis, costs1, range(n), max_iters)
    scale = 1.0 + float(np.linalg.norm(b, np.inf))
    if float(costs1[basis] @ rhs) > _TOL * scale:
        raise InfeasibleError("constraints A@x = b, x >= 0 are infeasible")

    # drive leftover artificials out of the basis; a row with no eligible
    # pivot is a redundant constraint and is dropped
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            col = -1
            for j in range(n):
                if abs(tab[i, j]) > _TOL:
                    col = j
                    break
            if col >= 0:
                _pivot(tab, rhs, basis, i, col)
            else:
                keep[i] = False
    tab = tab[keep][:, :n]
    rhs = rhs[keep]
    basis = basis[keep]

    costs2 = c
    it2 = _iterate(tab, rhs, basis, costs2, range(n), max_iters)

    # rebuild the vertex from the original data to shed pivoting round-off
    x = np.zeros(n)
    if basis.size:
        xb = np.linalg.lstsq(A[:, basis], b, rcond=None)[0]
        x[basis] = np.maximum(xb, 0.0)
    return SimplexResult(x=x, value=float(c @ x), iterations=it1 + it2)
