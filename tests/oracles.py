"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own solvers so that agreement
between the two routes is evidence, not circularity.
"""

import itertools

import numpy as np


def project_floor_simplex(z, total, floor):
    """Euclidean projection onto {x : sum x = total, x >= floor}."""
    z = np.asarray(z, dtype=float)
    T = z.size
    budget = float(total) - T * float(floor)
    if budget < -1e-9:
        raise ValueError("infeasible floor")
    y = z - float(floor)
    # projection onto the scaled simplex by the sorted-threshold rule
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, T + 1)
    rho = np.max(np.where(u - css / idx > 0.0, idx, 0))
    if rho == 0:
        proj = np.full(T, budget / T)
    else:
        theta = css[rho - 1] / rho
        proj = np.maximum(y - theta, 0.0)
    return proj + float(floor)


def pg_continuous_allocation(nu, N_tot, N_floor, max_iters=20000,
                             tol=1e-14):
    """Projected-gradient minimizer of sum nu_t^2 / x_t on the
    floor-constrained budget simplex. Monotone descent with step
    adaptation; independent of the water-filling closed form."""
    nu = np.asarray(nu, dtype=float)
    T = nu.size
    c = nu ** 2
    mask = c > 0.0

    def f(x):
        if np.any(x[mask] <= 0.0):
            return np.inf
        return float(np.sum(c[mask] / x[mask]))

    x = project_floor_simplex(np.full(T, N_tot / T), N_tot, N_floor)
    fx = f(x)
    eta = float(N_tot) / max(float(np.max(c)), 1e-300)
    stall = 0
    for _ in range(max_iters):
        g = np.zeros(T)
        g[mask] = -c[mask] / x[mask] ** 2
        accepted = False
        for _ in range(80):
            cand = project_floor_simplex(x - eta * g, N_tot, N_floor)
            fc = f(cand)
            if fc < fx:
                accepted = True
                break
            eta *= 0.5
            if eta <= 1e-300:
                break
        if not accepted:
            break
        drop = fx - fc
        x, fx = cand, fc
        eta *= 1.3
        if drop <= tol * max(abs(fx), 1e-300):
            stall += 1
            if stall >= 20:
                break
        else:
            stall = 0
    return x, fx


def lasso_oracle(W, w, lam):
    """Brute-force Lasso minimizer for desk-scale systems (T <= 7).

    Enumerates every support of size <= k with every sign pattern, solves
    the fixed-sign stationarity system W_S^T W_S nu_S = W_S^T w - lam s,
    keeps the candidates whose signs agree and whose off-support
    correlations satisfy |W_j^T r| <= lam, and returns (nu, objective) of
    the one with the smallest objective 0.5||w - W nu||^2 + lam ||nu||_1.
    """
    W = np.asarray(W, dtype=float)
    w = np.asarray(w, dtype=float)
    k, T = W.shape
    if T > 7:
        raise ValueError("the enumeration is meant for T <= 7")
    slack = 1e-9 * (1.0 + float(np.max(np.abs(W.T @ w), initial=0.0)))
    best_nu, best_obj = None, np.inf
    for size in range(min(k, T) + 1):
        for S in itertools.combinations(range(T), size):
            WS = W[:, list(S)]
            if size and np.linalg.matrix_rank(WS) < size:
                continue
            for s in itertools.product((-1.0, 1.0), repeat=size):
                s = np.array(s)
                nu = np.zeros(T)
                if size:
                    nu_S = np.linalg.solve(WS.T @ WS, WS.T @ w - lam * s)
                    if np.any(nu_S * s <= 0.0):
                        continue
                    nu[list(S)] = nu_S
                r = w - W @ nu
                off = np.setdiff1d(np.arange(T), S)
                if off.size and np.max(np.abs(W[:, off].T @ r)) > lam + slack:
                    continue
                obj = 0.5 * float(r @ r) + lam * float(np.abs(nu).sum())
                if obj < best_obj:
                    best_nu, best_obj = nu, obj
    return best_nu, best_obj
