"""Independent numerical oracles used by the test suite.

The projected-gradient allocation, the exact Fraction water-filling and
the Lasso enumeration deliberately avoid the library's own solvers, so
agreement between the two routes is evidence, not circularity. The
bilevel and cheapest-support searches are desk-scale brute force built on
the library's exact pieces (water-filling, the LP): they test claims about
the joint problem, not those pieces. The alternating-fit references take
each half-step task by task (one np.kron or lstsq per task) and check the
trainer's stacked-array contractions.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from amtrl import (allocate_fixed_nu, continuous_allocation, l1_oracle_lp,
                   min_l2_solution)


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


def exact_water_filling(nu, N_tot, N_floor):
    """Water-filling shares max(c|nu_t|, N_floor) summing to N_tot, as
    Fractions: exact arithmetic on the float entries of nu, free of the
    library's float solve. The level rises through the tasks by
    decreasing |nu| and stops at the first active set whose level leaves
    the next task at or below the floor."""
    a = [abs(Fraction(float(v))) for v in nu]
    T, F = len(a), Fraction(N_floor)
    if not any(a):
        raise ValueError("nu is identically zero")
    order = sorted(range(T), key=lambda t: -a[t])
    csum = 0
    for i, t in enumerate(order, 1):
        csum += a[t]
        c = (N_tot - (T - i) * F) / csum
        if i == T or c * a[order[i]] <= F:
            break
    return [max(c * v, F) for v in a]


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


def bilevel_oracle(W, w, N_tot, N_floor, n_random_starts=8, seed=0,
                   max_iters=500, tol=1e-14):
    """Desk-scale search for the joint relevance/allocation optimum.

    Alternates an allocation step (water-filling at the current nu) with a
    relevance step (weighted minimum-norm solve of W nu = w, the
    stationarity system of the allocation-weighted norm at fixed counts),
    from several starts: the min-L2 and min-L1 solutions plus random
    null-space perturbations. Returns (nu, Allocation) for the best start.
    """
    W = np.asarray(W, dtype=float)
    w = np.asarray(w, dtype=float)
    k, T = W.shape
    if T > 30:
        raise ValueError("bilevel_oracle is desk-scale; requires T <= 30")
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
        raise ValueError("W is rank-deficient")

    nu2 = min_l2_solution(W, w)
    starts = [nu2, l1_oracle_lp(W, w)]
    if T > k and n_random_starts > 0:
        rng = np.random.default_rng(seed)
        null_basis = np.linalg.svd(W, full_matrices=True)[2][k:]
        scale = max(float(np.linalg.norm(nu2)), 1e-12)
        for _ in range(n_random_starts):
            xi = rng.standard_normal(T - k)
            starts.append(nu2 + scale * (null_basis.T @ xi))

    def objective(nu, x):
        mask = nu != 0.0
        if np.any(x[mask] <= 0.0):
            return math.inf
        return float(np.sum(nu[mask] ** 2 / x[mask]))

    best_nu, best_obj = None, math.inf
    for nu in starts:
        nu = nu.copy()
        prev = math.inf
        for _ in range(max_iters):
            if np.all(nu == 0.0):
                x = np.full(T, N_tot / T)
            else:
                x, _ = continuous_allocation(nu, N_tot, N_floor)
            D = x  # weights of the quadratic; zero rows pin nu_t to zero
            M = (W * D) @ W.T
            rhs = w
            try:
                alpha = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                alpha = np.linalg.lstsq(M, rhs, rcond=None)[0]
            nu = D * (W.T @ alpha)
            cur = objective(nu, x)
            if abs(prev - cur) <= tol * max(abs(prev), 1e-300):
                break
            prev = cur
        if np.all(nu == 0.0):
            continue
        x, _ = continuous_allocation(nu, N_tot, N_floor)
        cur = objective(nu, x)
        if cur < best_obj:
            best_obj, best_nu = cur, nu
    if best_nu is None:
        raise RuntimeError("all bilevel starts degenerated")
    alloc = allocate_fixed_nu(best_nu, N_tot, N_floor)
    return best_nu, alloc


def _min_cost_on_support(c, cost_fns, er_budget):
    """Cheapest continuous counts meeting sum c_t/n_t <= er_budget on one
    support; c_t = nu_t^2 > 0. Exact for both cost kinds via payer-subset
    enumeration. Returns (cost, n) or None if infeasible."""
    m = len(c)
    best = None
    for payer_mask in range(1 << m):
        payers = [i for i in range(m) if payer_mask >> i & 1]
        free_load = 0.0
        feasible = True
        for i in range(m):
            if i in payers:
                continue
            cf = cost_fns[i]
            cap = cf.N_free if cf.kind == "saltus" else 0
            if cap == 0:
                feasible = False  # non-payer with no free samples
                break
            free_load += c[i] / cap
        if not feasible or free_load > er_budget + 1e-15:
            continue
        slack = er_budget - free_load
        n = [float(cost_fns[i].N_free) if cost_fns[i].kind == "saltus"
             else 0.0 for i in range(m)]
        if payers:
            if slack <= 0.0:
                continue
            rates = [cost_fns[i].C_var for i in payers]
            if any(v <= 0 for v in rates):
                continue  # free linear growth is degenerate; skip
            floors = [float(cost_fns[i].N_free)
                      if cost_fns[i].kind == "saltus" else 0.0
                      for i in payers]
            active = list(range(len(payers)))
            vals = [0.0] * len(payers)
            for _ in range(len(payers) + 1):
                load_fixed = sum(c[payers[j]] / vals[j]
                                 for j in range(len(payers))
                                 if j not in active)
                rem = slack - load_fixed
                if rem <= 0.0:
                    active = None
                    break
                s_root = sum(math.sqrt(c[payers[j]] * rates[j])
                             for j in active)
                clamped = False
                for j in active:
                    vals[j] = math.sqrt(c[payers[j]] / rates[j]) \
                        * s_root / rem
                for j in list(active):
                    if vals[j] < floors[j]:
                        vals[j] = floors[j]
                        active.remove(j)
                        clamped = True
                if not clamped:
                    break
            if active is None:
                continue
            for j, i in enumerate(payers):
                n[i] = vals[j]
        total = 0.0
        for i in range(m):
            cf = cost_fns[i]
            if i in payers:
                if cf.kind == "saltus":
                    total += cf.C_fix + cf.C_var * (n[i] - cf.N_free)
                else:
                    total += cf.C_var * n[i]
        if best is None or total < best[0]:
            best = (total, list(n))
    return best


def cost_support_oracle(W, w, er_budget, cost_fns, max_support=None):
    """Brute-force cheapest support for the cost-constrained problem.

    Enumerates supports up to max_support (default k + 2) on desk-scale
    instances (T <= 15), solving W_S nu_S = w on each (restricted min-L1
    when underdetermined) and pricing the cheapest counts that keep the
    allocation-weighted norm within er_budget. Returns
    (support, cost, n) for the best support found.
    """
    W = np.asarray(W, dtype=float)
    w = np.asarray(w, dtype=float)
    k, T = W.shape
    if T > 15:
        raise ValueError("cost_support_oracle is desk-scale; requires "
                         "T <= 15")
    if er_budget <= 0:
        raise ValueError("er_budget must be positive")
    if len(cost_fns) != T:
        raise ValueError("need one cost function per task")
    if max_support is None:
        max_support = min(T, k + 2)
    best = None
    wnorm = float(np.linalg.norm(w))
    for size in range(1, max_support + 1):
        for S in itertools.combinations(range(T), size):
            WS = W[:, S]
            nu_S, *_ = np.linalg.lstsq(WS, w, rcond=None)
            if np.linalg.norm(WS @ nu_S - w) > 1e-9 * (1.0 + wnorm):
                continue
            if size > k:
                try:
                    nu_S = l1_oracle_lp(WS, w)
                except ValueError:
                    continue
            c = nu_S ** 2
            keep = c > 0.0
            sub_fns = [cost_fns[t] for t, kp in zip(S, keep) if kp]
            sub_c = c[keep]
            sol = _min_cost_on_support(list(sub_c), sub_fns, er_budget)
            if sol is None:
                continue
            cost, counts = sol
            n = np.zeros(T)
            for t, amount in zip((t for t, kp in zip(S, keep) if kp),
                                 counts):
                n[t] = amount
            if best is None or cost < best[1] - 1e-12 * (1.0 + abs(cost)):
                best = (tuple(t for t, kp in zip(S, keep) if kp), cost, n)
    if best is None:
        raise ValueError("no feasible support meets the er_budget")
    return best


def loss_gram_oracle(u, yty, H, G, B, W):
    """sum_t u_t ||Y_t - X_t B w_t||^2 from the Gram statistics, task by
    task."""
    total = 0.0
    for t in range(len(u)):
        if u[t] == 0.0:
            continue
        w = W[:, t]
        Bw_gram = B.T @ (G[t] @ B)
        total += u[t] * (yty[t] - 2.0 * w @ (B.T @ H[t]) + w @ (Bw_gram @ w))
    return max(total, 0.0)


def kkt_residual_oracle(W, w, nu, lam):
    """Max violation of the Lasso stationarity conditions at nu, entry by
    entry: |g_j - lam sign(nu_j)| where nu_j != 0, max(|g_j| - lam, 0)
    elsewhere, g = W^T (w - W nu)."""
    g = W.T @ (w - W @ nu)
    res = 0.0
    for j in range(nu.size):
        if nu[j] != 0.0:
            res = max(res, abs(g[j] - lam * math.copysign(1.0, nu[j])))
        else:
            res = max(res, max(0.0, abs(g[j]) - lam))
    return float(res)


def w_step_oracle(datasets, B):
    """Minimum-norm least-squares head lstsq(X_t B, Y_t) of every task with
    samples, one per task; zero heads elsewhere."""
    W = np.zeros((B.shape[1], len(datasets)))
    for t, ds in enumerate(datasets):
        if ds.n > 0:
            W[:, t] = np.linalg.lstsq(ds.X @ B, ds.Y, rcond=None)[0]
    return W


def b_step_system_oracle(u, H, G, W):
    """The B-step normal equations over vec(B) (column-major), summed task
    by task: sum_t u_t kron(w_t w_t^T, G_t) and sum_t u_t H_t w_t^T."""
    d, k = G[0].shape[0], W.shape[0]
    M = np.zeros((d * k, d * k))
    rhs = np.zeros((d, k))
    for t in range(W.shape[1]):
        if u[t] == 0.0:
            continue
        w = W[:, t]
        M += u[t] * np.kron(np.outer(w, w), G[t])
        rhs += u[t] * np.outer(H[t], w)
    return M, rhs.ravel(order="F")


def b_step_dense_oracle(u, H, G, W):
    """The dense B-step on the per-task system: Cholesky, or the
    minimum-norm least-squares solution when that fails."""
    d, k = G[0].shape[0], W.shape[0]
    M, rhs = b_step_system_oracle(u, H, G, W)
    try:
        sol = scipy.linalg.solve(M, rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, ValueError):
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol.reshape(d, k, order="F")


def spectral_init_oracle(u, H, G, k, ridge):
    """Top-k left singular vectors of the per-task ridge solutions, one solve
    per task, padded as the trainer pads them when they span fewer than k."""
    d = G[0].shape[0]
    cols = []
    for t in range(len(u)):
        if u[t] == 0.0:
            cols.append(np.zeros(d))
        else:
            cols.append(np.linalg.solve(G[t] + ridge * np.eye(d), H[t]))
    M = np.column_stack(cols)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    avail = min(rank, k)
    if avail == k:
        return U[:, :k]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    pad = np.column_stack([U[:, :avail], rng.standard_normal((d, k - avail))])
    return np.linalg.qr(pad)[0][:, :k]
