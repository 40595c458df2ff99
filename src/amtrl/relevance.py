"""Relevance-vector solvers.

A relevance vector nu expresses the target head as a mixture of source
heads, W @ nu = w. Three routes are provided: the exact minimum-L1 solution
(linear program, vertex solution, support at most rank(W)), the minimum-L2
solution (pseudoinverse), and an L1-regularized least-squares estimate
(Lasso) for the realistic case where W and w are themselves estimates.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg

from . import simplex

_RANK_RTOL = 1e-10


def support_size(nu, tol=None):
    """Number of entries of nu above the dead-band tolerance."""
    nu = np.asarray(nu, dtype=float)
    if tol is None:
        tol = 1e-9 * (1.0 + (np.max(np.abs(nu)) if nu.size else 0.0))
    return int(np.sum(np.abs(nu) > tol))


def _check_diverse(W):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("W must be a k x T matrix")
    svals = scipy.linalg.svdvals(W)
    if svals.size == 0 or svals[-1] <= _RANK_RTOL * max(1.0, svals[0]):
        raise ValueError(
            "source heads are not diverse: W is rank-deficient, so the "
            "relevance system W @ nu = w is not solvable for generic targets"
        )
    return W


def min_l2_solution(W, w):
    """Minimum-L2-norm solution of W @ nu = w (requires full row rank)."""
    W = _check_diverse(W)
    w = np.asarray(w, dtype=float)
    return np.linalg.lstsq(W, w, rcond=None)[0]


def l1_oracle_lp(W, w):
    """Exact minimum-L1-norm solution of W @ nu = w.

    Solved as a split-variable linear program; the simplex returns a vertex
    of the feasible polytope, so the support size never exceeds rank(W) = k.
    """
    W = _check_diverse(W)
    w = np.asarray(w, dtype=float)
    k, T = W.shape
    A = np.hstack([W, -W])
    try:
        res = simplex.solve_lp(np.ones(2 * T), A, w)
    except simplex.InfeasibleError as exc:
        raise ValueError(f"W @ nu = w has no solution: {exc}") from exc
    return res.x[:T] - res.x[T:]


# a lasso path with more kinks than this reports converged=False
_MAX_PATH_STEPS = 10000
# columns whose distance from the active span is below this fraction of
# their norm (and zero columns) never enter the path
_SPAN_RTOL = 1e-9
# kinks this close to lam = 0, relative to lam_max, are round-off
_ZERO_LAM_RTOL = 1e-12


def lasso(W, w, lam):
    """L1-regularized least squares: min_nu 0.5||w - W nu||^2 + lam ||nu||_1.

    Exact homotopy (the Lasso modification of LARS): the minimizer is
    piecewise linear in the penalty, so the path starts at
    lam_max = ||W^T w||_inf with the top-correlated column active and walks
    down kink by kink, each kink the nearest column entry (an inactive
    correlation reaching the penalty) or drop (an active coefficient
    reaching zero), until it reaches the target lam. The returned nu_S
    solves the fixed-sign normal equations on the final support, so
    lam -> 0 lands on the minimum-L1 interpolant.

    Columns in the span of the active columns never enter, so the active
    Gram matrix stays invertible and the support never exceeds rank(W);
    zero-norm columns keep nu_t = 0. Ties pick the lowest index, the index
    that just entered or left is not re-processed at the same kink, and
    kinks within round-off of lam = 0 are ignored.

    Returns (nu, info): info["sweeps"] counts path steps,
    "kkt_residual" is kkt_residual(W, w, nu, lam), "converged" is whether
    that residual is at most 1e-11 * (1 + lam_max) plus the
    round-off bound 8 eps ||W||_2 (||W||_2 ||nu||_1 + ||w||_2) of computing
    it (False also when the path runs out of steps), and "degenerate" flags
    lam = 0 on a wide system, where the minimizer need not be unique.
    """
    W = np.asarray(W, dtype=float)
    w = np.asarray(w, dtype=float)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if W.ndim != 2 or w.shape != (W.shape[0],):
        raise ValueError("need W of shape (k, T) and w of shape (k,)")
    k, T = W.shape
    lam = float(lam)
    corr = W.T @ w
    lam_max = float(np.max(np.abs(corr), initial=0.0))
    norms = np.linalg.norm(W, axis=0)
    nu = np.zeros(T)
    signs = np.zeros(T)
    steps, exhausted = 0, False
    if lam < lam_max:
        j = int(np.argmax(np.abs(corr)))
        active = [j]
        signs[j] = np.sign(corr[j])
        level = lam_max
        stop = max(lam, _ZERO_LAM_RTOL * lam_max)
        added, dropped, dropped_sign = j, -1, 0.0
        while steps < _MAX_PATH_STEPS:
            steps += 1
            WA = W[:, active]
            G = WA.T @ WA
            sol = np.linalg.solve(G, np.column_stack([WA.T @ w,
                                                      signs[active]]))
            nu_A = sol[:, 0] - level * sol[:, 1]
            direction = sol[:, 1]  # d nu_A / d(-lam)
            c = W.T @ (w - WA @ nu_A)
            a = W.T @ (WA @ direction)
            # inactive columns: |c_j - g a_j| reaches level - g from inside
            Q = np.linalg.qr(WA)[0]
            off_span = np.linalg.norm(W - Q @ (Q.T @ W), axis=0)
            can_enter = off_span > _SPAN_RTOL * norms
            can_enter[active] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(a < 1.0, np.maximum(level - c, 0.0) / (1.0 - a),
                              np.inf)
                down = np.where(a > -1.0,
                                np.maximum(level + c, 0.0) / (1.0 + a), np.inf)
            if dropped >= 0:  # it may re-enter only on the opposite bound
                (up if dropped_sign > 0.0 else down)[dropped] = np.inf
            enter = np.where(can_enter, np.minimum(up, down), np.inf)
            # active coefficients moving towards zero
            with np.errstate(divide="ignore", invalid="ignore"):
                drop = np.where(direction * signs[active] < 0.0,
                                np.maximum(-nu_A / direction, 0.0), np.inf)
            if added in active:
                drop[active.index(added)] = np.inf
            j_in = int(np.argmin(enter))
            i_out = int(np.argmin(drop))
            gap = min(enter[j_in], drop[i_out])
            if not level - gap > stop:
                break
            level -= gap
            if enter[j_in] <= drop[i_out]:
                signs[j_in] = 1.0 if c[j_in] - gap * a[j_in] > 0.0 else -1.0
                active = sorted(active + [j_in])
                added, dropped = j_in, -1
            else:
                dropped = active.pop(i_out)
                dropped_sign, signs[dropped] = signs[dropped], 0.0
                added = -1
        else:
            exhausted = True
        # fixed-sign normal equations on the final support, in index order
        # (a single active column always moves away from zero, so the
        # support is never empty)
        WS, s = W[:, active], signs[active]
        nu_S = np.linalg.solve(WS.T @ WS, WS.T @ w - lam * s)
        # a coefficient pinned at zero along a tied stretch of the path
        # comes back as round-off of either sign
        nu_S[nu_S * s < 0.0] = 0.0
        nu[active] = nu_S
    W_norm = np.linalg.norm(W, 2)
    round_off = 8.0 * np.finfo(float).eps * W_norm * (
        W_norm * np.abs(nu).sum() + np.linalg.norm(w))
    residual = kkt_residual(W, w, nu, lam)
    converged = residual <= 1e-11 * (1.0 + lam_max) + round_off
    info = {
        "sweeps": steps,
        "kkt_residual": residual,
        "converged": bool(converged and not exhausted),
        "degenerate": bool(lam == 0.0 and min(k, T) < T),
    }
    return nu, info


def kkt_residual(W, w, nu, lam):
    """Max violation of the Lasso stationarity conditions at nu.

    For active coordinates the gradient of the smooth part must equal
    lam * sign(nu_t); for zero coordinates it must lie in [-lam, lam].
    Zero at any exact minimizer.
    """
    W = np.asarray(W, dtype=float)
    w = np.asarray(w, dtype=float)
    nu = np.asarray(nu, dtype=float)
    g = W.T @ (w - W @ nu)
    violation = np.where(nu != 0.0, np.abs(g - lam * np.copysign(1.0, nu)),
                         np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(violation, initial=0.0))


def lambda_rule(k, R, C_W, sigma_min):
    """Conservative regularization level from the problem constants.

    k is the latent dimension, R bounds the target-head norm, C_W bounds
    the source-head norms, sigma_min lower-bounds the singular values of W.
    Deliberately pessimistic; the lazy default used by the pipelines is a
    near-zero lam instead.
    """
    if min(k, R, C_W, sigma_min) <= 0:
        raise ValueError("all rule inputs must be positive")
    gamma = max(2160.0 * k ** 1.5 * C_W ** 2 / sigma_min,
                math.sqrt(2160.0 * k ** 1.5 * C_W ** 3 / sigma_min))
    return 45.0 * (math.sqrt(k) * R * C_W * sigma_min / gamma) * max(1.0, C_W / gamma)


LAZY_LAMBDA = 1e-10


@dataclasses.dataclass(frozen=True)
class NormBoundReport:
    l1_norm: float
    l1_bound: float
    l1_ok: bool
    l2_norm: float
    l2_bound: float
    l2_ok: bool
    sigma_min: float


def norm_bound_check(W, w):
    """Check the minimum-L1 and minimum-L2 solutions nu1, nu2 against their
    closed-form norm ceilings, to a relative slack of 1e-9:
    ||nu1||_1 <= sqrt(k) ||w|| / sigma_min(W) and
    ||nu2||_2 <= ||w|| / sigma_min(W)."""
    W = _check_diverse(W)
    w = np.asarray(w, dtype=float)
    k = W.shape[0]
    sigma_min = float(scipy.linalg.svdvals(W)[-1])
    nu1 = l1_oracle_lp(W, w)
    nu2 = min_l2_solution(W, w)
    rtol = 1e-9
    wn = float(np.linalg.norm(w))
    l1_norm = float(np.linalg.norm(nu1, 1))
    l2_norm = float(np.linalg.norm(nu2))
    l1_bound = math.sqrt(k) * wn / sigma_min
    l2_bound = wn / sigma_min
    return NormBoundReport(
        l1_norm=l1_norm, l1_bound=l1_bound,
        l1_ok=bool(l1_norm <= l1_bound * (1.0 + rtol)),
        l2_norm=l2_norm, l2_bound=l2_bound,
        l2_ok=bool(l2_norm <= l2_bound * (1.0 + rtol)),
        sigma_min=sigma_min,
    )
