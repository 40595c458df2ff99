"""Shared-representation fitting by alternating least squares.

The objective is the per-task-normalized empirical risk

    L(B, W) = (1/T) * sum_t (1/n_t) * ||Y_t - X_t B w_t||^2

alternating exact half-steps: each w_t is a least-squares solve against the
current X_t B, and B solves the stacked normal equations over vec(B) with all
w_t held fixed, as one dense (d k) x (d k) system; fit_source refuses
d k > 20000, where that matrix would hold more than 3.2 GB. B is
re-orthonormalized by QR after every update; absorbing the R factor into W
would leave the objective unchanged, and the next W-step can only lower it,
so the recorded loss history is non-increasing.

The data enter through per-task sufficient statistics stacked over the
tasks once per fit: G (T, d, d) with G_t = X_t^T X_t, H (T, d) with
H_t = X_t^T Y_t and yty (T,) with yty_t = Y_t^T Y_t, each dataset's own
statistics, formed once when it was drawn (TaskDataset). Each half-step and
the loss are then a few array contractions over that stack: the B-step's
normal matrix is one matmul of the (T, k^2) weights u_t w_t w_t^T with the
(T, d^2) Gram stack, and the W-step is one batched solve of the k x k
systems B^T G_t B w_t = B^T H_t. Heads of tasks with 0 < n_t < k, where that
system is singular, are minimum-norm least-squares solutions against X_t B.
Since every head solves its system, the loss at the W-step's heads is
sum_t u_t (yty_t - w_t . B^T H_t). Only those heads and the residual form of
the loss near the noiseless floor read rows, and a fit fetches each task's
rows (TaskDataset.rows) at most once.

The loop's linear algebra calls LAPACK directly through handles fetched once
(scipy.linalg.get_lapack_funcs): the B-step is a Cholesky solve
(dpotrf/dpotrs) guarded by dpocon's reciprocal condition estimate, and the
re-orthonormalization is dgeqrf/dorgqr. These are the routines
scipy.linalg.solve(assume_a="pos") and np.linalg.qr run, minus their
per-call wrapper cost. The fit's result depends on the arithmetic only in
rounding: the Cholesky solve reads the triangle that needs no transposing
copy, and the loss is formed as above.

The loop ends on a W-step, so W_hat holds the heads for B_hat: column t
equals head_for(B_hat, datasets[t]) bit for bit, since the W-step picks
each task's solve by that task alone. Callers take the source heads from
W_hat instead of solving them again.
"""

import dataclasses
import functools
import warnings

import numpy as np
import scipy.linalg

from .instance import _rng

# largest d*k the fit accepts: the B-step forms and factors the dense
# (d*k) x (d*k) normal matrix, which at this size holds 3.2 GB
_MAX_VECB = 20000
# ridge on each task's Gram matrix in the spectral initialization
_INIT_RIDGE = 1e-8
_EPS = np.finfo(float).eps

_potrf, _potrs, _pocon, _lange, _geqrf, _orgqr = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "pocon", "lange", "geqrf", "orgqr"), dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class FitOptions:
    """Stopping rule: relative loss decrease at most tol, or max_iters
    alternating steps."""

    tol: float = 1e-10
    max_iters: int = 500


@dataclasses.dataclass(frozen=True)
class FittedModel:
    """Fitted representation B_hat (d x k, orthonormal columns), source heads
    W_hat (k x T, columns ordered as the datasets passed to fit_source), and
    target head w_target_hat (None until fit_target_head runs)."""

    B_hat: np.ndarray
    W_hat: np.ndarray
    w_target_hat: np.ndarray | None
    train_loss_history: list
    iterations: int
    converged: bool


def _stack_stats(datasets):
    """Per-task sample counts, weights u_t = 1/(T n_t) (0 for n_t = 0) and
    the stacked statistics G, H and yty."""
    counts = np.array([ds.n for ds in datasets])
    u = np.zeros(counts.size)
    u[counts > 0] = 1.0 / (counts.size * counts[counts > 0])
    G = np.stack([ds.G for ds in datasets])
    H = np.stack([ds.H for ds in datasets])
    yty = np.array([ds.yty for ds in datasets])
    return counts, u, G, H, yty


def _w_step(counts, H, G, B, rows):
    """Exact heads for a fixed B. Returns W (k x T) and the projected
    right-hand sides m_t = B^T H_t (T, k) of the systems M_t w_t = m_t,
    M_t = B^T G_t B, that every head solves.

    Tasks with n_t >= k solve M_t w_t = m_t by LU, in one batched solve;
    n_t = 0 keeps a zero head. For 0 < n_t < k, M_t is singular and squaring
    X_t B blurs its rank, so those heads are the minimum-norm least-squares
    solutions against X_t B itself, and so is the head of any task whose
    M_t LU finds exactly singular; rows(t) gives those tasks' (X_t, Y_t).
    The rule is applied task by task, so each head equals what head_for
    gives on that task alone."""
    k = B.shape[1]
    M = B.T @ (G @ B)
    m = (B.T @ H[..., None])[..., 0]
    full = counts >= k
    try:
        if full.all():
            # every task solves, as in the pipelines' fits: skipping the
            # mask copies measurably speeds up L1 runs. C order, as below:
            # the loss and B-step round differently on a transposed view
            W = np.linalg.solve(M, m[..., None])[..., 0]
            return np.ascontiguousarray(W.T), m
        W = np.zeros((k, counts.size))
        W[:, full] = np.linalg.solve(M[full], m[full][..., None])[..., 0].T
    except np.linalg.LinAlgError:
        # some M_t is exactly singular: find it by solving task by task
        W = np.zeros((k, counts.size))
        for t in np.flatnonzero(full):
            try:
                W[:, t] = np.linalg.solve(M[t], m[t])
            except np.linalg.LinAlgError:
                full[t] = False
    for t in np.flatnonzero((counts > 0) & ~full):
        X, Y = rows(t)
        W[:, t] = np.linalg.lstsq(X @ B, Y, rcond=None)[0]
    return W, m


def _loss_gram(u, yty, m, W):
    """L(B, W) at the W-step's heads, from the statistics projected on B
    (see _w_step). Every head the W-step returns solves M_t w_t = m_t, so
    task t's loss ||Y_t - X_t B w_t||^2 = yty_t - 2 m_t.w_t + w_t.M_t w_t
    reduces to yty_t - m_t.w_t."""
    per_task = yty - np.einsum("ti,it->t", m, W)
    return max(float(u @ per_task), 0.0)


def _loss_residual(u, rows, B, W):
    total = 0.0
    for t in np.flatnonzero(u):
        X, Y = rows(t)
        r = Y - X @ (B @ W[:, t])
        total += u[t] * (r @ r)
    return total


def _solve_pos(A, b):
    """Solve A x = b for symmetric positive definite A by Cholesky
    (dpotrf/dpotrs), reading the upper triangle of A's F-ordered view A.T:
    for a C-ordered A that is the memory LAPACK takes as it is, so f2py
    makes no transposing copy, and it leaves A unmodified. Raises
    LinAlgError when the factorization fails or dpocon's reciprocal
    condition estimate is below machine epsilon, where the solution would
    be noise."""
    F = A.T
    c, info = _potrf(F, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf returned info {info}")
    rcond, _ = _pocon(c, _lange("1", F))
    if not rcond >= _EPS:
        raise np.linalg.LinAlgError(f"reciprocal condition {rcond:.3e} is "
                                    "below machine epsilon")
    return _potrs(c, b)[0]


def _orthonormalize(A):
    """Q of the thin QR factorization of A (d x k, d >= k) by
    dgeqrf/dorgqr, C-ordered as np.linalg.qr returns it."""
    qr, tau, _, _ = _geqrf(A)
    return np.ascontiguousarray(_orgqr(qr, tau, overwrite_a=1)[0])


def _b_step(u, H, G, W):
    T, d = H.shape
    k = W.shape[0]
    # sum_t u_t kron(w_t w_t^T, G_t): entry [a, b, i, j] of the (k^2, d^2)
    # product lands at [a*d + i, b*d + j]
    P = (W.T * u[:, None])[:, :, None] * W.T[:, None, :]
    M = (P.reshape(T, k * k).T @ G.reshape(T, d * d)).reshape(
        k, k, d, d).transpose(0, 2, 1, 3).reshape(d * k, d * k)
    # sum_t u_t H_t w_t^T, as vec(B)
    rhs = ((H.T * u) @ W.T).ravel(order="F")
    try:
        sol = _solve_pos(M, rhs)
    except np.linalg.LinAlgError:
        # singular normal equations (fewer spanning heads than k, or
        # n_t < d): the minimum-norm solution
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol.reshape(d, k, order="F")


def _spectral_init(u, H, G, k):
    """Top-k left singular vectors of the per-task ridge solutions, padded
    with fixed-seed random directions when they span fewer than k."""
    d = G.shape[1]
    active = u != 0.0
    M = np.zeros((d, u.size))
    ridged = G[active] + _INIT_RIDGE * np.eye(d)
    M[:, active] = np.linalg.solve(ridged, H[active][..., None])[..., 0].T
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    avail = min(rank, k)
    if avail == k:
        return U[:, :k]
    rng = _rng(0)
    pad = np.column_stack([U[:, :avail], rng.standard_normal((d, k - avail))])
    return _orthonormalize(pad)


def fit_source(datasets, k, options=None, init_B=None):
    """Fit the shared representation on source-task datasets.

    Args:
        datasets: sequence of TaskDataset; column t of W_hat corresponds to
            datasets[t]. Tasks with n = 0 are carried with a zero head and
            contribute nothing to the objective.
        k: latent dimension of the representation.
        options: FitOptions (stopping rule); None means FitOptions().
        init_B: optional d x k warm start for the representation; it is
            re-orthonormalized and replaces the spectral initialization.

    Returns:
        FittedModel with a non-increasing train_loss_history.

    Raises:
        ValueError: on malformed input, or when d*k exceeds 20000, the
            largest B-step system the fit forms.
    """
    if options is None:
        options = FitOptions()
    if not datasets:
        raise ValueError("need at least one dataset")
    d = datasets[0].d
    if any(ds.d != d for ds in datasets):
        raise ValueError("datasets disagree on input dimension")
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    if d * k > _MAX_VECB:
        raise ValueError(f"d*k = {d * k} exceeds {_MAX_VECB}, the largest "
                         "the dense B-step solves")

    counts, u, G, H, yty = _stack_stats(datasets)
    rows = functools.cache(lambda t: datasets[t].rows())

    if init_B is not None:
        init_B = np.asarray(init_B, dtype=float)
        if init_B.shape != (d, k):
            raise ValueError(f"init_B must be {d} x {k}, got {init_B.shape}")
        B = _orthonormalize(init_B)
    else:
        B = _spectral_init(u, H, G, k)

    history = []

    def heads_and_loss(B):
        W, m = _w_step(counts, H, G, B, rows)
        val = _loss_gram(u, yty, m, W)
        # near the noiseless floor the Gram form loses digits to cancellation;
        # recompute from residuals where it matters
        if val <= 1e-8 * (1.0 + history[0] if history else 1.0):
            val = _loss_residual(u, rows, B, W)
        history.append(val)
        return W

    W = heads_and_loss(B)
    converged = False
    for _ in range(options.max_iters):
        B = _orthonormalize(_b_step(u, H, G, W))
        W = heads_and_loss(B)
        prev, cur = history[-2], history[-1]
        if prev - cur <= options.tol * max(abs(prev), 1e-300):
            converged = True
            break
    else:
        warnings.warn(f"alternating fit stopped after {options.max_iters} "
                      f"iterations without reaching tol {options.tol:g}",
                      RuntimeWarning, stacklevel=2)
    return FittedModel(B_hat=B, W_hat=W, w_target_hat=None,
                       train_loss_history=history, iterations=len(history) - 1,
                       converged=converged)


def head_for(B_hat, dataset):
    """Least-squares head for one task against a fixed B_hat: the fit's
    W-step on this task alone. For n < k it is the minimum-norm
    lstsq(X B_hat, Y). For n >= k it solves the k x k normal equations
    (X B_hat)^T X B_hat w = (X B_hat)^T Y from the dataset's statistics
    by LU, so its error grows with cond(X B_hat)^2, and when
    X B_hat is rank-deficient it is a least-squares solution but in general
    not the minimum-norm one; only a system LU finds exactly singular takes
    lstsq(X B_hat, Y)."""
    if dataset.n == 0:
        raise ValueError("cannot fit a head on zero samples")
    W, _ = _w_step(np.array([dataset.n]), dataset.H[None], dataset.G[None],
                   B_hat, lambda t: dataset.rows())
    return W[:, 0]


def fit_target_head(model, dataset):
    """Fit the target head on target-task data; returns an updated model."""
    w = head_for(model.B_hat, dataset)
    return dataclasses.replace(model, w_target_hat=w)


def excess_risk(model, gt):
    """Population excess risk of the fitted target predictor."""
    if model.w_target_hat is None:
        raise ValueError("model has no target head; run fit_target_head first")
    delta = model.B_hat @ model.w_target_hat - gt.B_star @ gt.w_target_star
    if gt.covariance_kind == "diagonal-bounded":
        return float(delta @ (gt.sigma_diag * delta))
    return float(delta @ delta)


def subspace_distance(B1, B2, tol=1e-6):
    """sin of the largest principal angle between two orthonormal frames,
    as the spectral norm of the part of B2 outside span(B1),
    ||B2 - B1 (B1^T B2)||_2. Read off the residual, identical frames give
    round-off of order eps, where sqrt(1 - cos^2) from the smallest cosine
    would give sqrt(eps) for a cosine one ulp below 1."""
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape or B1.ndim != 2:
        raise ValueError(f"shape mismatch {B1.shape} vs {B2.shape}")
    for name, B in (("first", B1), ("second", B2)):
        err = np.max(np.abs(B.T @ B - np.eye(B.shape[1])))
        if err > tol:
            raise ValueError(f"{name} argument is not orthonormal (deviation {err:.3e})")
    return float(scipy.linalg.svdvals(B2 - B1 @ (B1.T @ B2))[0])
