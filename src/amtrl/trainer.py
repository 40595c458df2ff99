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
(T, d^2) Gram stack, and the W-step solves all T k x k systems
B^T G_t B w_t = B^T H_t in one batched LU call. One rule picks each head:
n_t = 0 keeps a zero head; 0 < n_t < k, where the system is singular, and a
system LU finds exactly singular take the minimum-norm least-squares
solution against X_t B; every other head is the LU head. Since every head
solves its system, the loss at the W-step's heads is
sum_t u_t (yty_t - w_t . B^T H_t). Only the least-squares heads and the
residual form of the loss near the noiseless floor read rows, and a fit
fetches each task's rows (TaskDataset.rows) at most once.

The loop's linear algebra calls LAPACK through numpy's own gufuncs
(np.linalg._umath_linalg), without np.linalg's per-call checks, so the
library needs numpy alone: the W-step, the B-step and the spectral
initialization through np.linalg.solve's (dgesv), the re-orthonormalization
through np.linalg.qr's (dgeqrf/dorgqr), subspace_distance through
np.linalg.svd's (dgesdd). The B-step's normal matrix is positive
semidefinite, and its LU solve carries three fixed probe right-hand sides
that give a reciprocal condition estimate; a system whose estimate is below
machine epsilon takes the minimum-norm least-squares solution instead (see
_solve_pos). The fit's result depends on the arithmetic only in rounding:
the loss is formed as above.

The loop ends on a W-step, so W_hat holds the heads for B_hat: column t
equals head_for(B_hat, datasets[t]) bit for bit, since the rule reads each
task alone. Callers take the source heads from W_hat instead of solving
them again.
"""

import dataclasses
import functools
import warnings

import numpy as np

from .instance import _rng

# largest d*k the fit accepts: the B-step forms and factors the dense
# (d*k) x (d*k) normal matrix, which at this size holds 3.2 GB
_MAX_VECB = 20000
# ridge on each task's Gram matrix in the spectral initialization
_INIT_RIDGE = 1e-8
# fit_source's stopping rule and subspace_distance's orthonormality check
_TOL = 1e-10
_MAX_ITERS = 500
_FRAME_TOL = 1e-6
_EPS = np.finfo(float).eps

# np.linalg's gufuncs, under their numpy >= 2.0 names: solve for a stack of
# one-column systems and for several right-hand sides (dgesv per item), the
# two halves of the reduced QR factorization (dgeqrf, dorgqr) and the
# singular values (dgesdd)
_la = np.linalg._umath_linalg
_solve1, _solve = _la.solve1, _la.solve
_qr_r_raw, _qr_reduced = _la.qr_r_raw, _la.qr_reduced
_svdvals = _la.svd


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
    """Exact heads for a fixed B. Returns W (k x T, C-ordered: the loss and
    the B-step round differently on a transposed view) and the projected
    right-hand sides m_t = B^T H_t (T, k) of the systems M_t w_t = m_t,
    M_t = B^T G_t B, that every head solves.

    All T systems go to LAPACK's dgesv in one batched call, under
    np.linalg.solve's error state minus its raising handler, so a system LU
    finds exactly singular gives a NaN head instead of failing the batch.
    One rule then picks each head: n_t = 0 keeps a zero head; 0 < n_t < k,
    where M_t is singular and squaring X_t B blurs its rank, and a NaN head
    take the minimum-norm least-squares solution against X_t B itself,
    from rows(t) = (X_t, Y_t); every other head is the LU head. The rule
    reads each task alone, so each head equals what head_for gives on that
    task."""
    M = B.T @ (G @ B)
    m = (B.T @ H[..., None])[..., 0]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        W = np.ascontiguousarray(_solve1(M, m, signature="dd->d").T)
    off_lu = (counts < B.shape[1]) | np.isnan(W).any(axis=0)
    for t in off_lu.nonzero()[0]:
        if counts[t] == 0:
            W[:, t] = 0.0
            continue
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


@functools.cache
def _probes(n):
    """The fixed right-hand sides of _solve_pos's condition estimate, as the
    rows of a read-only 3 x n array, each scaled to a largest entry of 1:
    Higham's alternating ramp (-1)^i (1 + i / (n - 1)), the last test
    vector of LAPACK's norm estimator (dlacn2), and two fixed-seed Gaussian
    vectors."""
    i = np.arange(n)
    V = np.vstack([np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(n - 1, 1)),
                   _rng(n).standard_normal((2, n))])
    V /= np.abs(V).max(axis=1, keepdims=True)
    V.setflags(write=False)
    return V


def _solve_pos(A, b):
    """Solve A x = b for symmetric positive semidefinite A by LU with
    partial pivoting (dgesv), in one call with A y = v for each probe v
    (_probes). It factors A.T, the same matrix for a symmetric A: that is
    A's F-ordered view, the layout LAPACK takes, so the call copies a
    C-ordered A row by row instead of by a transposing gather. Since
    ||v||_inf = 1, max |y| is a lower bound on
    ||A^-1||_inf, which it misses by a large factor only when every probe
    lies near the span of A's large eigenvectors; and
    ||A||_inf <= n max_i A_ii, since no entry of a positive semidefinite A
    exceeds its largest diagonal entry. So 1 / (n max_i A_ii max |y|)
    estimates the reciprocal condition number, as LAPACK's dpocon would
    from a Cholesky factor. Raises LinAlgError when LU meets an exactly
    zero pivot or the estimate is below machine epsilon, where the solution
    would be noise."""
    n = b.shape[0]
    # the right-hand sides as rows, which the solutions overwrite
    X = np.concatenate((b[None], _probes(n)))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        _solve(A.T, X.T, out=X.T, signature="dd->d")
        # a zero pivot leaves X NaN, and NaN fails the comparison
        rcond = 1.0 / (n * A.diagonal().max() * np.abs(X[1:]).max())
    if not rcond >= _EPS:
        raise np.linalg.LinAlgError(f"reciprocal condition estimate "
                                    f"{rcond:.3e} is below machine epsilon")
    return X[0]


def _orthonormalize(A):
    """Q of the thin QR factorization of A (d x k, d >= k) by
    dgeqrf/dorgqr, C-ordered: np.linalg.qr(A)[0] without its checks. The
    first gufunc leaves R and the reflectors in its input, a copy of A."""
    a = np.array(A, dtype=float)
    return _qr_reduced(a, _qr_r_raw(a, signature="d->d"), signature="dd->d")


def _b_step_work(d, k):
    """The arrays _b_step forms its normal matrix in: the (k^2, d^2)
    product and the (d k, d k) matrix."""
    return np.empty((k * k, d * d)), np.empty((d * k, d * k))


def _b_step(u, H, G, W, work=None):
    """vec(B) solving the B-step's normal equations, as a d x k array,
    formed in work (_b_step_work; fresh arrays when None). fit_source
    passes one work pair to all its steps: allocating these arrays on
    every step can page-fault on every step, where the allocator returns
    the freed heap top to the system each time."""
    T, d = H.shape
    k = W.shape[0]
    C, M = _b_step_work(d, k) if work is None else work
    # sum_t u_t kron(w_t w_t^T, G_t): entry [a, b, i, j] of the (k^2, d^2)
    # product lands at [a*d + i, b*d + j]
    P = (W.T * u[:, None])[:, :, None] * W.T[:, None, :]
    np.matmul(P.reshape(T, k * k).T, G.reshape(T, d * d), out=C)
    M.reshape(k, d, k, d)[...] = C.reshape(k, k, d, d).transpose(0, 2, 1, 3)
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
    ridged = G[active]
    ridged[:, np.arange(d), np.arange(d)] += _INIT_RIDGE
    # an exactly singular system raises FloatingPointError
    with np.errstate(invalid="raise"):
        M[:, active] = _solve1(ridged, H[active], signature="dd->d").T
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    avail = min(rank, k)
    if avail == k:
        return U[:, :k]
    rng = _rng(0)
    pad = np.column_stack([U[:, :avail], rng.standard_normal((d, k - avail))])
    return _orthonormalize(pad)


def fit_source(datasets, k, init_B=None):
    """Fit the shared representation on source-task datasets.

    Args:
        datasets: sequence of TaskDataset; column t of W_hat corresponds to
            datasets[t]. Tasks with n = 0 are carried with a zero head and
            contribute nothing to the objective.
        k: latent dimension of the representation.
        init_B: optional finite d x k warm start for the representation; it
            is re-orthonormalized and replaces the spectral initialization.

    Returns:
        FittedModel with a non-increasing train_loss_history. The fit stops
        when a step lowers the loss by at most 1e-10 of its value
        (converged), or after 500 steps with a RuntimeWarning.

    Raises:
        ValueError: on malformed input, or when d*k exceeds 20000, the
            largest B-step system the fit forms.
    """
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
        if not np.all(np.isfinite(init_B)):
            raise ValueError("init_B must be finite")
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
    work = _b_step_work(d, k)
    converged = False
    for _ in range(_MAX_ITERS):
        B = _orthonormalize(_b_step(u, H, G, W, work))
        W = heads_and_loss(B)
        prev, cur = history[-2], history[-1]
        if prev - cur <= _TOL * max(abs(prev), 1e-300):
            converged = True
            break
    else:
        warnings.warn(f"alternating fit stopped after {_MAX_ITERS} "
                      f"iterations without reaching tol {_TOL:g}",
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
    lstsq(X B_hat, Y). Raises ValueError for n = 0."""
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
    """Population excess risk of the fitted target predictor: with N(0, I_d)
    inputs, the squared distance between its regression vector and the
    target's."""
    if model.w_target_hat is None:
        raise ValueError("model has no target head; run fit_target_head first")
    delta = model.B_hat @ model.w_target_hat - gt.B_star @ gt.w_target_star
    return float(delta @ delta)


def subspace_distance(B1, B2):
    """sin of the largest principal angle between two orthonormal frames,
    as the spectral norm of the part of B2 outside span(B1),
    ||B2 - B1 (B1^T B2)||_2. Read off the residual, identical frames give
    round-off of order eps, where sqrt(1 - cos^2) from the smallest cosine
    would give sqrt(eps) for a cosine one ulp below 1. Raises ValueError
    when either frame's B^T B is more than 1e-6 from the identity or not
    finite."""
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape or B1.ndim != 2:
        raise ValueError(f"shape mismatch {B1.shape} vs {B2.shape}")
    for name, B in (("first", B1), ("second", B2)):
        err = np.max(np.abs(B.T @ B - np.eye(B.shape[1])))
        if not err <= _FRAME_TOL:
            raise ValueError(f"{name} argument is not orthonormal (deviation {err:.3e})")
    return float(_svdvals(B2 - B1 @ (B1.T @ B2), signature="d->d")[0])
