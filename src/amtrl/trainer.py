"""Shared-representation fitting by alternating least squares.

The objective is the per-task-normalized empirical risk

    L(B, W) = (1/T) * sum_t (1/n_t) * ||Y_t - X_t B w_t||^2

alternating exact half-steps: each w_t is a least-squares solve against the
current X_t B, and B solves the stacked normal equations over vec(B) with all
w_t held fixed. B is re-orthonormalized by QR after every update with the R
factor absorbed into W, which leaves the objective unchanged. Both half-steps
are exact minimizers, so the recorded loss history is non-increasing.
"""

import dataclasses
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# above this many entries in vec(B), the B-step switches from a dense
# normal-equation solve to conjugate gradients on the same system
DENSE_VECB_LIMIT = 20000
# ridge on each task's Gram matrix in the spectral initialization
_INIT_RIDGE = 1e-8


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


def _loss_gram(u, yty, H, G, B, W):
    total = 0.0
    for t in range(len(u)):
        if u[t] == 0.0:
            continue
        w = W[:, t]
        Bw_gram = B.T @ (G[t] @ B)
        total += u[t] * (yty[t] - 2.0 * w @ (B.T @ H[t]) + w @ (Bw_gram @ w))
    return max(total, 0.0)


def _loss_residual(u, datasets, B, W):
    total = 0.0
    for t, ds in enumerate(datasets):
        if u[t] == 0.0:
            continue
        r = ds.Y - ds.X @ (B @ W[:, t])
        total += u[t] * (r @ r)
    return total


def _w_step(u, H, G, B, W):
    for t in range(W.shape[1]):
        if u[t] == 0.0:
            W[:, t] = 0.0
            continue
        M = B.T @ (G[t] @ B)
        m = B.T @ H[t]
        W[:, t] = np.linalg.lstsq(M, m, rcond=None)[0]
    return W


def _b_step_dense(u, H, G, W, d, k):
    M = np.zeros((d * k, d * k))
    rhs = np.zeros((d, k))
    for t in range(W.shape[1]):
        if u[t] == 0.0:
            continue
        w = W[:, t]
        M += u[t] * np.kron(np.outer(w, w), G[t])
        rhs += u[t] * np.outer(H[t], w)
    rhs = rhs.ravel(order="F")
    try:
        sol = scipy.linalg.solve(M, rhs, assume_a="pos")
    except (scipy.linalg.LinAlgError, ValueError):
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol.reshape(d, k, order="F")


def _b_step_cg(u, H, G, W, B, d, k):
    active = [t for t in range(W.shape[1]) if u[t] != 0.0]

    def apply(v):
        V = v.reshape(d, k, order="F")
        out = np.zeros((d, k))
        for t in active:
            w = W[:, t]
            out += u[t] * np.outer(G[t] @ (V @ w), w)
        return out.ravel(order="F")

    op = scipy.sparse.linalg.LinearOperator((d * k, d * k), matvec=apply)
    rhs = np.zeros((d, k))
    for t in active:
        rhs += u[t] * np.outer(H[t], W[:, t])
    sol, info = scipy.sparse.linalg.cg(op, rhs.ravel(order="F"),
                                       x0=B.ravel(order="F"), rtol=1e-12,
                                       atol=0.0)
    if info != 0:
        warnings.warn(f"conjugate gradients in the B-step returned info "
                      f"{info}; the step may be inexact", RuntimeWarning,
                      stacklevel=3)
    return sol.reshape(d, k, order="F")


def _spectral_init(u, H, G, d, k):
    """Top-k left singular vectors of the per-task ridge solutions, padded
    with fixed-seed random directions when they span fewer than k."""
    cols = []
    for t in range(len(u)):
        if u[t] == 0.0:
            cols.append(np.zeros(d))
        else:
            cols.append(np.linalg.solve(G[t] + _INIT_RIDGE * np.eye(d), H[t]))
    M = np.column_stack(cols) if cols else np.zeros((d, 1))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    avail = min(rank, k)
    if avail == k:
        return U[:, :k]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    pad = np.column_stack([U[:, :avail], rng.standard_normal((d, k - avail))])
    return np.linalg.qr(pad)[0][:, :k]


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
    """
    if options is None:
        options = FitOptions()
    if not datasets:
        raise ValueError("need at least one dataset")
    T = len(datasets)
    d = datasets[0].X.shape[1]
    if any(ds.X.shape[1] != d for ds in datasets):
        raise ValueError("datasets disagree on input dimension")
    if not (1 <= k <= d):
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")

    u = np.array([0.0 if ds.n == 0 else 1.0 / (T * ds.n) for ds in datasets])
    G = [ds.X.T @ ds.X for ds in datasets]
    H = [ds.X.T @ ds.Y for ds in datasets]
    yty = [float(ds.Y @ ds.Y) for ds in datasets]

    if init_B is not None:
        init_B = np.asarray(init_B, dtype=float)
        if init_B.shape != (d, k):
            raise ValueError(f"init_B must be {d} x {k}, got {init_B.shape}")
        B = np.linalg.qr(init_B)[0]
    else:
        B = _spectral_init(u, H, G, d, k)

    W = _w_step(u, H, G, B, np.zeros((k, T)))

    def loss(B, W, gram_value=None):
        val = _loss_gram(u, yty, H, G, B, W) if gram_value is None else gram_value
        # near the noiseless floor the Gram form loses digits to cancellation;
        # recompute from residuals where it matters
        if val <= 1e-8 * (1.0 + history[0] if history else 1.0):
            val = _loss_residual(u, datasets, B, W)
        return val

    history = []
    history.append(loss(B, W))
    converged = False
    dense = d * k <= DENSE_VECB_LIMIT
    for _ in range(options.max_iters):
        B_raw = _b_step_dense(u, H, G, W, d, k) if dense else _b_step_cg(u, H, G, W, B, d, k)
        Q, R = np.linalg.qr(B_raw)
        B = Q
        W = R @ W
        W = _w_step(u, H, G, B, W)
        history.append(loss(B, W))
        prev, cur = history[-2], history[-1]
        if prev - cur <= options.tol * max(abs(prev), 1e-300):
            converged = True
            break
    return FittedModel(B_hat=B, W_hat=W, w_target_hat=None,
                       train_loss_history=history, iterations=len(history) - 1,
                       converged=converged)


def head_for(B_hat, dataset):
    """Minimum-norm least-squares head for one task against a fixed B_hat."""
    if dataset.n == 0:
        raise ValueError("cannot fit a head on zero samples")
    return np.linalg.lstsq(dataset.X @ B_hat, dataset.Y, rcond=None)[0]


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
    """sin of the largest principal angle between two orthonormal frames."""
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape or B1.ndim != 2:
        raise ValueError(f"shape mismatch {B1.shape} vs {B2.shape}")
    for name, B in (("first", B1), ("second", B2)):
        err = np.max(np.abs(B.T @ B - np.eye(B.shape[1])))
        if err > tol:
            raise ValueError(f"{name} argument is not orthonormal (deviation {err:.3e})")
    s = scipy.linalg.svdvals(B1.T @ B2)
    sk = float(s[-1])
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, sk) ** 2)))


def save_model(model, path):
    """Write a fitted model as JSON (arrays row-major)."""
    from . import jsonio
    doc = {
        "B_hat": model.B_hat.ravel(order="C").tolist(),
        "shape_B": list(model.B_hat.shape),
        "W_hat": model.W_hat.ravel(order="C").tolist(),
        "shape_W": list(model.W_hat.shape),
        "w_target_hat": None if model.w_target_hat is None
        else model.w_target_hat.tolist(),
        "train_loss_history": [float(v) for v in model.train_loss_history],
        "iterations": model.iterations,
        "converged": model.converged,
    }
    jsonio.dump(doc, path)


def load_model(path):
    from . import jsonio
    doc = jsonio.load(path)
    dB = doc["shape_B"]
    dW = doc["shape_W"]
    w = doc["w_target_hat"]
    return FittedModel(
        B_hat=np.asarray(doc["B_hat"], float).reshape(dB),
        W_hat=np.asarray(doc["W_hat"], float).reshape(dW),
        w_target_hat=None if w is None else np.asarray(w, float),
        train_loss_history=[float(v) for v in doc["train_loss_history"]],
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
    )
