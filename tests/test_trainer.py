"""Alternating least-squares representation fitting."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from amtrl import trainer
from amtrl import (
    FitOptions,
    TaskDataset,
    excess_risk,
    fit_source,
    fit_target_head,
    head_for,
    make_random_instance,
    sample_task,
    subspace_distance,
)
from oracles import (b_step_dense_oracle, b_step_system_oracle,
                     loss_gram_oracle, spectral_init_oracle, w_step_oracle)

EPS = np.finfo(float).eps


def _datasets(gt, n, seed=0):
    return [sample_task(gt, t, n, seed=seed) for t in range(gt.T)]


def test_loss_history_non_increasing():
    for seed in range(5):
        gt = make_random_instance(10, 3, 8, sigma_z=0.5, seed=seed)
        model = fit_source(_datasets(gt, 40, seed=seed), gt.k)
        hist = np.asarray(model.train_loss_history)
        assert hist.size >= 2
        diffs = np.diff(hist)
        assert np.all(diffs <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_noiseless_recovery():
    gt = make_random_instance(12, 3, 9, sigma_z=0.0, sigma_min_floor=0.5, seed=4)
    model = fit_source(_datasets(gt, 50 * gt.d, seed=1), gt.k)
    assert model.converged
    assert model.train_loss_history[-1] <= 1e-16 * (1.0 + model.train_loss_history[0])
    assert subspace_distance(model.B_hat, gt.B_star) <= 1e-6


def test_warm_start_init_b():
    gt = make_random_instance(8, 2, 6, sigma_z=0.2, seed=3)
    data = _datasets(gt, 60, seed=2)
    cold = fit_source(data, gt.k)
    warm = fit_source(data, gt.k, init_B=cold.B_hat)
    # restarting from the fixed point should converge almost immediately
    assert warm.iterations <= 3
    assert warm.train_loss_history[-1] <= cold.train_loss_history[-1] * (1 + 1e-9)
    with pytest.raises(ValueError):
        fit_source(data, gt.k, init_B=np.ones((gt.d, gt.k + 1)))


def test_zero_sample_task_is_carried():
    gt = make_random_instance(7, 2, 5, sigma_z=0.1, seed=0)
    data = _datasets(gt, 50, seed=5)
    empty = sample_task(gt, 2, 0, seed=5, draw=1)
    data[2] = empty
    model = fit_source(data, gt.k)
    assert model.W_hat.shape == (gt.k, gt.T)
    np.testing.assert_array_equal(model.W_hat[:, 2], np.zeros(gt.k))
    hist = np.asarray(model.train_loss_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))
    with pytest.raises(ValueError):
        head_for(model.B_hat, empty)


def test_excess_risk_matches_direct_computation():
    gt = make_random_instance(9, 3, 6, sigma_z=0.3, seed=7)
    model = fit_source(_datasets(gt, 80, seed=3), gt.k)
    target = sample_task(gt, gt.T, 200, seed=3)
    model = fit_target_head(model, target)
    # identity covariance: ER is the squared parameter error in R^d
    direct = float(np.sum((model.B_hat @ model.w_target_hat
                           - gt.B_star @ gt.w_target_star) ** 2))
    np.testing.assert_allclose(excess_risk(model, gt), direct, rtol=1e-12)


def test_excess_risk_requires_target_head():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=1)
    model = fit_source(_datasets(gt, 30, seed=1), gt.k)
    with pytest.raises(ValueError):
        excess_risk(model, gt)


def test_subspace_distance_properties():
    rng = np.random.default_rng(0)
    B1 = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    B2 = np.linalg.qr(rng.standard_normal((10, 3)))[0]
    # read off the residual B2 - B1 B1^T B2, one subspace gives round-off
    # of order eps (sqrt(1 - cos^2) would give sqrt(eps) for a cosine one
    # ulp below 1), also spanned by a rotated frame
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    assert subspace_distance(B1, B1) < 1e-12
    assert subspace_distance(B1, B1 @ Q) < 1e-12
    # one principal angle theta: the distance is sin(theta)
    theta, e = 0.3, np.eye(10)
    tilted = np.column_stack([e[:, 0], np.cos(theta) * e[:, 1]
                              + np.sin(theta) * e[:, 2], e[:, 3]])
    assert subspace_distance(e[:, [0, 1, 3]], tilted) == pytest.approx(
        np.sin(theta), rel=1e-14)
    # invariant under right-rotation of either frame
    np.testing.assert_allclose(subspace_distance(B1, B2),
                               subspace_distance(B1 @ Q, B2), atol=1e-10)
    d = subspace_distance(B1, B2)
    assert 0.0 <= d <= 1.0
    with pytest.raises(ValueError):
        subspace_distance(B1, B2[:, :2])
    with pytest.raises(ValueError):
        subspace_distance(np.ones((10, 3)), B2)


def test_fit_source_input_validation():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=0)
    data = _datasets(gt, 20, seed=0)
    with pytest.raises(ValueError):
        fit_source([], gt.k)
    with pytest.raises(ValueError):
        fit_source(data, 0)
    with pytest.raises(ValueError):
        fit_source(data, gt.d + 1)
    other = sample_task(make_random_instance(5, 2, 4, sigma_z=0.1, seed=0), 0,
                        20, seed=0)
    with pytest.raises(ValueError):
        fit_source(data + [other], gt.k)


class _DimensionOnly:
    """A dataset of which the fit may read only n and d."""

    def __init__(self, d):
        self.n, self.d = 0, d

    def __getattr__(self, name):
        raise AssertionError(f"{name} read on an oversized fit")


def test_fit_source_rejects_oversized_b_step():
    # d*k = 20100 is past the dense B-step's limit; the check runs before
    # any statistics or rows are read
    with pytest.raises(ValueError, match="exceeds 20000"):
        fit_source([_DimensionOnly(201), _DimensionOnly(201)], 100)


def test_head_for_recovers_true_head_noiseless():
    gt = make_random_instance(8, 3, 6, sigma_z=0.0, seed=6)
    ds = sample_task(gt, 1, 200, seed=6)
    # with B fixed at the truth, the head solve is plain least squares
    w = head_for(gt.B_star, ds)
    np.testing.assert_allclose(w, gt.W_star[:, 1], atol=1e-10)


def test_unconverged_fit_warns():
    gt = make_random_instance(8, 3, 6, sigma_z=0.3, seed=2)
    data = _datasets(gt, 40, seed=2)
    with pytest.warns(RuntimeWarning, match="stopped after 1 iterations"):
        model = fit_source(data, gt.k, FitOptions(max_iters=1))
    assert model.converged is False
    assert model.iterations == 1


@st.composite
def _stacked_problems(draw):
    """(datasets, counts, u, G, H, yty, B, W) for d in 1..8, k in 1..d and T
    in 1..10, so T < k occurs. Each task has n_t = 0, 0 < n_t < k or
    n_t >= k samples; B is orthonormal and W has zero heads where n_t = 0,
    as the fit keeps them."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, d))
    T = draw(st.integers(1, 10))
    count = st.one_of(st.just(0), st.integers(k, 3 * d + 2),
                      *([st.integers(1, k - 1)] if k > 1 else []))
    counts = draw(st.lists(count, min_size=T, max_size=T))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = [TaskDataset(task_index=t, X=rng.standard_normal((n, d)),
                        Y=rng.standard_normal(n), n=n, seed=0)
            for t, n in enumerate(counts)]
    counts, u, G, H, yty = trainer._stack_stats(data)
    B = np.linalg.qr(rng.standard_normal((d, k)))[0]
    W = rng.standard_normal((k, T)) * (counts > 0)
    return data, counts, u, G, H, yty, B, W


def _assert_same_minimizer(M, rhs, x, x_ref):
    """x and x_ref both minimize x^T M x - 2 rhs^T x: the objective agrees
    within 1e-10 of the size of its terms, and the solutions within 1e-10
    relative plus the forward error cond(M) * 256 eps that any two direct
    solvers may differ by (unbounded for a singular M, where the objective
    is the check)."""
    def objective(v):
        return v @ (M @ v) - 2.0 * rhs @ v

    mag = np.abs(x_ref)
    scale = mag @ (np.abs(M) @ mag) + 2.0 * np.abs(rhs) @ mag + 1e-300
    assert abs(objective(x) - objective(x_ref)) <= 1e-10 * scale
    tol = 1e-10 + 256 * EPS * np.linalg.cond(M)
    assert np.max(np.abs(x - x_ref)) <= tol * max(np.max(np.abs(x_ref)), 1e-300)


@settings(max_examples=200, deadline=None)
@given(_stacked_problems())
def test_stacked_w_step_and_loss_match_per_task_reference(problem):
    data, counts, u, G, H, yty, B, _ = problem
    W, m = trainer._w_step(counts, H, G, B, lambda t: data[t].rows())
    W_ref = w_step_oracle(data, B)
    k = B.shape[1]
    for t in range(counts.size):
        if counts[t] == 0:
            np.testing.assert_array_equal(W[:, t], 0.0)
        elif counts[t] < k:
            # the same minimum-norm solve against X_t B on both sides
            np.testing.assert_array_equal(W[:, t], W_ref[:, t])
        else:
            _assert_same_minimizer(B.T @ G[t] @ B, B.T @ H[t], W[:, t],
                                   W_ref[:, t])
    loss = trainer._loss_gram(u, yty, m, W)
    M = B.T @ (G @ B)
    terms = yty + np.abs(np.einsum("it,ti->t", W, 2.0 * m)) + np.abs(
        np.einsum("it,tij,jt->t", W, M, W))
    assert abs(loss - loss_gram_oracle(u, yty, H, G, B, W)) <= 1e-10 * (u @ terms)


# draws include singular normal equations (T < k, n_t < d), where the
# oracle's scipy solve may warn that the Cholesky solve is ill-conditioned
# and either side may fall back to least squares; the comparison is on the
# normal equations either way
@settings(max_examples=200, deadline=None)
@given(_stacked_problems())
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_stacked_b_step_matches_per_task_reference(problem):
    _, _, u, G, H, _, _, W = problem
    M, rhs = b_step_system_oracle(u, H, G, W)
    B_raw = trainer._b_step(u, H, G, W)
    B_ref = b_step_dense_oracle(u, H, G, W)
    _assert_same_minimizer(M, rhs, B_raw.ravel(order="F"),
                           B_ref.ravel(order="F"))


@settings(max_examples=200, deadline=None)
@given(_stacked_problems())
def test_stacked_spectral_init_matches_per_task_reference(problem):
    _, _, u, G, H, _, B, _ = problem
    k = B.shape[1]
    init = trainer._spectral_init(u, H, G, k)
    ref = spectral_init_oracle(u, H, G, k, trainer._INIT_RIDGE)
    np.testing.assert_allclose(init @ init.T, ref @ ref.T, rtol=0, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(_stacked_problems())
@pytest.mark.filterwarnings("ignore:alternating fit stopped:RuntimeWarning")
def test_fitted_heads_are_head_for(problem):
    # the pipelines read the source heads off W_hat instead of re-solving them
    data, counts, *_, B, _ = problem
    model = fit_source(data, B.shape[1], FitOptions(max_iters=5))
    for t, ds in enumerate(data):
        if counts[t] > 0:
            np.testing.assert_array_equal(model.W_hat[:, t],
                                          head_for(model.B_hat, ds))


@pytest.mark.filterwarnings("ignore:alternating fit stopped:RuntimeWarning")
def test_fitted_heads_are_head_for_beside_a_singular_task():
    # task 1's all-zero X makes M_1 exactly singular, so the batched solve
    # raises and the W-step solves task by task: task 1 gets the
    # minimum-norm (zero) head and every other head is still head_for's
    d, k = 5, 2
    rng = np.random.default_rng(3)
    data = [TaskDataset(task_index=t, X=rng.standard_normal((12, d)) * (t != 1),
                        Y=rng.standard_normal(12), n=12, seed=0)
            for t in range(4)]
    model = fit_source(data, k, FitOptions(max_iters=5))
    np.testing.assert_array_equal(model.W_hat[:, 1], 0.0)
    for t, ds in enumerate(data):
        np.testing.assert_array_equal(model.W_hat[:, t],
                                      head_for(model.B_hat, ds))


def test_singular_b_step_takes_minimum_norm_solution():
    # T = 3 heads cannot span k = 4, so the normal matrix is singular. On
    # this draw the Cholesky factorization still succeeds, with dpocon's
    # estimate near 1e-18: the step must not solve through it (scipy's solve
    # warned and returned vec(B) off by half its size) but take the
    # minimum-norm solution, without a warning
    d, k, T, n = 5, 4, 3, 6
    rng = np.random.default_rng(14)
    data = [TaskDataset(task_index=t, X=rng.standard_normal((n, d)),
                        Y=rng.standard_normal(n), n=n, seed=0)
            for t in range(T)]
    _, u, G, H, _ = trainer._stack_stats(data)
    W = rng.standard_normal((k, T))
    M, rhs = b_step_system_oracle(u, H, G, W)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        B_raw = trainer._b_step(u, H, G, W)
    ref = np.linalg.lstsq(M, rhs, rcond=None)[0]
    np.testing.assert_allclose(B_raw.ravel(order="F"), ref, rtol=0,
                               atol=1e-10 * np.max(np.abs(ref)))


@st.composite
def _spd_systems(draw, definite=True):
    """(A, b) with A of order d*k for d in 1..8 and k in 1..d: symmetric
    positive definite with eigenvalues in [1, 10], or with one of them
    negative when definite is False."""
    d = draw(st.integers(1, 8))
    n = d * draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = rng.uniform(1.0, 10.0, n)
    if not definite:
        eig[rng.integers(n)] = -rng.uniform(0.5, 10.0)
    return (Q * eig) @ Q.T, rng.standard_normal(n)


@settings(max_examples=200, deadline=None)
@given(_spd_systems())
def test_cholesky_solve_matches_scipy(system):
    A, b = system
    x = trainer._solve_pos(A, b)
    ref = scipy.linalg.solve(A, b, assume_a="pos")
    np.testing.assert_allclose(x, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


@settings(max_examples=100, deadline=None)
@given(_spd_systems(definite=False))
def test_cholesky_solve_rejects_indefinite(system):
    A, b = system
    with pytest.raises(np.linalg.LinAlgError):
        trainer._solve_pos(A, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, d), st.integers(0, 2 ** 32 - 1))))
def test_orthonormalize_matches_numpy_qr(shape):
    d, k, seed = shape
    A = np.random.default_rng(seed).standard_normal((d, k))
    Q = trainer._orthonormalize(A)
    np.testing.assert_allclose(Q, np.linalg.qr(A)[0], rtol=0, atol=1e-12)
    assert Q.flags["C_CONTIGUOUS"]


@st.composite
def _head_problems(draw):
    """(dataset, B, full_rank) with d in 1..8, k in 1..d and n >= k rows. X
    is Gaussian, so X B has rank k, or a product of n x r and r x d Gaussian
    factors with r < k, so X B is rank-deficient (all zero for r = 0)."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, d))
    n = k + draw(st.integers(0, 3 * d))
    r = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if r == k:
        X = rng.standard_normal((n, d))
    else:
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    ds = TaskDataset(task_index=0, X=X, Y=rng.standard_normal(n), n=n, seed=0)
    return ds, np.linalg.qr(rng.standard_normal((d, k)))[0], r == k


@settings(max_examples=300, deadline=None)
@given(_head_problems())
def test_gram_route_head_matches_lstsq(problem):
    ds, B, full_rank = problem
    XB = ds.X @ B
    ref = np.linalg.lstsq(XB, ds.Y, rcond=None)[0]
    w = head_for(B, ds)
    if full_rank:
        # the normal equations square the condition number
        tol = 1e-10 + np.linalg.cond(XB) ** 2 * 256 * EPS
        assert np.max(np.abs(w - ref)) <= tol * max(np.max(np.abs(ref)),
                                                    1e-300)
    else:
        # a least-squares solution, in general not the minimum-norm one:
        # its residual matches up to the rounding in forming it
        res, res_ref = XB @ w - ds.Y, XB @ ref - ds.Y
        scale = (np.linalg.norm(XB, 2) * np.linalg.norm(w)
                 + np.linalg.norm(ds.Y)) ** 2
        assert abs(res @ res - res_ref @ res_ref) <= 256 * EPS * scale
