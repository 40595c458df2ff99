"""Alternating least-squares representation fitting."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from amtrl import trainer
from amtrl import (
    FitOptions,
    TaskDataset,
    excess_risk,
    fit_source,
    fit_target_head,
    head_for,
    load_model,
    make_random_instance,
    sample_task,
    save_model,
    subspace_distance,
)


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
    # sqrt(1 - s^2) amplifies unit-roundoff in s toward 1e-8, not 1e-16
    assert subspace_distance(B1, B1) <= 1e-7
    # invariant under right-rotation of either frame
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
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


def test_save_load_model_round_trip(tmp_path):
    gt = make_random_instance(7, 2, 5, sigma_z=0.2, seed=4)
    model = fit_source(_datasets(gt, 40, seed=4), gt.k)
    model = fit_target_head(model, sample_task(gt, gt.T, 100, seed=4))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.B_hat, model.B_hat)
    np.testing.assert_array_equal(back.W_hat, model.W_hat)
    np.testing.assert_array_equal(back.w_target_hat, model.w_target_hat)
    assert back.iterations == model.iterations
    assert back.converged == model.converged
    np.testing.assert_array_equal(back.train_loss_history,
                                  model.train_loss_history)
    # edge values come back bit for bit, signed zero included
    edge = np.array([-0.0, 5e-324, -2.2250738585072014e-308,
                     np.finfo(float).max, -np.finfo(float).max, 0.1])
    model = dataclasses.replace(model, B_hat=edge.reshape(3, 2),
                                W_hat=-edge.reshape(2, 3))
    save_model(model, path)
    back = load_model(path)
    for got, want in ((back.B_hat, model.B_hat), (back.W_hat, model.W_hat)):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_head_for_recovers_true_head_noiseless():
    gt = make_random_instance(8, 3, 6, sigma_z=0.0, seed=6)
    ds = sample_task(gt, 1, 200, seed=6)
    # with B fixed at the truth, the head solve is plain least squares
    w = head_for(gt.B_star, ds)
    np.testing.assert_allclose(w, gt.W_star[:, 1], atol=1e-10)


def test_matrix_free_b_step_matches_dense(monkeypatch):
    gt = make_random_instance(10, 3, 8, sigma_z=0.3, seed=6)
    data = _datasets(gt, 60, seed=3)
    dense = fit_source(data, gt.k)
    monkeypatch.setattr(trainer, "DENSE_VECB_LIMIT", 1)
    calls = []
    original = trainer._b_step_cg

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(trainer, "_b_step_cg", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cg = fit_source(data, gt.k)
    assert len(calls) == cg.iterations  # every B-step went matrix-free
    assert cg.converged and dense.converged
    np.testing.assert_allclose(cg.B_hat, dense.B_hat, atol=1e-8)
    np.testing.assert_allclose(cg.W_hat, dense.W_hat, atol=1e-8)
    hist = np.asarray(cg.train_loss_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(np.abs(hist[:-1]), 1.0))


def test_matrix_free_b_step_warns_when_cg_stops_early(monkeypatch):
    gt = make_random_instance(8, 2, 5, sigma_z=0.3, seed=1)
    data = _datasets(gt, 40, seed=1)
    monkeypatch.setattr(trainer, "DENSE_VECB_LIMIT", 1)
    real_cg = scipy.sparse.linalg.cg
    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda *a, **kw: (real_cg(*a, **kw)[0], 7))
    with pytest.warns(RuntimeWarning, match="info 7"):
        fit_source(data, gt.k, FitOptions(max_iters=2))
