"""Relevance-vector solvers: exact LP, Lasso, and minimum-L2."""

import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from amtrl import (
    cost_aware_allocate,
    kkt_residual,
    l1_oracle_lp,
    lambda_rule,
    lasso,
    make_random_instance,
    min_l2_solution,
    norm_bound_check,
    support_size,
)
from amtrl import relevance
from oracles import kkt_residual_oracle, lasso_oracle


def _rand_system(seed, k=4, T=10):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((k, T))
    w = rng.standard_normal(k)
    return W, w


def _linprog_l1(W, w):
    """Reference min-L1 optimum via an independent LP solver (HiGHS)."""
    k, T = W.shape
    res = scipy.optimize.linprog(
        c=np.ones(2 * T), A_eq=np.hstack([W, -W]), b_eq=w,
        bounds=[(0, None)] * (2 * T), method="highs")
    assert res.status == 0
    return res.x[:T] - res.x[T:], res.fun


def test_min_l2_matches_pinv():
    W, w = _rand_system(0)
    np.testing.assert_allclose(min_l2_solution(W, w),
                               np.linalg.pinv(W) @ w, atol=1e-10)


def test_min_l2_rejects_rank_deficient():
    W = np.ones((3, 6))
    with pytest.raises(ValueError):
        min_l2_solution(W, np.ones(3))
    with pytest.raises(ValueError):
        l1_oracle_lp(W, np.ones(3))
    # a non-finite W is refused before its singular values are taken
    for bad in (np.nan, np.inf):
        W = _rand_system(0)[0].copy()
        W[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            min_l2_solution(W, np.ones(W.shape[0]))


def test_l1_oracle_feasible_sparse_and_optimal():
    for seed in range(20):
        W, w = _rand_system(seed, k=4, T=12)
        nu = l1_oracle_lp(W, w)
        np.testing.assert_allclose(W @ nu, w, atol=1e-9)
        assert support_size(nu) <= 4
        # cross-check the optimal value against an independent LP solver
        _, ref_val = _linprog_l1(W, w)
        np.testing.assert_allclose(np.abs(nu).sum(), ref_val,
                                   rtol=1e-8, atol=1e-10)


def test_l1_oracle_one_sparse_when_a_column_is_parallel():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 8))
    W /= np.linalg.norm(W, axis=0)  # equal column norms
    w = 2.5 * W[:, 5]
    nu = l1_oracle_lp(W, w)
    expect = np.zeros(8)
    expect[5] = 2.5
    np.testing.assert_allclose(nu, expect, atol=1e-9)


def test_lasso_identity_design_soft_threshold():
    w = np.array([3.0, -1.5, 0.4, -0.2])
    lam = 0.5
    nu, info = lasso(np.eye(4), w, lam)
    expect = np.sign(w) * np.maximum(np.abs(w) - lam, 0.0)
    np.testing.assert_allclose(nu, expect, atol=1e-12)
    assert info["converged"]


def test_lasso_large_lambda_gives_zero():
    W, w = _rand_system(1)
    lam_max = np.max(np.abs(W.T @ w))
    nu, _ = lasso(W, w, 1.01 * lam_max)
    np.testing.assert_array_equal(nu, np.zeros(W.shape[1]))


def test_lasso_penalty_is_a_number_at_least_zero():
    # NaN fails "lam < 0" as well as "lam >= 0", so it must be refused by
    # the second form; it used to return nu = 0 with a NaN KKT residual
    W, w = _rand_system(1)
    for lam in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="lam must be >= 0"):
            lasso(W, w, lam)
    nu, info = lasso(W, w, float("inf"))  # an infinite penalty gives 0
    np.testing.assert_array_equal(nu, np.zeros(W.shape[1]))


def test_lasso_scale_equivariance():
    W, w = _rand_system(2)
    lam = 0.3
    nu, _ = lasso(W, w, lam)
    nu_scaled, _ = lasso(W, 7.0 * w, 7.0 * lam)
    np.testing.assert_allclose(nu_scaled, 7.0 * nu, atol=1e-9)


def test_lasso_zero_lambda_degenerate_flag():
    W, w = _rand_system(4, k=3, T=9)
    _, info = lasso(W, w, 0.0)
    assert info["degenerate"]  # wide system: minimizer not unique at lam = 0
    _, info_sq = lasso(W[:, :3], w, 0.0)
    assert not info_sq["degenerate"]


def test_lasso_kkt_residual_small():
    for seed in range(10):
        W, w = _rand_system(seed, k=5, T=14)
        lam = 0.1 * np.max(np.abs(W.T @ w))
        nu, _ = lasso(W, w, lam)
        assert kkt_residual(W, w, nu, lam) <= 1e-9 * (1.0 + lam)


def test_lasso_input_validation():
    W, w = _rand_system(0)
    with pytest.raises(ValueError):
        lasso(W, w, -1.0)
    with pytest.raises(ValueError):
        lasso(W, w[:-1], 0.1)


def test_lasso_refuses_non_finite_inputs():
    # a NaN in W raised LinAlgError from an SVD, an inf in W returned
    # [nan, 0] with RuntimeWarnings, and a NaN in w returned zeros marked
    # unconverged; min_l2_solution and l1_oracle_lp refuse them too (they
    # returned [nan, nan] and raised simplex.UnboundedError for a NaN in w)
    W, w = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 0.5])
    solvers = (lambda W, w: lasso(W, w, 0.1), min_l2_solution, l1_oracle_lp)
    for bad in (np.nan, np.inf, -np.inf):
        for at in (0, 1):
            W_bad = W.copy()
            W_bad[at, at] = bad
            w_bad = w.copy()
            w_bad[at] = bad
            for args in ((W_bad, w), (W, w_bad)):
                for solve in solvers:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(ValueError,
                                           match="must be finite"):
                            solve(*args)
    # and a w whose length is not W's row count
    for solve in solvers:
        with pytest.raises(ValueError, match=r"w must be a finite vector "
                                             r"of shape \(2,\)"):
            solve(W, np.ones(3))


def test_lasso_lazy_lambda_matches_lp_on_conditioned_instances():
    # tiny-lam Lasso should land on the min-L1 polytope vertex set
    for s in range(10):
        gt = make_random_instance(
            d=12, k=4, T=15, sigma_z=0.1, sigma_min_floor=0.5, seed=777000 + s)
        W, w = gt.W_star, gt.w_target_star
        nu_cd, _ = lasso(W, w, 1e-8)
        nu_lp = l1_oracle_lp(W, w)
        gap = abs(np.abs(nu_cd).sum() - np.abs(nu_lp).sum())
        assert gap <= 1e-4 * (1.0 + np.abs(nu_lp).sum())
        np.testing.assert_allclose(W @ nu_cd, w, atol=1e-6)


def test_kkt_residual_detects_perturbation():
    W, w = _rand_system(6)
    lam = 0.2 * np.max(np.abs(W.T @ w))
    nu, _ = lasso(W, w, lam)
    base = kkt_residual(W, w, nu, lam)
    bumped = nu.copy()
    bumped[0] += 0.05
    assert kkt_residual(W, w, bumped, lam) > max(10 * base, 1e-4)


def test_lambda_rule():
    val = lambda_rule(k=4, R=1.0, C_W=2.0, sigma_min=0.5)
    assert val > 0
    # pessimistic by design: far below the data scale it is paired with
    assert val < 1.0
    with pytest.raises(ValueError):
        lambda_rule(k=0, R=1.0, C_W=1.0, sigma_min=1.0)
    with pytest.raises(ValueError):
        lambda_rule(k=4, R=1.0, C_W=1.0, sigma_min=0.0)


def test_norm_bound_check_consistency():
    for seed in range(10):
        W, w = _rand_system(seed, k=4, T=11)
        rep = norm_bound_check(W, w)
        # the L2 ceiling always holds; the L1 ceiling can fail and the
        # report must just state the measured comparison either way
        assert rep.l2_ok
        assert rep.l1_ok == (rep.l1_norm <= rep.l1_bound * (1 + 1e-9))
        assert rep.sigma_min > 0
        # the report measures the two minimum-norm solutions
        np.testing.assert_allclose(rep.l1_norm,
                                   np.abs(l1_oracle_lp(W, w)).sum(),
                                   atol=1e-12)
        np.testing.assert_allclose(rep.l2_norm,
                                   np.linalg.norm(min_l2_solution(W, w)),
                                   atol=1e-12)


def test_support_size_dead_band():
    nu = np.array([1.0, 1e-12, -0.5, 0.0])
    assert support_size(nu) == 2
    assert support_size(np.zeros(3)) == 0
    assert support_size(np.array([])) == 0
    # the band is relative: a nonzero nu is never all dead band
    assert support_size(np.array([6.25e-10])) == 1
    assert support_size(np.array([6.25e-10, 1e-19])) == 1


@st.composite
def _banded_vectors(draw):
    """nu with max |nu| = m in 1e-6..1e6 and its other entries 0, -0.0 or of
    magnitude m 10^-e with e in 0..12, so a share of them fall in the dead
    band; e = 9 lands on its edge."""
    m = draw(st.floats(1e-6, 1e6))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9]),
                      st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
                      st.floats(-12.0, 0.0).map(lambda e: -10.0 ** e))
    rest = draw(st.lists(entry, max_size=11))
    return m * np.array([draw(st.sampled_from([1.0, -1.0]))] + rest)


@settings(max_examples=300, deadline=None)
@given(_banded_vectors(), st.integers(-40, 40), st.integers(0, 20),
       st.integers(0, 2000))
def test_dead_band_is_shared(nu, j, F, spare):
    dead = relevance.dead_banded(nu)
    inside = np.abs(nu) <= 1e-9 * np.abs(nu).max()
    np.testing.assert_array_equal(dead, np.where(inside, 0.0, nu))
    assert support_size(nu) == np.count_nonzero(dead)
    # a power of two rescales every entry and the band's edge exactly
    np.testing.assert_array_equal(relevance.dead_banded(2.0 ** j * nu),
                                  2.0 ** j * dead)
    assert support_size(2.0 ** j * nu) == support_size(nu)
    # cost-aware allocation spends above the floor only on that support
    alloc = cost_aware_allocate(nu, nu.size * F + spare, F)
    assert np.all(dead[alloc.n > F] != 0.0)


@st.composite
def _small_systems(draw):
    """Desk-scale (W, w): generic, rank-deficient, or with repeated,
    negated and zero columns."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    k = draw(st.integers(1, 4))
    T = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["generic", "low_rank", "tied"]))
    rng = np.random.default_rng(seed)
    if kind == "low_rank":
        r = int(rng.integers(1, k + 1))
        W = rng.standard_normal((k, r)) @ rng.standard_normal((r, T))
    else:
        W = rng.standard_normal((k, T))
    if kind == "tied":
        for j in range(1, T):
            pick = rng.integers(0, 4)
            if pick == 0:
                W[:, j] = rng.choice([-1.0, 1.0]) * W[:, rng.integers(0, j)]
            elif pick == 1:
                W[:, j] = 0.0
    return W, rng.standard_normal(k)


def _lam_max(W, w):
    return float(np.max(np.abs(W.T @ w), initial=0.0))


_lam_fractions = st.one_of(st.just(0.0), st.just(1e-10),
                           st.floats(1e-6, 0.999))


@settings(max_examples=150, deadline=None)
@given(_small_systems(), _lam_fractions)
def test_lasso_matches_brute_force_oracle(system, frac):
    W, w = system
    lam = frac * _lam_max(W, w)
    nu, _ = lasso(W, w, lam)
    _, best = lasso_oracle(W, w, lam)
    r = w - W @ nu
    obj = 0.5 * float(r @ r) + lam * float(np.abs(nu).sum())
    assert obj <= best + 1e-10 * (1.0 + abs(best))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 7),
       st.floats(1e-3, 0.999))
def test_lasso_solution_matches_oracle_when_unique(seed, k, T, frac):
    # a generic W at lam > 0 has a unique minimizer
    rng = np.random.default_rng(seed)
    W, w = rng.standard_normal((k, T)), rng.standard_normal(k)
    lam = frac * _lam_max(W, w)
    nu, _ = lasso(W, w, lam)
    ref, _ = lasso_oracle(W, w, lam)
    np.testing.assert_allclose(nu, ref, atol=1e-8 * (1.0 + np.abs(ref).sum()))


@settings(max_examples=200, deadline=None)
@given(_small_systems(), _lam_fractions)
def test_lasso_kkt_and_support_properties(system, frac):
    W, w = system
    lam_max = _lam_max(W, w)
    lam = frac * lam_max
    nu, info = lasso(W, w, lam)
    assert info["converged"]
    assert kkt_residual(W, w, nu, lam) <= 1e-10 * (1.0 + lam_max)
    assert np.count_nonzero(nu) <= np.linalg.matrix_rank(W)


@settings(max_examples=200, deadline=None)
@given(_small_systems(), _lam_fractions, st.integers(0, 2 ** 32 - 1))
def test_kkt_residual_matches_per_entry_loop(system, frac, seed):
    # a max over the same per-entry values is exact, so the two agree bit
    # for bit, at the Lasso's solution and off it
    W, w = system
    lam = frac * _lam_max(W, w)
    nu, info = lasso(W, w, lam)
    assert info["kkt_residual"] == kkt_residual(W, w, nu, lam)
    rng = np.random.default_rng(seed)
    bumped = nu + rng.standard_normal(nu.size) * (rng.random(nu.size) < 0.5)
    for v in (nu, bumped, np.zeros_like(nu)):
        assert kkt_residual(W, w, v, lam) == kkt_residual_oracle(W, w, v, lam)


@settings(max_examples=100, deadline=None)
@given(_small_systems(), st.floats(1.0, 100.0))
def test_lasso_above_lambda_max_is_exactly_zero(system, factor):
    W, w = system
    nu, info = lasso(W, w, factor * _lam_max(W, w))
    np.testing.assert_array_equal(nu, np.zeros(W.shape[1]))
    assert info["sweeps"] == 0 and info["converged"]


def _tied_system(seed):
    """k=3, T=8: each later column repeats, negates or zeroes an earlier
    one, or stays fresh; w is either random or on a column."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((3, 8))
    for j in range(1, 8):
        kind = rng.integers(0, 5)
        i = int(rng.integers(0, j))
        if kind == 0:
            W[:, j] = W[:, i]
        elif kind == 1:
            W[:, j] = -W[:, i]
        elif kind == 2:
            W[:, j] = 0.0
    if rng.integers(0, 2):
        return W, 1.7 * W[:, int(rng.integers(0, 8))]
    return W, rng.standard_normal(3)


def test_lasso_tied_and_anti_parallel_columns():
    for seed in range(100):
        W, w = _tied_system(seed)
        for lam in (0.0, 1e-10, 1e-3):
            nu, info = lasso(W, w, lam)
            assert np.all(np.isfinite(nu))
            assert kkt_residual(W, w, nu, lam) <= 1e-8
            assert info["converged"], (seed, lam)
            assert np.all(nu[np.linalg.norm(W, axis=0) == 0.0] == 0.0)


def test_lasso_integer_designs_and_exactly_sparse_targets():
    # integer-valued designs tie correlations and pin coefficients at zero
    # exactly; targets built from a few columns put kinks at lam = 0
    for seed in range(5000, 5400):
        rng = np.random.default_rng(seed)
        k, T = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        W = rng.standard_normal((k, T))
        if seed % 2 == 0:
            W = np.round(W)
        w = W @ (np.round(rng.standard_normal(T)) * (rng.random(T) < 0.4))
        lam_max = float(np.max(np.abs(W.T @ w), initial=0.0))
        for frac in (0.0, 1e-10, 1e-3, 0.1):
            nu, info = lasso(W, w, frac * lam_max)
            assert info["converged"], (seed, frac)


def test_lasso_converged_on_ill_conditioned_designs():
    # sigma_min(W) = 5.2e-6 with the target mostly along its direction:
    # ||nu||_1 reaches about 4e5, so the exact path's KKT residual is
    # round-off near 1e-10, above the fixed 1e-11 * (1 + lam_max) alone
    for seed in range(200):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((9, 6)))[0]
        W = U @ np.diag([3.0, 2.0, 1.5, 1.0, 0.7, 5.2e-6]) @ V.T
        w = U[:, -1] + 0.1 * U[:, 0]
        for lam in (0.0, 1e-10, 1e-8):
            nu, info = lasso(W, w, lam)
            assert info["converged"], (seed, lam)
            assert kkt_residual(W, w, nu, lam) <= 1e-8


def test_lasso_reports_an_exhausted_path(monkeypatch):
    W, w = _rand_system(3, k=4, T=10)
    nu, info = lasso(W, w, 1e-10)
    assert info["converged"] and info["sweeps"] > 1
    monkeypatch.setattr(relevance, "_MAX_PATH_STEPS", 1)
    nu, info = lasso(W, w, 1e-10)
    assert info["sweeps"] == 1 and not info["converged"]
    assert np.all(np.isfinite(nu))
