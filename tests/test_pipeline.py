"""End-to-end strategy runners."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amtrl import (
    GroundTruth,
    InfeasibleBudgetError,
    TaskOracle,
    allocate_fixed_nu,
    excess_risk,
    fit_target_head,
    lpnq_allocation,
    make_aligned_worstcase_instance,
    make_random_instance,
    run_known_nu,
    run_l1_amtrl,
    run_l2_amtrl,
    run_multistage,
    run_passive,
    sample_task,
)
from amtrl import instance, pipeline


def _oracle(gt, seed=0):
    return TaskOracle(gt, seed=seed)


def test_drawn_datasets_hold_no_rows():
    # the benchmark's fit_heavy passive run: 20000 source and 5000 target
    # samples at d = 30 are 6 MB of rows, which no dataset keeps
    gt = make_random_instance(30, 5, 40, sigma_z=0.5, sigma_min_floor=0.5,
                              seed=770000)
    params = {"N_tot": 20000, "N_floor": 20, "n_target": 5000}
    tracemalloc.start()
    try:
        run_passive(_oracle(gt), gt.d, gt.k, gt.T, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_noiseless_run_reaches_floor():
    gt = make_random_instance(10, 3, 7, sigma_z=0.0, sigma_min_floor=0.5,
                              seed=2)
    res = run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                       {"N_tot_phase2": 3000, "N_floor": 50,
                        "n_target": 500})
    assert res.status == "ok"
    assert res.excess_risk <= 1e-16
    assert res.subspace_distance <= 1e-6


def test_runs_are_deterministic_in_seed():
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=1)
    params = {"N_tot_phase2": 1200, "N_floor": 30, "n_target": 400}
    a = run_l1_amtrl(_oracle(gt, seed=5), gt.d, gt.k, gt.T, params)
    b = run_l1_amtrl(_oracle(gt, seed=5), gt.d, gt.k, gt.T, params)
    c = run_l1_amtrl(_oracle(gt, seed=6), gt.d, gt.k, gt.T, params)
    assert a.excess_risk == b.excess_risk
    assert a.subspace_distance == b.subspace_distance
    np.testing.assert_array_equal(a.allocations[1].n, b.allocations[1].n)
    np.testing.assert_array_equal(a.nu_history[0], b.nu_history[0])
    assert a.excess_risk != c.excess_risk


def test_oracle_replay_guard_and_accounting():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=0)
    oracle = _oracle(gt)
    oracle.sample(0, 10, draw=0)
    with pytest.raises(RuntimeError):
        oracle.sample(0, 5, draw=0)  # same (task, draw) would replay data
    oracle.sample(0, 5, draw=1)
    oracle.sample(gt.T, 7, draw=0)
    assert oracle.total_drawn == 22
    assert oracle.target_index == gt.T


def test_total_samples_match_oracle_draws():
    gt = make_random_instance(8, 2, 5, sigma_z=0.2, seed=3)
    for runner, params in (
            (run_l1_amtrl, {"N_tot_phase2": 1000, "N_floor": 20}),
            (run_l2_amtrl, {"N_tot_phase2": 1000, "N_floor": 20}),
            (run_passive, {"N_tot": 1000}),
            # floor 0: tasks 1 and 3 are sampled and fitted at n = 0
            (functools.partial(run_known_nu, nu_ref=[3.0, 0.0, 1.0, 0.0, 0.5],
                               q=1), {"N_tot": 1000}),
            (run_multistage, {"S": 3, "L": 2.0, "beta_1": 200,
                              "N_floor": 10})):
        oracle = _oracle(gt, seed=7)
        res = runner(oracle, gt.d, gt.k, gt.T, params=params)
        assert res.total_samples == oracle.total_drawn
        assert res.total_samples == res.N_tot + res.target_samples
        # the target head leaves B_hat as the last stage fitted it
        assert res.subspace_distance == \
            res.stage_summaries[-1]["subspace_distance"]


def test_target_memo_hits_are_counted_and_change_no_output():
    gt = make_random_instance(8, 2, 5, sigma_z=0.2, seed=3)
    params = {"N_tot": 1000, "N_floor": 5, "n_target": 300}
    nu_ref = [3.0, 0.0, 1.0, 0.0, 0.5]
    run_passive(_oracle(gt, seed=4), gt.d, gt.k, gt.T, params)
    oracle = _oracle(gt, seed=4)
    after_passive = run_known_nu(oracle, gt.d, gt.k, gt.T, nu_ref, 1, params)
    assert instance._target_draw.cache_info().hits == 1
    # a hit is a draw all the same to the oracle and to the run's count
    assert oracle.total_drawn == after_passive.total_samples == \
        after_passive.N_tot + 300
    instance._target_draw.cache_clear()
    alone = run_known_nu(_oracle(gt, seed=4), gt.d, gt.k, gt.T, nu_ref, 1,
                         params)
    assert instance._target_draw.cache_info().hits == 0

    def hexed(res):
        return (float.hex(res.excess_risk),
                [[float.hex(v) for v in nu] for nu in res.nu_history],
                [a.n.tolist() for a in res.allocations])

    assert hexed(after_passive) == hexed(alone)
    assert alone.total_samples == after_passive.total_samples


def test_l1_two_phase_is_two_stage_multistage():
    # the two-phase run is the multistage loop with stages T * N_floor and
    # N and no estimate after the last: the same draws, fits and estimate
    gt = make_random_instance(8, 3, 6, sigma_z=0.3, sigma_min_floor=0.5,
                              seed=12)
    N, floor = 1500, 25
    for seed in range(3):
        two = run_l1_amtrl(_oracle(gt, seed=seed), gt.d, gt.k, gt.T,
                           {"N_tot_phase2": N, "N_floor": floor,
                            "n_target": 300})
        multi = run_multistage(_oracle(gt, seed=seed), gt.d, gt.k, gt.T,
                               {"S": 2, "beta_1": gt.T * floor,
                                "L": N / (gt.T * floor), "N_floor": floor,
                                "n_target": 300})
        assert two.excess_risk == multi.excess_risk
        assert [a.n.tolist() for a in two.allocations] == \
            [a.n.tolist() for a in multi.allocations]
        assert [s["iterations"] for s in two.stage_summaries] == \
            [s["iterations"] for s in multi.stage_summaries]
        np.testing.assert_array_equal(two.nu_history[0], multi.nu_history[0])


def test_one_sparse_target_concentrates_budget():
    # target parallel to one unit-norm source column: the min-L1 mixture is
    # exactly one-hot, so nearly the whole phase-2 budget should land there
    base = make_random_instance(10, 3, 6, sigma_z=0.0, sigma_min_floor=0.5,
                                seed=11)
    W = np.asarray(base.W_star / np.linalg.norm(base.W_star, axis=0))
    w = 1.2 * W[:, 2]
    gt = GroundTruth(d=10, k=3, T=6, B_star=base.B_star, W_star=W,
                     w_target_star=w, sigma_z=0.01)
    params = {"N_tot_phase2": 6000, "N_floor": 100, "n_target": 1000}
    for seed in range(3):
        res = run_l1_amtrl(_oracle(gt, seed=seed), gt.d, gt.k, gt.T, params)
        n2 = res.allocations[1].n
        assert n2[2] >= 4800
        assert np.all(np.delete(n2, 2) <= 300)
        assert res.support_size <= gt.k


def test_aligned_worstcase_l2_spreads_uniformly():
    gt = make_aligned_worstcase_instance(10, 3, 8, c_w=2.0, seed=4,
                                         sigma_z=0.01)
    params = {"N_tot_phase2": 4000, "N_floor": 300, "n_target": 500}
    for seed in range(3):
        res = run_l2_amtrl(_oracle(gt, seed=seed), gt.d, gt.k, gt.T, params)
        n2 = res.allocations[1].n
        assert n2.max() <= 1.25 * n2.min()


def test_square_system_strategies_agree_on_nu():
    # T = k: W nu = w has a unique solution, so Lasso and min-L2 estimates
    # computed from the same exploration data must coincide
    gt = make_random_instance(10, 4, 4, sigma_z=0.1, sigma_min_floor=0.5,
                              seed=6)
    params = {"N_tot_phase2": 2000, "N_floor": 100, "n_target": 500}
    r1 = run_l1_amtrl(_oracle(gt, seed=9), gt.d, gt.k, gt.T, params)
    r2 = run_l2_amtrl(_oracle(gt, seed=9), gt.d, gt.k, gt.T, params)
    nu1, nu2 = r1.nu_history[0], r2.nu_history[0]
    np.testing.assert_allclose(nu1, nu2, atol=1e-6)
    # the reported allocation is exactly the water-filling of the reported nu
    np.testing.assert_array_equal(
        r1.allocations[1].n, allocate_fixed_nu(nu1, 2000, 100).n)
    np.testing.assert_array_equal(
        r2.allocations[1].n, lpnq_allocation(nu2, 2, 2000, 100).n)


def test_known_nu_reproduces_reference_allocation():
    gt = make_random_instance(9, 3, 7, sigma_z=0.2, seed=8)
    nu_ref = np.array([4.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0])
    res = run_known_nu(_oracle(gt), gt.d, gt.k, gt.T, nu_ref, q=1,
                       params={"N_tot": 800, "N_floor": 0})
    np.testing.assert_array_equal(res.allocations[0].n,
                                  allocate_fixed_nu(nu_ref, 800, 0).n)
    assert res.nu_l1_norm == np.abs(nu_ref).sum()
    assert res.support_size == 4
    assert len(res.stage_summaries) == 1


def test_passive_is_near_uniform():
    gt = make_random_instance(7, 2, 5, sigma_z=0.1, seed=2)
    res = run_passive(_oracle(gt), gt.d, gt.k, gt.T, {"N_tot": 1003})
    n = res.allocations[0].n
    assert n.sum() == 1003
    assert n.max() - n.min() <= 1
    assert res.nu_l1_norm == 0.0 and res.support_size == 0
    assert res.nu_history == ()


def test_multistage_accounting():
    gt = make_random_instance(8, 2, 5, sigma_z=0.1, seed=5)
    params = {"S": 4, "L": 2.0, "beta_1": 400, "N_floor": 10,
              "n_target": 300}
    res = run_multistage(_oracle(gt), gt.d, gt.k, gt.T, params)
    assert len(res.allocations) == 4
    assert len(res.stage_summaries) == 4
    assert len(res.nu_history) == 4
    budgets = [a.N_tot for a in res.allocations]
    assert budgets == [400, 800, 1600, 3200]
    # incremental draws: the union never exceeds the summed schedule and
    # covers at least the final stage
    assert 3200 <= res.N_tot <= sum(budgets)
    assert res.total_samples == res.N_tot + 300


def test_target_head_is_solved_once_per_stage(monkeypatch):
    # each stage fits the target head once and its relevance estimate
    # reads that head, so an S-stage run solves it S times, not S + 1
    gt = make_random_instance(8, 2, 5, sigma_z=0.1, seed=5)
    solves, scored = [], []

    def spy(fn, log):
        @functools.wraps(fn)
        def wrapped(*args):
            log.append(args)
            return fn(*args)
        return wrapped

    for name, log in (("head_for", solves), ("fit_target_head", solves),
                      ("excess_risk", scored)):
        monkeypatch.setattr(pipeline, name, spy(getattr(pipeline, name), log))
    res = run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                         {"S": 3, "L": 2.0, "beta_1": 400, "N_floor": 10,
                          "n_target": 300})
    assert len(solves) == 3
    # the kept head is bit for bit the one a fresh solve on the final B_hat
    # gives, so the excess risk is what fitting the head again reported
    (model, _), = scored
    refit = fit_target_head(model, solves[-1][1])
    np.testing.assert_array_equal(model.w_target_hat, refit.w_target_hat)
    assert res.excess_risk == excess_risk(refit, gt)
    # a two-phase run refits B_hat after its estimate and solves again
    solves.clear()
    run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                 {"N_tot_phase2": 800, "N_floor": 10, "n_target": 300})
    assert len(solves) == 2


def test_multistage_single_stage_is_floored_uniform():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=1)
    res = run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                         {"S": 1, "L": 2.0, "beta_1": 200, "N_floor": 10})
    assert len(res.allocations) == 1
    n = res.allocations[0].n
    assert n.max() - n.min() <= 1  # all-ones relevance guess
    assert len(res.nu_history) == 1


def test_parameter_validation():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=0)
    for key, value in (("bogus", 1), ("snapshot_average", 3),
                       ("cold_start", True), ("fit_tol", 1e-8),
                       ("fit_max_iters", 50), ("fit_seed", 1)):
        with pytest.raises(ValueError, match="unknown params"):
            run_passive(_oracle(gt), gt.d, gt.k, gt.T,
                        {"N_tot": 100, key: value})
    with pytest.raises(ValueError):
        run_passive(_oracle(gt), gt.d, gt.k, gt.T, {})  # N_tot missing
    with pytest.raises(ValueError):
        run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                     {"N_tot_phase2": 100, "N_floor": 0})
    with pytest.raises(ValueError):
        run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                       {"S": 0, "L": 2.0, "beta_1": 100, "N_floor": 1})
    with pytest.raises(ValueError):
        run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                       {"S": 2, "L": 1.0, "beta_1": 100, "N_floor": 1})
    with pytest.raises(ValueError):
        run_passive(_oracle(gt), gt.d + 1, gt.k, gt.T, {"N_tot": 100})
    # counts are integers: integral floats are taken, anything else raises
    # instead of being truncated
    for runner, params, key, value in (
            (run_passive, {"N_tot": 400}, "N_tot", 400.9),
            (run_passive, {"N_tot": 400}, "n_target", 50.5),
            (run_passive, {"N_tot": 400}, "N_floor", True),
            (run_l1_amtrl, {"N_tot_phase2": 100, "N_floor": 10},
             "N_tot_phase2", 100.5),
            (run_l1_amtrl, {"N_tot_phase2": 100, "N_floor": 10},
             "N_floor", float("inf")),
            (run_multistage, {"S": 2, "L": 2.0, "beta_1": 100,
                              "N_floor": 1}, "S", 2.7),
            (run_multistage, {"S": 2, "L": 2.0, "beta_1": 100,
                              "N_floor": 1}, "beta_1", "100")):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            runner(_oracle(gt), gt.d, gt.k, gt.T, {**params, key: value})
    whole = run_passive(_oracle(gt), gt.d, gt.k, gt.T,
                        {"N_tot": 400.0, "n_target": np.int64(50)})
    ref = run_passive(_oracle(gt), gt.d, gt.k, gt.T,
                      {"N_tot": 400, "n_target": 50})
    assert (whole.total_samples, ref.total_samples) == (450, 450)
    assert whole.excess_risk == ref.excess_risk


def test_infeasible_budgets_raise():
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=0)
    with pytest.raises(InfeasibleBudgetError):
        run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                     {"N_tot_phase2": 39, "N_floor": 10})
    with pytest.raises(InfeasibleBudgetError):
        run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                       {"S": 2, "L": 2.0, "beta_1": 39, "N_floor": 10})


def test_lambda_policies():
    gt = make_random_instance(8, 2, 5, sigma_z=0.2, seed=4)
    base = {"N_tot_phase2": 800, "N_floor": 30, "n_target": 300}
    with pytest.raises(ValueError):
        run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                     {**base, "lambda_policy": "explicit"})
    res = run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                       {**base, "lambda_policy": "explicit", "lambda": 1e-6})
    assert res.status == "ok"
    res = run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                       {**base, "lambda_policy": "theory"})
    assert res.status == "ok"
    with pytest.raises(ValueError):
        run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                     {**base, "lambda_policy": "huh"})


def test_relevance_diagnostics_are_recorded_per_stage():
    gt = make_random_instance(8, 2, 6, sigma_z=0.2, seed=3)
    res = run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                       {"N_tot_phase2": 1200, "N_floor": 30,
                        "n_target": 300})
    rec = res.stage_summaries[0]["relevance"]
    assert rec["converged"] and rec["steps"] >= 1
    assert 0.0 <= rec["kkt_residual"] <= 1e-10
    assert "relevance" not in res.stage_summaries[1]  # refit, no estimate
    multi = run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                           {"S": 3, "L": 2.0, "beta_1": 300, "N_floor": 10,
                            "n_target": 300})
    assert all(s["relevance"]["converged"] for s in multi.stage_summaries)
    l2 = run_l2_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                      {"N_tot_phase2": 1200, "N_floor": 30, "n_target": 300})
    assert all("relevance" not in s for s in l2.stage_summaries)


def test_unconverged_relevance_solve_warns_and_is_flagged(monkeypatch):
    real_lasso = pipeline.lasso

    def stalled(W, w, lam):
        nu, info = real_lasso(W, w, lam)
        return nu, {**info, "converged": False}

    monkeypatch.setattr(pipeline, "lasso", stalled)
    gt = make_random_instance(8, 2, 6, sigma_z=0.2, seed=3)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        res = run_l1_amtrl(_oracle(gt), gt.d, gt.k, gt.T,
                           {"N_tot_phase2": 1200, "N_floor": 30,
                            "n_target": 300})
    assert res.stage_summaries[0]["relevance"]["converged"] is False
    with pytest.warns(RuntimeWarning, match="did not converge"):
        multi = run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                               {"S": 2, "L": 2.0, "beta_1": 300,
                                "N_floor": 10, "n_target": 300})
    assert [s["relevance"]["converged"] for s in multi.stage_summaries] \
        == [False, False]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**70), data=st.data())
def test_oracle_samples_equal_sample_task_in_any_order(seed, data):
    # sample_task seeds every task of a draw from one table of seed words,
    # derived on the draw's first sample and cached by (seed, T, draw); no
    # sample may depend on which task, draw or instance was sampled first.
    # The reference derives a fresh table for each sample. Drawn datasets
    # draw their rows again on each call, so the rows are read right after
    # each sample, under the seed-table cache of that moment
    gts = [make_random_instance(5, 2, 6, sigma_z=0.3, seed=4),
           make_random_instance(5, 2, 3, sigma_z=0.3, seed=5)]
    keys = [(i, t, draw) for i, gt in enumerate(gts)
            for t in range(gt.T + 1) for draw in (0, 1, 2**33)]
    order = data.draw(st.permutations(keys))
    order = order[:data.draw(st.integers(1, len(keys)))]
    sizes = [data.draw(st.integers(0, 4)) for _ in order]
    want = {}
    for (i, t, draw), n in zip(order, sizes):
        instance._sample_seed_table.cache_clear()
        ds = sample_task(gts[i], t, n, seed, draw=draw)
        want[i, t, draw] = ds.rows(), ds.G
    instance._sample_seed_table.cache_clear()
    oracles = [TaskOracle(gt, seed=seed) for gt in gts]
    for (i, t, draw), n in zip(order, sizes):
        got = oracles[i].sample(t, n, draw=draw)
        (X, Y), G = want[i, t, draw]
        np.testing.assert_array_equal(got.rows()[0], X)
        np.testing.assert_array_equal(got.rows()[1], Y)
        np.testing.assert_array_equal(got.G, G)
