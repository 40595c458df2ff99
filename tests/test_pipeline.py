"""End-to-end strategy runners."""

import functools
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

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
from amtrl import instance, pipeline, trainer


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
    # a refused draw records nothing: the count rule, n >= 0 and an index
    # outside the instance leave the (task, draw) pair unconsumed
    for n, t in ((5.7, 1), (True, 1), (-1, 1), (5, gt.T + 1)):
        with pytest.raises((ValueError, IndexError)):
            oracle.sample(t, n, draw=0)
    with pytest.raises(ValueError, match="must be an integer"):
        oracle.record(1, 5.7, draw=0)
    assert oracle.total_drawn == 22
    assert oracle.sample(1, 5.0, draw=0).n == 5
    # record consumes a draw like sample, without drawing it
    oracle.record(2, 4, draw=0)
    with pytest.raises(RuntimeError):
        oracle.sample(2, 4, draw=0)
    assert oracle.total_drawn == 31
    # the task index follows the integer rule and must name a source task or
    # the target, so no draw is charged to a truncated or absent task
    for t in (1.7, True, -1, gt.T + 1, 99):
        with pytest.raises(ValueError, match="task_index must be"):
            oracle.record(t, 3, draw=5)
        assert oracle.total_drawn == 31
    with pytest.raises(ValueError, match="task_index must be an integer"):
        oracle.sample(2.9, 3, draw=5)
    assert oracle.total_drawn == 31
    # sample passes the checked int on, so 3.0 draws task 3
    np.testing.assert_array_equal(oracle.sample(3.0, 4, draw=5).G,
                                  sample_task(gt, 3, 4, 0, draw=5).G)
    assert oracle.total_drawn == 35
    # the seed follows the integer rule too, instead of int()'s truncation
    assert TaskOracle(gt, seed=np.float64(3.0)).seed == 3
    for seed in (3.9, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TaskOracle(gt, seed=seed)


def test_total_samples_match_oracle_draws(monkeypatch):
    gt = make_random_instance(8, 2, 5, sigma_z=0.2, seed=3)
    fitted, real_fit = [], pipeline.fit_source

    def spy(datasets, k, init_B=None):
        fitted.append(datasets)
        return real_fit(datasets, k, init_B=init_B)

    monkeypatch.setattr(pipeline, "fit_source", spy)
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
        # N_tot is what the last fit held: every task's largest allotment
        assert res.N_tot == sum(ds.n for ds in fitted[-1]) == \
            int(np.max([a.n for a in res.allocations], axis=0).sum())
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


def _hexed(value):
    """value with every float as float.hex, arrays as lists, for exact
    comparison of run outputs."""
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    return value


def _dump(res):
    return _hexed({
        "ER": res.excess_risk, "nu_history": res.nu_history,
        "allocations": [(a.n, a.N_tot, a.c_prime, a.continuous)
                        for a in res.allocations],
        "stage_summaries": res.stage_summaries, "N_tot": res.N_tot,
        "total_samples": res.total_samples, "support": res.support_size})


_SHARED = {"N_floor": 20, "n_target": 300}


def _explorers(gt):
    """Runs of one seed that explore alike, in an order where every run
    after the first of its estimator takes the shared stage: L1 at two
    budgets, multistage at beta_1 = T * N_floor, L2 at two budgets."""
    beta_1 = gt.T * _SHARED["N_floor"]
    return [
        (run_l1_amtrl, {**_SHARED, "N_tot_phase2": 800}),
        (run_l1_amtrl, {**_SHARED, "N_tot_phase2": 1600}),
        (run_multistage, {**_SHARED, "S": 2, "L": 3.0, "beta_1": beta_1}),
        (run_l2_amtrl, {**_SHARED, "N_tot_phase2": 800}),
        (run_l2_amtrl, {**_SHARED, "N_tot_phase2": 1600}),
    ]


def test_shared_exploration_changes_no_output():
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, sigma_min_floor=0.3,
                              seed=21)
    runs = _explorers(gt)
    in_sequence = [_dump(runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T,
                                params)) for runner, params in runs]
    assert pipeline._first_stage.cache_info().hits == 3
    for (runner, params), shared in zip(runs, in_sequence):
        pipeline._first_stage.cache_clear()
        instance._target_draw.cache_clear()
        alone = runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, params)
        assert pipeline._first_stage.cache_info().hits == 0
        assert _dump(alone) == shared


def test_shared_exploration_is_accounted_and_guarded():
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    (runner, first), (_, second) = _explorers(gt)[:2]
    runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, first)
    oracle = _oracle(gt, seed=3)
    res = runner(oracle, gt.d, gt.k, gt.T, second)
    assert pipeline._first_stage.cache_info().hits == 1
    assert oracle.total_drawn == res.total_samples == res.N_tot + 300
    for t in range(gt.T):
        with pytest.raises(RuntimeError, match="already consumed"):
            oracle.sample(t, 1, draw=0)
        with pytest.raises(RuntimeError, match="already consumed"):
            oracle.record(t, 1, draw=0)
    # the shared stage's arrays are read-only; the run's nu is its own
    _, datasets, model, _, (nu, _), _ = pipeline._first_stage(
        gt, 3, gt.k, 0, (1.0,) * gt.T, 1, gt.T * 20, 20, None, None,
        instance._target_draw(gt, 300, 3, 0), "lasso", "lazy", None)
    assert pipeline._first_stage.cache_info().hits == 2
    assert not (model.B_hat.flags.writeable or nu.flags.writeable
                or datasets[0].G.flags.writeable)
    assert res.nu_history[0].flags.writeable
    assert res.nu_history[0] is not nu


def test_shared_exploration_misses_on_any_other_input():
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    twin = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    base = {"N_tot_phase2": 800, "N_floor": 20, "n_target": 300}
    lam = {**base, "lambda_policy": "explicit", "lambda": 1e-3}
    # (first run's params, second run, its instance, seed and params)
    variants = [
        (base, run_l1_amtrl, gt, 4, base),  # another seed
        (base, run_l1_amtrl, twin, 3, base),  # an equal, distinct instance
        (base, run_l1_amtrl, gt, 3, {**base, "N_floor": 21}),
        (base, run_l1_amtrl, gt, 3, {**base, "n_target": 301}),
        (base, run_l2_amtrl, gt, 3, base),  # another estimator
        (base, run_l1_amtrl, gt, 3, lam),  # another lambda policy
        (lam, run_l1_amtrl, gt, 3, {**lam, "lambda": 2e-3}),
    ]
    for before, runner, inst, seed, params in variants:
        pipeline._first_stage.cache_clear()
        run_l1_amtrl(_oracle(gt, seed=3), gt.d, gt.k, gt.T, before)
        runner(_oracle(inst, seed=seed), gt.d, gt.k, gt.T, params)
        assert pipeline._first_stage.cache_info().hits == 0, (runner, params)
    # and the same inputs hit, under any phase-2 budget
    pipeline._first_stage.cache_clear()
    run_l1_amtrl(_oracle(gt, seed=3), gt.d, gt.k, gt.T, base)
    run_l1_amtrl(_oracle(gt, seed=3), gt.d, gt.k, gt.T,
                 {**base, "N_tot_phase2": 900})
    assert pipeline._first_stage.cache_info().hits == 1


def _warned_stage_is_not_shared(gt, runs, message):
    """Two runs of one seed whose exploration stage warns `message`: the
    second computes the stage again, and both warn from the same place and
    give the outputs of the run made alone. Returns their results."""
    caught, results = [], []
    for runner, params in runs:
        with pytest.warns(RuntimeWarning, match=message) as w:
            results.append(runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T,
                                  params))
        caught.append([(str(r.message), r.category, r.filename, r.lineno)
                       for r in w])
    assert pipeline._first_stage.cache_info().hits == 0
    assert caught[0] == caught[1] and len(caught[0]) == 1
    for (runner, params), res in zip(runs, results):
        pipeline._first_stage.cache_clear()
        instance._target_draw.cache_clear()
        with pytest.warns(RuntimeWarning, match=message):
            alone = runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, params)
        assert _dump(alone) == _dump(res)
    # a filter on the raising module applies to every run's warning (the
    # suite's filter makes it an error)
    runner, params = runs[-1]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message, RuntimeWarning,
                                r"amtrl\.pipeline\Z")
        runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, params)
    return results


def test_a_stage_that_warned_is_not_shared(monkeypatch):
    real_lasso, calls = pipeline.lasso, []

    def stalled(W, w, lam):
        calls.append(lam)
        nu, info = real_lasso(W, w, lam)
        return nu, {**info, "converged": False}

    monkeypatch.setattr(pipeline, "lasso", stalled)
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    message = "the Lasso relevance estimate did not converge"
    _warned_stage_is_not_shared(gt, _explorers(gt)[:2], message)
    assert len(calls) == 2 + 2 + 1  # in sequence, alone, filtered

    # the same holds for an L2 run whose min-L2 estimate falls back to
    # least squares, and the fallback is kept in the stage's record
    def deficient(W, w):
        raise ValueError("W is rank-deficient")

    monkeypatch.setattr(pipeline, "min_l2_solution", deficient)
    for res in _warned_stage_is_not_shared(
            gt, _explorers(gt)[3:], "estimated heads are rank-deficient"):
        assert res.stage_summaries[0]["relevance"] == {"fallback": "lstsq"}
        assert "relevance" not in res.stage_summaries[1]
    # and for a fit stopped by its iteration cap (one-stage runs, as the
    # capped fit warns in every stage)
    monkeypatch.setattr(pipeline, "lasso", real_lasso)
    monkeypatch.setattr(trainer, "_MAX_ITERS", 1)
    once = (run_multistage, {**_SHARED, "S": 1, "L": 2.0,
                             "beta_1": gt.T * _SHARED["N_floor"]})
    for res in _warned_stage_is_not_shared(gt, [once, once],
                                           "alternating fit stopped"):
        assert res.stage_summaries[0]["relevance"]["converged"]


_FOUR_MULTISTAGE_RUNS = """
import sys
from amtrl import TaskOracle, make_random_instance, pipeline, run_multistage
from amtrl import trainer

if sys.argv[1] == "capped_fit":
    trainer._MAX_ITERS = 1
else:
    real_lasso = pipeline.lasso

    def stalled(W, w, lam):
        nu, info = real_lasso(W, w, lam)
        return nu, {**info, "converged": False}

    pipeline.lasso = stalled
gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
params = {"N_floor": 20, "n_target": 300, "S": 3, "L": 2.0, "beta_1": 120}
for seed in range(4):
    run_multistage(TaskOracle(gt, seed=seed), gt.d, gt.k, gt.T, params)
"""


@pytest.mark.parametrize("mode, message", [
    ("capped_fit", "alternating fit stopped after 1 iterations"),
    ("stalled_lasso", "the Lasso relevance estimate did not converge")])
def test_default_filter_shows_a_warning_once(mode, message):
    # under Python's "default" filter a warning shows once per place, so
    # four 3-stage runs whose every stage warns print it once. That needs
    # the modules' warning registries left intact and a text that does not
    # vary from stage to stage
    root = pathlib.Path(pipeline.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root), os.environ.get("PYTHONPATH")]))}
    err = subprocess.run(
        [sys.executable, "-W", "default", "-c", _FOUR_MULTISTAGE_RUNS, mode],
        env=env, check=True, capture_output=True, text=True).stderr
    shown = [line for line in err.splitlines() if "Warning:" in line]
    assert len(shown) == 1 and message in shown[0], err


def test_known_nu_reference_is_validated():
    # a wrong length used to fail in the allocation with an IndexError or a
    # broadcast error, and a NaN entry gave a silent uniform split
    gt = make_random_instance(8, 2, 4, sigma_z=0.2, seed=3)
    for nu_ref in ([1.0, 2.0, 3.0], [1.0] * 5, [[1.0] * 4], 1.0,
                   [1.0, np.nan, 1.0, 1.0], [np.inf, 0.0, 0.0, 0.0]):
        oracle = _oracle(gt)
        with pytest.raises(ValueError, match="nu_ref must be a finite"):
            run_known_nu(oracle, gt.d, gt.k, gt.T, nu_ref, 1,
                         {"N_tot": 400})
        assert oracle.total_drawn == 0


def test_passive_and_known_nu_runs_keep_the_shared_stage():
    # they never take stage 0 from the memo, so they do not evict the entry
    # that the runs of the same seed around them share
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    (runner, first), (_, second) = _explorers(gt)[:2]
    others = (
        functools.partial(run_passive, params={**_SHARED, "N_tot": 400}),
        functools.partial(run_known_nu, nu_ref=np.ones(gt.T), q=1,
                          params={**_SHARED, "N_tot": gt.T * 20}))
    for other in others:
        pipeline._first_stage.cache_clear()
        runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, first)
        other(_oracle(gt, seed=3), gt.d, gt.k, gt.T)
        runner(_oracle(gt, seed=3), gt.d, gt.k, gt.T, second)
        info = pipeline._first_stage.cache_info()
        assert (info.hits, info.misses) == (1, 1)


def test_warnings_of_every_stage_name_the_pipeline(monkeypatch):
    real_lasso = pipeline.lasso

    def stalled(W, w, lam):
        nu, info = real_lasso(W, w, lam)
        return nu, {**info, "converged": False}

    monkeypatch.setattr(pipeline, "lasso", stalled)
    gt = make_random_instance(8, 2, 6, sigma_z=0.3, seed=21)
    params = {**_SHARED, "S": 3, "L": 2.0, "beta_1": gt.T * 20}
    with pytest.warns(RuntimeWarning, match="did not converge") as caught:
        run_multistage(_oracle(gt, seed=3), gt.d, gt.k, gt.T, params)
    assert len(caught) == 3  # one per stage, from stage 0 and the others
    assert all(w.filename == pipeline.__file__ for w in caught)
    # every stage warns from the raising module, so a filter on it applies
    # to the stages after the first as to stage 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "the Lasso", RuntimeWarning,
                                r"amtrl\.pipeline\Z")
        run_multistage(_oracle(gt, seed=4), gt.d, gt.k, gt.T, params)


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
    for L in (1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="growth L > 1"):
            run_multistage(_oracle(gt), gt.d, gt.k, gt.T,
                           {"S": 2, "L": L, "beta_1": 100, "N_floor": 1})
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


_BUDGET_RUNS = {
    "passive": lambda o, p: run_passive(o, 8, 2, 5, p),
    "known_nu": lambda o, p: run_known_nu(o, 8, 2, 5, np.ones(5), 1, p),
    "L1": lambda o, p: run_l1_amtrl(o, 8, 2, 5, p),
    "L2": lambda o, p: run_l2_amtrl(o, 8, 2, 5, p),
    "multistage": lambda o, p: run_multistage(o, 8, 2, 5,
                                              {"S": 2, "L": 2.0, **p}),
}


@pytest.mark.parametrize("runner, params, error", [
    ("passive", {"N_tot": -3}, "N_tot must be >= 0"),
    ("known_nu", {"N_tot": -3}, "N_tot must be >= 0"),
    ("L1", {"N_tot_phase2": -3, "N_floor": 1}, "N_tot_phase2 must be >= 0"),
    ("L2", {"N_tot_phase2": -3, "N_floor": 1}, "N_tot_phase2 must be >= 0"),
    ("multistage", {"beta_1": -3, "N_floor": 1}, "beta_1 must be >= 0"),
    ("passive", {"N_tot": 40, "N_floor": 10}, InfeasibleBudgetError),
    ("known_nu", {"N_tot": 40, "N_floor": 10}, InfeasibleBudgetError),
    ("L1", {"N_tot_phase2": 40, "N_floor": 10}, InfeasibleBudgetError),
    ("L2", {"N_tot_phase2": 40, "N_floor": 10}, InfeasibleBudgetError),
    ("multistage", {"beta_1": 40, "N_floor": 10}, InfeasibleBudgetError),
], ids=[f"{runner}-{kind}" for kind in ("negative", "uncoverable")
        for runner in _BUDGET_RUNS])
def test_budgets_are_refused_before_any_draw(runner, params, error,
                                             monkeypatch):
    # a negative budget, or one below T x N_floor, is refused before the
    # target draw, the same way by every runner
    calls = []
    monkeypatch.setattr(pipeline, "sample_task",
                        lambda *args, **kwargs: calls.append(args))
    gt = make_random_instance(8, 2, 5, sigma_z=0.1, seed=0)
    oracle = _oracle(gt)
    if isinstance(error, str):
        with pytest.raises(ValueError, match=error):
            _BUDGET_RUNS[runner](oracle, params)
    else:
        with pytest.raises(error, match="cannot cover 5 floors of 10"):
            _BUDGET_RUNS[runner](oracle, params)
    assert oracle.total_drawn == 0 and calls == []


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


_RUNNERS = {
    "passive": lambda o, p: run_passive(o, 8, 2, 5, {"N_tot": 400, **p}),
    "known_nu": lambda o, p: run_known_nu(o, 8, 2, 5, np.ones(5), 1,
                                          {"N_tot": 400, **p}),
    "L1": lambda o, p: run_l1_amtrl(o, 8, 2, 5, {
        "N_tot_phase2": 400, "N_floor": 10, **p}),
    "L2": lambda o, p: run_l2_amtrl(o, 8, 2, 5, {
        "N_tot_phase2": 400, "N_floor": 10, **p}),
    "multistage": lambda o, p: run_multistage(o, 8, 2, 5, {
        "S": 2, "L": 2.0, "beta_1": 100, "N_floor": 10, **p}),
}

_REFUSED = [
    *({"lambda": lam} for lam in (float("nan"), float("inf"), -1.0, "abc")),
    {"lambda_policy": "explicit"},
    {"lambda_policy": "huh"},
    {"n_target": 0},
    {"N_floor": -1},
    {"S": 0},
    *({"L": L} for L in (1.0, float("nan"), float("inf"), True)),
]


@pytest.mark.parametrize("strategy, setting", [
    (strategy, setting) for strategy in sorted(_RUNNERS)
    for setting in _REFUSED + (
        [{"N_floor": 0}] if strategy in ("L1", "L2", "multistage") else [])],
    ids=repr)
def test_refused_settings_raise_before_any_draw(strategy, setting,
                                               monkeypatch):
    # pipeline._params checks every run setting before the target draw and
    # stage 0; each case used to cost 51 draws and a fit before it raised
    calls = []
    real = pipeline.sample_task
    monkeypatch.setattr(pipeline, "sample_task",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    gt = make_random_instance(8, 2, 5, sigma_z=0.2, seed=3)
    oracle = _oracle(gt)
    with pytest.raises(ValueError):
        _RUNNERS[strategy](oracle, setting)
    assert oracle.total_drawn == 0 and calls == []
    # the same oracle then runs, with the setting left out
    res = _RUNNERS[strategy](oracle, {})
    assert calls and oracle.total_drawn == res.total_samples
