"""Acceptance gate: the headline guarantees, one pass/fail line each.

Every check states its tolerance inline and prints a single line

    [criterion NN] <name>: PASS|FAIL (<measured detail>)

so a log scrape shows the whole gate at a glance. Run with -s to see the
lines on passing runs. Randomized families are frozen by explicit seeds;
the checks are meant to hold for every draw, not on average.
"""

import numpy as np
import pytest

from amtrl import (
    allocate_fixed_nu,
    continuous_allocation,
    cost_aware_allocate,
    eval_cost,
    fit_source,
    l1_oracle_lp,
    make_almost_sparse_instance,
    make_random_instance,
    norm_bound_check,
    nu_tilde_objective,
    run_known_nu,
    run_l1_amtrl,
    run_passive,
    saltus_cost,
    sample_task,
    TaskOracle,
)
from amtrl.harness import (allocation_cases, floor_free_error, lasso_vs_lp,
                           loss_increase, lp_support_excess, noiseless_fit,
                           random_family, rival_excess)
from oracles import bilevel_oracle, pg_continuous_allocation


def _line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_integer_water_filling_optimality():
    # two independent routes: a projected-gradient continuous minimizer and
    # brute-force random integer allocations
    tol = 1e-9
    rng = np.random.default_rng(0xAC01)
    worst_cont, worst_int = 0.0, 0.0
    for nu, alloc in allocation_cases(rng, 100):
        obj_cont = nu_tilde_objective(nu, alloc.continuous)
        _, f_pg = pg_continuous_allocation(nu, alloc.N_tot, alloc.N_floor)
        worst_cont = max(worst_cont, (obj_cont - f_pg) / (1.0 + abs(f_pg)))
        worst_int = max(worst_int, rival_excess(nu, alloc, rng, 1000))
    worst = max(worst_cont, worst_int)
    ok = worst <= tol
    _line(1, "integer water-filling optimality", ok,
          f"worst excess {worst:.3e} <= {tol:.0e}; 100 cases x 1000 rivals")
    assert ok


def test_criterion_02_floor_free_closed_form():
    tol = 1e-12
    worst = floor_free_error(np.random.default_rng(0xAC02), 100)
    ok = worst <= tol
    _line(2, "floor-free objective equals squared-L1 over budget", ok,
          f"worst rel err {worst:.3e} <= {tol:.0e}; 100 cases")
    assert ok


def test_criterion_03_min_l1_support_at_most_k():
    violations, worst = 0, 0
    for gt in random_family(100, 555000, sigma_min_floor=0.3):
        excess = lp_support_excess(gt)
        worst = max(worst, excess)
        violations += excess > 0
    ok = violations == 0
    _line(3, "minimum-L1 relevance is at most k-sparse", ok,
          f"{100 - violations}/100 instances, worst excess support {worst}")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the sqrt(k)-scaled L1 ceiling fails empirically on this family "
    "(42/100 draws, worst ratio 2.65 at the first seed); the L2 ceiling "
    "holds on every draw. Kept strict to document the measurement."))
def test_criterion_04_norm_ceilings():
    # norm_bound_check allows a relative slack of 1e-9 on both ceilings
    l1_viol, l2_viol, worst_ratio = 0, 0, 0.0
    for gt in random_family(100, 555000, sigma_min_floor=0.3):
        rep = norm_bound_check(gt.W_star, gt.w_target_star)
        worst_ratio = max(worst_ratio, rep.l1_norm / rep.l1_bound)
        l1_viol += not rep.l1_ok
        l2_viol += not rep.l2_ok
    ok = l1_viol == 0 and l2_viol == 0
    _line(4, "closed-form norm ceilings for both solvers", ok,
          f"L1 ceiling violations {l1_viol}/100 (worst ratio "
          f"{worst_ratio:.3f}), L2 violations {l2_viol}/100")
    assert ok


def test_criterion_05_lasso_matches_exact_lp():
    gap_tol, kkt_tol, lam = 1e-4, 1e-8, 1e-8
    worst_gap, worst_kkt = 0.0, 0.0
    for gt in random_family(50, 777000, sigma_min_floor=0.5,
                            instance_offset=0):
        gap, _, kkt = lasso_vs_lp(gt, lam)
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt)
    ok = worst_gap <= gap_tol and worst_kkt <= kkt_tol
    _line(5, "Lasso agrees with the exact LP", ok,
          f"worst rel L1 gap {worst_gap:.3e} <= {gap_tol:.0e}, worst KKT "
          f"residual {worst_kkt:.3e} <= {kkt_tol:.0e}; 50 instances")
    assert ok


def test_criterion_06_water_filling_at_min_l1_is_bilevel_optimal():
    nu_tol, obj_tol = 1e-4, 1e-6
    N_tot, N_floor = 10 ** 6, 1
    worst_nu, worst_obj = 0.0, 0.0
    for s in range(20):
        rng = np.random.default_rng(888000 + s)
        k = int(rng.integers(2, 12))
        T = k + 1
        d = int(rng.integers(max(k, 8), 25))
        gt = make_random_instance(d, k, T, sigma_z=0.1, sigma_min_floor=0.5,
                                  seed=888100 + s)
        W, w = gt.W_star, gt.w_target_star
        nu_b, _ = bilevel_oracle(W, w, N_tot, N_floor)
        nu_lp = l1_oracle_lp(W, w)
        x_b, _ = continuous_allocation(nu_b, N_tot, N_floor)
        x_lp, _ = continuous_allocation(nu_lp, N_tot, N_floor)
        obj_b = nu_tilde_objective(nu_b, x_b)
        obj_lp = nu_tilde_objective(nu_lp, x_lp)
        worst_nu = max(worst_nu,
                       abs(np.abs(nu_b).sum() - np.abs(nu_lp).sum())
                       / (1.0 + np.abs(nu_lp).sum()))
        worst_obj = max(worst_obj, abs(obj_b - obj_lp) / obj_lp)
    ok = worst_nu <= nu_tol and worst_obj <= obj_tol
    _line(6, "min-L1 water-filling attains the joint bilevel optimum", ok,
          f"worst L1-norm gap {worst_nu:.3e} <= {nu_tol:.0e}, worst "
          f"objective gap {worst_obj:.3e} <= {obj_tol:.0e}; 20 instances")
    assert ok


def test_criterion_07_known_relevance_error_decays_like_one_over_n():
    lo, hi = -1.25, -0.75
    gt = make_random_instance(30, 5, 40, sigma_z=0.5, sigma_min_floor=0.5,
                              seed=770000)
    nu_ref = l1_oracle_lp(gt.W_star, gt.w_target_star)
    budgets = (2000, 4000, 8000, 16000, 32000)
    medians = []
    for N in budgets:
        ers = [run_known_nu(TaskOracle(gt, seed=seed), gt.d, gt.k, gt.T,
                            nu_ref, 1,
                            {"N_tot": N, "N_floor": 0,
                             "n_target": 20000}).excess_risk
               for seed in range(20)]
        medians.append(np.median(ers))
    slope = float(np.polyfit(np.log10(budgets), np.log10(medians), 1)[0])
    ok = lo <= slope <= hi
    _line(7, "known-relevance excess risk decays like 1/N", ok,
          f"log-log slope {slope:.4f} in [{lo}, {hi}]; "
          f"budgets {budgets[0]}..{budgets[-1]}, 20 seeds")
    assert ok


def _almost_sparse_bench(seed):
    return make_almost_sparse_instance(d=8, k=5, T=50, sigma_z=0.5,
                                       seed=seed,
                                       spectrum=(5.0, 4.0, 3.0, 2.0, 1.0))


def test_criterion_08_strategy_ordering_on_almost_sparse_target():
    min_ratio = 1.5
    gt, nu_ref = _almost_sparse_bench(991000)
    N, F, n_target = 20000, 20, 20000
    med = {}
    for label in ("L1", "L2", "passive"):
        ers = []
        for seed in range(24):
            oracle = TaskOracle(gt, seed=seed)
            if label == "passive":
                res = run_passive(oracle, gt.d, gt.k, gt.T,
                                  {"N_tot": N, "N_floor": F,
                                   "n_target": n_target})
            else:
                q = 1 if label == "L1" else 2
                res = run_known_nu(oracle, gt.d, gt.k, gt.T, nu_ref, q,
                                   {"N_tot": N, "N_floor": F,
                                    "n_target": n_target})
            ers.append(res.excess_risk)
        med[label] = float(np.median(ers))
    ratio = med["L2"] / med["L1"]
    ok = (med["L1"] <= med["L2"] <= med["passive"]) and ratio >= min_ratio
    _line(8, "L1 beats L2 beats passive on an almost-1-sparse target", ok,
          f"median ER {med['L1']:.4e} <= {med['L2']:.4e} <= "
          f"{med['passive']:.4e}, L2/L1 ratio {ratio:.2f} >= {min_ratio}; "
          "24 seeds")
    assert ok


def test_criterion_09_estimated_relevance_beats_passive_on_grid():
    need_frac = 0.9
    gt, _ = _almost_sparse_bench(991000)
    budgets = (2000, 5000, 10000, 20000)
    wins, detail = 0, []
    for N in budgets:
        l1 = [run_l1_amtrl(TaskOracle(gt, seed=s), gt.d, gt.k, gt.T,
                           {"N_tot_phase2": N, "N_floor": 20,
                            "n_target": 20000}).excess_risk
              for s in range(20)]
        pas = [run_passive(TaskOracle(gt, seed=1000 + s), gt.d, gt.k, gt.T,
                           {"N_tot": N, "N_floor": 20,
                            "n_target": 20000}).excess_risk
               for s in range(20)]
        m_l1, m_pas = float(np.median(l1)), float(np.median(pas))
        wins += m_l1 <= m_pas
        detail.append(f"N={N}: {m_l1:.2e} vs {m_pas:.2e}")
    ok = wins >= need_frac * len(budgets)
    _line(9, "estimated-relevance pipeline beats passive sampling", ok,
          f"{wins}/{len(budgets)} budget points; " + "; ".join(detail))
    assert ok


def test_criterion_10_cost_aware_selection_halves_saltus_cost():
    max_ratio, need_wins, max_support = 0.5, 45, 5
    fns = [saltus_cost(100.0, 1.0, 20)] * 50
    wins, worst_ratio, worst_support = 0, 0.0, 0
    for s in range(50):
        gt, _ = _almost_sparse_bench(990000 + s)
        nu1 = l1_oracle_lp(gt.W_star, gt.w_target_star)
        aware = cost_aware_allocate(nu1, 3000, 20)
        passive = allocate_fixed_nu(np.ones(50), 3000, 0)
        ratio = eval_cost(aware, None, fns) / eval_cost(passive, None, fns)
        worst_ratio = max(worst_ratio, ratio)
        wins += ratio <= max_ratio
        paying = int(np.sum(aware.n > 20))
        worst_support = max(worst_support, paying)
    ok = wins >= need_wins and worst_support <= max_support
    _line(10, "cost-aware selection halves the saltus sampling cost", ok,
          f"{wins}/50 instances at ratio <= {max_ratio} (worst "
          f"{worst_ratio:.4f}), worst paying support {worst_support} <= "
          f"{max_support}")
    assert ok


def test_criterion_11_trainer_monotone_and_noiseless_exact():
    mono_tol = 1e-12
    mono_ok = True
    for s in range(20):
        rng = np.random.default_rng(660000 + s)
        d = int(rng.integers(6, 20))
        k = int(rng.integers(2, min(d, 6)))
        T = int(rng.integers(k, 16))
        gt = make_random_instance(d, k, T, sigma_z=0.5, seed=660100 + s)
        data = [sample_task(gt, t, 40, seed=s) for t in range(T)]
        mono_ok &= loss_increase(fit_source(data, k)) <= mono_tol
    worst_loss, worst_dist = 0.0, 0.0
    for s in range(2):
        gt = make_random_instance(10, 3, 8, sigma_z=0.0, sigma_min_floor=0.5,
                                  seed=661000 + s)
        loss, dist = noiseless_fit(gt, seed=s)
        worst_loss = max(worst_loss, loss)
        worst_dist = max(worst_dist, dist)
    exact_ok = worst_loss <= 1e-16 and worst_dist <= 1e-6
    ok = mono_ok and exact_ok
    _line(11, "alternating fit is monotone and exact without noise", ok,
          f"monotone on 20/20 seeds at {mono_tol:.0e}; noiseless scaled "
          f"loss {worst_loss:.2e} <= 1e-16, subspace distance "
          f"{worst_dist:.2e} <= 1e-06")
    assert ok
