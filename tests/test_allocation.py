"""Budget water-filling, rounding, and cost-aware task selection."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amtrl import (
    Allocation,
    CostFunction,
    InfeasibleBudgetError,
    allocate_fixed_nu,
    continuous_allocation,
    cost_aware_allocate,
    eval_cost,
    l1_oracle_lp,
    linear_cost,
    lpnq_allocation,
    nu_tilde_objective,
    saltus_cost,
)
from amtrl.harness import rival_excess
from oracles import (bilevel_oracle, cost_support_oracle,
                     pg_continuous_allocation)


@st.composite
def _budget_problems(draw):
    """(nu, N_tot, N_floor): 1..20 tasks, nu with zeros and both signs
    (at least one nonzero entry, magnitudes spread over three decades)
    times a scale in 1e-8..1e5, a floor in 0..50 and a budget that covers
    the floors with up to 5000 to spare."""
    T = draw(st.integers(1, 20))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0),
                      st.floats(-1.0, -1e-3))
    nu = np.array(draw(st.lists(entry, min_size=T, max_size=T)))
    assume(np.any(nu != 0.0))
    scale = draw(st.floats(1e-8, 1e5))
    N_floor = draw(st.integers(0, 50))
    N_tot = draw(st.integers(T * N_floor, T * N_floor + 5000))
    return scale * nu, N_tot, N_floor


def test_documented_floor_example():
    alloc = allocate_fixed_nu(np.array([10.0, 1.0, 1.0]), 120, 20)
    np.testing.assert_array_equal(alloc.n, [80, 20, 20])
    np.testing.assert_allclose(alloc.c_prime, 8.0, atol=1e-9)


def test_documented_squared_split():
    alloc = lpnq_allocation(np.array([3.0, 4.0]), 2, 100, 0)
    np.testing.assert_array_equal(alloc.n, [36, 64])


@settings(max_examples=200, deadline=None)
@given(_budget_problems())
def test_lpnq_q1_equals_fixed_nu(problem):
    nu, N, F = problem
    a = allocate_fixed_nu(nu, N, F)
    b = lpnq_allocation(nu, 1, N, F)
    np.testing.assert_array_equal(a.n, b.n)


def test_floor_free_objective_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        nu = rng.standard_normal(rng.integers(2, 12))
        nu[rng.integers(nu.size)] = 0.0  # zeros must not break the formula
        if np.all(nu == 0.0):
            continue
        N = int(rng.integers(50, 500))
        x, _ = continuous_allocation(nu, N, 0)
        obj = nu_tilde_objective(nu, x)
        closed = np.abs(nu).sum() ** 2 / N
        np.testing.assert_allclose(obj, closed, rtol=1e-12)


def test_continuous_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        T = int(rng.integers(2, 10))
        nu = rng.uniform(0.2, 3.0, T) * rng.choice([-1.0, 1.0], T)
        F = int(rng.integers(0, 4))
        N = int(rng.integers(max(T * F, 30 * T), max(T * F, 30 * T) + 200))
        x, _ = continuous_allocation(nu, N, F)
        x_pg, _ = pg_continuous_allocation(nu, N, F)
        np.testing.assert_allclose(
            nu_tilde_objective(nu, x), nu_tilde_objective(nu, x_pg),
            rtol=1e-7)


@st.composite
def _extreme_budget_problems(draw):
    """(nu, N_tot, N_floor): 1..80 tasks, |nu| spread over 600 decades with
    zeros and both signs, floors 0..49 and up to 1e12 units above them."""
    T = draw(st.integers(1, 80))
    exponents = draw(st.lists(st.none() | st.floats(-300, 300),
                              min_size=T, max_size=T))
    assume(any(e is not None for e in exponents))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=T,
                          max_size=T))
    nu = np.array([0.0 if e is None else s * 10.0 ** e
                   for e, s in zip(exponents, signs)])
    N_floor = draw(st.integers(0, 49))
    return nu, T * N_floor + draw(st.integers(0, 10 ** 12)), N_floor


@settings(max_examples=300, deadline=None)
@given(_extreme_budget_problems())
def test_floored_water_filling_leaves_a_deficit_of_zero_to_T(problem):
    # the rounding only adds units: floor(x) never overshoots the budget
    # and falls short of it by at most one unit per task
    nu, N, F = problem
    x, _ = continuous_allocation(nu, N, F)
    deficit = N - int(np.floor(x).astype(int).sum())
    assert 0 <= deficit <= nu.size
    assert allocate_fixed_nu(nu, N, F).n.sum() == N


@st.composite
def _int64_budget_problems(draw):
    """(nu, N_tot, N_floor): 1..30 tasks, |nu| spread over 60 decades with
    zeros and both signs, a budget in [2**52, 2**63 - 1] and a floor from 0
    to the largest the budget covers."""
    T = draw(st.integers(1, 30))
    exponents = draw(st.lists(st.none() | st.floats(-30, 30),
                              min_size=T, max_size=T))
    assume(any(e is not None for e in exponents))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=T,
                          max_size=T))
    nu = np.array([0.0 if e is None else s * 10.0 ** e
                   for e, s in zip(exponents, signs)])
    N_tot = draw(st.integers(2 ** 52, 2 ** 63 - 1))
    N_floor = draw(st.sampled_from([0, 1, N_tot // T])
                   | st.integers(0, N_tot // T))
    return nu, N_tot, N_floor


@settings(max_examples=300, deadline=None)
@given(_int64_budget_problems())
@example((np.array([1.0, 2.0]), 2 ** 63 - 1024, 0))
@example((np.array([1.0, 2.0]), 2 ** 53 + 7, 0))
def test_water_filling_counts_exactly_up_to_the_largest_int64_count(problem):
    # from about 2**53 on, floor(x) of the float water-filling can overshoot
    # the budget ([1, 2] at 2**63 - 1024 by 512, at 2**53 + 7 by 1), which
    # the rounding refused with RuntimeError; it now takes the overshoot
    # back from the tasks above the floor
    nu, N, F = problem
    n = allocate_fixed_nu(nu, N, F).n.tolist()
    assert sum(n) == N
    assert min(n) >= F


@settings(max_examples=300, deadline=None)
@given(_budget_problems())
def test_rounding_budget_floors_and_proximity(problem):
    nu, N, F = problem
    alloc = allocate_fixed_nu(nu, N, F)
    assert alloc.n.sum() == N
    assert np.all(alloc.n >= F)
    # integer counts stay within one unit of the water-filling solution
    assert np.max(np.abs(alloc.n - alloc.continuous)) < 1.0 + 1e-9


@settings(max_examples=300, deadline=None)
@given(_budget_problems())
def test_cost_aware_budget_and_floors(problem):
    nu, N, F = problem
    alloc = cost_aware_allocate(nu, N, F)
    assert alloc.n.sum() == N
    assert np.all(alloc.n >= F)
    # the same counts as a water-filling restricted to the support, with
    # every task off it held at the floor
    supp = np.abs(nu) > 1e-9 * np.abs(nu).max()
    np.testing.assert_array_equal(alloc.n[~supp], F)
    sub = allocate_fixed_nu(nu[supp], N - (nu.size - supp.sum()) * F, F)
    np.testing.assert_array_equal(alloc.n[supp], sub.n)


def test_rounding_tie_break_is_low_index():
    alloc = allocate_fixed_nu(np.ones(3), 10, 0)
    np.testing.assert_array_equal(alloc.n, [4, 3, 3])


def test_rounding_gives_each_nonzero_task_a_sample():
    # the larger remainder used to take the only spare unit: [3, 1] -> [2, 0]
    for nu in ([3.0, 1.0], [1.0, 3.0]):
        np.testing.assert_array_equal(allocate_fixed_nu(nu, 2, 0).n, [1, 1])


@st.composite
def _floor_free_tight_budgets(draw):
    """(nu, N_tot) with floor 0 and a budget from the support size to
    three samples per task above it, where shares below one are common."""
    T = draw(st.integers(1, 20))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0),
                      st.floats(-1.0, -1e-3))
    nu = np.array(draw(st.lists(entry, min_size=T, max_size=T)))
    assume(np.any(nu != 0.0))
    support = int(np.count_nonzero(nu))
    return nu, draw(st.integers(support, support + 3 * T))


@settings(max_examples=300, deadline=None)
@given(_floor_free_tight_budgets())
def test_floor_free_rounding_starves_no_task_it_can_feed(problem):
    nu, N = problem
    alloc = allocate_fixed_nu(nu, N, 0)
    floors = np.floor(alloc.continuous)
    spare = N - int(floors.sum())
    rounded_to_zero = int(np.sum((nu != 0.0) & (floors == 0)))
    starved = int(np.sum((nu != 0.0) & (alloc.n == 0)))
    # counts within one unit of the shares leave `spare` units to hand
    # out; each goes to a nonzero task rounded down to zero while any is left
    assert starved == max(0, rounded_to_zero - spare)
    if spare >= rounded_to_zero:
        assert np.all(alloc.n[nu != 0.0] >= 1)


def _untied(alloc):
    """Tasks whose rounding remainder ties with no other task's. Rounding
    gives a tied remainder's extra unit to the lower index, and remainders
    within round-off of each other can order either way once nu is
    rescaled or permuted, so only untied tasks are pinned exactly."""
    rem = alloc.continuous - np.floor(alloc.continuous)
    return np.array([np.sum(np.abs(rem - r) <= 1e-9) == 1 for r in rem])


@settings(max_examples=300, deadline=None)
@given(_budget_problems(), st.floats(1e-8, 1e5), st.integers(-26, 16))
def test_positive_scale_invariance_exact(problem, factor, exponent):
    nu, N, F = problem
    a = allocate_fixed_nu(nu, N, F)
    # a power-of-two factor rescales every entry exactly
    np.testing.assert_array_equal(
        allocate_fixed_nu(2.0 ** exponent * nu, N, F).n, a.n)
    b = allocate_fixed_nu(factor * nu, N, F)
    untied = _untied(a)
    np.testing.assert_array_equal(a.n[untied], b.n[untied])
    assert np.all(np.abs(a.n - b.n) <= 1)


@settings(max_examples=300, deadline=None)
@given(_budget_problems(), st.randoms(use_true_random=False))
def test_permutation_equivariance(problem, random):
    nu, N, F = problem
    perm = np.array(random.sample(range(nu.size), nu.size))
    a = allocate_fixed_nu(nu, N, F)
    b = allocate_fixed_nu(nu[perm], N, F)
    untied = _untied(a)[perm]
    np.testing.assert_array_equal(a.n[perm][untied], b.n[untied])
    assert np.all(np.abs(a.n[perm] - b.n) <= 1)


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleBudgetError):
        allocate_fixed_nu(np.ones(5), 49, 10)
    # and the error is a ValueError for callers with coarse handling
    with pytest.raises(ValueError):
        continuous_allocation(np.ones(5), 49, 10)


def test_zero_nu_falls_back_to_uniform_with_warning():
    with pytest.warns(RuntimeWarning):
        alloc = allocate_fixed_nu(np.zeros(4), 100, 0)
    np.testing.assert_array_equal(alloc.n, [25, 25, 25, 25])
    assert alloc.c_prime == 0.0


def test_non_finite_nu_is_rejected():
    # a NaN entry used to give a silent uniform split (NaN water level)
    for bad in (np.nan, np.inf, -np.inf):
        for fn in (allocate_fixed_nu, continuous_allocation,
                   lambda nu, N, F: lpnq_allocation(nu, 2, N, F)):
            with pytest.raises(ValueError, match="nu must be finite"):
                fn(np.array([bad, 1.0, 1.0, 1.0]), 400, 0)


def test_budget_and_floor_are_int64_counts():
    # 10.5 was truncated to a budget of 10, a floor of 1.5 water-filled at
    # 1.5 but was recorded as 1, a floor of True was taken as 1, and a
    # budget of 2**70 raised OverflowError after a cast warning
    for N_tot, N_floor, name in ((10.5, 0, "N_tot"), (10, 1.5, "N_floor"),
                                 (10, True, "N_floor"), (True, 0, "N_tot"),
                                 ("10", 0, "N_tot")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            allocate_fixed_nu([1.0, 2.0], N_tot, N_floor)
    for N_tot, N_floor, name in ((2**70, 0, "N_tot"), (2**63, 0, "N_tot"),
                                 (10, 2**63, "N_floor")):
        with pytest.raises(ValueError, match=f"{name} must be at most "
                                             f"{2**63 - 1}"):
            allocate_fixed_nu([1.0, 2.0], N_tot, N_floor)
    # JSON's integral floats and numpy ints are counts, recorded as ints
    alloc = allocate_fixed_nu([1.0, 2.0], 12.0, np.int64(3))
    assert (alloc.N_tot, alloc.N_floor) == (12, 3)
    assert type(alloc.N_tot) is int and type(alloc.N_floor) is int
    assert alloc.n.tolist() == [4, 8]


def test_water_filling_beats_random_allocations():
    rng = np.random.default_rng(5)
    for trial in range(10):
        T = int(rng.integers(3, 12))
        nu = rng.uniform(0.2, 3.0, T) * rng.choice([-1.0, 1.0], T)
        F = int(rng.integers(0, 3))
        N = int(rng.integers(max(T * F, 30 * T), max(T * F, 30 * T) + 200))
        alloc = allocate_fixed_nu(nu, N, F)
        assert rival_excess(nu, alloc, rng, 100) <= 1e-9


def test_nu_tilde_objective_inputs():
    nu = np.array([1.0, 2.0, 0.0])
    alloc = allocate_fixed_nu(nu, 90, 0)
    v_alloc = nu_tilde_objective(nu, alloc)
    v_raw = nu_tilde_objective(nu, alloc.n.astype(float))
    np.testing.assert_allclose(v_alloc, v_raw, rtol=1e-15)
    with pytest.raises(ValueError):
        nu_tilde_objective(nu, np.array([10.0, 0.0, 5.0]))  # nu_1 != 0, n_1 = 0
    with pytest.raises(ValueError):
        nu_tilde_objective(nu, np.ones(4))


def test_bilevel_square_system():
    # T = k: the constraint set is the single point nu = W^-1 w, so the
    # oracle must return it along with its own water-filling
    rng = np.random.default_rng(6)
    W = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    w = rng.standard_normal(4)
    nu_star = np.linalg.solve(W, w)
    nu, alloc = bilevel_oracle(W, w, 1000, 1)
    np.testing.assert_allclose(nu, nu_star, rtol=1e-8)
    ref = allocate_fixed_nu(nu_star, 1000, 1)
    np.testing.assert_array_equal(alloc.n, ref.n)


def test_bilevel_never_worse_than_plain_solvers():
    rng = np.random.default_rng(7)
    for seed in range(5):
        W = rng.standard_normal((3, 8))
        w = rng.standard_normal(3)
        nu_b, _ = bilevel_oracle(W, w, 10000, 1, seed=seed)
        x_b, _ = continuous_allocation(nu_b, 10000, 1)
        best_plain = np.inf
        for nu in (l1_oracle_lp(W, w), np.linalg.lstsq(W, w, rcond=None)[0]):
            x, _ = continuous_allocation(nu, 10000, 1)
            best_plain = min(best_plain, nu_tilde_objective(nu, x))
        assert nu_tilde_objective(nu_b, x_b) <= best_plain * (1 + 1e-9)


def test_bilevel_guards():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        bilevel_oracle(rng.standard_normal((2, 31)), np.ones(2), 100, 0)
    with pytest.raises(ValueError):
        bilevel_oracle(np.ones((2, 5)), np.ones(2), 100, 0)  # rank 1


def test_cost_function_values_and_validation():
    lin = linear_cost(2.0)
    assert lin.value(10) == 20.0
    sal = saltus_cost(100.0, 1.0, 20)
    assert sal.value(20) == 0.0
    assert sal.value(21) == 101.0
    assert sal.value(50) == 130.0
    with pytest.raises(ValueError):
        CostFunction(kind="huh")
    with pytest.raises(ValueError):
        CostFunction(kind="linear", C_var=-1.0)
    with pytest.raises(ValueError):
        sal.value(-1)


def test_eval_cost_combines_phases():
    fns = [linear_cost(1.0), saltus_cost(10.0, 0.0, 5)]
    alloc = allocate_fixed_nu(np.array([1.0, 1.0]), 12, 0)
    # phase-1 counts shift task totals across the free threshold
    base = eval_cost(alloc, None, fns)
    with_p1 = eval_cost(alloc, np.array([0, 4]), fns)
    assert base == alloc.n[0] + (10.0 if alloc.n[1] > 5 else 0.0)
    assert with_p1 >= base
    with pytest.raises(ValueError):
        eval_cost(alloc, None, fns[:1])


def test_cost_aware_allocate_off_support_floors():
    nu = np.array([2.0, 0.0, 0.0, -1.0, 0.0])
    alloc = cost_aware_allocate(nu, 300, 10)
    assert alloc.n.sum() == 300
    np.testing.assert_array_equal(alloc.n[[1, 2, 4]], [10, 10, 10])
    assert alloc.n[0] > 10 and alloc.n[3] > 10
    # support counts follow the same water-filling as a restricted solve
    sub = allocate_fixed_nu(nu[[0, 3]], 300 - 3 * 10, 10)
    np.testing.assert_array_equal(alloc.n[[0, 3]], sub.n)
    # the support is relative to max |nu|, so a rescaled nu keeps it
    np.testing.assert_array_equal(cost_aware_allocate(1e-12 * nu, 300, 10).n,
                                  alloc.n)
    # an entry inside the dead band counts as zero: at floor 0 plain
    # water-filling would hand it a spare unit
    banded = nu + np.array([0.0, 1e-12, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(cost_aware_allocate(banded, 301, 0).n,
                                  [201, 0, 0, 100, 0])
    assert allocate_fixed_nu(banded, 301, 0).n[1] == 1


def test_cost_aware_zero_nu_warns():
    with pytest.warns(RuntimeWarning) as w:
        alloc = cost_aware_allocate(np.zeros(4), 40, 0)
    np.testing.assert_array_equal(alloc.n, [10, 10, 10, 10])
    # the warning names the caller, not a line of allocation.py, whichever
    # wrapper it came through
    with pytest.warns(RuntimeWarning) as w2:
        lpnq_allocation(np.zeros(4), 2, 40, 0)
    with pytest.warns(RuntimeWarning) as w3:
        allocate_fixed_nu(np.zeros(4), 40, 0)
    assert [r[0].filename for r in (w, w2, w3)] == [__file__] * 3


def test_cost_support_oracle_prefers_sparse_under_fixed_charges():
    rng = np.random.default_rng(9)
    W = rng.standard_normal((2, 6))
    w = W[:, 1] * 1.5  # reachable through a single task
    fns = [saltus_cost(50.0, 1.0, 0)] * 6
    support, cost, n = cost_support_oracle(W, w, er_budget=0.1, cost_fns=fns)
    assert support == (1,)
    assert n[1] > 0 and np.all(np.delete(n, 1) == 0)
    # one fixed charge plus the linear part for the required samples
    assert cost >= 50.0


def test_cost_support_oracle_linear_costs_match_direct_pricing():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((2, 5))
    w = rng.standard_normal(2)
    fns = [linear_cost(1.0)] * 5
    er_budget = 0.05
    support, cost, n = cost_support_oracle(W, w, er_budget, fns)
    # uniform linear costs: price of a support is (sum |nu|)^2 / er_budget,
    # so certify the reported counts directly instead
    nu = np.zeros(5)
    nu[list(support)] = np.linalg.lstsq(W[:, list(support)], w, rcond=None)[0]
    np.testing.assert_allclose(W @ nu, w, atol=1e-8)
    assert nu_tilde_objective(nu, n) <= er_budget * (1 + 1e-9)
    np.testing.assert_allclose(cost, n.sum(), rtol=1e-12)


def test_cost_support_oracle_guards():
    W = np.ones((2, 16))
    with pytest.raises(ValueError):
        cost_support_oracle(W, np.ones(2), 0.1, [linear_cost(1.0)] * 16)
    W2 = np.eye(2)
    with pytest.raises(ValueError):
        cost_support_oracle(W2, np.ones(2), -0.1, [linear_cost(1.0)] * 2)
    with pytest.raises(ValueError):
        cost_support_oracle(W2, np.ones(2), 0.1, [linear_cost(1.0)])


def test_allocation_dataclass_validation():
    with pytest.raises(ValueError):
        Allocation(n=np.array([5, 5]), N_tot=11, N_floor=0, c_prime=1.0)
    with pytest.raises(ValueError):
        Allocation(n=np.array([-1, 12]), N_tot=11, N_floor=0, c_prime=1.0)
