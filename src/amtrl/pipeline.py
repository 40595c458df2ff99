"""End-to-end sampling strategies on synthetic task collections.

Each runner consumes a TaskOracle (fresh i.i.d. samples on demand, fully
deterministic in its seed) and produces a RunResult: allocations, fitted
models per stage, the final excess risk, and sample accounting.

Every strategy is one stage loop over a budget schedule. A stage
water-fills its budget by the current relevance vector nu (raised to the
power q), draws each task's increment over what it already holds at draw
index = stage, merges it into that task's dataset (TaskDataset.merge adds
the statistics; no rows are kept), refits (warm from the previous B_hat),
fits the target head on it and may estimate nu again from the fitted
heads. The strategies differ only in what they hand the loop:

- passive: one stage of N_tot at nu = 1;
- known_nu: one stage of N_tot at the reference nu, with exponent q;
- L1 / L2: stages [T * N_floor, N_tot_phase2] from nu = 1; after the
  first stage nu is estimated by Lasso (L1, q = 1) or minimum L2 norm
  (L2, q = 2);
- multistage: stages round(beta_1 * L^i), i < S, from nu = 1, with a
  Lasso estimate after every stage.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .allocation import InfeasibleBudgetError, lpnq_allocation
# not called here, but the benchmark's tracer wraps pipeline.allocate_fixed_nu
# as well as pipeline.lpnq_allocation, through which the loop allocates
from .allocation import allocate_fixed_nu  # noqa: F401
from .instance import sample_task
from .relevance import (LAZY_LAMBDA, lambda_rule, lasso, min_l2_solution,
                        support_size)
from .trainer import (excess_risk, fit_source, fit_target_head,
                      subspace_distance)
# not called here, but the benchmark's tracer wraps pipeline.head_for as well
# as pipeline.fit_target_head, through which the loop solves the target head
from .trainer import head_for  # noqa: F401

_DEFAULTS = {
    "n_target": 500,
    "lambda_policy": "lazy",
    "lambda": None,
}


def integer(value, name):
    """The count called name as an int. Ints, numpy ints and integral floats
    (JSON writes 1e4 as 10000.0) are taken; bools, other floats and anything
    else raise ValueError instead of being truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


class TaskOracle:
    """Sampling access to a ground-truth instance, with draw accounting.

    sample(task_index, n, draw) returns n fresh i.i.d. observations;
    distinct draw indices give independent streams and the same
    (task_index, draw) pair may be consumed only once, which is what
    makes incremental multi-stage sampling reuse data instead of
    replaying it. Task index gt.T addresses the target task.
    """

    def __init__(self, gt, seed=0):
        self.gt = gt
        self.seed = int(seed)
        self._drawn = {}

    @property
    def target_index(self):
        return self.gt.T

    def sample(self, task_index, n, draw=0):
        key = (int(task_index), int(draw))
        if key in self._drawn:
            raise RuntimeError(
                f"draw {draw} of task {task_index} was already consumed; "
                "use a fresh draw index for incremental samples")
        ds = sample_task(self.gt, task_index, n, self.seed, draw=draw)
        self._drawn[key] = int(n)
        return ds

    @property
    def total_drawn(self):
        return int(sum(self._drawn.values()))


@dataclass(frozen=True)
class RunResult:
    """Everything one strategy run produced, deterministic apart from
    wall_ms."""

    strategy: str
    seed: int
    N_tot: int
    N_floor: int
    allocations: tuple
    stage_summaries: tuple
    excess_risk: float
    subspace_distance: float
    nu_history: tuple
    nu_l1_norm: float
    support_size: int
    total_samples: int
    target_samples: int
    wall_ms: float
    status: str = "ok"
    params: dict = field(default_factory=dict)


def _params(params):
    merged = dict(_DEFAULTS)
    if params:
        unknown = set(params) - set(_DEFAULTS) - {
            "N_floor", "N_tot", "N_tot_phase2", "S", "L", "beta_1"}
        if unknown:
            raise ValueError(f"unknown params: {sorted(unknown)}")
        merged.update(params)
    for key in ("N_tot", "N_tot_phase2", "N_floor", "n_target", "S", "beta_1"):
        if key in merged:
            merged[key] = integer(merged[key], key)
    return merged


def _require(p, key):
    if key not in p:
        raise ValueError(f"params must set {key!r} for this strategy")
    return p[key]


def _check_dims(oracle, d, k, T):
    gt = oracle.gt
    if (d, k, T) != (gt.d, gt.k, gt.T):
        raise ValueError(f"oracle instance is (d={gt.d}, k={gt.k}, T={gt.T}),"
                         f" got (d={d}, k={k}, T={T})")


def _stage_summary(model, gt):
    return {
        "loss": float(model.train_loss_history[-1]),
        "iterations": int(model.iterations),
        "converged": bool(model.converged),
        "subspace_distance": float(subspace_distance(model.B_hat, gt.B_star)),
    }


def lambda_for(p, W, w):
    """The Lasso penalty for params p on the system W nu = w: lazy, explicit
    or the theory rule."""
    policy = p["lambda_policy"]
    if policy == "lazy":
        return LAZY_LAMBDA
    if policy == "explicit":
        if p["lambda"] is None:
            raise ValueError("lambda_policy 'explicit' needs params['lambda']")
        return float(p["lambda"])
    if policy == "theory":
        sv = np.linalg.svd(W, compute_uv=False)
        sigma = float(sv[-1])
        C_W = float(np.max(np.linalg.norm(W, axis=0)))
        R = float(np.linalg.norm(w))
        if min(sigma, C_W, R) <= 0.0:
            return LAZY_LAMBDA  # degenerate estimate; fall back
        return lambda_rule(W.shape[0], R, C_W, sigma)
    raise ValueError(f"unknown lambda_policy {policy!r}")


def _estimate_nu(model, p, estimator):
    """Relevance estimate from the fitted representation: the source heads
    are the fit's own W_hat, exact for B_hat, and the target head is the
    model's w_target_hat, fitted on the same B_hat. Returns (nu, record),
    the Lasso's solver diagnostics (None for the min-L2 route); warns when
    the Lasso did not converge."""
    W_hat, w_hat = model.W_hat, model.w_target_hat
    if estimator == "min_l2":
        try:
            return min_l2_solution(W_hat, w_hat), None
        except ValueError:
            warnings.warn("estimated heads are rank-deficient; using a "
                          "plain least-squares relevance estimate",
                          RuntimeWarning, stacklevel=3)
            return np.linalg.lstsq(W_hat, w_hat, rcond=None)[0], None
    lam = lambda_for(p, W_hat, w_hat)
    nu, info = lasso(W_hat, w_hat, lam)
    record = {"steps": int(info["sweeps"]),
              "kkt_residual": info["kkt_residual"],
              "converged": bool(info["converged"])}
    if not record["converged"]:
        warnings.warn("the Lasso relevance estimate did not converge (KKT "
                      f"residual {record['kkt_residual']:.3e})",
                      RuntimeWarning, stacklevel=3)
    return nu, record


def _run_stages(strategy, oracle, k, p, budgets, q=1, nu=None,
                estimator=None, estimates=0):
    """The stage loop every runner calls (see the module docstring).

    Stage i water-fills budgets[i] on |nu|^q, draws each task's increment
    at draw index i (every task at stage 0, even at n = 0, so fit_source
    carries zero-sample tasks), merges it, refits warm, fits the target
    head on the new B_hat and, for the first `estimates` stages, estimates
    nu by `estimator` ("lasso" or "min_l2") from the heads. The last
    stage's model is the run's. nu None starts from all ones, outside the
    record; a given nu is the run's reference and heads nu_history. The
    reported N_tot is the number of source samples drawn: a task never
    gives samples back when a later stage allots it fewer.
    """
    t0 = time.perf_counter()
    gt, T = oracle.gt, oracle.gt.T
    N_floor = p.get("N_floor", 0)
    nu_history = [] if nu is None else [np.asarray(nu, dtype=float)]
    nu = np.ones(T) if nu is None else nu
    target_ds = oracle.sample(T, p["n_target"], draw=0)
    datasets = [None] * T
    counts = np.zeros(T, dtype=int)
    allocations, summaries, model = [], [], None
    for stage, budget in enumerate(budgets):
        alloc = lpnq_allocation(nu, q, budget, N_floor)
        allocations.append(alloc)
        for t in range(T):
            inc = int(alloc.n[t]) - int(counts[t])
            if datasets[t] is None:
                datasets[t] = oracle.sample(t, inc, draw=stage)
            elif inc > 0:
                datasets[t] = datasets[t].merge(
                    oracle.sample(t, inc, draw=stage))
        counts = np.maximum(counts, alloc.n)
        model = fit_target_head(
            fit_source(datasets, k,
                       init_B=None if model is None else model.B_hat),
            target_ds)
        summaries.append(_stage_summary(model, gt))
        if stage < estimates:
            nu, record = _estimate_nu(model, p, estimator)
            nu_history.append(nu)
            if record is not None:
                summaries[-1]["relevance"] = record
    er = excess_risk(model, gt)
    last = nu_history[-1] if nu_history else np.zeros(0)
    return RunResult(
        strategy=strategy, seed=oracle.seed, N_tot=int(counts.sum()),
        N_floor=N_floor, allocations=tuple(allocations),
        stage_summaries=tuple(summaries), excess_risk=float(er),
        subspace_distance=summaries[-1]["subspace_distance"],
        nu_history=tuple(nu_history),
        nu_l1_norm=float(np.abs(last).sum()), support_size=support_size(last),
        total_samples=int(counts.sum()) + p["n_target"],
        target_samples=p["n_target"],
        wall_ms=(time.perf_counter() - t0) * 1e3, params=dict(p))


def run_known_nu(oracle, d, k, T, nu_ref, q, params=None):
    """Oracle strategy: allocate straight from a reference relevance vector
    with exponent q (q=1 water-filling on |nu|, q=2 on squared weights)."""
    _check_dims(oracle, d, k, T)
    p = {"q": q, **_params(params)}
    return _run_stages("known_nu", oracle, k, p, [_require(p, "N_tot")], q,
                       nu=nu_ref)


def run_passive(oracle, d, k, T, params=None):
    """Uniform allocation across all source tasks; no relevance estimate."""
    _check_dims(oracle, d, k, T)
    p = _params(params)
    return _run_stages("passive", oracle, k, p, [_require(p, "N_tot")])


def _two_phase(oracle, d, k, T, params, strategy, estimator, q):
    """Explore at the floor, estimate nu once, then water-fill the rest."""
    _check_dims(oracle, d, k, T)
    p = _params(params)
    N_floor = _require(p, "N_floor")
    N_tot = _require(p, "N_tot_phase2")
    if N_floor < 1:
        raise ValueError("the exploration phase needs N_floor >= 1")
    if N_tot < T * N_floor:
        raise InfeasibleBudgetError(f"N_tot_phase2 = {N_tot} cannot cover "
                                    f"{T} floors of {N_floor}")
    return _run_stages(strategy, oracle, k, p, [T * N_floor, N_tot], q,
                       estimator=estimator, estimates=1)


def run_l1_amtrl(oracle, d, k, T, params=None):
    """Two-phase strategy with a Lasso relevance estimate (water-filling on
    |nu|)."""
    return _two_phase(oracle, d, k, T, params, "L1", "lasso", 1)


def run_l2_amtrl(oracle, d, k, T, params=None):
    """Two-phase strategy with a minimum-L2 relevance estimate (allocation
    proportional to squared weights)."""
    return _two_phase(oracle, d, k, T, params, "L2", "min_l2", 2)


def run_multistage(oracle, d, k, T, params=None):
    """Geometric budget schedule with relevance re-estimation each stage.

    Starts from an all-ones relevance guess; stage i water-fills a budget
    beta_1 * L^i, draws only the incremental samples, refits (warm), and
    re-estimates relevance by Lasso. S = 1 degenerates to a floored
    passive run followed by one estimate.
    """
    _check_dims(oracle, d, k, T)
    p = _params(params)
    S = _require(p, "S")
    L = float(_require(p, "L"))
    beta_1 = _require(p, "beta_1")
    N_floor = _require(p, "N_floor")
    if S < 1:
        raise ValueError("need S >= 1 stages")
    if L <= 1.0:
        raise ValueError("need budget growth L > 1")
    if N_floor < 1:
        raise ValueError("the exploration stages need N_floor >= 1")
    if beta_1 < T * N_floor:
        raise InfeasibleBudgetError(f"beta_1 = {beta_1} cannot cover {T} "
                                    f"floors of {N_floor}")
    budgets = [int(round(beta_1 * L ** i)) for i in range(S)]
    return _run_stages("multistage", oracle, k, p, budgets,
                       estimator="lasso", estimates=S)
