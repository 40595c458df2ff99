"""End-to-end sampling strategies on synthetic task collections.

Each runner consumes a TaskOracle (fresh i.i.d. samples on demand, fully
deterministic in its seed) and produces a RunResult: allocations, fitted
models per stage, the final excess risk, and sample accounting. Two-phase
runners explore at the floor, estimate a relevance vector from the fitted
heads, then concentrate the remaining budget; the multi-stage runner grows
its budget geometrically while re-estimating relevance.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .allocation import (Allocation, InfeasibleBudgetError, allocate_fixed_nu,
                         lpnq_allocation)
from .instance import TaskDataset, sample_task
from .relevance import (LAZY_LAMBDA, kkt_residual, lambda_rule, lasso,
                        min_l2_solution, support_size)
from .trainer import (excess_risk, fit_source, fit_target_head, head_for,
                      subspace_distance)

_DEFAULTS = {
    "n_target": 500,
    "lambda_policy": "lazy",
    "lambda": None,
}


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


def _merge_parts(task_index, parts, seed):
    parts = [p for p in parts if p is not None and p.n > 0]
    if not parts:
        raise ValueError(f"task {task_index} has no samples to merge")
    if len(parts) == 1:
        return parts[0]
    X = np.vstack([p.X for p in parts])
    Y = np.concatenate([p.Y for p in parts])
    return TaskDataset(task_index=task_index, X=X, Y=Y, n=X.shape[0],
                       seed=seed, draw=parts[-1].draw)


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


def _source_heads(B, datasets, k):
    cols = []
    for ds in datasets:
        if ds.n == 0:
            cols.append(np.zeros(k))
        else:
            cols.append(head_for(B, ds))
    return np.column_stack(cols)


def _lasso_estimate(W_hat, w_hat, p):
    """Lasso relevance estimate and the stage's relevance record of its
    solver diagnostics; warns when the Lasso did not converge."""
    lam = lambda_for(p, W_hat, w_hat)
    nu, info = lasso(W_hat, w_hat, lam)
    record = {"steps": int(info["sweeps"]),
              "kkt_residual": kkt_residual(W_hat, w_hat, nu, lam),
              "converged": bool(info["converged"])}
    if not record["converged"]:
        warnings.warn("the Lasso relevance estimate did not converge (KKT "
                      f"residual {record['kkt_residual']:.3e})",
                      RuntimeWarning, stacklevel=3)
    return nu, record


def _estimate_nu(model, datasets, target_ds, k, p, method):
    """Relevance estimate from the fitted representation. Returns
    (nu, record), the record holding the Lasso diagnostics (None for the
    min-L2 route)."""
    W_hat = _source_heads(model.B_hat, datasets, k)
    w_hat = head_for(model.B_hat, target_ds)
    if method == "lasso":
        return _lasso_estimate(W_hat, w_hat, p)
    try:
        nu = min_l2_solution(W_hat, w_hat)
    except ValueError:
        warnings.warn("estimated heads are rank-deficient; using a "
                      "plain least-squares relevance estimate",
                      RuntimeWarning, stacklevel=2)
        nu = np.linalg.lstsq(W_hat, w_hat, rcond=None)[0]
    return nu, None


def _finish(strategy, oracle, p, allocations, summaries, model, nu_history,
            nu_l1, support, N_tot, N_floor, total_samples, t0, params_echo):
    gt = oracle.gt
    er = excess_risk(model, gt)
    sd = subspace_distance(model.B_hat, gt.B_star)
    wall = (time.perf_counter() - t0) * 1e3
    return RunResult(
        strategy=strategy, seed=oracle.seed, N_tot=int(N_tot),
        N_floor=int(N_floor), allocations=tuple(allocations),
        stage_summaries=tuple(summaries), excess_risk=float(er),
        subspace_distance=float(sd),
        nu_history=tuple(np.asarray(nu) for nu in nu_history),
        nu_l1_norm=float(nu_l1), support_size=int(support),
        total_samples=int(total_samples),
        target_samples=int(p["n_target"]), wall_ms=float(wall),
        status="ok", params=dict(params_echo))


def run_known_nu(oracle, d, k, T, nu_ref, q, params=None):
    """Oracle strategy: allocate straight from a reference relevance vector
    with exponent q (q=1 water-filling on |nu|, q=2 on squared weights)."""
    t0 = time.perf_counter()
    _check_dims(oracle, d, k, T)
    p = _params(params)
    N_tot, N_floor = int(_require(p, "N_tot")), int(p.get("N_floor", 0))
    alloc = lpnq_allocation(nu_ref, q, N_tot, N_floor, strategy="known_nu")
    datasets = [oracle.sample(t, int(alloc.n[t]), draw=0) for t in range(T)]
    model = fit_source(datasets, k)
    target_ds = oracle.sample(T, p["n_target"], draw=0)
    model = fit_target_head(model, target_ds)
    nu_ref = np.asarray(nu_ref, dtype=float)
    return _finish("known_nu", oracle, p, [alloc],
                   [_stage_summary(model, oracle.gt)], model, [nu_ref],
                   np.abs(nu_ref).sum(), support_size(nu_ref), N_tot,
                   N_floor, int(alloc.n.sum()) + p["n_target"], t0,
                   {"q": q, **p})


def run_passive(oracle, d, k, T, params=None):
    """Uniform allocation across all source tasks; no relevance estimate."""
    t0 = time.perf_counter()
    _check_dims(oracle, d, k, T)
    p = _params(params)
    N_tot, N_floor = int(_require(p, "N_tot")), int(p.get("N_floor", 0))
    alloc = allocate_fixed_nu(np.ones(T), N_tot, N_floor, strategy="passive")
    datasets = [oracle.sample(t, int(alloc.n[t]), draw=0) for t in range(T)]
    model = fit_source(datasets, k)
    target_ds = oracle.sample(T, p["n_target"], draw=0)
    model = fit_target_head(model, target_ds)
    return _finish("passive", oracle, p, [alloc],
                   [_stage_summary(model, oracle.gt)], model, [], 0.0, 0,
                   N_tot, N_floor, int(alloc.n.sum()) + p["n_target"], t0, p)


def _two_phase(oracle, d, k, T, params, strategy):
    t0 = time.perf_counter()
    _check_dims(oracle, d, k, T)
    p = _params(params)
    N_floor = int(_require(p, "N_floor"))
    N_tot = int(_require(p, "N_tot_phase2"))
    if N_floor < 1:
        raise ValueError("the exploration phase needs N_floor >= 1")
    if N_tot < T * N_floor:
        raise InfeasibleBudgetError(f"N_tot_phase2 = {N_tot} cannot cover "
                                    f"{T} floors of {N_floor}")
    gt = oracle.gt

    # Phase 1: uniform exploration at the floor
    alloc1 = Allocation(n=np.full(T, N_floor), N_tot=T * N_floor,
                        N_floor=N_floor, strategy=strategy, c_prime=0.0,
                        continuous=np.full(T, float(N_floor)))
    datasets1 = [oracle.sample(t, N_floor, draw=0) for t in range(T)]
    target_ds = oracle.sample(T, p["n_target"], draw=0)
    model1 = fit_source(datasets1, k)
    method = "lasso" if strategy == "L1" else "min_l2"
    nu_hat, record = _estimate_nu(model1, datasets1, target_ds, k, p, method)

    # Phase 2: concentrate the budget by the estimated relevance
    if strategy == "L1":
        alloc2 = allocate_fixed_nu(nu_hat, N_tot, N_floor, strategy="L1")
    else:
        alloc2 = lpnq_allocation(nu_hat, 2, N_tot, N_floor, strategy="L2")
    merged = []
    for t in range(T):
        inc = int(alloc2.n[t]) - N_floor
        parts = [datasets1[t]]
        if inc > 0:
            parts.append(oracle.sample(t, inc, draw=1))
        merged.append(_merge_parts(t, parts, oracle.seed))
    model2 = fit_source(merged, k, init_B=model1.B_hat)
    model2 = fit_target_head(model2, target_ds)

    summaries = [_stage_summary(model1, gt), _stage_summary(model2, gt)]
    if record is not None:
        summaries[0]["relevance"] = record
    return _finish(strategy, oracle, p, [alloc1, alloc2], summaries, model2,
                   [nu_hat], np.abs(nu_hat).sum(), support_size(nu_hat),
                   N_tot, N_floor, int(alloc2.n.sum()) + p["n_target"], t0, p)


def run_l1_amtrl(oracle, d, k, T, params=None):
    """Two-phase strategy with a Lasso relevance estimate (water-filling on
    |nu|)."""
    return _two_phase(oracle, d, k, T, params, "L1")


def run_l2_amtrl(oracle, d, k, T, params=None):
    """Two-phase strategy with a minimum-L2 relevance estimate (allocation
    proportional to squared weights)."""
    return _two_phase(oracle, d, k, T, params, "L2")


def run_multistage(oracle, d, k, T, params=None):
    """Geometric budget schedule with relevance re-estimation each stage.

    Starts from an all-ones relevance guess; stage i water-fills a budget
    beta_1 * L^i, draws only the incremental samples, refits (warm), and
    re-estimates relevance by Lasso. S = 1 degenerates to a floored
    passive run followed by one estimate.
    """
    t0 = time.perf_counter()
    _check_dims(oracle, d, k, T)
    p = _params(params)
    S = int(_require(p, "S"))
    L = float(_require(p, "L"))
    beta_1 = int(_require(p, "beta_1"))
    N_floor = int(_require(p, "N_floor"))
    if S < 1:
        raise ValueError("need S >= 1 stages")
    if L <= 1.0:
        raise ValueError("need budget growth L > 1")
    if N_floor < 1:
        raise ValueError("the exploration stages need N_floor >= 1")
    if beta_1 < T * N_floor:
        raise InfeasibleBudgetError(f"beta_1 = {beta_1} cannot cover {T} "
                                    f"floors of {N_floor}")
    gt = oracle.gt

    target_ds = oracle.sample(T, p["n_target"], draw=0)
    nu_hat = np.ones(T)
    counts = np.zeros(T, dtype=int)
    parts = [[] for _ in range(T)]
    allocations, summaries, nu_history = [], [], []
    model = None
    for stage in range(S):
        beta_i = int(round(beta_1 * L ** stage))
        alloc = allocate_fixed_nu(nu_hat, beta_i, N_floor, strategy="L1")
        allocations.append(alloc)
        for t in range(T):
            inc = int(alloc.n[t]) - int(counts[t])
            if inc > 0:
                parts[t].append(oracle.sample(t, inc, draw=stage))
        counts = np.maximum(counts, alloc.n)
        merged = [_merge_parts(t, parts[t], oracle.seed) for t in range(T)]
        init_B = None if model is None else model.B_hat
        model = fit_source(merged, k, init_B=init_B)
        w_hat = head_for(model.B_hat, target_ds)
        W_hat = _source_heads(model.B_hat, merged, k)
        nu_hat, record = _lasso_estimate(W_hat, w_hat, p)
        summaries.append({**_stage_summary(model, gt), "relevance": record})
        nu_history.append(nu_hat)
    model = fit_target_head(model, target_ds)
    total = int(counts.sum()) + p["n_target"]
    return _finish("multistage", oracle, p, allocations, summaries, model,
                   nu_history, np.abs(nu_hat).sum(), support_size(nu_hat),
                   int(counts.sum()), N_floor, total, t0, p)
