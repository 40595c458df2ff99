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

The exploration stage is shared. Stage 0 of an L1, L2 or multistage run
(water-fill from nu = 1, draw every task, fit from the spectral start, fit
the target head, estimate nu) is a pure function of the instance, seed, k,
stage budget, floor, target set, estimator and Lasso penalty, and _explore
memoizes it one entry deep. A sweep runs seed by seed, so a seed's L1 runs
after its first budget take the stage from the entry, as do its L2 runs
and its multistage runs at beta_1 = T * N_floor. Each run still records
the stage's draws in its own oracle and issues the stage's warnings again,
so its accounting, replay guard, warnings and outputs are those of a run
that computed the stage.
"""

import functools
import math
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .allocation import InfeasibleBudgetError, lpnq_allocation
# not called here, but the benchmark's tracer wraps pipeline.allocate_fixed_nu
# as well as pipeline.lpnq_allocation, through which the loop allocates
from .allocation import allocate_fixed_nu  # noqa: F401
from .instance import integer, sample_task
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


class TaskOracle:
    """Sampling access to a ground-truth instance, with draw accounting.

    sample(task_index, n, draw) returns n fresh i.i.d. observations;
    distinct draw indices give independent streams and the same
    (task_index, draw) pair may be consumed only once, which is what
    makes incremental multi-stage sampling reuse data instead of
    replaying it. Task index gt.T addresses the target task.

    record(task_index, n, draw) consumes a draw without drawing it, for
    samples the caller already holds from this oracle's stream (the shared
    exploration stage): it is accounted and guarded as sample() would.
    Both take n and draw by instance.integer's rule, and a refused draw
    records nothing.
    """

    def __init__(self, gt, seed=0):
        self.gt = gt
        self.seed = int(seed)
        self._drawn = {}

    @property
    def target_index(self):
        return self.gt.T

    def _claim(self, task_index, n, draw):
        n, key = integer(n, "n"), (int(task_index), integer(draw, "draw"))
        if n < 0:
            raise ValueError("n must be >= 0")
        if key in self._drawn:
            raise RuntimeError(
                f"draw {draw} of task {task_index} was already consumed; "
                "use a fresh draw index for incremental samples")
        return key, n

    def record(self, task_index, n, draw=0):
        key, n = self._claim(task_index, n, draw)
        self._drawn[key] = n

    def sample(self, task_index, n, draw=0):
        key, n = self._claim(task_index, n, draw)
        ds = sample_task(self.gt, task_index, n, self.seed, draw=key[1])
        self._drawn[key] = n
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


def _reissue(caught):
    """Issue again, under the filters in force now, the warnings that
    catch_warnings(record=True) recorded, each at the place it was raised."""
    for w in caught:
        module = next((name for name, m in list(sys.modules.items())
                       if getattr(m, "__file__", None) == w.filename), None)
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               module=module, source=w.source)


@functools.lru_cache(maxsize=1)
def _explore(gt, seed, k, budget, N_floor, target_ds, estimator,
             lambda_policy, lam):
    """Stage 0 of a run that starts from nu = 1 and estimates nu: water-fill
    budget on all ones with floor N_floor, draw every task at draw index 0
    of the stream at seed, fit from the spectral start, fit the target head
    on target_ds and estimate nu by estimator under the lambda policy.

    A pure function of its arguments, memoized one entry deep like
    instance._target_draw (target_ds, a TaskDataset, and gt key by
    identity): the runs of one seed that explore alike (L1 and L2 at every
    budget, multistage at beta_1 = T * N_floor) follow each other in a
    sweep, so all but the first take the stage from the entry.

    Returns (allocation, datasets, model, summary, (nu, record), caught):
    the model's arrays and nu are read-only, and caught holds the warnings
    the stage raised, recorded instead of shown so that every run sharing
    the stage issues them again (_reissue). catch_warnings swaps the
    process-wide warning state, so runs made in concurrent threads may
    catch each other's warnings; the sweep makes its runs one at a time."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alloc = lpnq_allocation(np.ones(gt.T), 1, budget, N_floor)
        datasets = tuple(sample_task(gt, t, n, seed, draw=0)
                         for t, n in enumerate(alloc.n.tolist()))
        model = fit_target_head(fit_source(datasets, k), target_ds)
        summary = _stage_summary(model, gt)
        nu, record = _estimate_nu(
            model, {"lambda_policy": lambda_policy, "lambda": lam}, estimator)
    for a in (model.B_hat, model.W_hat, model.w_target_hat, nu):
        a.setflags(write=False)
    return alloc, datasets, model, summary, (nu, record), tuple(caught)


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

    A run that starts from all ones and estimates takes stage 0 from
    _explore and records that stage's draws in its oracle as its own (see
    the module docstring).
    """
    t0 = time.perf_counter()
    gt, T = oracle.gt, oracle.gt.T
    N_floor = p.get("N_floor", 0)
    nu_history = [] if nu is None else [np.asarray(nu, dtype=float)]
    explore = nu is None and estimates > 0
    nu = np.ones(T) if nu is None else nu
    target_ds = oracle.sample(T, p["n_target"], draw=0)
    datasets = [None] * T
    counts = np.zeros(T, dtype=int)
    allocations, summaries, model = [], [], None
    for stage, budget in enumerate(budgets):
        estimate = None
        if stage == 0 and explore:
            lam = p["lambda"] if p["lambda_policy"] == "explicit" else None
            alloc, shared, model, summary, estimate, caught = _explore(
                gt, oracle.seed, k, budget, N_floor, target_ds, estimator,
                p["lambda_policy"], lam)
            for t, ds in enumerate(shared):
                oracle.record(t, ds.n, draw=0)
            datasets = list(shared)
            summary = dict(summary)
            _reissue(caught)
        else:
            alloc = lpnq_allocation(nu, q, budget, N_floor)
            for t in range(T):
                inc = int(alloc.n[t]) - int(counts[t])
                if datasets[t] is None:
                    datasets[t] = oracle.sample(t, inc, draw=stage)
                elif inc > 0:
                    datasets[t] = datasets[t].merge(
                        oracle.sample(t, inc, draw=stage))
            model = fit_target_head(
                fit_source(datasets, k,
                           init_B=None if model is None else model.B_hat),
                target_ds)
            summary = _stage_summary(model, gt)
            if stage < estimates:
                estimate = _estimate_nu(model, p, estimator)
        allocations.append(alloc)
        counts = np.maximum(counts, alloc.n)
        summaries.append(summary)
        if estimate is not None:
            nu, record = estimate[0].copy(), estimate[1]
            nu_history.append(nu)
            if record is not None:
                summary["relevance"] = dict(record)
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
    if not 1.0 < L < math.inf:
        raise ValueError(f"need a finite budget growth L > 1, got L = {L!r}")
    if N_floor < 1:
        raise ValueError("the exploration stages need N_floor >= 1")
    if beta_1 < T * N_floor:
        raise InfeasibleBudgetError(f"beta_1 = {beta_1} cannot cover {T} "
                                    f"floors of {N_floor}")
    budgets = [int(round(beta_1 * L ** i)) for i in range(S)]
    return _run_stages("multistage", oracle, k, p, budgets,
                       estimator="lasso", estimates=S)
