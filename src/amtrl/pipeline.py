"""End-to-end sampling strategies on synthetic task collections.

Each runner consumes a TaskOracle (fresh i.i.d. samples on demand, fully
deterministic in its seed) and produces a RunResult: allocations, fitted
models per stage, the final excess risk, and sample accounting.

Every strategy is one stage loop over a budget schedule, and every stage
is one function, _stage. A stage water-fills its budget by the current
relevance vector nu (raised to the power q), draws each task's increment
over what it already holds at draw index = stage, merges it into that
task's dataset (TaskDataset.merge adds the statistics; no rows are kept),
refits (warm from the previous B_hat), fits the target head on it and may
estimate nu again from the fitted heads. The strategies differ only in what
they hand the loop:

- passive: one stage of N_tot at nu = 1;
- known_nu: one stage of N_tot at the reference nu, with exponent q;
- L1 / L2: stages [T * N_floor, N_tot_phase2] from nu = 1; after the
  first stage nu is estimated by Lasso (L1, q = 1) or minimum L2 norm
  (L2, q = 2);
- multistage: stages round(beta_1 * L^i), i < S, from nu = 1, with a
  Lasso estimate after every stage.

The exploration stage is shared unless it warned. _stage is a pure function
of the instance, seed, k, stage, nu, q, budget, floor, held datasets, warm
start, target set, estimator and Lasso penalty, and _first_stage memoizes it
one entry deep for stage 0 of the runs that start from nu = 1 and estimate nu
(L1, L2, multistage). A sweep runs seed by seed, so a seed's L1 runs after
its first budget take the stage from the entry, as do its L2 runs and its
multistage runs at beta_1 = T * N_floor. Each run records every stage's
draws in its own oracle, so its accounting and replay guard are those of a
run that computed the stage. Warnings go out where they are raised, under
the filters in force; the entry is kept only for a stage that raised none
(the fit converged, the Lasso converged, no fallback was taken), so a run
whose exploration stage warned computes it again and warns in turn.
"""

import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .allocation import _check_budget, _lpnq_weights, lpnq_allocation
# not called here, but the benchmark's tracer wraps pipeline.allocate_fixed_nu
# as well as pipeline.lpnq_allocation, through which the loop allocates
from .allocation import allocate_fixed_nu  # noqa: F401
from .instance import (MAX_COUNT, draw_arguments, finite, finite_vector,
                       int64_count, integer, sample_task)
from .relevance import (LAZY_LAMBDA, lambda_rule, lasso, min_l2_solution,
                        support_size)
from .trainer import (excess_risk, fit_source, fit_target_head,
                      subspace_distance)
# not called here, but the benchmark's tracer wraps pipeline.head_for as well
# as pipeline.fit_target_head, through which the loop solves the target head
from .trainer import head_for  # noqa: F401

# every run takes these, as a sweep hands all its runs the same values; the
# Lasso penalty "lambda" is a rule, "lazy" or "theory", or a number >= 0
_DEFAULTS = {"n_target": 500, "lambda": "lazy"}
# the other settings each strategy reads, the only others its runner takes
_SETTINGS = {"passive": ("N_tot", "N_floor"), "known_nu": ("N_tot", "N_floor"),
             "L1": ("N_tot_phase2", "N_floor"),
             "L2": ("N_tot_phase2", "N_floor"),
             "multistage": ("S", "L", "beta_1", "N_floor")}


class TaskOracle:
    """Sampling access to a ground-truth instance, with draw accounting.

    sample(task_index, n, draw) returns n fresh i.i.d. observations;
    distinct draw indices give independent streams and the same
    (task_index, draw) pair may be consumed only once, which is what
    makes incremental multi-stage sampling reuse data instead of
    replaying it. Task index gt.T addresses the target task.

    record(task_index, n, draw) consumes a draw without drawing it, for
    samples the caller drew from this oracle's stream itself (the stage
    loop, whose stages draw through sample_task): it is accounted and
    guarded as sample() would. Both check their arguments by
    instance.draw_arguments, and the constructor the seed by
    instance.integer's rule; a refused draw records nothing.
    """

    def __init__(self, gt, seed=0):
        self.gt = gt
        self.seed = integer(seed, "seed")
        self._drawn = {}

    @property
    def target_index(self):
        return self.gt.T

    def _claim(self, task_index, n, draw):
        t, n, draw = draw_arguments(self.gt.T, task_index, n, draw)
        if (t, draw) in self._drawn:
            raise RuntimeError(
                f"draw {draw} of task {t} was already consumed; "
                "use a fresh draw index for incremental samples")
        return (t, draw), n

    def record(self, task_index, n, draw=0):
        key, n = self._claim(task_index, n, draw)
        self._drawn[key] = n

    def sample(self, task_index, n, draw=0):
        key, n = self._claim(task_index, n, draw)
        ds = sample_task(self.gt, key[0], n, self.seed, draw=key[1])
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


def _params(params, strategy):
    """params over _DEFAULTS, checked for strategy before any work: the one
    place a run setting is checked, which every runner calls first and
    SweepConfig calls for each strategy it lists. A key outside _DEFAULTS
    and the strategy's row of _SETTINGS is refused. Raises ValueError naming
    the setting."""
    merged = dict(_DEFAULTS)
    if params:
        unknown = set(params) - set(_DEFAULTS) - set(_SETTINGS[strategy])
        if unknown:
            raise ValueError(f"unknown params for {strategy}: "
                             f"{sorted(unknown)}")
        merged.update(params)
    for key in ("N_tot", "N_tot_phase2", "N_floor", "n_target"):
        if key in merged:
            merged[key] = int64_count(merged[key], key)
    for key in ("S", "beta_1"):
        if key in merged:
            merged[key] = integer(merged[key], key)
    # these sample every task at the floor before they estimate nu
    floor = 1 if strategy in ("L1", "L2", "multistage") else 0
    if merged.get("N_floor", floor) < floor:
        raise ValueError(f"N_floor must be >= {floor} for {strategy}, got "
                         f"{merged['N_floor']}")
    for key in ("n_target", "S"):
        if merged.get(key, 1) < 1:
            raise ValueError(f"{key} must be >= 1, got {merged[key]}")
    if "L" in merged:
        L = merged["L"] = finite(merged["L"], "L (a budget growth L > 1)")
        if L <= 1:
            raise ValueError(f"L must be a budget growth L > 1, got {L}")
    if "S" in merged and "L" in merged:
        # the sum L^S that a sweep's beta_1 divides by must be a finite
        # float, and the schedule's budgets round(beta_1 * L^i), i < S,
        # int64 counts
        S, L = merged["S"], merged["L"]
        try:
            L ** S  # a float power raises OverflowError instead of inf
        except OverflowError:
            raise ValueError(f"S and L give a schedule too large for a "
                             f"float: L ** S overflows at S = {S}, L = {L}"
                             ) from None
        if "beta_1" in merged:
            beta_1 = merged["beta_1"]
            try:  # the last stage's budget, the largest
                largest = round(beta_1 * L ** (S - 1))
            except OverflowError:  # beyond a float
                largest = math.inf
            if largest > MAX_COUNT:
                raise ValueError(f"beta_1 gives a schedule too large for a "
                                 f"float or an int64 count: beta_1 * L ** "
                                 f"(S - 1) is above {MAX_COUNT} at beta_1 "
                                 f"= {beta_1}, S = {S}, L = {L}")
    lam = merged["lambda"]
    if not (isinstance(lam, str) and lam in ("lazy", "theory")):
        lam = merged["lambda"] = finite(
            lam, "lambda (a rule, \"lazy\" or \"theory\", or a number)")
        if lam < 0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
    return merged


def _require(p, key):
    if key not in p:
        raise ValueError(f"params must set {key!r} for this strategy")
    return p[key]


def _budget(p, key, T):
    """p[key], a budget that must be >= 0 and cover T floors of N_floor,
    checked by allocation._check_budget before any draw."""
    budget = _require(p, key)
    _check_budget(T, budget, p.get("N_floor", 0), key)
    return budget


def _check_dims(oracle, d, k, T):
    gt = oracle.gt
    if (d, k, T) != (gt.d, gt.k, gt.T):
        raise ValueError(f"oracle instance is (d={gt.d}, k={gt.k}, T={gt.T}),"
                         f" got (d={d}, k={k}, T={T})")


def lambda_for(lam, W, w):
    """The Lasso penalty on the system W nu = w for the lambda setting lam:
    LAZY_LAMBDA, the theory rule (LAZY_LAMBDA when degenerate) or lam."""
    if lam == "lazy":
        return LAZY_LAMBDA
    if lam != "theory":
        return lam
    sigma = float(np.linalg.svd(W, compute_uv=False)[-1])
    C_W = float(np.max(np.linalg.norm(W, axis=0)))
    R = float(np.linalg.norm(w))
    if min(sigma, C_W, R) <= 0.0:
        return LAZY_LAMBDA  # degenerate estimate; fall back
    return lambda_rule(W.shape[0], R, C_W, sigma)


def _estimate_nu(model, lam, estimator):
    """Relevance estimate from the fitted representation: the source heads
    are the fit's own W_hat, exact for B_hat, and the target head is the
    model's w_target_hat, fitted on the same B_hat. Returns (nu, record):
    the Lasso's solver diagnostics, {"fallback": "lstsq"} when the min-L2
    route falls back to least squares, None when it does not. Warns when the
    Lasso did not converge or the fallback was taken."""
    W_hat, w_hat = model.W_hat, model.w_target_hat
    if estimator == "min_l2":
        try:
            return min_l2_solution(W_hat, w_hat), None
        except ValueError:
            warnings.warn("estimated heads are rank-deficient; using a "
                          "plain least-squares relevance estimate",
                          RuntimeWarning, stacklevel=3)
            return (np.linalg.lstsq(W_hat, w_hat, rcond=None)[0],
                    {"fallback": "lstsq"})
    nu, info = lasso(W_hat, w_hat, lambda_for(lam, W_hat, w_hat))
    record = {"steps": int(info["sweeps"]),
              "kkt_residual": info["kkt_residual"],
              "converged": bool(info["converged"])}
    if not record["converged"]:
        # one text for every stage, so that the "default" filter shows it
        # once per place; the residual is in the record
        warnings.warn("the Lasso relevance estimate did not converge; the "
                      "stage's relevance record holds its KKT residual",
                      RuntimeWarning, stacklevel=3)
    return nu, record


def _stage(gt, seed, k, stage, nu, q, budget, N_floor, held, init_B,
           target_ds, estimator, lam):
    """One stage (see the module docstring), a pure function of its
    arguments: water-fill budget on |nu|^q with floor N_floor, draw each
    task's increment over its dataset in held at draw index stage (held
    None: every task, even at n = 0, so fit_source carries zero-sample
    tasks), merge it, refit warm from init_B, fit the target head on
    target_ds and, when estimator is set, estimate nu.

    Returns (allocation, datasets, model, summary, (nu, record) or None,
    draws): draws holds the stage's (task, n) source draws, and the model's
    arrays and nu are read-only."""
    alloc = lpnq_allocation(nu, q, budget, N_floor)
    if held is None:
        draws = tuple(enumerate(alloc.n.tolist()))
        datasets = tuple(sample_task(gt, t, n, seed, draw=stage)
                         for t, n in draws)
    else:
        draws = tuple((t, n - ds.n) for t, (n, ds)
                      in enumerate(zip(alloc.n.tolist(), held))
                      if n > ds.n)
        datasets = list(held)
        for t, n in draws:
            datasets[t] = datasets[t].merge(
                sample_task(gt, t, n, seed, draw=stage))
        datasets = tuple(datasets)
    model = fit_target_head(fit_source(datasets, k, init_B=init_B),
                            target_ds)
    summary = {"loss": float(model.train_loss_history[-1]),
               "iterations": int(model.iterations),
               "converged": bool(model.converged),
               "subspace_distance": float(subspace_distance(model.B_hat,
                                                            gt.B_star))}
    estimate = estimator and _estimate_nu(model, lam, estimator)
    for a in (model.B_hat, model.W_hat, model.w_target_hat):
        a.setflags(write=False)
    if estimate is not None:
        estimate[0].setflags(write=False)
    return alloc, datasets, model, summary, estimate, draws


# stage 0 of the runs that estimate nu, one entry deep like
# instance._target_draw (gt, held and target_ds key by identity), holding
# only a stage that raised no warning (_run_stages clears it after any
# other); passive and known-nu runs call _stage directly, so never evict it
_first_stage = functools.lru_cache(maxsize=1)(_stage)


def _run_stages(strategy, oracle, k, p, budgets, q=1, nu=None,
                estimator=None, estimates=0):
    """The stage loop every runner calls (see the module docstring).

    Stage i is _stage at draw index i on stage i - 1's datasets and B_hat,
    estimating nu by `estimator` ("lasso" or "min_l2") in the first
    `estimates` stages, which at stage 0 comes from _first_stage; the last
    stage's model is the run's. nu None starts from all ones, outside the
    record; a given nu is the run's reference and heads nu_history. The
    reported N_tot is the number of source samples drawn: a task never
    gives samples back when a later stage allots it fewer. The run records
    p, less the Lasso penalty when no stage reads it.
    """
    t0 = time.perf_counter()
    gt = oracle.gt
    N_floor = p.get("N_floor", 0)
    nu_history = [] if nu is None else [nu]
    # a tuple, so that stage 0 can key _first_stage's memo
    nu = (1.0,) * gt.T if nu is None else tuple(nu.tolist())
    target_ds = oracle.sample(gt.T, p["n_target"], draw=0)
    datasets, model = None, None
    allocations, summaries = [], []
    for stage, budget in enumerate(budgets):
        est = estimator if stage < estimates else None
        stage_fn = _first_stage if stage == 0 and est else _stage
        alloc, datasets, model, summary, estimate, draws = stage_fn(
            gt, oracle.seed, k, stage, nu, q, budget, N_floor, datasets,
            None if model is None else model.B_hat, target_ds, est,
            p["lambda"])
        nu_hat, record = estimate or (None, None)
        # keep only a stage that raised no warning (a fallback record has no
        # "converged"), so that no run takes a stage without its warnings
        if stage_fn is _first_stage and not (summary["converged"] and (
                record is None or record.get("converged", False))):
            _first_stage.cache_clear()
        for t, n in draws:
            oracle.record(t, n, draw=stage)
        allocations.append(alloc)
        summaries.append(dict(summary))
        if nu_hat is not None:
            nu_history.append(nu_hat.copy())
            nu = tuple(nu_hat.tolist())
        if record is not None:
            summaries[-1]["relevance"] = dict(record)
    N_tot = sum(ds.n for ds in datasets)
    er = excess_risk(model, gt)
    last = nu_history[-1] if nu_history else np.zeros(0)
    return RunResult(
        strategy=strategy, seed=oracle.seed, N_tot=N_tot,
        N_floor=N_floor, allocations=tuple(allocations),
        stage_summaries=tuple(summaries), excess_risk=float(er),
        subspace_distance=summaries[-1]["subspace_distance"],
        nu_history=tuple(nu_history),
        nu_l1_norm=float(np.abs(last).sum()), support_size=support_size(last),
        total_samples=N_tot + p["n_target"],
        target_samples=p["n_target"],
        wall_ms=(time.perf_counter() - t0) * 1e3,
        params={key: v for key, v in p.items()
                if key != "lambda" or estimator == "lasso"})


def run_known_nu(oracle, d, k, T, nu_ref, q, params=None):
    """Oracle strategy: allocate straight from a reference relevance vector
    with exponent q (q=1 water-filling on |nu|, q=2 on squared weights).
    nu_ref must be a finite vector of T entries, q a finite number > 0 and
    |nu_ref|^q finite, all checked before any draw."""
    _check_dims(oracle, d, k, T)
    nu = finite_vector(nu_ref, T, "nu_ref")
    _lpnq_weights(nu, q, "nu_ref")
    p = {"q": float(q), **_params(params, "known_nu")}
    return _run_stages("known_nu", oracle, k, p, [_budget(p, "N_tot", T)],
                       p["q"], nu=nu)


def run_passive(oracle, d, k, T, params=None):
    """Uniform allocation across all source tasks; no relevance estimate."""
    _check_dims(oracle, d, k, T)
    p = _params(params, "passive")
    return _run_stages("passive", oracle, k, p, [_budget(p, "N_tot", T)])


def _two_phase(oracle, d, k, T, params, strategy, estimator, q):
    """Explore at the floor, estimate nu once, then water-fill the rest."""
    _check_dims(oracle, d, k, T)
    p = _params(params, strategy)
    N_floor = _require(p, "N_floor")
    N_tot = _budget(p, "N_tot_phase2", T)
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
    p = _params(params, "multistage")
    S = _require(p, "S")
    L = _require(p, "L")
    _require(p, "N_floor")
    beta_1 = _budget(p, "beta_1", T)
    budgets = [int(round(beta_1 * L ** i)) for i in range(S)]
    return _run_stages("multistage", oracle, k, p, budgets,
                       estimator="lasso", estimates=S)
