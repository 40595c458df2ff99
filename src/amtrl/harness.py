"""Batch experiment front-end: configs, sweeps, CSV output, verification.

A SweepConfig (usually loaded from JSON) names an instance (a "random"
or "almost_sparse" factory spec, or a saved instance {"file": path} of
any kind), a strategy list, a budget grid, and seed count; the sweep
runner executes the grid serially in the calling thread, seed by seed
(every strategy and budget of a seed before the next seed, so the runs
of a seed reuse its target draw), inside instance.shared_streams, so
that a run reads what the run before it drew of each source stream
instead of drawing it again, and writes one CSV row per run, sorted by
strategy, budget and seed, plus per-strategy summary and plot data. A
setting is checked by its owner before any work: the run settings by
pipeline._params, which SweepConfig calls for each listed strategy, and
the instance settings by the factory make_instance hands the spec to;
this module checks only its own keys and turns their ValueError into
ConfigError. The verify section holds one function per core numerical
property (water-filling optimality, the floor-free closed form, LP
sparsity, the norm ceilings, Lasso/LP agreement, monotone and exact
fitting); `amtrl verify` runs them on its own frozen draws at its own
fixed tolerances, which no caller loosens, and emits a machine-readable
report, and the acceptance gate calls the same functions with its own
seeds and tolerances.
"""

import contextlib
import csv
import dataclasses
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import allocation, instance, pipeline, relevance, trainer

CSV_HEADER = ("strategy", "seed", "N_tot", "N_floor", "ER", "subspace_dist",
              "nu_l1", "support", "status", "wall_ms")

SWEEP_STRATEGIES = ("L1", "L2", "passive", "known_nu_q1", "known_nu_q2",
                    "multistage")

_FACTORIES = {"random": instance.make_random_instance,
              "almost_sparse": instance.make_almost_sparse_instance}

INSTANCE_KINDS = tuple(_FACTORIES)


class ConfigError(ValueError):
    """Raised for malformed configs; maps to exit code 2."""


def _checked(check, *args, **kwargs):
    """check(*args, **kwargs), raising its ValueError as ConfigError."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None


# a run setting the config leaves to pipeline._DEFAULTS
_OMITTED = object()


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of a sweep: instance, strategies, grid.
    multistage takes S (default 3) and L (default 2.0); each budget's
    multistage run takes the schedule summing to about that budget
    (_multistage_beta1). lambda_value is the config's "lambda". An omitted
    n_target or lambda takes pipeline._DEFAULTS' value. pipeline._params
    checks the run settings, for every listed strategy, when the config is
    built."""

    instance: dict
    strategies: tuple
    budgets: tuple
    N_floor: int = 0
    seeds: int = 1
    lambda_value: str | float = _OMITTED
    n_target: int = _OMITTED
    multistage: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        try:
            budgets = tuple(instance.int64_count(b, "budget")
                            for b in self.budgets)
        except ValueError as e:
            raise ConfigError(f"budgets must be integers: {e}") from None
        object.__setattr__(self, "budgets", budgets)
        if not self.strategies:
            raise ConfigError("strategies must be non-empty")
        for s in self.strategies:
            if s not in SWEEP_STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}; choose from "
                                  f"{SWEEP_STRATEGIES}")
        if len(set(self.strategies)) < len(self.strategies):
            raise ConfigError(f"strategies are listed more than once: "
                              f"{list(self.strategies)}")
        if not self.budgets:
            raise ConfigError("budgets must be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        if self.budgets[0] < 0:
            raise ConfigError(f"budgets must be >= 0, got {self.budgets[0]}")
        seeds = _checked(instance.int64_count, self.seeds, "seeds")
        if seeds < 1:
            raise ConfigError("seeds must be >= 1")
        object.__setattr__(self, "seeds", seeds)
        if not isinstance(self.instance, dict):
            raise ConfigError("instance must be a mapping")
        given = {"n_target": self.n_target, "N_floor": self.N_floor,
                 "lambda": self.lambda_value}
        base = {key: v for key, v in given.items() if v is not _OMITTED}
        for strategy in self.strategies:  # p's values do not depend on it
            p = _checked(pipeline._params, base,
                         "known_nu" if strategy.startswith("known_nu")
                         else strategy)
        object.__setattr__(self, "n_target", p["n_target"])
        object.__setattr__(self, "N_floor", p["N_floor"])
        object.__setattr__(self, "lambda_value", p["lambda"])
        unknown = set(self.multistage) - {"S", "L"}
        if unknown:
            raise ConfigError(f"unknown multistage keys: {sorted(unknown)}; "
                              "choose from S, L")
        ms = {"S": 3, "L": 2.0, **self.multistage}
        try:  # checked even when multistage is not listed
            p = pipeline._params(ms, "multistage")
        except ValueError as e:
            raise ConfigError(f"multistage {e}") from None
        object.__setattr__(self, "multistage", {"S": p["S"], "L": p["L"]})


def config_from_dict(raw):
    raw = dict(raw)
    if "lambda" in raw:  # JSON spelling; keyword in Python
        raw["lambda_value"] = raw.pop("lambda")
    known = {f.name for f in dataclasses.fields(SweepConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"instance", "strategies", "budgets"} - set(raw)
    if missing:
        raise ConfigError(f"config is missing keys: {sorted(missing)}")
    try:
        return SweepConfig(**raw)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def make_instance(desc):
    """Build (or load) a GroundTruth from an instance description mapping."""
    spec = dict(desc)
    if "file" in spec:
        path = spec.pop("file")
        if spec:
            raise ConfigError(f"instance keys beside 'file': {sorted(spec)}")
        return instance.load_instance(path)
    kind = spec.pop("kind", "random")
    if kind not in INSTANCE_KINDS:
        raise ConfigError(f"unknown instance kind {kind!r}; choose from "
                          f"{INSTANCE_KINDS}")
    factory = _FACTORIES[kind]
    try:
        inspect.signature(factory).bind(**spec)
    except TypeError as e:
        raise ConfigError(f"instance spec: {e}") from None
    gt = _checked(factory, **spec)
    return gt[0] if kind == "almost_sparse" else gt


def reference_nu(gt, q):
    """The relevance vector a known-relevance run allocates from.

    Instances built around an explicit reference mixture carry it in their
    metadata and use it for both exponents; otherwise q = 1 uses the
    minimum-L1 solution and q = 2 the minimum-L2 one.
    """
    ref = gt.meta.get("reference_nu")
    if ref is not None:
        return np.asarray(ref, dtype=float)
    if q == 1:
        return relevance.l1_oracle_lp(gt.W_star, gt.w_target_star)
    return relevance.min_l2_solution(gt.W_star, gt.w_target_star)


def _multistage_beta1(N_tot, S, L):
    # geometric schedule summing to about N_tot
    total_factor = (L ** S - 1.0) / (L - 1.0)
    return max(1, int(round(N_tot / total_factor)))


def run_single(gt, strategy, seed, N_tot, cfg):
    """One strategy run; returns (row dict, RunResult or None)."""
    p = {"n_target": cfg.n_target, "lambda": cfg.lambda_value,
         "N_floor": cfg.N_floor}
    args = (pipeline.TaskOracle(gt, seed=seed), gt.d, gt.k, gt.T)
    t0 = time.perf_counter()
    try:
        if strategy in ("L1", "L2"):
            run = (pipeline.run_l1_amtrl if strategy == "L1"
                   else pipeline.run_l2_amtrl)
            res = run(*args, {**p, "N_tot_phase2": N_tot})
        elif strategy == "passive":
            res = pipeline.run_passive(*args, {**p, "N_tot": N_tot})
        elif strategy in ("known_nu_q1", "known_nu_q2"):
            q = 1 if strategy.endswith("q1") else 2
            res = pipeline.run_known_nu(*args, reference_nu(gt, q), q,
                                        {**p, "N_tot": N_tot})
        elif strategy == "multistage":
            ms = cfg.multistage
            res = pipeline.run_multistage(*args, {
                **p, "beta_1": _multistage_beta1(N_tot, ms["S"], ms["L"]),
                **ms})
        else:
            raise ConfigError(f"unknown strategy {strategy!r}")
    except allocation.InfeasibleBudgetError:
        wall = (time.perf_counter() - t0) * 1e3
        # placeholder zeros keep every CSV value finite; consumers must
        # filter on the status column
        return {"strategy": strategy, "seed": seed, "N_tot": N_tot,
                "N_floor": cfg.N_floor, "ER": 0.0, "subspace_dist": 0.0,
                "nu_l1": 0.0, "support": 0, "status": "infeasible",
                "wall_ms": wall}, None
    row = {"strategy": strategy, "seed": res.seed, "N_tot": res.N_tot,
           "N_floor": res.N_floor, "ER": res.excess_risk,
           "subspace_dist": res.subspace_distance, "nu_l1": res.nu_l1_norm,
           "support": res.support_size, "status": res.status,
           "wall_ms": res.wall_ms}
    return row, res


def write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v)
                             for v in (row[c] for c in CSV_HEADER)])


def write_summary_csv(path, summary):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("strategy", "N_tot", "median_ER", "iqr_ER"))
        for s in summary:
            writer.writerow((s["strategy"], s["N_tot"],
                             repr(s["median_ER"]), repr(s["iqr_ER"])))


def read_rows_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_sweep(cfg, out_dir="."):
    """Execute strategies x budgets x seeds; write runs.csv, summary.csv and
    per-strategy plot data to out_dir; returns (rows, summary rows). A plot
    file leaves out the points a log-log plot cannot show: N_tot or
    median_ER not above 0."""
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    # seed-major, so the runs sharing a seed's target set are consecutive
    # and all but the first take it from instance.sample_task's memo; a
    # seed's L1 (or L2) runs are consecutive too, and all but the first
    # take their exploration stage from pipeline._first_stage's memo; and a
    # run reads the normals of the source streams the run before it read
    # from the stream store
    rows = []
    with instance.shared_streams() as streams:
        for seed in range(cfg.seeds):
            for strategy in cfg.strategies:
                for budget in cfg.budgets:
                    streams.next_run()
                    rows.append(run_single(gt, strategy, seed, budget,
                                           cfg)[0])
    rows.sort(key=lambda r: (r["strategy"], r["N_tot"], r["seed"]))
    write_rows_csv(os.path.join(out_dir, "runs.csv"), rows)

    summary = summarize(rows)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), summary)
    for strategy in cfg.strategies:
        pts = [(s["N_tot"], s["median_ER"]) for s in summary
               if s["strategy"] == strategy and s["N_tot"] > 0
               and s["median_ER"] > 0]
        with open(os.path.join(out_dir, f"plot_{strategy}.dat"), "w") as fh:
            fh.write("# log10_N_tot log10_median_ER\n")
            for n, er in pts:
                fh.write(f"{math.log10(n):.12g} {math.log10(er):.12g}\n")
    return rows, summary


def summarize(rows):
    """Median and interquartile range of ER per (strategy, N_tot), over rows
    with status ok."""
    groups = {}
    for r in rows:
        if str(r["status"]) != "ok":
            continue
        key = (str(r["strategy"]), int(r["N_tot"]))
        groups.setdefault(key, []).append(float(r["ER"]))
    out = []
    for (strategy, n_tot) in sorted(groups):
        ers = np.array(groups[(strategy, n_tot)])
        q25, q50, q75 = np.percentile(ers, [25, 50, 75])
        out.append({"strategy": strategy, "N_tot": n_tot,
                    "median_ER": float(q50), "iqr_ER": float(q75 - q25)})
    return out


def json_default(obj):
    """json.dumps hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def cmd_gen(cfg, out_dir="."):
    """Write the configured instance to out_dir/instance.json; returns its
    path."""
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    path = os.path.join(out_dir, "instance.json")
    instance.save_instance(gt, path)
    return path


def cmd_run(cfg, out_dir="."):
    """Single run: first strategy, first budget, seed 0; writes run.json and
    run.csv to out_dir. Returns (row, path of run.json), or (row, None) for
    an infeasible run, which removes any run.json an earlier run left."""
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    row, res = run_single(gt, cfg.strategies[0], 0, cfg.budgets[0], cfg)
    path = os.path.join(out_dir, "run.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)  # so that no earlier run's record stays
    if res is not None:
        with open(path, "w") as fh:
            fh.write(json.dumps(dataclasses.asdict(res), indent=2,
                                default=json_default))
    write_rows_csv(os.path.join(out_dir, "run.csv"), [row])
    return row, None if res is None else path


def cmd_nu_solve(cfg, out_dir=None):
    """Solve the configured instance's relevance vectors three ways; the
    Lasso uses the penalty pipeline.lambda_for gives for the config's
    "lambda" on the true heads, which the report's "lambda" holds."""
    gt = make_instance(cfg.instance)
    W, w = gt.W_star, gt.w_target_star
    lam = pipeline.lambda_for(cfg.lambda_value, W, w)
    nu_lp = relevance.l1_oracle_lp(W, w)
    nu_l2 = relevance.min_l2_solution(W, w)
    nu_lasso = relevance.lasso(W, w, lam)[0]
    report = {
        "d": gt.d, "k": gt.k, "T": gt.T,
        "lambda": lam,
        "nu_l1_lp": nu_lp.tolist(),
        "nu_l2": nu_l2.tolist(),
        "nu_lasso": nu_lasso.tolist(),
        "l1_norms": {"lp": float(np.abs(nu_lp).sum()),
                     "l2_solution": float(np.abs(nu_l2).sum()),
                     "lasso": float(np.abs(nu_lasso).sum())},
        "supports": {"lp": relevance.support_size(nu_lp),
                     "l2_solution": relevance.support_size(nu_l2),
                     "lasso": relevance.support_size(nu_lasso)},
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "nu.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report


# ---------------------------------------------------------------------------
# verification suite
#
# One function per numerical property. `amtrl verify` and the acceptance
# gate both call these; each caller picks its own seeds, case counts and
# tolerances.

def random_family(count, seed, sigma_min_floor, instance_offset=100):
    """Random instances with k in 1..6, T in max(2,k)..30, d in
    max(8,k)..40: instance s draws its shape from seed + s and is built
    from seed + instance_offset + s."""
    for s in range(count):
        rng = instance._rng(seed + s)
        k = int(rng.integers(1, 7))
        T = int(rng.integers(max(2, k), 31))
        d = int(rng.integers(max(8, k), 41))
        yield instance.make_random_instance(
            d, k, T, sigma_z=0.1, sigma_min_floor=sigma_min_floor,
            seed=seed + instance_offset + s)


def allocation_cases(rng, count):
    """(nu, water-filling Allocation) pairs: T in 2..20, |nu_t| in
    [0.2, 3] with random signs, floor 0..3 and at least 30 samples per
    task, so every rounded count stays positive. Drawn lazily, one case at
    a time, so a caller may draw rivals from the same rng in between."""
    for _ in range(count):
        T = int(rng.integers(2, 21))
        nu = rng.uniform(0.2, 3.0, T) * rng.choice([-1.0, 1.0], T)
        N_floor = int(rng.integers(0, 4))
        lo = max(T * N_floor, 30 * T)
        N_tot = int(rng.integers(lo, lo + 500))
        yield nu, allocation.allocate_fixed_nu(nu, N_tot, N_floor)


def rival_excess(nu, alloc, rng, rivals):
    """How much alloc's objective sum nu_t^2 / n_t exceeds the best of
    `rivals` uniformly random integer allocations with the same budget and
    floor, relative to 1 + that best; <= 0 when alloc wins or ties."""
    T, F = nu.size, alloc.N_floor
    R = F + rng.multinomial(alloc.N_tot - T * F, np.full(T, 1.0 / T),
                            size=rivals)
    best = (nu ** 2 / np.maximum(R, 1e-300)).sum(axis=1).min()
    return (allocation.nu_tilde_objective(nu, alloc) - best) / (1.0 + best)


def floor_free_error(rng, count):
    """Worst relative gap between the floor-free water-filling objective
    and its closed form ||nu||_1^2 / N over `count` random nu (about a
    fifth of the entries zero) and budgets N in 50..4999."""
    worst = 0.0
    for _ in range(count):
        T = int(rng.integers(2, 25))
        nu = rng.standard_normal(T)
        nu[rng.random(T) < 0.2] = 0.0
        if not np.any(nu):
            nu[0] = 1.0
        N_tot = int(rng.integers(50, 5000))
        x, _ = allocation.continuous_allocation(nu, N_tot, 0)
        got = allocation.nu_tilde_objective(nu, x)
        want = np.abs(nu).sum() ** 2 / N_tot
        worst = max(worst, abs(got - want) / want)
    return worst


def lp_support_excess(gt):
    """Support size of the exact minimum-L1 mixture minus k."""
    nu = relevance.l1_oracle_lp(gt.W_star, gt.w_target_star)
    return relevance.support_size(nu) - gt.k


def lasso_vs_lp(gt, lam):
    """The Lasso at lam against the exact minimum-L1 LP on gt's true heads:
    (relative L1-norm gap, relative L1 distance, KKT residual)."""
    W, w = gt.W_star, gt.w_target_star
    nu_lp = relevance.l1_oracle_lp(W, w)
    nu_hat, info = relevance.lasso(W, w, lam)
    scale = 1.0 + np.abs(nu_lp).sum()
    return (abs(np.abs(nu_hat).sum() - np.abs(nu_lp).sum()) / scale,
            np.abs(nu_hat - nu_lp).sum() / scale, info["kkt_residual"])


def loss_increase(model):
    """Largest step-to-step increase of the fit's training loss, each
    divided by max(|loss before the step|, 1); 0 for a single entry."""
    h = np.asarray(model.train_loss_history)
    if h.size < 2:
        return 0.0
    return float(np.max(np.diff(h) / np.maximum(np.abs(h[:-1]), 1.0)))


def noiseless_fit(gt, seed):
    """Fit gt's tasks from 50 d noiseless samples each: (final loss over
    1 + initial loss, subspace distance to B_star)."""
    data = [instance.sample_task(gt, t, 50 * gt.d, seed=seed)
            for t in range(gt.T)]
    model = trainer.fit_source(data, gt.k)
    h = model.train_loss_history
    return (h[-1] / (1.0 + h[0]),
            trainer.subspace_distance(model.B_hat, gt.B_star))


def _verify_allocation_optimality(rng, n):
    return max([0.0] + [rival_excess(nu, alloc, rng, 40)
                        for nu, alloc in allocation_cases(rng, n)])


def _verify_lp_sparsity(rng, n):
    return max(lp_support_excess(gt)
               for gt in random_family(n, 31000, sigma_min_floor=0.3))


def _verify_norm_bound(rng, n):
    worst = -np.inf
    for gt in random_family(n, 32000, sigma_min_floor=0.3):
        rep = relevance.norm_bound_check(gt.W_star, gt.w_target_star)
        worst = max(worst, rep.l2_norm / rep.l2_bound - 1.0)
    return worst


def _verify_lasso_vs_lp(rng, n):
    return max(lasso_vs_lp(gt, 1e-8)[1]
               for gt in random_family(n, 33000, sigma_min_floor=0.5))


def _verify_lasso_kkt(rng, n):
    return max(lasso_vs_lp(gt, 1e-8)[2]
               for gt in random_family(n, 34000, sigma_min_floor=0.5))


def _verify_trainer_monotone(rng, n):
    worst = -np.inf
    for i in range(n):
        gt = instance.make_random_instance(12, 3, 8, sigma_z=0.2,
                                           sigma_min_floor=0.3,
                                           seed=35000 + i)
        data = [instance.sample_task(gt, t, 40, seed=35000 + i)
                for t in range(gt.T)]
        worst = max(worst, loss_increase(trainer.fit_source(data, gt.k)))
    return worst


def _verify_noiseless_recovery(rng, n):
    worst = 0.0
    for i in range(n):
        gt = instance.make_random_instance(10, 3, 8, sigma_z=0.0,
                                           sigma_min_floor=0.3,
                                           seed=36000 + i)
        worst = max(worst, noiseless_fit(gt, seed=36000 + i)[1])
    return worst


_VERIFY_SUITE = (
    # name, reported key, runner(rng, n) -> worst value over n cases (the
    # property passes when it is at most the tolerance), tolerance, fast
    # case count, full case count
    ("allocation_optimality", "worst_excess", _verify_allocation_optimality,
     1e-9, 20, 100),
    ("floor_free_equality", "worst_rel_err", floor_free_error, 1e-12, 20, 100),
    ("lp_support_sparsity", "worst_excess_support", _verify_lp_sparsity,
     0, 20, 100),
    ("l2_norm_bound", "worst_rel_excess", _verify_norm_bound, 1e-9, 20, 100),
    ("lasso_matches_lp", "worst_l1_gap", _verify_lasso_vs_lp, 1e-4, 10, 50),
    ("lasso_kkt_residual", "worst_residual", _verify_lasso_kkt, 1e-8, 10, 50),
    ("trainer_loss_monotone", "worst_increase", _verify_trainer_monotone,
     1e-12, 3, 20),
    ("noiseless_recovery", "worst_subspace_dist", _verify_noiseless_recovery,
     1e-6, 2, 5),
)


def cmd_verify(level="fast", out_dir=None):
    """Run the property suite at its own tolerances; returns (report dict,
    exit code 0 or 1)."""
    if level not in ("fast", "full"):
        raise ConfigError(f"level must be 'fast' or 'full', got {level!r}")
    properties = []
    all_pass = True
    for name, key, worst_of, tol, n_fast, n_full in _VERIFY_SUITE:
        n_cases = n_fast if level == "fast" else n_full
        rng = instance._rng(0xA5C3)
        t0 = time.perf_counter()
        worst = worst_of(rng, n_cases)
        elapsed = time.perf_counter() - t0
        ok = bool(worst <= tol)
        all_pass = all_pass and ok
        properties.append({"name": name, "passed": ok, "tolerance": tol,
                           "seconds": round(elapsed, 3),
                           key: worst, "cases": n_cases})
    report = {"level": level, "all_pass": bool(all_pass),
              "properties": properties}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.json"), "w") as fh:
            json.dump(report, fh, indent=2, default=json_default)
    return report, (0 if all_pass else 1)
