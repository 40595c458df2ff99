"""Batch experiment front-end: configs, sweeps, CSV output, verification.

A SweepConfig (usually loaded from JSON) names an instance, a strategy
list, a budget grid, and seed count; the sweep runner executes the grid
serially in the calling thread and writes one CSV row per run plus
per-strategy summary and plot data. The verify suite re-proves the
package's core numerical properties and emits a machine-readable report.
"""

import csv
import dataclasses
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

INSTANCE_KINDS = ("random", "almost_sparse", "aligned_worstcase")


class ConfigError(ValueError):
    """Raised for malformed configs; maps to exit code 2."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of a sweep: instance, strategies, grid."""

    instance: dict
    strategies: tuple
    budgets: tuple
    N_floor: int = 0
    seeds: int = 1
    lambda_policy: str = "lazy"
    lambda_value: float = None
    n_target: int = 500
    multistage: dict = field(default_factory=lambda: {"S": 3, "L": 2.0})
    out_dir: str = "."

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        if not self.strategies:
            raise ConfigError("strategies must be non-empty")
        for s in self.strategies:
            if s not in SWEEP_STRATEGIES:
                raise ConfigError(f"unknown strategy {s!r}; choose from "
                                  f"{SWEEP_STRATEGIES}")
        if not self.budgets:
            raise ConfigError("budgets must be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.N_floor < 0:
            raise ConfigError("N_floor must be >= 0")
        if self.lambda_policy not in ("lazy", "theory", "explicit"):
            raise ConfigError("lambda_policy must be lazy, theory or explicit")
        if self.lambda_policy == "explicit" and self.lambda_value is None:
            raise ConfigError("lambda_policy 'explicit' needs a lambda value")
        if not isinstance(self.instance, dict):
            raise ConfigError("instance must be a mapping")


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
        return instance.load_instance(spec["file"])
    kind = spec.pop("kind", "random")
    seed = int(spec.pop("seed", 0))
    try:
        if kind == "random":
            return instance.make_random_instance(
                d=int(spec.pop("d")), k=int(spec.pop("k")),
                T=int(spec.pop("T")), sigma_z=float(spec.pop("sigma_z")),
                sigma_min_floor=float(spec.pop("sigma_min_floor", 0.0)),
                seed=seed)
        if kind == "almost_sparse":
            gt, _ = instance.make_almost_sparse_instance(
                d=int(spec.pop("d")), k=int(spec.pop("k")),
                T=int(spec.pop("T")), sigma_z=float(spec.pop("sigma_z")),
                seed=seed, spectrum=spec.pop("spectrum", None))
            return gt
        if kind == "aligned_worstcase":
            return instance.make_aligned_worstcase_instance(
                d=int(spec.pop("d")), k=int(spec.pop("k")),
                T=int(spec.pop("T")), c_w=float(spec.pop("c_w", 1.0)),
                seed=seed, sigma_z=float(spec.pop("sigma_z", 0.0)))
    except KeyError as e:
        raise ConfigError(f"instance spec is missing {e.args[0]!r}") from e
    raise ConfigError(f"unknown instance kind {kind!r}; choose from "
                      f"{INSTANCE_KINDS}")


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
    base = {"n_target": cfg.n_target, "lambda_policy": cfg.lambda_policy,
            "lambda": cfg.lambda_value}
    oracle = pipeline.TaskOracle(gt, seed=seed)
    d, k, T = gt.d, gt.k, gt.T
    t0 = time.perf_counter()
    try:
        if strategy == "L1":
            res = pipeline.run_l1_amtrl(oracle, d, k, T, {
                **base, "N_floor": cfg.N_floor, "N_tot_phase2": N_tot})
        elif strategy == "L2":
            res = pipeline.run_l2_amtrl(oracle, d, k, T, {
                **base, "N_floor": cfg.N_floor, "N_tot_phase2": N_tot})
        elif strategy == "passive":
            res = pipeline.run_passive(oracle, d, k, T, {
                **base, "N_tot": N_tot, "N_floor": cfg.N_floor})
        elif strategy in ("known_nu_q1", "known_nu_q2"):
            q = 1 if strategy.endswith("q1") else 2
            res = pipeline.run_known_nu(oracle, d, k, T, reference_nu(gt, q),
                                        q, {**base, "N_tot": N_tot,
                                            "N_floor": cfg.N_floor})
        elif strategy == "multistage":
            S = int(cfg.multistage.get("S", 3))
            L = float(cfg.multistage.get("L", 2.0))
            beta_1 = int(cfg.multistage.get(
                "beta_1", _multistage_beta1(N_tot, S, L)))
            res = pipeline.run_multistage(oracle, d, k, T, {
                **base, "S": S, "L": L, "beta_1": beta_1,
                "N_floor": max(cfg.N_floor, 1)})
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


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in CSV_HEADER])


def read_rows_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_sweep(cfg, out_dir=None):
    """Execute strategies x budgets x seeds; write runs.csv, summary.csv and
    per-strategy plot data; returns (rows, summary rows)."""
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    rows = [run_single(gt, strategy, seed, budget, cfg)[0]
            for strategy in cfg.strategies
            for budget in cfg.budgets
            for seed in range(cfg.seeds)]
    rows.sort(key=lambda r: (r["strategy"], r["N_tot"], r["seed"]))
    write_rows_csv(os.path.join(out_dir, "runs.csv"), rows)

    summary = summarize(rows)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("strategy", "N_tot", "median_ER", "iqr_ER"))
        for s in summary:
            writer.writerow((s["strategy"], s["N_tot"],
                             repr(s["median_ER"]), repr(s["iqr_ER"])))
    for strategy in cfg.strategies:
        pts = [(s["N_tot"], s["median_ER"]) for s in summary
               if s["strategy"] == strategy and s["median_ER"] > 0]
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


def loglog_slope(summary, strategy):
    """Least-squares slope of log10 median ER against log10 N_tot."""
    pts = [(s["N_tot"], s["median_ER"]) for s in summary
           if s["strategy"] == strategy and s["median_ER"] > 0]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 budget points for {strategy!r}")
    x = np.log10([p[0] for p in pts])
    y = np.log10([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def result_to_json(res):
    return json.dumps(_to_jsonable(res), indent=2)


def cmd_gen(cfg, out_dir=None):
    """Write the configured instance to instance.json; returns its path."""
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    path = os.path.join(out_dir, "instance.json")
    instance.save_instance(gt, path)
    return path


def cmd_run(cfg, out_dir=None):
    """Single run: first strategy, first budget, seed 0; writes run.json and
    run.csv. Returns (row, path)."""
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    gt = make_instance(cfg.instance)
    row, res = run_single(gt, cfg.strategies[0], 0, cfg.budgets[0], cfg)
    path = os.path.join(out_dir, "run.json")
    if res is not None:
        with open(path, "w") as fh:
            fh.write(result_to_json(res))
    write_rows_csv(os.path.join(out_dir, "run.csv"), [row])
    return row, path


def cmd_nu_solve(cfg, out_dir=None):
    """Solve the configured instance's relevance vectors three ways."""
    gt = make_instance(cfg.instance)
    W, w = gt.W_star, gt.w_target_star
    lam = relevance.LAZY_LAMBDA
    if cfg.lambda_policy == "explicit":
        lam = float(cfg.lambda_value)
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

def _verify_allocation_optimality(tol, n_cases, rng):
    worst = 0.0
    for _ in range(n_cases):
        T = int(rng.integers(2, 21))
        # bounded magnitude spread plus a budget of >= 30 per task keeps
        # every rounded count positive, so the objective stays finite
        nu = rng.uniform(0.2, 3.0, T) * rng.choice([-1.0, 1.0], T)
        N_floor = int(rng.integers(0, 4))
        lo = max(T * N_floor, 30 * T)
        N_tot = int(rng.integers(lo, lo + 500))
        alloc = allocation.allocate_fixed_nu(nu, N_tot, N_floor)
        obj = allocation.nu_tilde_objective(nu, alloc)
        for _ in range(40):
            rand = allocation.random_feasible_allocation(T, N_tot, N_floor, rng)
            try:
                robj = allocation.nu_tilde_objective(nu, rand)
            except ValueError:
                continue
            if robj < obj:
                worst = max(worst, (obj - robj) / (1.0 + abs(robj)))
    return worst <= tol, {"worst_excess": worst, "cases": n_cases}


def _verify_floor_free_equality(tol, n_cases, rng):
    worst = 0.0
    for _ in range(n_cases):
        T = int(rng.integers(2, 25))
        nu = rng.standard_normal(T)
        nu[rng.random(T) < 0.2] = 0.0
        if not np.any(nu):
            nu[0] = 1.0
        N_tot = int(rng.integers(50, 5000))
        x, _ = allocation.continuous_allocation(nu, N_tot, 0)
        got = float(np.sum(nu[x > 0] ** 2 / x[x > 0]))
        want = float(np.abs(nu).sum() ** 2 / N_tot)
        worst = max(worst, abs(got - want) / want)
    return worst <= tol, {"worst_rel_err": worst, "cases": n_cases}


def _verify_lp_sparsity(slack, n_cases, rng):
    violations = 0
    worst = 0
    for i in range(n_cases):
        k = int(rng.integers(1, 7))
        T = int(rng.integers(max(2, k), 31))
        d = int(rng.integers(max(8, k), 41))
        gt = instance.make_random_instance(d, k, T, sigma_z=0.1,
                                           sigma_min_floor=0.3,
                                           seed=31000 + i)
        nu = relevance.l1_oracle_lp(gt.W_star, gt.w_target_star)
        s = relevance.support_size(nu)
        worst = max(worst, s - k)
        if s > k + slack:
            violations += 1
    return violations == 0, {"violations": violations, "cases": n_cases,
                             "worst_excess_support": worst}


def _verify_norm_bound(tol, n_cases, rng):
    worst = -np.inf
    for i in range(n_cases):
        k = int(rng.integers(1, 7))
        T = int(rng.integers(max(2, k), 31))
        d = int(rng.integers(max(8, k), 41))
        gt = instance.make_random_instance(d, k, T, sigma_z=0.1,
                                           sigma_min_floor=0.3,
                                           seed=32000 + i)
        W, w = gt.W_star, gt.w_target_star
        rep = relevance.norm_bound_check(W, w)
        excess = rep.l2_norm / rep.l2_bound - 1.0
        worst = max(worst, excess)
    return worst <= tol, {"worst_rel_excess": worst, "cases": n_cases}


def _verify_lasso_vs_lp(tol, n_cases, rng):
    worst = 0.0
    for i in range(n_cases):
        k = int(rng.integers(1, 7))
        T = int(rng.integers(max(2, k), 31))
        d = int(rng.integers(max(8, k), 41))
        gt = instance.make_random_instance(d, k, T, sigma_z=0.1,
                                           sigma_min_floor=0.5,
                                           seed=33000 + i)
        W, w = gt.W_star, gt.w_target_star
        nu_lp = relevance.l1_oracle_lp(W, w)
        nu_hat = relevance.lasso(W, w, 1e-8)[0]
        gap = np.abs(nu_hat - nu_lp).sum() / (1.0 + np.abs(nu_lp).sum())
        worst = max(worst, gap)
    return worst <= tol, {"worst_l1_gap": worst, "cases": n_cases}


def _verify_lasso_kkt(tol, n_cases, rng):
    worst = 0.0
    for i in range(n_cases):
        k = int(rng.integers(1, 7))
        T = int(rng.integers(max(2, k), 31))
        d = int(rng.integers(max(8, k), 41))
        gt = instance.make_random_instance(d, k, T, sigma_z=0.1,
                                           sigma_min_floor=0.5,
                                           seed=34000 + i)
        W, w = gt.W_star, gt.w_target_star
        nu_hat = relevance.lasso(W, w, 1e-8)[0]
        worst = max(worst, relevance.kkt_residual(W, w, nu_hat, 1e-8))
    return worst <= tol, {"worst_residual": worst, "cases": n_cases}


def _verify_trainer_monotone(tol, n_cases, rng):
    worst = -np.inf
    for i in range(n_cases):
        gt = instance.make_random_instance(12, 3, 8, sigma_z=0.2,
                                           sigma_min_floor=0.3,
                                           seed=35000 + i)
        datasets = [instance.sample_task(gt, t, 40, seed=35000 + i)
                    for t in range(gt.T)]
        model = trainer.fit_source(datasets, gt.k)
        h = np.array(model.train_loss_history)
        worst = max(worst, float(np.max(h[1:] - h[:-1])) if len(h) > 1 else 0.0)
    return worst <= tol, {"worst_increase": worst, "cases": n_cases}


def _verify_noiseless_recovery(tol, n_cases, rng):
    worst = 0.0
    for i in range(n_cases):
        gt = instance.make_random_instance(10, 3, 8, sigma_z=0.0,
                                           sigma_min_floor=0.3,
                                           seed=36000 + i)
        datasets = [instance.sample_task(gt, t, 50 * gt.d, seed=36000 + i)
                    for t in range(gt.T)]
        model = trainer.fit_source(datasets, gt.k)
        worst = max(worst, trainer.subspace_distance(model.B_hat, gt.B_star))
    return worst <= tol, {"worst_subspace_dist": worst, "cases": n_cases}


_VERIFY_SUITE = (
    # name, runner, default tolerance, fast case count, full case count
    ("allocation_optimality", _verify_allocation_optimality, 1e-9, 20, 100),
    ("floor_free_equality", _verify_floor_free_equality, 1e-12, 20, 100),
    ("lp_support_sparsity", _verify_lp_sparsity, 0, 20, 100),
    ("l2_norm_bound", _verify_norm_bound, 1e-9, 20, 100),
    ("lasso_matches_lp", _verify_lasso_vs_lp, 1e-4, 10, 50),
    ("lasso_kkt_residual", _verify_lasso_kkt, 1e-8, 10, 50),
    ("trainer_loss_monotone", _verify_trainer_monotone, 1e-12, 3, 20),
    ("noiseless_recovery", _verify_noiseless_recovery, 1e-6, 2, 5),
)


def cmd_verify(level="fast", tolerances=None, out_dir=None):
    """Run the property suite; returns (report dict, exit code 0 or 1)."""
    if level not in ("fast", "full"):
        raise ConfigError(f"level must be 'fast' or 'full', got {level!r}")
    overrides = dict(tolerances or {})
    known = {name for name, *_ in _VERIFY_SUITE}
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(f"unknown verify properties: {sorted(unknown)}")
    properties = []
    all_pass = True
    for name, fn, default_tol, n_fast, n_full in _VERIFY_SUITE:
        tol = overrides.get(name, default_tol)
        n_cases = n_fast if level == "fast" else n_full
        rng = np.random.default_rng(np.random.SeedSequence(0xA5C3))
        t0 = time.perf_counter()
        ok, detail = fn(tol, n_cases, rng)
        elapsed = time.perf_counter() - t0
        all_pass = all_pass and ok
        properties.append({"name": name, "passed": bool(ok),
                           "tolerance": tol, "seconds": round(elapsed, 3),
                           **_to_jsonable(detail)})
    report = {"level": level, "all_pass": bool(all_pass),
              "properties": properties}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report, (0 if all_pass else 1)
