"""The benchmark's workloads.

Each workload has two run lists. The timed ``panel`` is fixed: the same
runs on every workload seed, because the work of one strategy run differs
up to 30x between oracle seeds (the Lasso's sweep count), so a run list
drawn afresh per seed moved l1_two_phase's runs_per_s by a third between
five seeds. The workload's ``extras`` runs, ``extra(i)``, draw their
oracle (or instance) seeds from the workload seed; they widen the output
check to fresh inputs on every seed, but are not timed into the metrics.

The constructor is the set-up (instance, reference mixtures, panel).
``run(job)`` makes one entry through the public amtrl API and returns its
wall ms, timed around the public call, and one outcome per strategy run
with its time and the problems the output check found. Runs are closed
loop: one after another in a single process.

- ``l1_two_phase``: the Lasso relevance estimate is about two thirds of the
  work and the fit about a third.
- ``fit_heavy``: larger inputs (d=30, a (dk)^2 = 150^2 B-step system) and
  no Lasso, so the fit is the work; the passive runs make sampling visible.
- ``sweep_multistage``: the only workload through ``harness.run_sweep``:
  the thread pool, warm-started multi-stage refits, incremental sampling,
  merging and CSV output.
"""

import os
import shutil
import tempfile
import threading
import time

from checks import (CSV_EXACT, CSV_FLOATS, csv_row_mismatch, row_problems,
                    run_mismatch, run_problems)

FLOOR = 20
SWEEP_THREADS = "2"
CRITERION_INSTANCE_SEED = 991000  # the acceptance gate's criterion-8/9 instance


def extra_seed(seed, i):
    """Seed of the i-th extra run: disjoint across workload seeds, and from
    the panel's small seeds, for fewer than a million extras."""
    return 1_000_000 * (seed + 1) + i


def _outcome(key, ms, er, support, problems):
    return {"key": key, "ms": ms, "ER": er, "support": support,
            "problems": problems}


def reference_mixtures(amtrl, gt):
    """The exact minimum-L1 (LP) and the minimum-L2 mixtures of the target
    head over the source heads."""
    relevance = amtrl.relevance
    return (relevance.l1_oracle_lp(gt.W_star, gt.w_target_star),
            relevance.min_l2_solution(gt.W_star, gt.w_target_star))


def warm_up(amtrl, gt):
    """One small untimed passive run, so that lazy loading of library code
    does not land in the first timed run."""
    amtrl.pipeline.run_passive(
        amtrl.pipeline.TaskOracle(gt, seed=0), gt.d, gt.k, gt.T,
        {"N_tot": 2 * FLOOR * gt.T, "N_floor": FLOOR, "n_target": 100})


def _failed(key, ms, exc):
    return _outcome(key, ms, None, None, [f"raised {type(exc).__name__}: {exc}"])


class _RunnerWorkload:
    """Workloads that call one pipeline runner per entry."""

    pooled = False  # entries run in the calling thread alone

    def __init__(self, amtrl):
        self.amtrl = amtrl
        self.reference = None  # recorded panel outputs, when checked
        self.out_root = None

    def run(self, job):
        strategy, budget, oseed = job
        oracle = self.amtrl.pipeline.TaskOracle(self.gt, seed=oseed)
        call = self._call(strategy, budget)
        t0 = time.perf_counter()
        try:
            res = call(oracle)
        except Exception as exc:  # a raising run is a failed operation
            ms = (time.perf_counter() - t0) * 1e3
            return ms, [_failed(self.key(job), ms, exc)]
        ms = (time.perf_counter() - t0) * 1e3
        problems = run_problems(res, oracle.total_drawn)
        ref = (self.reference or {}).get(self.key(job))
        if ref is not None:
            miss = run_mismatch(ref, res.excess_risk, res.support_size)
            if miss:
                problems.append(miss)
        return ms, [_outcome(self.key(job), ms, res.excess_risk,
                             res.support_size, problems)]

    @staticmethod
    def key(job):
        strategy, budget, oseed = job
        return f"{strategy}:{budget}:{oseed}"

    def close(self):
        pass


class L1TwoPhase(_RunnerWorkload):
    """run_l1_amtrl on the criterion-8/9 almost-sparse (8, 5, 50) instance,
    alternating N_tot_phase2 between 2000 and 20000."""

    name = "l1_two_phase"
    budgets = (2000, 20000)
    panel_runs = 28
    extras = 2
    n_target = 20000

    def __init__(self, amtrl, seed):
        super().__init__(amtrl)
        self.seed = seed
        self.gt, _ = amtrl.instance.make_almost_sparse_instance(
            d=8, k=5, T=50, sigma_z=0.5, seed=CRITERION_INSTANCE_SEED)
        self.nu_l1, self.nu_l2 = reference_mixtures(amtrl, self.gt)
        self.panel = [("L1", self.budgets[i % 2], i)
                      for i in range(self.panel_runs)]

    def extra(self, i):
        return ("L1", self.budgets[i % 2], extra_seed(self.seed, i))

    def _call(self, strategy, budget):
        gt, pipeline = self.gt, self.amtrl.pipeline
        params = {"N_tot_phase2": budget, "N_floor": FLOOR,
                  "n_target": self.n_target}
        return lambda oracle: pipeline.run_l1_amtrl(oracle, gt.d, gt.k, gt.T,
                                                    params)


class FitHeavy(_RunnerWorkload):
    """Passive, known-nu (q=1, on the LP mixture solved in set-up) and L2
    runs in turn on a (30, 5, 40) random instance at N = 20000."""

    name = "fit_heavy"
    strategies = ("passive", "known_nu_q1", "L2")
    budget = 20000
    panel_runs = 72
    extras = 3
    n_target = 5000

    def __init__(self, amtrl, seed):
        super().__init__(amtrl)
        self.seed = seed
        self.gt = amtrl.instance.make_random_instance(
            30, 5, 40, sigma_z=0.5, sigma_min_floor=0.5, seed=770000)
        self.nu_l1, self.nu_l2 = reference_mixtures(amtrl, self.gt)
        self.panel = [(self.strategies[i % 3], self.budget, i // 3)
                      for i in range(self.panel_runs)]

    def extra(self, i):
        return (self.strategies[i % 3], self.budget, extra_seed(self.seed, i))

    def _call(self, strategy, budget):
        gt, pipeline = self.gt, self.amtrl.pipeline
        dims = (gt.d, gt.k, gt.T)
        if strategy == "passive":
            params = {"N_tot": budget, "N_floor": FLOOR, "n_target": self.n_target}
            return lambda oracle: pipeline.run_passive(oracle, *dims, params)
        if strategy == "known_nu_q1":
            params = {"N_tot": budget, "N_floor": FLOOR, "n_target": self.n_target}
            return lambda oracle: pipeline.run_known_nu(oracle, *dims,
                                                        self.nu_l1, 1, params)
        params = {"N_tot_phase2": budget, "N_floor": FLOOR,
                  "n_target": self.n_target}
        return lambda oracle: pipeline.run_l2_amtrl(oracle, *dims, params)


class _SweepCapture:
    """Keeps each sweep run's RunResult, its oracle's draw count and the
    CPU ms its worker thread spent on it.

    harness.run_single builds its oracle from ``pipeline.TaskOracle`` and
    run_sweep calls ``run_single`` through the harness module, so rebinding
    both names hands the benchmark what the CSV rows leave out. Each worker
    thread makes its runs one at a time, so a thread-local slot holds the
    oracle of the run in flight.
    """

    def __init__(self, amtrl):
        self.pipeline, self.harness = amtrl.pipeline, amtrl.harness
        self.results = []
        local = threading.local()
        base_oracle = self.saved_oracle = self.pipeline.TaskOracle
        run_single = self.saved_run_single = self.harness.run_single

        class RecordingOracle(base_oracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                local.oracle = self

        def capturing_run_single(gt, strategy, seed, N_tot, cfg):
            cpu0 = time.thread_time()
            row, res = run_single(gt, strategy, seed, N_tot, cfg)
            cpu_ms = (time.thread_time() - cpu0) * 1e3
            self.results.append((strategy, N_tot, res, local.oracle.total_drawn,
                                 cpu_ms))
            return row, res

        self.pipeline.TaskOracle = RecordingOracle
        self.harness.run_single = capturing_run_single

    def close(self):
        self.pipeline.TaskOracle = self.saved_oracle
        self.harness.run_single = self.saved_run_single


class SweepMultistage:
    """harness.run_sweep over multistage, L1, passive and known_nu_q1 at
    budgets {10000, 20000}, N_floor 20, n_target 5000, on almost-sparse
    (8, 5, 50) instances, with AMTRL_THREADS=2. An entry is one sweep:
    (instance seed, sweep seeds). A strategy run's time is its worker
    thread's CPU time: its wall time (the wall_ms column) depends on which
    run the other worker made meanwhile, since both share the interpreter
    lock; the pool's waiting shows in the sweep's wall time instead. The
    panel sweeps the criterion-8/9 instance and the three instances after
    it, one seed each, so that the run is timed sweep by sweep; an extra
    sweeps an instance drawn from the workload seed."""

    name = "sweep_multistage"
    strategies = ("multistage", "L1", "passive", "known_nu_q1")
    budgets = (10000, 20000)
    panel_sweeps = 4
    extras = 1
    pooled = True
    n_target = 5000

    def __init__(self, amtrl, seed):
        self.amtrl = amtrl
        self.seed = seed
        self.reference = None
        self.out_root = None
        self.panel = [(CRITERION_INSTANCE_SEED + i, 1)
                      for i in range(self.panel_sweeps)]
        self.gt = amtrl.harness.make_instance(self.config(self.panel[0]).instance)
        self.nu_l1, self.nu_l2 = reference_mixtures(amtrl, self.gt)
        self.capture = _SweepCapture(amtrl)
        os.environ["AMTRL_THREADS"] = SWEEP_THREADS

    def extra(self, i):
        return (extra_seed(self.seed, i), 1)

    def config(self, job):
        instance_seed, seeds = job
        return self.amtrl.harness.config_from_dict({
            "instance": {"kind": "almost_sparse", "d": 8, "k": 5, "T": 50,
                         "sigma_z": 0.5, "seed": instance_seed},
            "strategies": list(self.strategies),
            "budgets": list(self.budgets), "N_floor": FLOOR,
            "seeds": seeds, "n_target": self.n_target})

    @staticmethod
    def key(job):
        return f"sweep:{job[0]}:{job[1]}"

    def run(self, job):
        harness = self.amtrl.harness
        self.capture.results.clear()
        cfg = self.config(job)
        out = tempfile.mkdtemp(dir=self.out_root)
        try:
            t0 = time.perf_counter()
            try:
                harness.run_sweep(cfg, out)
            except Exception as exc:  # a raising sweep fails all its runs
                ms = (time.perf_counter() - t0) * 1e3
                n = len(self.strategies) * len(self.budgets) * cfg.seeds
                return ms, [_failed(f"{self.key(job)}:{i}", ms, exc)
                            for i in range(n)]
            ms = (time.perf_counter() - t0) * 1e3
            rows = harness.read_rows_csv(os.path.join(out, "runs.csv"))
        finally:
            shutil.rmtree(out)
        return ms, self._outcomes(job, rows)

    def _outcomes(self, job, rows):
        captured = {(strategy, int(res.seed), int(res.N_tot)):
                    (budget, res, drawn, cpu_ms)
                    for strategy, budget, res, drawn, cpu_ms
                    in self.capture.results}
        ref_rows = (self.reference or {}).get(self.key(job))
        shared = []
        if ref_rows is not None and len(ref_rows) != len(rows):
            shared = [f"runs.csv has {len(rows)} rows, the reference "
                      f"{len(ref_rows)}"]
            ref_rows = None
        outcomes = []
        for i, row in enumerate(rows):
            problems = shared + row_problems(row)
            hit = captured.get((row["strategy"], int(row["seed"]),
                                int(row["N_tot"])))
            if hit is None:
                problems.append("no captured result for this row")
                budget, cpu_ms = row["N_tot"], float(row["wall_ms"])
            else:
                budget, res, drawn, cpu_ms = hit
                problems += run_problems(res, drawn)
            if ref_rows is not None:
                miss = csv_row_mismatch(ref_rows[i], row)
                if miss:
                    problems.append(miss)
            key = f"{self.key(job)}:{row['strategy']}:{budget}:{row['seed']}"
            outcome = _outcome(key, cpu_ms, float(row["ER"]),
                               int(row["support"]), problems)
            outcome["row"] = {c: row[c] for c in CSV_EXACT + CSV_FLOATS}
            outcomes.append(outcome)
        return outcomes

    def close(self):
        self.capture.close()


WORKLOADS = {w.name: w for w in (L1TwoPhase, FitHeavy, SweepMultistage)}
