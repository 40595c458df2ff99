"""Per-layer metrics and the per-layer table, from the traced run's spans.

A span's self time is its duration minus the child spans it covers; every
``*_s`` metric below is a sum of self times, except
``harness.run_single_s``, which is the summed busy time of the sweep's
``run_single`` calls (their children included), the base for
``harness.run_wait_s``.

Run as a script, it reads the span files that ``run.py --trace 1`` wrote
to perfbench/out and prints each workload's table with the self-time share
of every layer, and the tracing overhead where an untraced result of the
same workload and seed is there too:

    python3 perfbench/report.py [SPANS.jsonl ...]
"""

import glob
import json
import os
import sys
from collections import defaultdict

LAYERS = ("instance", "trainer", "relevance", "simplex", "allocation",
          "pipeline", "harness")

# (metric, unit) in the order BENCHMARK.json lists them
METRICS = (
    ("instance.sample_s", "s"), ("instance.samples_drawn", "count"),
    ("trainer.fit_s", "s"), ("trainer.fit_calls", "count"),
    ("trainer.fit_iters", "count"), ("trainer.fit_ms_per_iter", "ms"),
    ("trainer.fit_unconverged", "count"), ("trainer.head_s", "s"),
    ("trainer.risk_s", "s"),
    ("relevance.lasso_s", "s"), ("relevance.lasso_calls", "count"),
    ("relevance.lasso_sweeps", "count"),
    ("relevance.lasso_unconverged", "count"), ("relevance.min_l2_s", "s"),
    ("relevance.lp_s", "s"),
    ("simplex.solve_lp_s", "s"), ("simplex.pivots", "count"),
    ("allocation.allocate_s", "s"), ("allocation.allocate_calls", "count"),
    ("pipeline.self_s", "s"), ("pipeline.budget_used_frac", "ratio"),
    ("harness.run_single_s", "s"), ("harness.run_wait_s", "s"),
    ("harness.cpu_per_wall", "ratio"), ("harness.io_s", "s"),
    ("harness.bytes_written", "B"),
    ("trace.runs_per_s", "1/s"),
)

# counts that must repeat exactly across traced passes of one seed
EXACT = ("instance.samples_drawn", "trainer.fit_iters",
         "relevance.lasso_sweeps", "simplex.pivots")


def self_times(spans):
    """{span id: duration minus the durations of its direct children}."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    return {s["id"]: s["t1"] - s["t0"] - child[s["id"]] for s in spans}


def layer_metrics(spans):
    """Every per-layer metric except trace.runs_per_s, as {name: value}."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_sum(*names):
        return sum(selfs[s["id"]] for n in names for s in by_name[n])

    def attr_sum(name, attr):
        return sum(s[attr] for s in by_name[name])

    fits = by_name["fit_source"]
    fit_s, fit_iters = self_sum("fit_source"), attr_sum("fit_source", "iters")
    lassos = by_name["lasso"]
    runs = [s for s in spans if s["layer"] == "pipeline"]
    budgets = budget_use(spans).values()
    realized = sum(r for r, _ in budgets)
    nominal = sum(n for _, n in budgets)
    sweeps = by_name["run_sweep"]
    sweep_wall = sum(s["t1"] - s["t0"] for s in sweeps)
    sweep_cpu = sum(s["cpu"] for s in sweeps)
    single_busy = sum(s["t1"] - s["t0"] for s in by_name["run_single"])
    return {
        "instance.sample_s": self_sum("sample_task"),
        "instance.samples_drawn": attr_sum("sample_task", "n"),
        "trainer.fit_s": fit_s,
        "trainer.fit_calls": len(fits),
        "trainer.fit_iters": fit_iters,
        "trainer.fit_ms_per_iter": 1e3 * fit_s / fit_iters if fit_iters else 0.0,
        "trainer.fit_unconverged": sum(not s["converged"] for s in fits),
        "trainer.head_s": self_sum("head"),
        "trainer.risk_s": self_sum("risk"),
        "relevance.lasso_s": self_sum("lasso"),
        "relevance.lasso_calls": len(lassos),
        "relevance.lasso_sweeps": attr_sum("lasso", "sweeps"),
        "relevance.lasso_unconverged": sum(not s["converged"] for s in lassos),
        "relevance.min_l2_s": self_sum("min_l2"),
        "relevance.lp_s": self_sum("lp"),
        "simplex.solve_lp_s": self_sum("solve_lp"),
        "simplex.pivots": attr_sum("solve_lp", "pivots"),
        "allocation.allocate_s": self_sum("allocate"),
        "allocation.allocate_calls": len(by_name["allocate"]),
        "pipeline.self_s": sum(selfs[s["id"]] for s in runs),
        "pipeline.budget_used_frac": realized / nominal if nominal else 0.0,
        "harness.run_single_s": single_busy,
        "harness.run_wait_s": single_busy - sweep_cpu if sweeps else 0.0,
        "harness.cpu_per_wall": sweep_cpu / sweep_wall if sweep_wall else 0.0,
        "harness.io_s": self_sum("io"),
        "harness.bytes_written": attr_sum("run_sweep", "bytes"),
    }


def budget_use(spans):
    """{runner: (realized source samples, nominal budget)} summed over its
    runs; multistage's nominal budget is the sweep's grid budget."""
    single = {s["id"]: s["nominal"] for s in spans if s["name"] == "run_single"}
    use = defaultdict(lambda: (0, 0))
    for s in spans:
        if s["layer"] == "pipeline":
            nominal = s["nominal"]
            if nominal is None:
                nominal = single[s["parent"]]
            realized, total = use[s["name"]]
            use[s["name"]] = (realized + s["realized"], total + nominal)
    return dict(use)


def layer_shares(spans):
    """{layer: share of the summed self time}. run_sweep is left out: its
    self time is the calling thread waiting for the pool."""
    per_layer = defaultdict(float)
    for s, t in zip(spans, self_times(spans).values()):
        if s["name"] != "run_sweep":
            per_layer[s["layer"]] += t
    total = sum(per_layer.values())
    return {layer: per_layer[layer] / total if total else 0.0
            for layer in LAYERS}


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _overhead(spans_path, traced_rate):
    untraced = spans_path.replace(".spans.jsonl", "-trace0.json")
    if not os.path.exists(untraced):
        return None
    with open(untraced) as fh:
        rate = json.load(fh)["metrics"]["runs_per_s"]["value"]
    return rate / traced_rate - 1.0


def print_table(path):
    spans = read_spans(path)
    with open(path.replace(".spans.jsonl", "-trace1.json")) as fh:
        traced_rate = json.load(fh)["metrics"]["trace.runs_per_s"]["value"]
    print(f"== {os.path.basename(path)}")
    for layer, share in layer_shares(spans).items():
        print(f"  {layer:<11} self-time share {100 * share:6.2f} %")
    units = dict(METRICS)
    for name, value in layer_metrics(spans).items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for runner, (realized, nominal) in sorted(budget_use(spans).items()):
        print(f"  budget used by {runner:<17} {realized / nominal:14.6g} ratio")
    print(f"  spans recorded: {len(spans)}")
    over = _overhead(path, traced_rate)
    if over is not None:
        print(f"  tracing overhead: untraced runs_per_s / traced - 1 = "
              f"{100 * over:+.1f} % (traced {traced_rate:.4g}/s)")


def main(paths):
    here = os.path.dirname(os.path.abspath(__file__))
    paths = paths or sorted(glob.glob(os.path.join(here, "out", "*.spans.jsonl")))
    if not paths:
        print("no span files; run perfbench/run.py with --trace 1 first",
              file=sys.stderr)
        return 1
    for path in paths:
        print_table(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
