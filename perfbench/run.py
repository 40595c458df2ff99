"""amtrl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: l1_two_phase, fit_heavy, sweep_multistage (see workloads.py).
A run makes the workload's few extra runs drawn from the seed, then passes
over its fixed, timed panel of strategy runs while they fit in --seconds
from the start (at least one whole pass). Every run is checked
(checks.py). The metrics time the panel: each panel entry's time is
scaled to the reference machine speed by the reference computation timed
between entries (calibrate.py), and its median taken over the passes.

--trace 0 prints the end-to-end metrics: setup_s (median of five fresh
processes that import amtrl and set the workload up), runs_per_s,
run_ms_p50, run_ms_tail and peak_rss_mb. --trace 1 wraps each amtrl layer
(tracing.py) and prints the per-layer metrics over set-up plus the first
pass, with trace.runs_per_s for the tracing overhead; the spans go to
perfbench/out. Human-readable lines come first; the last line of standard
output is the JSON result. Without amtrl sources in the checkout the run
exits with code 2 and prints no result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import benchenv
import calibrate
import checks
import report
import tracing
from workloads import WORKLOADS, warm_up

SETUP_PROBES = 5
CALIBRATION_SHARE = 0.06
END_TO_END = (("setup_s", "s"), ("runs_per_s", "1/s"), ("run_ms_p50", "ms"),
              ("run_ms_tail", "ms"), ("peak_rss_mb", "MB"))


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank: always one of the values."""
    return sorted(values)[max(1, math.ceil(pct * len(values) / 100)) - 1]


def tail(values):
    """The highest whole percentile with at least ten samples beyond it, by
    nearest rank; returns (percentile, value), or (None, nan) below 11."""
    n = len(values)
    if n < 11:
        return None, math.nan
    pct = math.floor(100 * (n - 10) / n)
    return pct, nearest_rank(values, pct)


def setup_seconds(workload, seed):
    """Median over fresh processes of the set-up time (import amtrl, build
    the instance, solve the reference mixtures), each scaled by the
    reference computation timed in the same process; returns (scaled,
    raw) medians."""
    probe = os.path.join(benchenv.HERE, "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        seconds, factor = map(float, out.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(scaled), statistics.median(raw)


def calibrate_after(ms, cpus):
    """Time the reference computation for CALIBRATION_SHARE of an entry's
    `ms`, split evenly over `cpus` (at least once on each), and return the
    timings: they are then spread over the run in proportion to the time
    measured. A cpu of None means wherever this thread runs; otherwise the
    thread is pinned to that CPU meanwhile."""
    allowed = os.sched_getaffinity(0)
    cal = []
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            spent = 0.0
            while not spent or spent < CALIBRATION_SHARE * ms / len(cpus):
                cal.append(calibrate.sample())
                spent += cal[-1]
    finally:
        os.sched_setaffinity(0, allowed)
    return cal


def entry_factors(cal, pooled):
    """Speed factor of each timed entry, from `cal`, the reference timings
    taken after each entry. An entry in the calling thread alone is scaled
    by the timings after it and after the entries on either side of it, so
    that it follows the machine's speed over the seconds it ran; a pooled
    entry runs on every CPU and spans several of the speed's swings, so
    pooled entries are scaled by all the timings of the run."""
    if pooled:
        return [calibrate.scale([c for g in cal for c in g])] * len(cal)
    return [calibrate.scale([c for g in cal[max(0, i - 1):i + 2] for c in g])
            for i in range(len(cal))]


def measure(wl, seconds, tracer=None):
    """The extra runs, then passes over the panel, with the reference
    computation timed after each entry, until the next entry would end
    after `seconds` from the start (by its time in the first pass, which
    is always made whole). Returns (passes, extras, calibration ms per
    entry); an entry is (key, wall ms, outcomes). With a tracer, its spans are left
    holding those of the first pass only."""
    # a workload whose entries run a thread pool works on every CPU it may
    # use, so its speed is sampled on each of them in turn
    cpus = sorted(os.sched_getaffinity(0)) if wl.pooled else [None]
    start = time.perf_counter()
    extras = [wl.run(wl.extra(i)) for i in range(wl.extras)]
    passes, first, cal, took = [], None, [], {}
    while True:
        if tracer:
            tracer.spans.clear()
        entries = []
        for job in wl.panel:
            key = wl.key(job)
            if passes and time.perf_counter() - start + took[key] > seconds:
                break
            t0 = time.perf_counter()
            ms, outcomes = wl.run(job)
            entries.append((key, ms, outcomes))
            cal.append(calibrate_after(ms, cpus))
            took.setdefault(key, time.perf_counter() - t0)
        if entries:
            passes.append(entries)
        if tracer and first is None:
            first = list(tracer.spans)
        if len(entries) < len(wl.panel):
            break
    if tracer:
        tracer.spans[:] = first
    return passes, extras, cal


def timing(passes, factors):
    """End-to-end timing of the panel, each entry's times multiplied by its
    factor in `factors` (one per entry, in the order measured). Each entry
    and each strategy run gets its median over the passes. runs_per_s is
    the panel's runs over the summed entry medians; run_ms_p50 the median
    over entries of the mean time of the entry's strategy runs; run_ms_tail
    the tail percentile over the strategy runs' medians. Returns (metrics,
    tail percentile, panel strategy runs)."""
    entry_ms, entry_run_ms, run_ms = (defaultdict(list), defaultdict(list),
                                      defaultdict(list))
    factor = iter(factors)
    for entries in passes:
        for key, ms, outcomes in entries:
            f = next(factor)
            entry_ms[key].append(ms * f)
            entry_run_ms[key].append(
                statistics.fmean(o["ms"] for o in outcomes) * f)
            for o in outcomes:
                run_ms[o["key"]].append(o["ms"] * f)
    runs = [statistics.median(v) for v in run_ms.values()]
    pct, tail_ms = tail(runs)
    return {"runs_per_s": len(runs) / (sum(map(statistics.median,
                                                entry_ms.values())) / 1e3),
            "run_ms_p50": statistics.median(
                statistics.median(v) for v in entry_run_ms.values()),
            "run_ms_tail": tail_ms}, pct, len(runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        amtrl = benchenv.import_amtrl()
    except (benchenv.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot import amtrl: {exc}", file=sys.stderr)
        return 2

    setup_s, setup_raw_s = ((None, None) if args.trace
                            else setup_seconds(args.workload, args.seed))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(amtrl)
    wl = WORKLOADS[args.workload](amtrl, args.seed)
    wl.reference = checks.load_reference(wl.name)
    os.makedirs(benchenv.OUT, exist_ok=True)
    traced = []  # set-up spans plus those of the first pass
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        wl.out_root = tmp
        if tracer:
            traced += tracer.spans
        warm_up(amtrl, wl.gt)
        passes, extras, cal = measure(wl, args.seconds, tracer)
        wl.close()
    if tracer:
        traced += tracer.spans
        tracer.uninstall()

    factors = entry_factors(cal, wl.pooled)
    panel_timing, pct, n_runs = timing(passes, factors)
    raw_timing = timing(passes, [1.0] * len(factors))[0]
    outcomes = [o for entries in passes for _, _, outs in entries
                for o in outs] + [o for _, outs in extras for o in outs]
    failed = sum(1 for o in outcomes if o["problems"])
    if tracer:
        metrics = report.layer_metrics(traced)
        metrics["trace.runs_per_s"] = panel_timing["runs_per_s"]
        units = dict(report.METRICS)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": setup_s, **panel_timing,
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        raw_timing["setup_s"] = setup_raw_s
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}

    stem = os.path.join(benchenv.OUT, f"{wl.name}-seed{args.seed}")
    failures = [f"{o['key']}: {p}" for o in outcomes for p in o["problems"]]
    record = {"workload": wl.name, "seconds": args.seconds,
              "trace": args.trace, "environment": benchenv.environment(args.seed),
              "passes": len(passes), "panel_runs": n_runs,
              "tail_percentile": pct, "speed_factors": factors,
              "calibration_ms": cal, "unscaled": raw_timing,
              "entries": [[(key, ms) for key, ms, _ in entries]
                          for entries in passes],
              "panel_ms": [{o["key"]: o["ms"] for _, _, outs in entries
                            for o in outs} for entries in passes],
              "extra_runs": sum(len(outs) for _, outs in extras),
              "fail_frac": failed / len(outcomes),
              "failures": failures[:50], **result}
    if tracer:
        record["layer_shares"] = report.layer_shares(traced)
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in traced:
                fh.write(json.dumps(span) + "\n")
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {wl.name}, seed {args.seed}: {len(passes)} passes over "
          f"{n_runs} timed panel runs, {record['extra_runs']} extra runs "
          f"from the seed; times scaled by {min(factors):.4f} to "
          f"{max(factors):.4f} to the reference speed")
    for k, v in record["environment"].items():
        print(f"  env {k}: {v}")
    for k, m in result["metrics"].items():
        print(f"  {k:<28} {m['value']:>14.6g} {m['unit']}")
    for k, v in raw_timing.items():
        print(f"  {'unscaled ' + k:<28} {v:>14.6g} {units.get(k, dict(END_TO_END)[k])}")
    if not tracer:
        print(f"  {'run_ms_tail percentile':<28} {pct!s:>14} p")
    print(f"  {'fail_frac':<28} {record['fail_frac']:>14.6g} ratio "
          f"({failed} of {len(outcomes)} runs failed the check)")
    if tracer:
        for layer, share in record["layer_shares"].items():
            print(f"  share {layer:<22} {100 * share:>14.2f} %")
    for line in failures[:10]:
        print(f"  FAIL {line}")
    print(f"  results: {os.path.relpath(stem, benchenv.ROOT)}-trace{args.trace}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
