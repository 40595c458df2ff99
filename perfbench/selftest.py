"""The benchmark's own tests.

    python3 perfbench/selftest.py

- the output check flags a tampered run and a broken sample count;
- the tail percentile keeps ten samples beyond it;
- the sweep's runs.csv is the same at AMTRL_THREADS=1 and 2, wall_ms aside;
- the exact per-layer counts repeat across two traced passes of one seed.

The last two take a few minutes.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import benchenv
import report
from checks import (CSV_EXACT, CSV_FLOATS, load_reference, run_mismatch,
                    run_problems)
from run import tail
from workloads import CRITERION_INSTANCE_SEED, WORKLOADS

amtrl = benchenv.import_amtrl()
SEED = 0


def test_check_flags_tampered_runs():
    wl = WORKLOADS["l1_two_phase"](amtrl, SEED)
    strategy, budget, oseed = job = wl.panel[0]
    oracle = amtrl.pipeline.TaskOracle(wl.gt, seed=oseed)
    res = wl._call(strategy, budget)(oracle)
    ref = load_reference(wl.name)[wl.key(job)]
    assert run_problems(res, oracle.total_drawn) == []
    assert run_mismatch(ref, res.excess_risk, res.support_size) is None
    assert run_mismatch(ref, res.excess_risk * (1 + 1e-5), res.support_size)
    assert run_mismatch(ref, res.excess_risk, res.support_size + 1)
    assert run_problems(res, oracle.total_drawn + 1)
    assert run_problems(dataclasses.replace(res, excess_risk=float("nan")),
                        oracle.total_drawn)
    assert run_problems(dataclasses.replace(res, status="infeasible"),
                        oracle.total_drawn)


def test_tail_keeps_ten_beyond():
    for n in (11, 24, 32, 100):
        pct, value = tail(list(range(n)))
        assert sum(v > value for v in range(n)) >= 10, (n, pct, value)
    assert tail(list(range(32))) == (68, 21)


def _sweep_rows(threads, cfg, out_root):
    os.environ["AMTRL_THREADS"] = threads
    out = tempfile.mkdtemp(dir=out_root)
    try:
        amtrl.harness.run_sweep(cfg, out)
        rows = amtrl.harness.read_rows_csv(os.path.join(out, "runs.csv"))
    finally:
        shutil.rmtree(out)
    return [{c: r[c] for c in CSV_EXACT + CSV_FLOATS} for r in rows]


def test_sweep_csv_independent_of_threads():
    wl = WORKLOADS["sweep_multistage"](amtrl, SEED)
    wl.close()
    cfg = wl.config((CRITERION_INSTANCE_SEED, 6))
    os.makedirs(benchenv.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        one = _sweep_rows("1", cfg, tmp)
        two = _sweep_rows("2", cfg, tmp)
    assert one == two
    assert len(one) == 48


def _traced_counts(name):
    out = subprocess.run(
        [sys.executable, os.path.join(benchenv.HERE, "run.py"),
         "--workload", name, "--seed", str(SEED), "--seconds", "0",
         "--trace", "1"], capture_output=True, text=True, timeout=600,
        check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in report.EXACT}


def test_exact_counts_repeat():
    for name in sorted(WORKLOADS):
        first, second = _traced_counts(name), _traced_counts(name)
        assert first == second, (name, first, second)
        assert all(first[k] > 0 for k in ("instance.samples_drawn",
                                          "trainer.fit_iters",
                                          "simplex.pivots")), (name, first)
        print(f"  {name}: {first}")


if __name__ == "__main__":
    failed = 0
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test_name}: {exc!r}")
            else:
                print(f"ok   {test_name}")
    sys.exit(1 if failed else 0)
