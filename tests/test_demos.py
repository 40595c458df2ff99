"""The public surface: every demo script and the README quick start run to
completion against the source tree, and amtrl.__all__ names what the package
holds."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import amtrl

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("0*_*.py")))
def test_demo_runs(demo):
    _run_python(str(ROOT / "demos" / demo))


def test_readme_quick_start_runs():
    # so an API change cannot leave the front page's example stale
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    assert _run_python("-c", blocks[0]).strip()


def test_public_names_resolve_once():
    assert [n for n in amtrl.__all__ if not hasattr(amtrl, n)] == []
    assert len(set(amtrl.__all__)) == len(amtrl.__all__)


_WITHOUT_SCIPY = r'''
import json, sys, tempfile
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import amtrl, amtrl.harness
from amtrl import TaskOracle, make_almost_sparse_instance, pipeline
from amtrl.cli import main

gt, nu = make_almost_sparse_instance(6, 2, 8, sigma_z=0.3, seed=1)
dims = (gt.d, gt.k, gt.T)
base = {"N_floor": 10, "n_target": 200}
runs = [pipeline.run_passive(TaskOracle(gt, 0), *dims, {**base, "N_tot": 600}),
        pipeline.run_known_nu(TaskOracle(gt, 0), *dims, nu, 1,
                              {**base, "N_tot": 600}),
        pipeline.run_l1_amtrl(TaskOracle(gt, 0), *dims,
                              {**base, "N_tot_phase2": 600}),
        pipeline.run_l2_amtrl(TaskOracle(gt, 0), *dims,
                              {**base, "N_tot_phase2": 600}),
        pipeline.run_multistage(TaskOracle(gt, 0), *dims,
                                {**base, "S": 2, "L": 2.0, "beta_1": 200})]
print(len(runs), "runs")
assert main(["verify", "--level", "fast"]) == 0
with tempfile.TemporaryDirectory() as out:
    cfg = out + "/sweep.json"
    with open(cfg, "w") as fh:
        json.dump({"instance": {"kind": "almost_sparse", "d": 6, "k": 2,
                                "T": 8, "sigma_z": 0.3, "seed": 1},
                   "strategies": list(amtrl.harness.SWEEP_STRATEGIES),
                   "budgets": [600], "seeds": 2, **base}, fh)
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
'''


def test_package_runs_without_scipy():
    # numpy is the library's one dependency: with scipy unimportable, the
    # package imports, runs every strategy, verifies and sweeps
    out = _run_python("-c", _WITHOUT_SCIPY).splitlines()
    assert out[0] == "5 runs" and out[-1] == "['scipy']"
