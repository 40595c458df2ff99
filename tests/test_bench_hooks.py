"""The benchmark's tracer reaches amtrl by rebinding module attributes from
outside the package (perfbench/tracing.py). These checks keep a refactor of
the pipeline from silently detaching it: every hook must still exist, and a
traced run must still record the layers the per-layer split reads."""

import os
import pathlib
import subprocess
import sys
import types

import pytest

import amtrl
import amtrl.harness
import amtrl.simplex
from amtrl import make_almost_sparse_instance

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    # executed from its source, so nothing is written next to it
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrap_point_exists():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, *_ in _tracing().wrap_points(amtrl)
               if not callable(getattr(module, attr, None))]
    assert missing == []


# (runner, params, the spans its traced run must record beyond the run's
# own): sampling, allocation, fitting, the target head and, with an
# estimate, the Lasso
TRACED_RUNS = [
    ("run_l1_amtrl", {"N_tot_phase2": 400, "N_floor": 10, "n_target": 50},
     {"lasso"}),
    ("run_multistage", {"S": 2, "L": 2.0, "beta_1": 100, "N_floor": 10,
                        "n_target": 50}, {"lasso"}),
    ("run_passive", {"N_tot": 400, "n_target": 50}, set()),
]


@pytest.mark.parametrize("runner, params, extra", TRACED_RUNS,
                         ids=[r[0] for r in TRACED_RUNS])
def test_traced_run_records_every_layer(runner, params, extra):
    gt, _ = make_almost_sparse_instance(6, 2, 8, sigma_z=0.1, seed=0)
    oracle = amtrl.pipeline.TaskOracle(gt, seed=0)
    tracer = _tracing().Tracer()
    tracer.install(amtrl)
    try:
        getattr(amtrl.pipeline, runner)(oracle, gt.d, gt.k, gt.T, params)
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.spans}
    assert {runner, "sample_task", "allocate", "fit_source", "head",
            "risk"} | extra <= names
    # every draw goes through the wrapped sample_task, so the benchmark's
    # instance.samples_drawn counts what the oracle handed out
    assert sum(span["n"] for span in tracer.spans
               if span["name"] == "sample_task") == oracle.total_drawn
    # uninstall restored the library's own functions
    assert amtrl.pipeline.fit_source is amtrl.trainer.fit_source
    assert amtrl.pipeline.lpnq_allocation is amtrl.allocation.lpnq_allocation


def test_import_loads_no_scipy():
    # the library needs numpy alone, and the benchmark's setup_s times
    # `import amtrl`: no module of scipy may load with it
    probe = ("import sys, amtrl; print('\\n'.join(m for m in sys.modules if "
             "m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
