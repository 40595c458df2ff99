"""Pinned data stream and fit trajectory.

The values below were recorded from the library itself, with one BLAS and
OpenMP thread. They hold a change to the sampling or the fit to the same
data stream (bit for bit) and the same fit trajectory (iteration counts,
allocations and supports exactly, excess risk at the benchmark's relative
1e-6, which leaves room for another BLAS kernel's last bits).
"""

import pytest

from amtrl import (TaskOracle, make_almost_sparse_instance,
                   make_random_instance, run_l1_amtrl, run_l2_amtrl,
                   run_multistage, run_passive, sample_task)

ER_RTOL = 1e-6  # perfbench/checks.py's REF_RTOL


def _criterion_instance():
    gt, _ = make_almost_sparse_instance(d=8, k=5, T=50, sigma_z=0.5,
                                        seed=991000,
                                        spectrum=(5.0, 4.0, 3.0, 2.0, 1.0))
    return gt


def _fit_heavy_instance():
    return make_random_instance(30, 5, 40, sigma_z=0.5, sigma_min_floor=0.5,
                                seed=770000)


def test_instances_are_pinned():
    gt8, gt30 = _criterion_instance(), _fit_heavy_instance()
    assert [gt8.B_star[0, 0].hex(), gt30.B_star[0, 0].hex(),
            gt8.W_star[0, 0].hex(), gt30.W_star[0, 0].hex()] == [
        "0x1.e27c640b2b020p-3", "0x1.7a54c02c88fc4p-2",
        "-0x1.632374fda4868p+1", "0x1.07f17b3614cf3p-1"]


# (seed, task, draw): float.hex of X[0, :3] and of Y[:3]; the seeds and
# draws reach past one and two 32-bit words
STREAM = {
    (0, 0, 0): (
        ["0x1.0723a409bffadp-2", "0x1.75a93d01cfd94p-2",
         "-0x1.3b17484110749p+0"],
        ["-0x1.1f25d995b2b11p+3", "-0x1.682fbe64bc2ecp+1",
         "0x1.a25ca72588cbep+2"]),
    (3, 50, 1): (
        ["-0x1.5137ca3126142p+0", "-0x1.43b141f43e669p-1",
         "-0x1.bfae3995c2854p+0"],
        ["0x1.c3a5c37b0b7acp+1", "0x1.6a401656654e3p+2",
         "0x1.2f7bd5493df3ap+3"]),
    (2**64 + 5, 7, 0): (
        ["0x1.16a8d8a96395fp-5", "0x1.5462e02de936cp-2",
         "0x1.eda5136173bddp-1"],
        ["0x1.c6855207aa855p-3", "0x1.fca6798a7f2e0p-1",
         "-0x1.d13f1bc601eb2p-1"]),
    (11, 2, 2**32 + 3): (
        ["0x1.3f9d8f21826c6p-3", "0x1.bf173cffb833cp-3",
         "-0x1.6368197425be6p-1"],
        ["0x1.2221c4cbb52adp-1", "-0x1.310deab228aa3p-2",
         "-0x1.e519d8cd7138ap-2"]),
    (2**100 + 1, 49, 2**40): (
        ["0x1.2c4754222c647p-1", "0x1.185aec0d62148p-1",
         "0x1.6113db74d2ed0p+0"],
        ["-0x1.bf3a4d2146a09p+0", "-0x1.2efd9af19bc1dp+0",
         "-0x1.1b98ad7ad58b7p+0"]),
}


@pytest.mark.parametrize("key", list(STREAM))
def test_data_stream_is_pinned(key):
    seed, task, draw = key
    gt = _criterion_instance()
    want_x, want_y = STREAM[key]
    for ds in (sample_task(gt, task, 3, seed, draw=draw),
               TaskOracle(gt, seed=seed).sample(task, 3, draw=draw)):
        assert [v.hex() for v in ds.X[0, :3]] == want_x
        assert [v.hex() for v in ds.Y[:3]] == want_y


def _alloc(floor, above=None, T=50):
    n = [floor] * T
    for t, v in (above or {}).items():
        n[t] = v
    return n


_PHASE1 = _alloc(20)
_L1_SEED0 = _alloc(20, {0: 707, 5: 178, 13: 51, 15: 114, 49: 50})
_BUDGET = {"N_floor": 20, "n_target": 500}

# (strategy, runner, instance, params, oracle seed): iterations per stage,
# allocations, support size and excess risk
TRAJECTORIES = [
    (("L1", run_l1_amtrl, _criterion_instance,
      {"N_tot_phase2": 2000, **_BUDGET}, 0),
     ([16, 13], [_PHASE1, _L1_SEED0], 5, 0.003001292895301616)),
    (("L1", run_l1_amtrl, _criterion_instance,
      {"N_tot_phase2": 5000, **_BUDGET}, 1),
     ([43, 29],
      [_PHASE1, _alloc(20, {0: 2747, 1: 263, 5: 343, 13: 403, 49: 344})],
      5, 0.003104937023875322)),
    (("L2", run_l2_amtrl, _criterion_instance,
      {"N_tot_phase2": 2000, **_BUDGET}, 0),
     ([16, 9], [_PHASE1, _alloc(20, {0: 1020})], 50, 0.003372857055653816)),
    (("multistage", run_multistage, _criterion_instance,
      {"S": 3, "L": 2.0, "beta_1": 1000, **_BUDGET}, 0),
     ([16, 13, 10],
      [_PHASE1, _L1_SEED0,
       _alloc(20, {0: 2624, 5: 273, 15: 135, 42: 34, 49: 34})],
      5, 0.0025467854534383287)),
    (("passive", run_passive, _fit_heavy_instance,
      {"N_tot": 4000, **_BUDGET}, 0),
     ([6], [_alloc(100, T=40)], 0, 0.012458147982730153)),
]


@pytest.mark.parametrize("run, want", TRAJECTORIES,
                         ids=[f"{r[0]}-{r[3].get('N_tot_phase2', '')}-{r[4]}"
                              for r, _ in TRAJECTORIES])
def test_fit_trajectory_is_pinned(run, want):
    _, runner, make_gt, params, seed = run
    iters, allocs, support, er = want
    gt = make_gt()
    res = runner(TaskOracle(gt, seed=seed), gt.d, gt.k, gt.T, params)
    assert [s["iterations"] for s in res.stage_summaries] == iters
    assert [a.n.tolist() for a in res.allocations] == allocs
    assert res.support_size == support
    assert res.excess_risk == pytest.approx(er, rel=ER_RTOL, abs=0.0)
