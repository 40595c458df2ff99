"""Sweep orchestration, CSV output, verification suite, CLI."""

import collections
import json
import math

import numpy as np
import pytest

import amtrl.cli
from amtrl import harness, instance, pipeline, relevance
from amtrl.harness import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    cmd_gen,
    cmd_nu_solve,
    cmd_run,
    cmd_verify,
    config_from_dict,
    make_instance,
    read_rows_csv,
    reference_nu,
    run_single,
    run_sweep,
    summarize,
    write_rows_csv,
    write_summary_csv,
)


def _small_cfg(tmp_path, **over):
    base = dict(
        instance={"kind": "random", "d": 6, "k": 2, "T": 4,
                  "sigma_z": 0.1, "seed": 0},
        strategies=("passive", "known_nu_q1"),
        budgets=(200, 400),
        seeds=3,
        n_target=200,
        out_dir=str(tmp_path),
    )
    base.update(over)
    return SweepConfig(**base)


def test_csv_header_is_stable():
    assert CSV_HEADER == ("strategy", "seed", "N_tot", "N_floor", "ER",
                          "subspace_dist", "nu_l1", "support", "status",
                          "wall_ms")


def test_sweep_config_validation():
    good = dict(instance={"kind": "random", "d": 4, "k": 2, "T": 3,
                          "sigma_z": 0.1},
                strategies=("passive",), budgets=(100,))
    SweepConfig(**good)
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "strategies": ()})
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "strategies": ("huh",)})
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "budgets": (100, 100)})
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "seeds": 0})
    for key, value in (("seeds", 2.5), ("seeds", True), ("N_floor", 1.5),
                       ("N_floor", "20"), ("n_target", 0),
                       ("n_target", float("inf"))):
        with pytest.raises(ConfigError, match=key):
            SweepConfig(**{**good, key: value})
    # counts follow the budgets' rule: JSON cannot tell 100 from 100.0
    cfg = SweepConfig(**{**good, "n_target": 100.0, "seeds": np.int64(2)})
    assert (cfg.n_target, cfg.seeds) == (100, 2)
    assert type(cfg.n_target) is int and type(cfg.seeds) is int
    # multistage defaults are filled in once; S and beta_1 are counts too
    assert SweepConfig(**good).multistage == {"S": 3, "L": 2.0}
    assert SweepConfig(**good, multistage={"L": 3.0, "beta_1": 50.0}
                       ).multistage == {"S": 3, "L": 3.0, "beta_1": 50}
    for key, value in (("S", 2.7), ("beta_1", 100.5), ("S", True),
                       ("S", 0), ("L", 1.0), ("L", 0.5), ("L", math.nan),
                       ("L", math.inf), ("L", "2"), ("L", True)):
        with pytest.raises(ConfigError, match=f"multistage {key}"):
            SweepConfig(**good, multistage={key: value})
    # a lambda value is a finite penalty >= 0, whatever the policy
    for value in ("abc", -1.0, math.nan, math.inf, True):
        for policy in ("explicit", "lazy"):
            with pytest.raises(ConfigError, match="lambda"):
                SweepConfig(**good, lambda_policy=policy, lambda_value=value)
    SweepConfig(**good, lambda_policy="explicit", lambda_value=0)
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "lambda_policy": "explicit"})
    with pytest.raises(ConfigError):
        SweepConfig(**{**good, "instance": "nope"})
    with pytest.raises(ConfigError, match="unknown multistage keys"):
        SweepConfig(**{**good, "multistage": {"stages": 5, "growth": 3.0}})


def test_sweep_config_and_runners_share_one_rule():
    # SweepConfig asks pipeline._params, so a refused run setting reads the
    # same from a config as from a runner
    gt = instance.make_random_instance(4, 2, 3, sigma_z=0.1)
    good = dict(instance={"kind": "random", "d": 4, "k": 2, "T": 3,
                          "sigma_z": 0.1}, budgets=(100,), N_floor=10)
    for over, params in (({"lambda_value": math.nan}, {"lambda": math.nan}),
                         ({"lambda_policy": "huh"}, {"lambda_policy": "huh"}),
                         ({"n_target": 0}, {"n_target": 0}),
                         ({"N_floor": 0}, {"N_floor": 0})):
        with pytest.raises(ConfigError) as from_config:
            SweepConfig(**{**good, **over}, strategies=("L1",))
        with pytest.raises(ValueError) as from_runner:
            pipeline.run_l1_amtrl(pipeline.TaskOracle(gt), 4, 2, 3, {
                "N_tot_phase2": 100, "N_floor": 10, **params})
        assert str(from_config.value) == str(from_runner.value)


def test_sweep_config_rejects_floorless_exploration():
    # L1, L2 and multistage sample every task at the floor before they
    # estimate nu, so a sweep listing one needs N_floor >= 1 up front
    # rather than aborting after the strategies listed before it
    good = dict(instance={"kind": "random", "d": 4, "k": 2, "T": 3,
                          "sigma_z": 0.1}, budgets=(100,))
    for strategy in ("L1", "L2", "multistage"):
        with pytest.raises(ConfigError, match="N_floor must be >= 1"):
            SweepConfig(**good, strategies=("passive", strategy))
        SweepConfig(**good, strategies=("passive", strategy), N_floor=1)
    SweepConfig(**good, strategies=("passive", "known_nu_q1", "known_nu_q2"))


def test_sweep_budgets_must_be_integers():
    raw = {"instance": {"kind": "random", "d": 4, "k": 2, "T": 3,
                        "sigma_z": 0.1},
           "strategies": ["passive"]}
    # JSON writes 1e4 as the float 10000.0: integral floats are taken
    cfg = config_from_dict(json.loads(
        json.dumps({**raw, "budgets": [100, 1e4]})))
    assert cfg.budgets == (100, 10000)
    assert all(type(b) is int for b in cfg.budgets)
    for bad in ((100.7, 200.2), (100, 200.5), (True, 200), ("100",),
                (100, float("inf"))):
        with pytest.raises(ConfigError, match="budgets must be integers"):
            config_from_dict({**raw, "budgets": list(bad)})


def test_config_from_dict():
    raw = {"instance": {"kind": "random", "d": 4, "k": 2, "T": 3,
                        "sigma_z": 0.1},
           "strategies": ["passive"], "budgets": [100],
           "lambda_policy": "explicit", "lambda": 0.5}
    cfg = config_from_dict(raw)
    assert cfg.lambda_value == 0.5
    for key in ("bogus", "snapshot_average"):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({**raw, key: 1})
    with pytest.raises(ConfigError):
        config_from_dict({"strategies": ["passive"]})


def test_make_instance_kinds_and_file(tmp_path):
    gt = make_instance({"kind": "random", "d": 5, "k": 2, "T": 4,
                        "sigma_z": 0.2, "seed": 1})
    assert (gt.d, gt.k, gt.T) == (5, 2, 4)
    gt2 = make_instance({"kind": "almost_sparse", "d": 5, "k": 2, "T": 6,
                         "sigma_z": 0.2})
    assert "reference_nu" in gt2.meta
    gt3 = make_instance({"kind": "aligned_worstcase", "d": 5, "k": 2,
                         "T": 6, "c_w": 1.5})
    assert gt3.meta["kind"] == "aligned_worstcase"
    cfg = _small_cfg(tmp_path)
    path = cmd_gen(cfg, out_dir=str(tmp_path))
    gt4 = make_instance({"file": path})
    np.testing.assert_array_equal(gt4.W_star,
                                  make_instance(cfg.instance).W_star)
    with pytest.raises(ConfigError):
        make_instance({"kind": "huh"})
    with pytest.raises(ConfigError):
        make_instance({"kind": "random", "d": 5})
    # a misspelt key is an error, not a default
    with pytest.raises(ConfigError, match="sigam_min_floor"):
        make_instance({"kind": "random", "d": 5, "k": 2, "T": 4,
                       "sigma_z": 0.2, "sigam_min_floor": 5.0})
    with pytest.raises(ConfigError, match="'kind', 'seed'"):
        make_instance({"file": path, "kind": "random", "seed": 3})


def test_make_instance_numbers_are_checked():
    # counts and seeds follow the integer rule (int() used to build
    # {"d": 8.7, "k": 2.9, "T": 4.5, "seed": 3.9} as (8, 2, 4) at seed 3),
    # and the real parameters must be finite numbers, not strings
    spec = {"kind": "random", "d": 8, "k": 2, "T": 4, "sigma_z": 0.1,
            "seed": 3}
    gt = make_instance(spec)
    floats = make_instance({**spec, "d": 8.0, "T": 4.0, "seed": 3.0})
    assert (floats.d, floats.k, floats.T) == (8, 2, 4)
    assert floats.W_star.tobytes() == gt.W_star.tobytes()
    for key, value in (("d", 8.7), ("k", 2.9), ("T", 4.5), ("seed", 3.9),
                       ("seed", True), ("d", True), ("d", "8")):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            make_instance({**spec, key: value})
    for key, value in (("sigma_z", "0.1"), ("sigma_z", math.nan),
                       ("sigma_min_floor", math.inf)):
        with pytest.raises(ConfigError, match=f"{key} must be a finite"):
            make_instance({**spec, key: value})
    for kind, key in (("almost_sparse", "sigma_z"),
                      ("aligned_worstcase", "c_w"),
                      ("aligned_worstcase", "sigma_z")):
        with pytest.raises(ConfigError, match=f"{key} must be a finite"):
            make_instance({"kind": kind, "d": 5, "k": 2, "T": 6,
                           "sigma_z": 0.1, key: "1"})


def test_reference_nu_sources():
    gt = make_instance({"kind": "almost_sparse", "d": 6, "k": 2, "T": 5,
                        "sigma_z": 0.1})
    np.testing.assert_allclose(reference_nu(gt, 1), gt.meta["reference_nu"])
    np.testing.assert_allclose(reference_nu(gt, 2), gt.meta["reference_nu"])
    gt2 = make_instance({"kind": "random", "d": 6, "k": 2, "T": 5,
                         "sigma_z": 0.1})
    nu1, nu2 = reference_nu(gt2, 1), reference_nu(gt2, 2)
    assert np.abs(nu1).sum() <= np.abs(nu2).sum() + 1e-9
    np.testing.assert_allclose(gt2.W_star @ nu1, gt2.w_target_star,
                               atol=1e-8)


def test_sweep_row_counts_and_files(tmp_path):
    cfg = _small_cfg(tmp_path)
    rows, summary = run_sweep(cfg)
    assert len(rows) == 2 * 2 * 3  # strategies x budgets x seeds
    assert len(summary) == 2 * 2
    on_disk = read_rows_csv(tmp_path / "runs.csv")
    assert len(on_disk) == 12
    assert list(on_disk[0].keys()) == list(CSV_HEADER)
    assert (tmp_path / "summary.csv").exists()
    for s in cfg.strategies:
        lines = (tmp_path / f"plot_{s}.dat").read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 2  # header + one point per budget


def _rows_without_wall(path):
    rows = read_rows_csv(path)
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


def test_sweep_deterministic_across_reruns(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_sweep(_small_cfg(d1), out_dir=str(d1))
    run_sweep(_small_cfg(d2), out_dir=str(d2))
    assert _rows_without_wall(d1 / "runs.csv") == \
        _rows_without_wall(d2 / "runs.csv")
    assert (d1 / "summary.csv").read_bytes() == \
        (d2 / "summary.csv").read_bytes()


def test_sweep_runs_seed_by_seed_with_strategy_major_outputs(tmp_path,
                                                            monkeypatch):
    cfg = _small_cfg(tmp_path, strategies=("passive", "L2", "known_nu_q1"),
                     N_floor=10)
    # the strategy-major loop, each run drawing its target set afresh
    gt = make_instance(cfg.instance)
    rows = []
    for strategy in cfg.strategies:
        for budget in cfg.budgets:
            for seed in range(cfg.seeds):
                instance._target_draw.cache_clear()
                rows.append(run_single(gt, strategy, seed, budget, cfg)[0])
    rows.sort(key=lambda r: (r["strategy"], r["N_tot"], r["seed"]))
    old = tmp_path / "old"
    old.mkdir()
    write_rows_csv(old / "runs.csv", rows)
    write_summary_csv(old / "summary.csv", summarize(rows))

    seeds = []

    def spy(gt, strategy, seed, N_tot, cfg):
        seeds.append(seed)
        return run_single(gt, strategy, seed, N_tot, cfg)

    monkeypatch.setattr(harness, "run_single", spy)
    new = tmp_path / "new"
    instance._target_draw.cache_clear()
    run_sweep(cfg, out_dir=str(new))
    per_seed = len(cfg.strategies) * len(cfg.budgets)
    assert seeds == [s for s in range(cfg.seeds) for _ in range(per_seed)]
    assert instance._target_draw.cache_info().hits == \
        cfg.seeds * (per_seed - 1)
    assert _rows_without_wall(new / "runs.csv") == \
        _rows_without_wall(old / "runs.csv")
    assert (new / "summary.csv").read_bytes() == \
        (old / "summary.csv").read_bytes()


def test_sweep_explores_once_per_seed(tmp_path, monkeypatch):
    # an L1 run fits at the floor, then after its estimate; the floor fit
    # is a seed's shared exploration stage, so a sweep fits it once per seed
    fits, real = [], pipeline.fit_source

    def spy(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_source", spy)
    cfg = _small_cfg(tmp_path, strategies=("L1",), budgets=(200, 300, 400),
                     N_floor=10)
    rows, _ = run_sweep(cfg)
    assert all(r["status"] == "ok" for r in rows)
    assert len(fits) == cfg.seeds * (1 + len(cfg.budgets))


def test_sweep_infeasible_budget_rows_are_recorded(tmp_path):
    # first budget cannot cover T x N_floor; the row must say so instead of
    # aborting the sweep
    cfg = _small_cfg(tmp_path, strategies=("passive",), budgets=(40, 400),
                     N_floor=20, seeds=1)
    rows, summary = run_sweep(cfg)
    by_budget = {int(r["N_tot"]): r for r in rows}
    assert by_budget[40]["status"] == "infeasible"
    assert by_budget[40]["ER"] == 0.0
    assert by_budget[400]["status"] == "ok"
    # summaries skip non-ok rows
    assert all(s["N_tot"] != 40 for s in summary)


def test_sweep_refuses_uncoverable_budgets_before_any_draw(tmp_path,
                                                         monkeypatch):
    # every strategy's row at a budget below T x N_floor is infeasible, and
    # the run draws nothing, not even the target set
    draws, runs, real = {}, [], harness.run_single

    def spy_run(gt, strategy, seed, N_tot, cfg):
        runs.append((strategy, N_tot))
        return real(gt, strategy, seed, N_tot, cfg)

    def spy_sample(*args, **kwargs):
        draws[runs[-1]] = draws.get(runs[-1], 0) + 1
        return instance.sample_task(*args, **kwargs)

    monkeypatch.setattr(harness, "run_single", spy_run)
    monkeypatch.setattr(pipeline, "sample_task", spy_sample)
    cfg = _small_cfg(tmp_path, strategies=harness.SWEEP_STRATEGIES,
                     budgets=(40, 600), N_floor=20, seeds=1)
    rows, _ = run_sweep(cfg)
    status = {(r["strategy"], r["N_tot"]): r["status"] for r in rows}
    for strategy in cfg.strategies:
        assert status[strategy, 40] == "infeasible"
        assert (strategy, 40) not in draws
        assert draws[strategy, 600] > 0


def test_sweep_config_refuses_negative_budgets(tmp_path, monkeypatch):
    good = dict(instance={"kind": "random", "d": 4, "k": 2, "T": 3,
                          "sigma_z": 0.1},
                strategies=("passive",), budgets=(0, 100))
    assert SweepConfig(**good).budgets == (0, 100)
    with pytest.raises(ConfigError, match="budgets must be >= 0, got -5"):
        SweepConfig(**{**good, "budgets": (-5, 200)})
    # refused at config time: the command exits 2 before any run
    monkeypatch.setattr(harness, "run_single", None)
    out = tmp_path / "out"
    assert amtrl.cli.main(["sweep", "--config",
                           _write_cfg(tmp_path, budgets=[-5, 200]),
                           "--out", str(out)]) == 2
    assert not (out / "runs.csv").exists()


class _CountingGenerator(np.random.Generator):
    """A sampling stream's generator that adds the normals it draws to
    drawn[key], key being the stream's (task, seed, draw)."""

    def standard_normal(self, size=None, *args, **kwargs):
        z = super().standard_normal(size, *args, **kwargs)
        self.drawn[self.key] += z.size
        return z


def _spy_streams(monkeypatch):
    """Spies on a sweep's sampling streams. Returns (drawn, requests,
    held): the normals each stream's generator drew; per run, the
    (stream, normals) requests its draws made, in order; and per run, the
    store and the streams it held when the run started."""
    drawn, requests, held = collections.Counter(), [], []
    keys = {}  # a stream's seed words: its (task, seed, draw)
    real_rows, real_run = instance._draw_rows, harness.run_single

    def draw_rows(gt, task, n, seed, draw):
        key = (task, int(seed), int(draw))
        words = instance._sample_seed_table(key[1], gt.T, key[2])[task]
        keys[words.tobytes()] = key
        requests[-1].append((key, n * (gt.d + 1)))
        return real_rows(gt, task, n, seed, draw)

    def generator(words):
        rng = _CountingGenerator(np.random.PCG64(instance._SeedWords(words)))
        rng.drawn, rng.key = drawn, keys[words.tobytes()]
        return rng

    def run_single(*args):
        store = instance._store.get()
        held.append((store, {key[1:] for key in store.streams}))
        requests.append([])
        return real_run(*args)

    monkeypatch.setattr(instance, "_draw_rows", draw_rows)
    monkeypatch.setattr(instance, "_generator", generator)
    monkeypatch.setattr(harness, "run_single", run_single)
    return drawn, requests, held


def test_sweep_draws_each_stream_once_under_the_retention_rule(
        tmp_path, monkeypatch):
    cfg = _small_cfg(tmp_path, strategies=harness.SWEEP_STRATEGIES,
                     budgets=(200, 400, 600), N_floor=10, seeds=2)
    drawn, requests, held = _spy_streams(monkeypatch)
    run_sweep(cfg)
    assert len(requests) == len(cfg.strategies) * len(cfg.budgets) * 2
    # the rule: a run starts with the streams the run before it read, and
    # draws only what exceeds the normals held of a stream
    expected, kept, before = collections.Counter(), {}, set()
    for i, run in enumerate(requests):
        assert held[i][1] == before
        kept = {key: kept[key] for key in before}
        for key, count in run:
            expected[key] += max(0, count - kept.get(key, 0))
            kept[key] = max(kept.get(key, 0), count)
        before = {key for key, _ in run}
    assert drawn == expected
    # shared prefixes are drawn once: fewer normals than the runs read
    assert sum(drawn.values()) < 0.8 * sum(
        count for run in requests for _, count in run)
    # the store is closed and empty once the sweep returns
    store = held[0][0]
    assert all(s is store for s, _ in held)
    assert instance._store.get() is None and store.streams == {}


def test_sweep_drops_the_stream_store_when_a_run_raises(tmp_path,
                                                        monkeypatch):
    stores, real = [], harness.run_single

    def failing(gt, strategy, seed, N_tot, cfg):
        stores.append(instance._store.get())
        row = real(gt, strategy, seed, N_tot, cfg)
        if len(stores) == 3:
            raise RuntimeError("run failed")
        return row

    monkeypatch.setattr(harness, "run_single", failing)
    with pytest.raises(RuntimeError, match="run failed"):
        run_sweep(_small_cfg(tmp_path))
    assert instance._store.get() is None
    assert stores[0] is not None and all(s is stores[0] for s in stores)
    assert stores[0].streams == {}
    # a run outside a sweep draws its normals afresh, with no store open
    cfg, seen, real_rows = _small_cfg(tmp_path), [], instance._draw_rows

    def draw_rows(*args):
        seen.append(instance._store.get())
        return real_rows(*args)

    monkeypatch.setattr(instance, "_draw_rows", draw_rows)
    run_single(make_instance(cfg.instance), "passive", 0, 200, cfg)
    assert seen and all(store is None for store in seen)


def test_summarize():
    rows = []
    for n in (100, 1000, 10000):
        for seed, er in ((0, 2.0 / n), (1, 1.0 / n), (2, 4.0 / n)):
            rows.append({"strategy": "x", "N_tot": n, "seed": seed,
                         "ER": er, "status": "ok"})
    rows.append({"strategy": "x", "N_tot": 100, "seed": 3, "ER": 999.0,
                 "status": "infeasible"})
    summary = summarize(rows)
    assert [s["N_tot"] for s in summary] == [100, 1000, 10000]
    np.testing.assert_allclose(summary[0]["median_ER"], 2.0 / 100)


def test_cmd_run_and_nu_solve(tmp_path):
    cfg = _small_cfg(tmp_path, strategies=("known_nu_q1",), budgets=(300,))
    row, path = cmd_run(cfg, out_dir=str(tmp_path))
    assert row["status"] == "ok"
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["strategy"] == "known_nu"
    assert len(read_rows_csv(tmp_path / "run.csv")) == 1
    multi = tmp_path / "multi"
    cmd_run(_small_cfg(multi, strategies=("multistage",), budgets=(700,),
                       N_floor=10), out_dir=str(multi))
    assert json.loads((multi / "run.json").read_text())["strategy"] == \
        "multistage"
    assert read_rows_csv(multi / "run.csv")[0]["strategy"] == "multistage"
    report = cmd_nu_solve(cfg, out_dir=str(tmp_path))
    assert report["supports"]["lp"] <= 2
    assert report["l1_norms"]["lp"] <= report["l1_norms"]["l2_solution"] + 1e-9
    assert (tmp_path / "nu.json").exists()


def test_nu_solve_follows_lambda_policy(tmp_path):
    # the Lasso in nu.json uses the penalty the pipelines would choose
    cfg = _small_cfg(tmp_path, instance={
        "kind": "almost_sparse", "d": 8, "k": 5, "T": 50, "sigma_z": 0.5,
        "seed": 0}, lambda_policy="theory")
    report = cmd_nu_solve(cfg)
    gt = make_instance(cfg.instance)
    W, w = gt.W_star, gt.w_target_star
    lam = pipeline.lambda_for({"lambda_policy": "theory", "lambda": None},
                              W, w)
    assert lam != relevance.LAZY_LAMBDA
    assert report["lambda"] == lam
    np.testing.assert_array_equal(report["nu_lasso"],
                                  relevance.lasso(W, w, lam)[0])


# property names and default tolerances, in report order
VERIFY_PROPERTIES = [
    ("allocation_optimality", 1e-9), ("floor_free_equality", 1e-12),
    ("lp_support_sparsity", 0), ("l2_norm_bound", 1e-9),
    ("lasso_matches_lp", 1e-4), ("lasso_kkt_residual", 1e-8),
    ("trainer_loss_monotone", 1e-12), ("noiseless_recovery", 1e-6)]


@pytest.mark.parametrize("level", ["fast", "full"])
def test_cmd_verify_passes(tmp_path, level):
    report, code = cmd_verify(level=level, out_dir=str(tmp_path))
    assert code == 0 and report["all_pass"]
    assert [(p["name"], p["tolerance"])
            for p in report["properties"]] == VERIFY_PROPERTIES
    assert (tmp_path / "verify.json").exists()
    with pytest.raises(ConfigError):
        cmd_verify(level="huh")
    with pytest.raises(ConfigError):
        cmd_verify(tolerances={"not_a_property": 1.0})
    for tol in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(ConfigError):
            cmd_verify(tolerances={"lasso_matches_lp": tol})


def test_cmd_verify_reports_failure_on_impossible_tolerance():
    report, code = cmd_verify(level="fast",
                              tolerances={"lasso_matches_lp": 1e-30})
    assert code == 1 and not report["all_pass"]
    failed = [p["name"] for p in report["properties"] if not p["passed"]]
    assert failed == ["lasso_matches_lp"]


def _write_cfg(tmp_path, name="cfg.json", **over):
    raw = {
        "instance": {"kind": "random", "d": 6, "k": 2, "T": 4,
                     "sigma_z": 0.1, "seed": 0},
        "strategies": ["known_nu_q1"],
        "budgets": [300],
        "n_target": 200,
    }
    raw.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert amtrl.cli.main(["gen", "--config", cfg_path, "--out", out]) == 0
    assert amtrl.cli.main(["run", "--config", cfg_path, "--out", out]) == 0
    assert amtrl.cli.main(["nu-solve", "--config", cfg_path,
                           "--out", out]) == 0
    assert amtrl.cli.main(["sweep", "--config", cfg_path,
                           "--out", out]) == 0
    capsys.readouterr()
    # usage and config errors: exit 2
    bad_cfg = _write_cfg(tmp_path, name="bad.json", bogus=1)
    assert amtrl.cli.main(["run", "--config", bad_cfg]) == 2
    # a floorless sweep with an exploring strategy: exit 2, no runs.csv
    floorless = tmp_path / "floorless"
    assert amtrl.cli.main([
        "sweep", "--config", _write_cfg(tmp_path, name="floorless.json",
                                        strategies=["passive", "L1"],
                                        budgets=[500]),
        "--out", str(floorless)]) == 2
    assert not (floorless / "runs.csv").exists()
    # so does a multistage growth or a lambda no run could use
    for name, over in (("growth.json", {"strategies": ["multistage"],
                                         "N_floor": 1,
                                         "multistage": {"L": 1.0}}),
                       ("lambda.json", {"lambda_policy": "explicit",
                                        "lambda": -1})):
        bad_dir = tmp_path / name
        assert amtrl.cli.main(["sweep", "--config",
                               _write_cfg(tmp_path, name=name, **over),
                               "--out", str(bad_dir)]) == 2
        assert not (bad_dir / "runs.csv").exists()
    # missing file: exit 3
    assert amtrl.cli.main(["run", "--config",
                           str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_cli_verify_failure_names_property(tmp_path, capsys):
    code = amtrl.cli.main(["verify", "--level", "fast",
                           "--tolerance", "lasso_matches_lp=1e-30",
                           "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "lasso_matches_lp" in captured.err
    report = json.loads(captured.out)
    assert not report["all_pass"]


def test_cli_rejects_malformed_tolerance(capsys):
    assert amtrl.cli.main(["verify", "--tolerance", "nonsense"]) == 2
    for value in ("nan", "inf", "-inf", "-1"):
        assert amtrl.cli.main(["verify", "--tolerance",
                               f"lasso_matches_lp={value}"]) == 2
    captured = capsys.readouterr()
    # rejected before any property runs: no report, and no NaN or Infinity
    assert captured.out == ""
    assert "finite" in captured.err
    # zero is a tolerance: lp_support_sparsity's default
    assert amtrl.cli.main(["verify", "--tolerance",
                           "lp_support_sparsity=0"]) == 0
    capsys.readouterr()
