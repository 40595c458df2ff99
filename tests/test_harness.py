"""Sweep orchestration, CSV output, verification suite, CLI."""

import collections
import json
import math
import os

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


def _small_cfg(**over):
    base = dict(
        instance={"kind": "random", "d": 6, "k": 2, "T": 4,
                  "sigma_z": 0.1, "seed": 0},
        strategies=("passive", "known_nu_q1"),
        budgets=(200, 400),
        seeds=3,
        n_target=200,
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
    # multistage defaults are filled in once; S is a count too
    assert SweepConfig(**good).multistage == {"S": 3, "L": 2.0}
    assert SweepConfig(**good, multistage={"L": 3.0, "S": 2.0}
                       ).multistage == {"S": 2, "L": 3.0}
    for key, value in (("S", 2.7), ("S", True),
                       ("S", 0), ("L", 1.0), ("L", 0.5), ("L", math.nan),
                       ("L", math.inf), ("L", "2"), ("L", True)):
        with pytest.raises(ConfigError, match=f"multistage {key}"):
            SweepConfig(**good, multistage={key: value})
    # lambda is a rule, "lazy" (the default) or "theory", or a finite
    # penalty >= 0, kept as a float; the old policy names are no rule
    for value in ("abc", "explicit", -1.0, math.nan, math.inf, True, None):
        with pytest.raises(ConfigError, match="lambda"):
            SweepConfig(**good, lambda_value=value)
    assert SweepConfig(**good).lambda_value == "lazy"
    for value, kept in (("theory", "theory"), (0, 0.0), (np.int64(2), 2.0),
                        (0.3, 0.3)):
        lam = SweepConfig(**good, lambda_value=value).lambda_value
        assert lam == kept and type(lam) is type(kept)
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
                         ({"lambda_value": "huh"}, {"lambda": "huh"}),
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


@pytest.mark.parametrize("strategies", [
    ("passive", "passive"), ("L1", "passive", "L1"),
    ("known_nu_q1", "known_nu_q2", "known_nu_q1")], ids="-".join)
def test_sweep_config_refuses_a_strategy_listed_twice(strategies):
    # each listing ran the strategy's grid again, so summary.csv took every
    # run twice: iqr_ER read 0.01645 for passive listed twice at 3 seeds,
    # against 0.01097 for the same runs listed once
    good = dict(instance={"kind": "random", "d": 4, "k": 2, "T": 3,
                          "sigma_z": 0.1}, budgets=(100,), N_floor=1)
    with pytest.raises(ConfigError, match="more than once"):
        SweepConfig(**good, strategies=strategies)
    with pytest.raises(ConfigError, match="more than once"):
        config_from_dict({**good, "strategies": list(strategies)})
    SweepConfig(**good, strategies=tuple(dict.fromkeys(strategies)))


def test_sweep_config_refuses_multistage_beta_1(tmp_path, monkeypatch):
    # a set beta_1 fixed one schedule whatever the budget, so each budget
    # repeated the same multistage runs; each budget's run now takes the
    # schedule summing to about that budget, and beta_1 is no sweep key,
    # one budget or several, multistage listed or not
    good = dict(instance={"kind": "random", "d": 6, "k": 2, "T": 4,
                          "sigma_z": 0.3}, N_floor=10)
    for strategies in (("passive", "multistage"), ("passive",)):
        for budgets in ((600,), (600, 1200)):
            with pytest.raises(ConfigError,
                               match=r"unknown multistage keys: \['beta_1'\]"):
                SweepConfig(**good, strategies=strategies, budgets=budgets,
                            multistage={"beta_1": 200})
    # refused at config time: the command exits 2 before any run
    monkeypatch.setattr(harness, "run_single", None)
    out = tmp_path / "out"
    assert amtrl.cli.main(["sweep", "--config", _write_cfg(
        tmp_path, strategies=["multistage"], budgets=[600],
        N_floor=10, multistage={"beta_1": 200}), "--out", str(out)]) == 2
    assert not (out / "runs.csv").exists()


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
    # and counts: budgets [600, 1e20] passed the config, and the sweep ran
    # the budget 600 before a run error stopped it at 1e20
    for big in (2**63, 1e20):
        with pytest.raises(ConfigError, match="budgets must be integers: "
                                              "budget must be at most "
                                              f"{2**63 - 1}"):
            config_from_dict({**raw, "budgets": [600, big]})
    assert config_from_dict({**raw, "budgets": [600, 2**63 - 1]}).budgets \
        == (600, 2**63 - 1)


def test_config_from_dict():
    raw = {"instance": {"kind": "random", "d": 4, "k": 2, "T": 3,
                        "sigma_z": 0.1},
           "strategies": ["passive"], "budgets": [100], "lambda": 0.5}
    cfg = config_from_dict(raw)
    assert cfg.lambda_value == 0.5
    # lambda_policy is gone: "lambda" names the rule or the value
    for key in ("bogus", "snapshot_average", "lambda_policy"):
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
    assert harness.INSTANCE_KINDS == ("random", "almost_sparse")
    cfg = _small_cfg()
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
    with pytest.raises(ConfigError, match="spectrum must be k finite"):
        make_instance({"kind": "almost_sparse", "d": 5, "k": 2, "T": 6,
                       "sigma_z": 0.2, "spectrum": [float("nan"), 1.0]})


# an instance file the aligned_worstcase factory wrote, (6, 2, 4) at c_w 1.5,
# seed 3 and sigma_z 0.1, before that kind was removed
ALIGNED_FILE = os.path.join(os.path.dirname(__file__), "data",
                            "aligned_worstcase.json")


def test_a_removed_kind_is_refused_but_its_file_still_runs(tmp_path):
    spec = {"kind": "aligned_worstcase", "d": 6, "k": 2, "T": 4, "c_w": 1.5}
    with pytest.raises(ConfigError, match="unknown instance kind "
                                          "'aligned_worstcase'"):
        make_instance(spec)
    assert amtrl.cli.main(["gen", "--config", _write_cfg(
        tmp_path, instance=spec), "--out", str(tmp_path / "gen")]) == 2
    gt = make_instance({"file": ALIGNED_FILE})
    assert (gt.d, gt.k, gt.T) == (6, 2, 4)
    assert gt.meta["kind"] == "aligned_worstcase" and gt.meta["c_w"] == 1.5
    # every strategy runs on it, with the ER the removed factory's instance
    # gave before the removal, bit for bit
    rows, _ = run_sweep(SweepConfig(
        instance={"file": ALIGNED_FILE}, strategies=harness.SWEEP_STRATEGIES,
        budgets=(600,), N_floor=10, n_target=200), str(tmp_path / "out"))
    assert {r["strategy"]: (r["N_tot"], r["ER"], r["status"]) for r in rows} \
        == {"L1": (600, 0.0016281392264632848, "ok"),
            "L2": (600, 0.00031815739825962375, "ok"),
            "known_nu_q1": (600, 0.02156630850503198, "ok"),
            "known_nu_q2": (600, 0.0021205860948040616, "ok"),
            "multistage": (366, 0.001876034917064117, "ok"),
            "passive": (600, 0.0021205860948040616, "ok")}


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
    with pytest.raises(ConfigError, match="sigma_z must be a finite"):
        make_instance({"kind": "almost_sparse", "d": 5, "k": 2, "T": 6,
                       "sigma_z": "1"})


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
    cfg = _small_cfg()
    rows, summary = run_sweep(cfg, str(tmp_path))
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
    run_sweep(_small_cfg(), out_dir=str(d1))
    run_sweep(_small_cfg(), out_dir=str(d2))
    assert _rows_without_wall(d1 / "runs.csv") == \
        _rows_without_wall(d2 / "runs.csv")
    assert (d1 / "summary.csv").read_bytes() == \
        (d2 / "summary.csv").read_bytes()


def test_sweep_runs_seed_by_seed_with_strategy_major_outputs(tmp_path,
                                                            monkeypatch):
    cfg = _small_cfg(strategies=("passive", "L2", "known_nu_q1"), N_floor=10)
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
    cfg = _small_cfg(strategies=("L1",), budgets=(200, 300, 400), N_floor=10)
    rows, _ = run_sweep(cfg, str(tmp_path))
    assert all(r["status"] == "ok" for r in rows)
    assert len(fits) == cfg.seeds * (1 + len(cfg.budgets))


def test_sweep_refuses_a_file_with_a_nan_reference_nu_before_any_run(
        tmp_path, monkeypatch):
    # the passive runs listed first used to run before the known-nu run
    # raised, and no runs.csv was written
    gt, _ = instance.make_almost_sparse_instance(6, 2, 8, sigma_z=0.3,
                                                 seed=1)
    path = tmp_path / "gt.json"
    instance.save_instance(gt, path)
    doc = json.loads(path.read_text())
    doc["meta"]["reference_nu"][0] = math.nan
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(harness, "run_single",
                        lambda *args: calls.append(args))
    cfg = _small_cfg(instance={"file": str(path)},
                     strategies=("passive", "known_nu_q1"))
    with pytest.raises(ValueError, match="reference_nu must be a finite"):
        run_sweep(cfg, str(tmp_path))
    assert calls == [] and not (tmp_path / "runs.csv").exists()


def test_sweep_infeasible_budget_rows_are_recorded(tmp_path):
    # first budget cannot cover T x N_floor; the row must say so instead of
    # aborting the sweep
    cfg = _small_cfg(strategies=("passive",), budgets=(40, 400), N_floor=20,
                     seeds=1)
    rows, summary = run_sweep(cfg, str(tmp_path))
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
    cfg = _small_cfg(strategies=harness.SWEEP_STRATEGIES, budgets=(40, 600),
                     N_floor=20, seeds=1)
    rows, _ = run_sweep(cfg, str(tmp_path))
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


def test_sweep_at_a_zero_budget_plots_the_positive_budgets(tmp_path, capsys):
    # a passive run at N_tot 0 is an ok row, and the plot loop took
    # log10(0): exit 2, "math domain error", after runs.csv was written
    out = tmp_path / "out"
    assert amtrl.cli.main(["sweep", "--config", _write_cfg(
        tmp_path, strategies=["passive"], budgets=[0, 100]),
        "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_rows_csv(out / "runs.csv")
    assert sorted({(r["N_tot"], r["status"]) for r in rows}) == \
        [("0", "ok"), ("100", "ok")]
    points = (out / "plot_passive.dat").read_text().splitlines()
    assert points[0].startswith("#") and len(points) == 2
    assert float(points[1].split()[0]) == 2.0  # log10(100)


def test_sweep_refuses_a_schedule_too_large_for_a_float(tmp_path, capsys):
    # the default schedule's L ** S raised OverflowError: a traceback and
    # exit 1 instead of a config error
    with pytest.raises(ConfigError, match="multistage S and L give"):
        SweepConfig(instance={"kind": "random", "d": 6, "k": 2, "T": 4,
                              "sigma_z": 0.1}, strategies=("multistage",),
                    budgets=(600,), N_floor=1, multistage={"L": 1e200})
    out = tmp_path / "out"
    assert amtrl.cli.main(["sweep", "--config", _write_cfg(
        tmp_path, strategies=["multistage"], budgets=[600], N_floor=1,
        multistage={"L": 1e200}), "--out", str(out)]) == 2
    assert "too large for a float" in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_omitted_run_settings_take_the_pipeline_defaults(monkeypatch):
    # SweepConfig kept its own copies of n_target and lambda, so a sweep
    # never read pipeline._DEFAULTS
    monkeypatch.setitem(pipeline._DEFAULTS, "n_target", 123)
    monkeypatch.setitem(pipeline._DEFAULTS, "lambda", "theory")
    raw = {"instance": {"kind": "random", "d": 4, "k": 2, "T": 3,
                        "sigma_z": 0.1},
           "strategies": ["passive"], "budgets": [100]}
    cfg = config_from_dict(raw)
    assert (cfg.n_target, cfg.lambda_value) == (123, "theory")
    cfg = config_from_dict({**raw, "n_target": 50, "lambda": 0.3})
    assert (cfg.n_target, cfg.lambda_value) == (50, 0.3)


def test_out_is_the_one_spelling_of_the_output_directory(tmp_path,
                                                         monkeypatch):
    # the config key out_dir was honoured by gen, run and sweep but not by
    # nu-solve; --out is the one spelling, and the key is refused
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"instance": {}, "strategies": ["passive"],
                          "budgets": [100], "out_dir": "cfg_out"})
    monkeypatch.chdir(tmp_path)
    cfg_path = _write_cfg(tmp_path, out_dir="cfg_out")
    for command in ("gen", "run", "sweep", "nu-solve"):
        assert amtrl.cli.main([command, "--config", cfg_path]) == 2
    assert not (tmp_path / "cfg_out").exists()
    # without --out, gen, run and sweep write to the working directory
    cfg_path = _write_cfg(tmp_path)
    for command in ("gen", "run", "sweep"):
        assert amtrl.cli.main([command, "--config", cfg_path]) == 0
    assert {"instance.json", "run.json", "run.csv", "runs.csv",
            "summary.csv", "plot_known_nu_q1.dat"} <= set(
                os.listdir(tmp_path))


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
    cfg = _small_cfg(strategies=harness.SWEEP_STRATEGIES,
                     budgets=(200, 400, 600), N_floor=10, seeds=2)
    drawn, requests, held = _spy_streams(monkeypatch)
    run_sweep(cfg, str(tmp_path))
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
        run_sweep(_small_cfg(), str(tmp_path))
    assert instance._store.get() is None
    assert stores[0] is not None and all(s is stores[0] for s in stores)
    assert stores[0].streams == {}
    # a run outside a sweep draws its normals afresh, with no store open
    cfg, seen, real_rows = _small_cfg(), [], instance._draw_rows

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
    cfg = _small_cfg(strategies=("known_nu_q1",), budgets=(300,))
    row, path = cmd_run(cfg, out_dir=str(tmp_path))
    assert row["status"] == "ok"
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["strategy"] == "known_nu"
    assert len(read_rows_csv(tmp_path / "run.csv")) == 1
    multi = tmp_path / "multi"
    cmd_run(_small_cfg(strategies=("multistage",), budgets=(700,),
                       N_floor=10), out_dir=str(multi))
    assert json.loads((multi / "run.json").read_text())["strategy"] == \
        "multistage"
    assert read_rows_csv(multi / "run.csv")[0]["strategy"] == "multistage"
    report = cmd_nu_solve(cfg, out_dir=str(tmp_path))
    assert report["supports"]["lp"] <= 2
    assert report["l1_norms"]["lp"] <= report["l1_norms"]["l2_solution"] + 1e-9
    assert (tmp_path / "nu.json").exists()


def test_infeasible_run_leaves_no_earlier_run_json(tmp_path):
    # a feasible run, then an infeasible one into the same directory: the
    # first run's run.json used to stay, holding N_tot 400
    out = str(tmp_path)
    row, path = cmd_run(_small_cfg(strategies=("passive",), budgets=(400,),
                                   N_floor=10), out)
    assert row["status"] == "ok" and path == str(tmp_path / "run.json")
    assert json.loads((tmp_path / "run.json").read_text())["N_tot"] == 400
    row, path = cmd_run(_small_cfg(strategies=("passive",), budgets=(39,),
                                   N_floor=10), out)
    assert row["status"] == "infeasible" and path is None
    assert not (tmp_path / "run.json").exists()
    assert read_rows_csv(tmp_path / "run.csv")[0]["status"] == "infeasible"
    # and again, with no run.json left to remove
    assert cmd_run(_small_cfg(strategies=("passive",), budgets=(39,),
                              N_floor=10), out)[1] is None


@pytest.mark.parametrize("strategy, recorded", [
    ("L1", {"n_target", "lambda", "N_floor", "N_tot_phase2"}),
    ("multistage", {"n_target", "lambda", "N_floor", "S", "L", "beta_1"}),
    ("L2", {"n_target", "N_floor", "N_tot_phase2"}),
    ("passive", {"n_target", "N_floor", "N_tot"}),
    ("known_nu_q1", {"n_target", "N_floor", "N_tot", "q"})])
def test_run_json_records_only_the_settings_the_run_read(tmp_path, strategy,
                                                         recorded):
    # a Lasso run records the lambda it used (lambda 0.3 once ran at the
    # lazy 1e-10 and recorded 0.3); a run without a Lasso records none
    cfg = _small_cfg(strategies=(strategy,), budgets=(400,), N_floor=10,
                     lambda_value=0.3)
    assert cmd_run(cfg, str(tmp_path))[0]["status"] == "ok"
    params = json.loads((tmp_path / "run.json").read_text())["params"]
    assert set(params) == recorded
    assert params.get("lambda", 0.3) == 0.3


def test_nu_solve_follows_the_lambda_setting():
    # the Lasso in nu.json uses the penalty the pipelines would choose; a
    # config's number is the penalty it reports (lambda 0.3 once reported
    # the lazy 1e-10)
    inst = {"kind": "almost_sparse", "d": 8, "k": 5, "T": 50,
            "sigma_z": 0.5, "seed": 0}
    gt = make_instance(inst)
    W, w = gt.W_star, gt.w_target_star
    theory = pipeline.lambda_for("theory", W, w)
    assert theory not in (relevance.LAZY_LAMBDA, "theory")
    for setting, lam in (("theory", theory), (0.3, 0.3),
                         ("lazy", relevance.LAZY_LAMBDA)):
        report = cmd_nu_solve(_small_cfg(instance=inst,
                                         lambda_value=setting))
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
    # the tolerances are the suite's own: no caller can loosen them
    with pytest.raises(TypeError):
        cmd_verify(tolerances={"lasso_matches_lp": 1.0})


def _failing_suite(monkeypatch, failing="lasso_matches_lp"):
    """Make the property named failing report a worst value 10^4 times
    its tolerance; the other properties run as they are."""
    monkeypatch.setattr(harness, "_VERIFY_SUITE", tuple(
        (name, key, (lambda rng, n, tol=tol: 1e4 * tol) if name == failing
         else run, tol, *counts)
        for name, key, run, tol, *counts in harness._VERIFY_SUITE))


def test_cmd_verify_reports_a_failing_property(monkeypatch):
    _failing_suite(monkeypatch)
    report, code = cmd_verify(level="fast")
    assert code == 1 and not report["all_pass"]
    failed = [p["name"] for p in report["properties"] if not p["passed"]]
    assert failed == ["lasso_matches_lp"]
    # the report keeps the failing property's own tolerance and worst value
    prop = next(p for p in report["properties"]
                if p["name"] == "lasso_matches_lp")
    assert (prop["tolerance"], prop["worst_l1_gap"]) == (1e-4, 1.0)


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
    # so does a multistage growth or a lambda no run could use, and the
    # lambda_policy setting, which is gone
    for name, over in (("growth.json", {"strategies": ["multistage"],
                                         "N_floor": 1,
                                         "multistage": {"L": 1.0}}),
                       ("lambda.json", {"lambda": -1}),
                       ("policy.json", {"lambda_policy": "explicit",
                                        "lambda": 0.3})):
        bad_dir = tmp_path / name
        assert amtrl.cli.main(["sweep", "--config",
                               _write_cfg(tmp_path, name=name, **over),
                               "--out", str(bad_dir)]) == 2
        assert not (bad_dir / "runs.csv").exists()
    # missing file: exit 3
    assert amtrl.cli.main(["run", "--config",
                           str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_cli_verify_failure_names_property(tmp_path, capsys, monkeypatch):
    _failing_suite(monkeypatch)
    code = amtrl.cli.main(["verify", "--level", "fast",
                           "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED properties: lasso_matches_lp" in captured.err
    report = json.loads(captured.out)
    assert not report["all_pass"]
    assert json.loads((tmp_path / "verify.json").read_text()) == report


def test_cli_verify_refuses_tolerance_overrides(capsys, monkeypatch):
    # a bound the caller can loosen until it passes checks nothing, so the
    # flag is gone: a usage error, exit 2, before any property runs
    monkeypatch.setattr(harness, "_VERIFY_SUITE", None)
    for argv in (["--tolerance", "lasso_matches_lp=1"],
                 ["--level", "fast", "--tolerance", "nonsense"]):
        with pytest.raises(SystemExit) as exit_:
            amtrl.cli.main(["verify", *argv])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance" in captured.err
