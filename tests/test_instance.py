"""Synthetic instance construction and sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amtrl import instance
from amtrl import (
    GroundTruth,
    almost_sparse_nu,
    load_instance,
    make_aligned_worstcase_instance,
    make_almost_sparse_instance,
    make_random_instance,
    min_l2_solution,
    sample_task,
    save_instance,
    TaskDataset,
)


def test_random_instance_shapes_and_orthonormality():
    gt = make_random_instance(12, 3, 8, sigma_z=0.1, seed=7)
    assert gt.B_star.shape == (12, 3)
    assert gt.W_star.shape == (3, 8)
    assert gt.w_target_star.shape == (3,)
    gram = gt.B_star.T @ gt.B_star
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_random_instance_deterministic_in_seed():
    a = make_random_instance(10, 2, 6, sigma_z=0.5, seed=3)
    b = make_random_instance(10, 2, 6, sigma_z=0.5, seed=3)
    c = make_random_instance(10, 2, 6, sigma_z=0.5, seed=4)
    np.testing.assert_array_equal(a.B_star, b.B_star)
    np.testing.assert_array_equal(a.W_star, b.W_star)
    np.testing.assert_array_equal(a.w_target_star, b.w_target_star)
    assert not np.array_equal(a.W_star, c.W_star)


def test_random_instance_target_is_recorded_mixture():
    gt = make_random_instance(9, 3, 7, sigma_z=0.0, seed=11)
    nu_mix = np.asarray(gt.meta["mixing_nu"])
    assert nu_mix.shape == (7,)
    np.testing.assert_allclose(np.linalg.norm(nu_mix), 1.0, atol=1e-12)
    np.testing.assert_allclose(gt.W_star @ nu_mix, gt.w_target_star, atol=1e-12)


def test_random_instance_sigma_min_floor():
    gt = make_random_instance(20, 4, 10, sigma_z=0.1, sigma_min_floor=0.8, seed=2)
    assert gt.sigma_min_w() >= 0.8 - 1e-9


def test_sample_task_deterministic_and_draw_independent():
    gt = make_random_instance(6, 2, 4, sigma_z=0.3, seed=0)
    a = sample_task(gt, 1, 25, seed=42)
    b = sample_task(gt, 1, 25, seed=42)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)
    # a later draw from the same task is a fresh stream, not a replay
    c = sample_task(gt, 1, 25, seed=42, draw=1)
    assert not np.array_equal(a.X, c.X)
    # and different tasks never share samples either
    d = sample_task(gt, 2, 25, seed=42)
    assert not np.array_equal(a.X, d.X)


def test_sample_task_noiseless_responses_exact():
    gt = make_random_instance(7, 3, 5, sigma_z=0.0, seed=9)
    for t in range(gt.T + 1):
        ds = sample_task(gt, t, 30, seed=5)
        np.testing.assert_allclose(ds.Y, ds.X @ gt.regression_vector(t), atol=1e-12)


def test_sample_task_zero_samples_and_bad_index():
    gt = make_random_instance(5, 2, 3, sigma_z=0.1, seed=0)
    ds = sample_task(gt, 0, 0, seed=1)
    assert ds.X.shape == (0, 5) and ds.Y.shape == (0,)
    # index T is the target task; T+1 is out of range
    sample_task(gt, gt.T, 4, seed=1)
    with pytest.raises(IndexError):
        sample_task(gt, gt.T + 1, 4, seed=1)
    with pytest.raises(ValueError):
        sample_task(gt, 0, -1, seed=1)


def test_sample_task_counts_are_integers():
    # the runners' integer rule: integral floats are counts, other floats
    # and bools raise instead of being truncated
    gt = make_random_instance(5, 2, 3, sigma_z=0.1, seed=0)
    assert sample_task(gt, 0, 5.0, seed=0).n == 5
    assert sample_task(gt, 0, np.int64(5), seed=0, draw=1.0).draw == 1
    for n, draw in ((5.7, 0), (True, 0), ("5", 0), (5, 0.5), (5, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            sample_task(gt, 0, n, seed=0, draw=draw)
    # and so is the seed, which int() used to truncate (3.9 drew seed 3)
    assert sample_task(gt, 0, 5, seed=3.0).G.tobytes() == \
        sample_task(gt, 0, 5, seed=np.int64(3)).G.tobytes()
    for seed in (3.9, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_task(gt, 0, 5, seed=seed)


def test_regression_vector_target_vs_source():
    gt = make_random_instance(8, 3, 6, sigma_z=0.1, seed=1)
    np.testing.assert_allclose(
        gt.regression_vector(gt.T), gt.B_star @ gt.w_target_star, atol=1e-14)
    np.testing.assert_allclose(
        gt.regression_vector(2), gt.B_star @ gt.W_star[:, 2], atol=1e-14)


def test_almost_sparse_nu_values():
    nu = almost_sparse_nu(11)
    np.testing.assert_allclose(nu[0], math.sqrt(0.9), atol=1e-15)
    np.testing.assert_allclose(nu[1:], np.full(10, 0.1), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(nu), 1.0, atol=1e-12)
    assert np.sum(np.abs(nu)) < 2.0
    with pytest.raises(ValueError):
        almost_sparse_nu(1)


def test_almost_sparse_instance_reference_nu():
    gt, nu_ref = make_almost_sparse_instance(10, 4, 12, sigma_z=0.2, seed=5)
    np.testing.assert_allclose(np.linalg.norm(nu_ref), 1.0, atol=1e-12)
    np.testing.assert_allclose(gt.W_star @ nu_ref, gt.w_target_star, atol=1e-10)
    np.testing.assert_allclose(gt.meta["reference_nu"], nu_ref, atol=1e-15)
    # nu_ref lies in the row space, so it is the minimum-L2 solution
    np.testing.assert_allclose(
        min_l2_solution(gt.W_star, gt.w_target_star), nu_ref, atol=1e-8)


def test_almost_sparse_instance_spectrum():
    spectrum = (5.0, 4.0, 3.0, 2.0, 1.0)
    gt, _ = make_almost_sparse_instance(8, 5, 20, sigma_z=0.5, seed=1,
                                        spectrum=spectrum)
    svals = np.linalg.svd(gt.W_star, compute_uv=False)
    np.testing.assert_allclose(svals, spectrum, atol=1e-10)
    with pytest.raises(ValueError):
        make_almost_sparse_instance(8, 5, 20, sigma_z=0.5, spectrum=(1.0, 2.0))


def test_aligned_worstcase_geometry():
    c_w = 2.0
    gt = make_aligned_worstcase_instance(12, 4, 9, c_w=c_w, seed=3)
    np.testing.assert_allclose(np.linalg.norm(gt.w_target_star), c_w, atol=1e-10)
    np.testing.assert_allclose(
        gt.sigma_min_w(), c_w / (2.0 * math.sqrt(3 * 9)), atol=1e-10)
    # minimum-L2 mixture is uniform across tasks
    nu2 = min_l2_solution(gt.W_star, gt.w_target_star)
    np.testing.assert_allclose(nu2, np.full(9, nu2[0]), atol=1e-8)
    assert nu2[0] > 0


def test_save_load_round_trip(tmp_path):
    # a numpy-integer seed is stored in meta as a plain int
    gt = make_random_instance(6, 2, 5, sigma_z=0.25, sigma_min_floor=0.4,
                              seed=np.int64(8))
    path = tmp_path / "inst.json"
    save_instance(gt, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.B_star, gt.B_star)
    np.testing.assert_array_equal(back.W_star, gt.W_star)
    np.testing.assert_array_equal(back.w_target_star, gt.w_target_star)
    assert back.sigma_z == gt.sigma_z
    assert back.meta["kind"] == "random"
    assert back.meta["seed"] == 8 and type(back.meta["seed"]) is int
    # same stream: reloaded instances reproduce the original samples
    a = sample_task(gt, 0, 10, seed=2)
    b = sample_task(back, 0, 10, seed=2)
    np.testing.assert_array_equal(a.Y, b.Y)


_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              np.finfo(float).max, -np.finfo(float).max]))
_B_FIXED = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]


def _instance_with_w_star(entries):
    return GroundTruth(d=4, k=2, T=3, B_star=_B_FIXED,
                       W_star=np.reshape(entries, (2, 3)),
                       w_target_star=np.ones(2), sigma_z=0.5)


# the file is rewritten on every example, so one tmp_path serves them all
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_FINITE, min_size=6, max_size=6))
def test_save_load_round_trips_w_star_bit_for_bit(tmp_path, entries):
    gt = _instance_with_w_star(entries)
    path = tmp_path / "inst.json"
    save_instance(gt, path)
    back = load_instance(path)
    assert back.W_star.tobytes() == gt.W_star.tobytes()
    assert back.B_star.tobytes() == gt.B_star.tobytes()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_FINITE, min_size=6, max_size=6), st.integers(0, 5),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_save_rejects_non_finite_entries(tmp_path, entries, at, bad):
    entries[at] = bad
    with pytest.raises(ValueError):
        save_instance(_instance_with_w_star(entries), tmp_path / "inst.json")


def test_load_takes_only_the_identity_covariance(tmp_path):
    gt = make_random_instance(6, 2, 5, sigma_z=0.25, seed=3)
    path = tmp_path / "inst.json"
    save_instance(gt, path)
    doc = json.loads(path.read_text())
    # what every instance file has recorded since the format began
    assert doc["meta"]["covariance_kind"] == "identity"
    back = load_instance(path)
    for name in ("B_star", "W_star", "w_target_star"):
        assert getattr(back, name).tobytes() == getattr(gt, name).tobytes()
    assert back.sigma_z == gt.sigma_z and back.meta == gt.meta
    doc["meta"].update(covariance_kind="diagonal-bounded",
                       sigma_diag=[1.0] * 6)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="covariance"):
        load_instance(path)


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 3, "k": 2}')
    with pytest.raises(ValueError):
        load_instance(path)


def test_ground_truth_validation():
    B = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))[0]
    W = np.ones((2, 3))
    w = np.ones(2)
    with pytest.raises(ValueError):
        GroundTruth(d=5, k=2, T=1, B_star=B, W_star=W[:, :1],
                    w_target_star=w, sigma_z=0.1)  # T < k
    with pytest.raises(ValueError):
        GroundTruth(d=5, k=2, T=3, B_star=np.ones((5, 2)), W_star=W,
                    w_target_star=w, sigma_z=0.1)  # not orthonormal
    with pytest.raises(ValueError):
        GroundTruth(d=5, k=2, T=3, B_star=B, W_star=W,
                    w_target_star=w, sigma_z=-1.0)
    # rank-deficient W contradicts the diverse flag
    with pytest.raises(ValueError):
        GroundTruth(d=5, k=2, T=3, B_star=B, W_star=np.ones((2, 3)),
                    w_target_star=w, sigma_z=0.1, meta={"diverse": True})


def test_ground_truth_compares_by_identity():
    # array fields make field-wise equality ambiguous; like TaskDataset, an
    # instance is equal only to itself and can key a dict
    gt = make_random_instance(5, 2, 4, sigma_z=0.1, seed=0)
    twin = make_random_instance(5, 2, 4, sigma_z=0.1, seed=0)
    assert gt == gt and gt != twin
    assert {gt: 1, twin: 2}[gt] == 1
    assert len({gt, twin, gt}) == 2


def test_instance_arrays_are_read_only():
    gt = make_random_instance(5, 2, 4, sigma_z=0.1, seed=0)
    with pytest.raises(ValueError):
        gt.B_star[0, 0] = 99.0
    ds = sample_task(gt, 0, 3, seed=0)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0


def test_dataset_copies_caller_arrays():
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((4, 3)), rng.standard_normal(4)
    X0, Y0 = X.copy(), Y.copy()
    ds = TaskDataset(task_index=0, X=X, Y=Y)
    # the rows are the caller's: n is read off X, and no stream drew them
    assert (ds.n, ds.d, ds.seed, ds.draw) == (4, 3, None, None)
    X[0, 0] = Y[0] = 99.0
    # read-only arrays that own their data are copied too: their owner can
    # make them writable again
    X.setflags(write=False)
    Y.setflags(write=False)
    frozen = TaskDataset(task_index=0, X=X, Y=Y)
    X.setflags(write=True)
    Y.setflags(write=True)
    X[1, 1] = Y[1] = -99.0
    np.testing.assert_array_equal(ds.X, X0)
    np.testing.assert_array_equal(ds.Y, Y0)
    assert frozen.X[1, 1] == X0[1, 1] and frozen.Y[1] == Y0[1]


def test_dataset_statistics_are_exact_and_read_only():
    gt = make_random_instance(5, 2, 4, sigma_z=0.1, seed=0)
    ds = sample_task(gt, 1, 30, seed=2)
    X, Y = ds.rows()
    assert (ds.n, ds.d) == (30, 5)
    np.testing.assert_array_equal(ds.G, X.T @ X)
    np.testing.assert_array_equal(ds.H, X.T @ Y)
    assert ds.yty == Y @ Y
    own = TaskDataset(task_index=1, X=X, Y=Y)
    for got in (ds, own):
        for a in (got.G, got.H):
            with pytest.raises(ValueError):
                a[0] = 0.0
    np.testing.assert_array_equal(own.G, ds.G)
    np.testing.assert_array_equal(own.H, ds.H)
    assert own.yty == ds.yty
    # compared and hashed by identity: equal statistics are not equal data
    assert own != ds and len({own, ds, ds}) == 2


def test_merged_dataset_redraws_its_stacked_draws():
    gt = make_random_instance(6, 2, 4, sigma_z=0.3, seed=1)
    draws = [sample_task(gt, 2, n, seed=9, draw=i)
             for i, n in enumerate((40, 0, 25, 7))]
    ds = draws[0]
    for more in draws[1:]:
        ds = ds.merge(more)
    assert (ds.task_index, ds.n, ds.d, ds.seed, ds.draw) == (2, 72, 6, 9, 3)
    X = np.vstack([part.X for part in draws])
    Y = np.concatenate([part.Y for part in draws])
    got_X, got_Y = ds.rows()
    np.testing.assert_array_equal(got_X, X)
    np.testing.assert_array_equal(got_Y, Y)
    np.testing.assert_array_equal(ds.X, X)
    np.testing.assert_array_equal(ds.Y, Y)
    assert not got_X.flags.writeable and not got_Y.flags.writeable
    # the statistics add, so they match the rows' Gram up to rounding
    for got, want in ((ds.G, X.T @ X), (ds.H, X.T @ Y), (ds.yty, Y @ Y)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # only later draws of the same task, instance and seed merge
    same_spec = make_random_instance(6, 2, 4, sigma_z=0.3, seed=1)
    rows = TaskDataset(task_index=2, X=X, Y=Y)
    for other in (sample_task(gt, 1, 5, seed=9, draw=4),
                  sample_task(gt, 2, 5, seed=8, draw=4),
                  sample_task(same_spec, 2, 5, seed=9, draw=4), rows):
        with pytest.raises(ValueError, match="merge"):
            ds.merge(other)
    with pytest.raises(ValueError, match="merge"):
        rows.merge(draws[0])


def _hex_stats(ds):
    return ([float.hex(v) for v in ds.G.ravel()],
            [float.hex(v) for v in ds.H], float.hex(ds.yty))


def test_target_draw_memo_returns_the_fresh_draw():
    gt = make_random_instance(6, 2, 4, sigma_z=0.3, seed=0)
    first = sample_task(gt, gt.T, 40, seed=3)
    hit = sample_task(gt, np.int64(gt.T), 40, seed=np.int64(3))
    assert hit is first
    assert instance._target_draw.cache_info().hits == 1
    instance._target_draw.cache_clear()
    fresh = sample_task(gt, gt.T, 40, seed=3)
    assert fresh is not first
    assert _hex_stats(fresh) == _hex_stats(first)
    assert (fresh.task_index, fresh.n, fresh.seed, fresh.draw) == \
        (first.task_index, first.n, first.seed, first.draw)


def test_target_draw_memo_keys_on_instance_identity():
    # equal parameters, equal arrays, yet another instance: no shared data
    a = make_random_instance(6, 2, 4, sigma_z=0.3, seed=0)
    b = make_random_instance(6, 2, 4, sigma_z=0.3, seed=0)
    ds_a = sample_task(a, a.T, 30, seed=1)
    ds_b = sample_task(b, b.T, 30, seed=1)
    assert ds_b is not ds_a and ds_b._gt is b
    assert instance._target_draw.cache_info().misses == 2
    assert _hex_stats(ds_b) == _hex_stats(ds_a)


def test_target_draw_memo_holds_one_target_entry():
    gt = make_random_instance(6, 2, 4, sigma_z=0.3, seed=0)
    sample_task(gt, gt.T, 30, seed=0)
    before = instance._target_draw.cache_info()
    for t in range(gt.T):
        sample_task(gt, t, 30, seed=0)
        sample_task(gt, t, 30, seed=0)
    assert instance._target_draw.cache_info() == before
    # one entry: going back to a seed drawn two calls ago draws again, so
    # the memo never replays a run from earlier in a sweep
    instance._target_draw.cache_clear()
    for seed in (0, 1, 0):
        sample_task(gt, gt.T, 30, seed=seed)
    info = instance._target_draw.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == \
        (0, 3, 1, 1)
    # every part of the key counts: n and draw too
    sample_task(gt, gt.T, 31, seed=0)
    sample_task(gt, gt.T, 31, seed=0, draw=1)
    assert instance._target_draw.cache_info().misses == 5


def _seed_sequence(seed, key):
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


_DRAWS = st.one_of(st.integers(0, 3), st.integers(2**32, 2**70))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**200 - 1), T=st.integers(1, 12), draw=_DRAWS)
def test_seed_table_matches_seed_sequence(seed, T, draw):
    # one pass over all T + 1 tasks of a draw, as sample_task derives them
    table = instance._sample_seed_table(seed, T, draw)
    assert table.shape == (T + 1, 4) and table.dtype == np.uint64
    assert not table.flags.writeable  # cached: every caller shares it
    strided = np.asfortranarray(table)
    for t in range(T + 1):
        ref = _seed_sequence(seed, (instance._SAMPLE_KEY, t, draw))
        np.testing.assert_array_equal(table[t], ref.generate_state(4, np.uint64))
        want = np.random.default_rng(ref).standard_normal(5)
        np.testing.assert_array_equal(
            instance._generator(table[t]).standard_normal(5), want)
        # PCG64 reads the words' buffer: a strided row must seed the same
        np.testing.assert_array_equal(
            instance._generator(strided[t]).standard_normal(5), want)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**200 - 1),
       key=st.lists(st.integers(0, 2**70), max_size=4),
       column=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6),
       at=st.integers(0, 4))
def test_seed_words_match_seed_sequence_for_any_key(seed, key, column, at):
    # scalar keys of any length (including none, where SeedSequence does not
    # pad the run entropy) and one array entry anywhere in the key
    np.testing.assert_array_equal(
        instance._seed_words(seed, *key)[0],
        _seed_sequence(seed, tuple(key)).generate_state(4, np.uint64))
    at = min(at, len(key))
    words = instance._seed_words(seed, *key[:at], np.array(column), *key[at:])
    assert words.shape == (len(column), 4) and words.flags.c_contiguous
    for i, v in enumerate(column):
        spawn = (*key[:at], v, *key[at:])
        np.testing.assert_array_equal(
            words[i], _seed_sequence(seed, spawn).generate_state(4, np.uint64))


def test_seed_words_reject_what_seed_sequence_rejects():
    with pytest.raises(ValueError):
        instance._rng(-1)
    with pytest.raises(ValueError):
        instance._seed_words(-1, 0)
    with pytest.raises(ValueError):
        instance._seed_words(0, -1)
    with pytest.raises(ValueError):
        instance._seed_words(0, np.array([0, 2**32]))


_FACTORY_CALLS = {
    "random": lambda **kw: make_random_instance(
        **{"d": 6, "k": 2, "T": 4, "sigma_z": 0.1, "seed": 3, **kw}),
    "almost_sparse": lambda **kw: make_almost_sparse_instance(
        **{"d": 6, "k": 2, "T": 4, "sigma_z": 0.1, "seed": 3, **kw})[0],
    "aligned_worstcase": lambda **kw: make_aligned_worstcase_instance(
        **{"d": 6, "k": 2, "T": 4, "c_w": 1.5, "seed": 3, **kw}),
}


@pytest.mark.parametrize("kind", sorted(_FACTORY_CALLS))
def test_factories_check_their_own_settings(kind):
    # the factories, not their callers, own the rules for d, k, T, seed
    # (instance.integer) and for the real parameters (instance.finite)
    make = _FACTORY_CALLS[kind]
    ref = make()
    whole = make(d=6.0, T=4.0, seed=3.0)
    assert (whole.d, whole.k, whole.T) == (6, 2, 4)
    assert type(whole.d) is int and whole.meta["seed"] == 3
    for name in ("B_star", "W_star", "w_target_star"):
        assert getattr(whole, name).tobytes() == getattr(ref, name).tobytes()
    refused = [("sigma_z", math.inf, "sigma_z must be a finite"),
               ("seed", True, "seed must be an integer"),
               ("d", 6.5, "d must be an integer")]
    if kind == "random":
        refused.append(("sigma_min_floor", math.nan,
                        "sigma_min_floor must be a finite"))
    if kind == "aligned_worstcase":
        refused.append(("c_w", math.inf, "c_w must be a finite"))
    for key, value, message in refused:
        with pytest.raises(ValueError, match=message):
            make(**{key: value})


def test_ground_truth_sigma_z_is_a_finite_number():
    B = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))[0]
    W = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    w = np.array([0.5, 0.5])
    for sigma_z in (math.inf, math.nan, "0.1", True):
        with pytest.raises(ValueError, match="sigma_z must be a finite"):
            GroundTruth(d=5, k=2, T=3, B_star=B, W_star=W,
                        w_target_star=w, sigma_z=sigma_z)
    gt = GroundTruth(d=5, k=2, T=3, B_star=B, W_star=W, w_target_star=w,
                     sigma_z=np.float32(0.5))
    assert type(gt.sigma_z) is float and gt.sigma_z == 0.5


def test_load_instance_follows_the_instance_rules(tmp_path):
    # a file's d, k, T follow the integer rule and its sigma_z must be a
    # finite number, as for the factories (int() used to truncate d = 6.5)
    gt = make_random_instance(6, 2, 4, sigma_z=0.1, seed=3)
    path = tmp_path / "gt.json"
    save_instance(gt, path)
    doc = json.loads(path.read_text())
    for key, value, message in (("d", 6.0, None), ("d", 6.5, "d must be"),
                                ("sigma_z", "0.1", "sigma_z must be")):
        path.write_text(json.dumps({**doc, key: value}))
        if message is None:
            assert load_instance(path).W_star.tobytes() == gt.W_star.tobytes()
        else:
            with pytest.raises(ValueError, match=message):
                load_instance(path)


_STORE_GT = make_random_instance(4, 2, 3, sigma_z=0.3, seed=5)

# one step inside the stream store: a draw (task, draw, n, seed, merge it
# into the latest dataset of that task and seed), or None, a run's start
_STORE_STEPS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, _STORE_GT.T), st.integers(0, 2),
              st.one_of(st.just(0), st.integers(1, 40)), st.integers(0, 1),
              st.booleans()))


def _facts(ds):
    """n, the statistics and the rows of a dataset, as bytes."""
    X, Y = ds.rows()
    return (ds.n, ds.G.tobytes(), ds.H.tobytes(), float.hex(ds.yty),
            X.tobytes(), Y.tobytes())


@settings(max_examples=300, deadline=None)
@given(st.lists(_STORE_STEPS, max_size=25))
def test_stream_store_is_invisible_in_outputs(steps):
    # slicing and extending the held normals, at any n (0 included), on the
    # target task as on the sources, and across merges and run starts, gives
    # each dataset exactly what a fresh draw outside the store gives
    gt = _STORE_GT
    instance._target_draw.cache_clear()
    made = []  # (parts, facts) per dataset formed inside the store
    with instance.shared_streams() as store:
        latest = {}
        for step in steps:
            if step is None:
                store.next_run()
                continue
            task, draw, n, seed, merge = step
            ds = sample_task(gt, task, n, seed=seed, draw=draw)
            parts = ((task, seed, draw, n),)
            if merge and (task, seed) in latest:
                before, before_parts = latest[task, seed]
                ds, parts = before.merge(ds), before_parts + parts
            latest[task, seed] = ds, parts
            made.append((parts, _facts(ds)))
            assert all(not z.flags.writeable
                       for z, _ in store.streams.values())
    assert instance._store.get() is None and store.streams == {}
    for parts, facts in made:
        fresh = None
        for task, seed, draw, n in parts:
            instance._target_draw.cache_clear()
            part = sample_task(gt, task, n, seed=seed, draw=draw)
            fresh = part if fresh is None else fresh.merge(part)
        assert _facts(fresh) == facts
