"""Synthetic linear-representation instances and per-task sampling.

An instance is a ground truth (B_star, W_star, w_target_star, sigma_z):
source task t has regression vector B_star @ W_star[:, t], the target task
has B_star @ w_target_star, inputs are N(0, I_d) and labels carry
N(0, sigma_z^2) noise.

Task indices are 0-based: 0..T-1 are source tasks, index T is the target.

Every random stream is numpy's PCG64 seeded as
default_rng(SeedSequence(entropy=seed, spawn_key=key)) would seed it. A
lone stream (_rng: instance generators, the fit's padding directions) is
built by exactly that call. Sampling streams come in batches: their seed
words come from _seed_words, which runs SeedSequence's own loops once
for a batch of spawn keys, its words arrays over the keys, so sample_task
derives those of all T + 1 tasks of a draw at once, on the draw's first
sample, instead of paying a SeedSequence per task.

A drawn task is kept as the statistics the fit reads (TaskDataset: n, d,
X^T X, X^T Y, Y^T Y), formed once from the rows, which are then dropped:
a stage's increment joins a task's data by adding statistics, and the rare
reader of rows gets them drawn again from the stream, bit for bit.

Draws of the target task (task index T) are memoized, one entry deep
(_target_draw, keyed by the GroundTruth's identity, n, seed and draw): the
runs of one (instance, seed) all fit their target head on the same n_target
rows, the common random numbers that pair the strategies, and a sweep makes
those runs one after another, so all but the first take the dataset already
formed. The entry serves only the target, since that is where the repeats
are: of the standard normals the benchmark's workloads draw, target draws
repeating the previous one are 13.3 % on fit_heavy (a passive, known-nu and
L2 run per seed), 23.2 % on sweep_multistage and 0 on l1_two_phase (one run
per seed), while repeated source draws are 0.7-0.9 %. One entry, not a
larger cache: only the run just before can hand a run its target set, so
a run repeated later in the process (another pass over the same seeds)
draws it again, as it would with no memo.

A draw of n samples reads the first n * (d + 1) standard normals of its
stream: X is the first n * d of them, row by row, and the noise the next n.
Inside shared_streams (harness.run_sweep opens it around a sweep) a stream
store keeps, per stream, the normals drawn so far and the generator
positioned after them, so a later run of the same seed slices a shorter
request out of them and draws only the missing tail of a longer one;
Generator.standard_normal is one sequential stream, so every draw is bit
for bit what a fresh draw gives. The runs of a sweep seed read the same
streams at different lengths (budgets, allocations), which is where this
is shared. The store keeps only the streams the previous run read: each
run's start (next_run) drops the others, so it holds at most the streams of
two consecutive runs, 8 * n * (d + 1) bytes each. Outside the store a draw
reads its normals afresh.
"""

import contextlib
import contextvars
import dataclasses
import functools
import json
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# spawn-key namespaces so generator draws never collide with sampling draws
_GEN_KEY = 0x6765
_SAMPLE_KEY = 0x7361

_ORTHO_TOL = 1e-10

# SeedSequence's pool size and hashing constants
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def integer(value, name):
    """The count called name as an int. Ints, numpy ints and integral floats
    (JSON writes 1e4 as 10000.0) are taken; bools, other floats and anything
    else raise ValueError instead of being truncated."""
    if type(value) is int:  # the stage loop's counts: checked per draw
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# the largest count an int64 holds, the dtype of every count array
MAX_COUNT = int(np.iinfo(np.int64).max)


def int64_count(value, name):
    """The count called name by integer()'s rule, refused with ValueError
    when it is above MAX_COUNT: the one rule for a count from outside."""
    value = integer(value, name)
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, the largest "
                         f"int64 count, got {value}")
    return value


def draw_arguments(T, task_index, n, draw):
    """A draw's (task_index, n, draw), checked: the task index in 0..T (T
    is the target), n a count (int64_count) and the draw index an integer,
    both >= 0. Raises ValueError naming the argument."""
    task_index = integer(task_index, "task_index")
    if not 0 <= task_index <= T:
        raise ValueError(f"task_index must be in 0..{T}, got {task_index}")
    n, draw = int64_count(n, "n"), integer(draw, "draw")
    if n < 0 or draw < 0:
        raise ValueError(f"n and draw must be >= 0, got n={n}, draw={draw}")
    return task_index, n, draw


def finite(value, name):
    """The real number called name as a float. Ints, floats and their numpy
    kinds are taken; bools, strings, NaN, infinities and ints too large for
    a float raise ValueError."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        with contextlib.suppress(OverflowError):  # an int too large
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def finite_vector(value, n, name):
    """The vector called name as a float array of n finite entries."""
    v = np.asarray(value, dtype=float)
    need = f"{name} must be a finite vector of shape ({n},)"
    if v.shape != (n,):
        raise ValueError(f"{need}, got {value!r}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{need}: its entries must be finite, got {value!r}")
    return v


def _uint32_words(n):
    """A non-negative integer as little-endian 32-bit words, as SeedSequence
    splits it (0 is one word)."""
    n = int(n)
    if n < 0:
        raise ValueError(f"seeds and spawn keys must be non-negative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_words(seed, *key):
    """PCG64 seed words of the streams SeedSequence(entropy=seed,
    spawn_key=key) seeds, for a batch of keys in one pass.

    An entry of key may be a 1-D integer array, with values in [0, 2**32):
    then row i of the result belongs to the key that takes element i of each
    array entry and the other entries as they are. Returns a C-ordered
    (rows, 4) uint64 array; row i equals SeedSequence(entropy=seed,
    spawn_key=key_i).generate_state(4, np.uint64). The loops are
    SeedSequence's own (mix_entropy, then generate_state), in uint32 with
    C's wraparound; a word is a scalar until an array entry is mixed in,
    and from then on an array over the keys."""
    entropy = _uint32_words(seed)
    if key and len(entropy) < _POOL:
        # a spawned SeedSequence pads its run entropy to the pool size
        entropy += [0] * (_POOL - len(entropy))
    for entry in key:
        if isinstance(entry, np.ndarray):
            if entry.size and not (0 <= entry.min() and entry.max() <= _MASK32):
                raise ValueError("array spawn-key entries must lie in "
                                 "[0, 2**32)")
            entropy.append(entry.astype(np.uint32))
        else:
            entropy.extend(_uint32_words(entry))
    # mix_entropy hashes 0 for the pool words the entropy does not fill
    entropy += [0] * (_POOL - len(entropy))
    with np.errstate(over="ignore"):
        mixer, const = [], _INIT_A
        for i in range(_POOL):
            v = entropy[i] ^ const
            const *= _MULT_A
            v = v * const
            mixer.append(v ^ v >> _SHIFT)
        # mix every pool word into every other one, then each remaining
        # entropy word into every pool word
        for i_src in range(len(entropy)):
            for i_dst in range(_POOL):
                if i_src != i_dst:
                    h = (mixer if i_src < _POOL else entropy)[i_src] ^ const
                    const *= _MULT_A
                    h = h * const
                    m = _MIX_L * mixer[i_dst] - _MIX_R * (h ^ h >> _SHIFT)
                    mixer[i_dst] = m ^ m >> _SHIFT
        # generate_state(4, uint64): 8 uint32 words cycling over the pool,
        # joined in little-endian pairs
        state, const = [], _INIT_B
        for i_dst in range(2 * _POOL):
            v = mixer[i_dst % _POOL] ^ const
            const *= _MULT_B
            v = v * const
            state.append(v ^ v >> _SHIFT)
    return np.column_stack(state).view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """One stream's seed words, handed to PCG64 as its seed sequence.
    PCG64 reads the array's buffer as four uint64, so it must be a
    C-contiguous row."""

    def __init__(self, words):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        if self.words.shape != (4,):
            raise ValueError(f"PCG64 takes 4 seed words, got shape "
                             f"{self.words.shape}")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 seed words are held")
        return self.words


def _generator(words):
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@functools.lru_cache(maxsize=16)
def _sample_seed_table(seed, T, draw):
    """Seed words of the sampling streams of tasks 0..T at one draw index,
    one read-only row per task. A strategy run samples a few draw indices
    (two for L1, S + 1 for multistage), each over all its tasks; the cache
    holds those of the runs in progress, not a history of past runs."""
    table = _seed_words(seed, _SAMPLE_KEY, np.arange(T + 1), draw)
    table.setflags(write=False)
    return table


@dataclasses.dataclass(frozen=True, eq=False)
class GroundTruth:
    """Immutable instance description.

    B_star is d x k with orthonormal columns, W_star is k x T,
    w_target_star is the target head in the k-dimensional latent space;
    all three must be finite, as must a meta["reference_nu"] of T entries.
    """

    d: int
    k: int
    T: int
    B_star: np.ndarray
    W_star: np.ndarray
    w_target_star: np.ndarray
    sigma_z: float
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        d, k, T = self.d, self.k, self.T
        if not (isinstance(d, int) and isinstance(k, int) and isinstance(T, int)):
            raise ValueError("d, k, T must be integers")
        if not (1 <= k <= d):
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
        if not (k <= T):
            raise ValueError(f"need k <= T, got k={k}, T={T}")
        B = _readonly(self.B_star)
        W = _readonly(self.W_star)
        w = _readonly(self.w_target_star)
        if B.shape != (d, k):
            raise ValueError(f"B_star must be {(d, k)}, got {B.shape}")
        if W.shape != (k, T):
            raise ValueError(f"W_star must be {(k, T)}, got {W.shape}")
        if w.shape != (k,):
            raise ValueError(f"w_target_star must be {(k,)}, got {w.shape}")
        for name, a in (("B_star", B), ("W_star", W), ("w_target_star", w)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if self.meta.get("reference_nu") is not None:
            finite_vector(self.meta["reference_nu"], T, "reference_nu")
        gram_err = np.max(np.abs(B.T @ B - np.eye(k)))
        if not gram_err <= _ORTHO_TOL:
            raise ValueError(
                f"B_star columns not orthonormal (max Gram deviation {gram_err:.3e})"
            )
        sigma_z = finite(self.sigma_z, "sigma_z")
        if sigma_z < 0.0:
            raise ValueError("sigma_z must be >= 0")
        object.__setattr__(self, "B_star", B)
        object.__setattr__(self, "W_star", W)
        object.__setattr__(self, "w_target_star", w)
        object.__setattr__(self, "sigma_z", sigma_z)
        if self.meta.get("diverse"):
            if self.sigma_min_w() <= 1e-12 * max(1.0, self.sigma_max_w()):
                raise ValueError("instance flagged diverse but W_star is rank-deficient")

    def sigma_min_w(self):
        return float(np.linalg.svd(self.W_star, compute_uv=False)[-1])

    def sigma_max_w(self):
        return float(np.linalg.svd(self.W_star, compute_uv=False)[0])

    @functools.cached_property
    def _thetas(self):
        """Every task's regression vector, read-only, formed at the first
        draw: each draw reads one."""
        thetas = ([self.B_star @ self.W_star[:, t] for t in range(self.T)]
                  + [self.B_star @ self.w_target_star])
        for theta in thetas:
            theta.setflags(write=False)
        return tuple(thetas)

    def regression_vector(self, task_index):
        """Full d-dimensional regression vector of a task (target = index
        T), read-only: B_star @ W_star[:, task_index], or
        B_star @ w_target_star."""
        if not 0 <= task_index <= self.T:
            raise IndexError(f"task_index {task_index} outside 0..{self.T}")
        return self._thetas[task_index]


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class TaskDataset:
    """One task's data, held as the statistics the fit reads: n samples of
    dimension d, G = X^T X (d x d), H = X^T Y (d,) and yty = Y^T Y, formed
    once, the arrays read-only.

    A dataset built from a caller's X (n x d) and Y (length n) keeps
    read-only copies of them; n is X's row count, seed and draw are None,
    and a non-finite entry raises ValueError. One that sample_task drew keeps no rows: it records the (draw, n)
    parts it was drawn at seed, and rows(), X and Y draw them again, bit
    for bit, on every call; its draw is that of its last part. merge()
    appends another draw of the same task by adding statistics.
    """

    task_index: int
    n: int
    d: int
    seed: int | None
    draw: int | None
    G: np.ndarray = dataclasses.field(repr=False)
    H: np.ndarray = dataclasses.field(repr=False)
    yty: float = dataclasses.field(repr=False)
    _gt: GroundTruth | None = dataclasses.field(repr=False)
    _parts: tuple | None = dataclasses.field(repr=False)
    _rows: tuple | None = dataclasses.field(repr=False)

    def __init__(self, task_index, X, Y):
        X, Y = _readonly(X), _readonly(Y)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
            raise ValueError(f"inconsistent shapes X{X.shape}, Y{Y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("X and Y must be finite")
        self._fill(task_index=task_index, n=X.shape[0], d=X.shape[1],
                   seed=None, draw=None, G=X.T @ X, H=X.T @ Y,
                   yty=float(Y @ Y), _gt=None, _parts=None, _rows=(X, Y))

    def _fill(self, **fields):
        fields["G"].setflags(write=False)
        fields["H"].setflags(write=False)
        self.__dict__.update(fields)  # frozen: __setattr__ raises

    @classmethod
    def _drawn(cls, gt, task_index, seed, parts, G, H, yty):
        """The dataset of one task's draws parts, ((draw, n), ...), held as
        their statistics."""
        ds = object.__new__(cls)
        ds._fill(task_index=task_index, n=sum(n for _, n in parts), d=gt.d,
                 seed=seed, draw=parts[-1][0], G=G, H=H, yty=float(yty),
                 _gt=gt, _parts=parts, _rows=None)
        return ds

    def rows(self):
        """The rows (X, Y), read-only. A drawn dataset draws them again from
        its parts, in the order they were merged, on every call; a caller
        who reads both should take them from one call."""
        if self._gt is None:
            return self._rows
        draws = [_draw_rows(self._gt, self.task_index, n, self.seed, draw)
                 for draw, n in self._parts]
        X = np.vstack([X for X, _ in draws])
        Y = np.concatenate([Y for _, Y in draws])
        X.setflags(write=False)
        Y.setflags(write=False)
        return X, Y

    @property
    def X(self):
        return self.rows()[0]

    @property
    def Y(self):
        return self.rows()[1]

    def merge(self, other):
        """This drawn dataset followed by other, a later draw of the same
        task at the same seed: n and the statistics add, and other's rows
        follow this one's in X and Y."""
        if (self._gt is None or other._gt is not self._gt
                or (other.task_index, other.seed)
                != (self.task_index, self.seed)):
            raise ValueError("merge takes draws of one task of one instance "
                             "at one seed")
        return TaskDataset._drawn(self._gt, self.task_index, self.seed,
                                  self._parts + other._parts,
                                  self.G + other.G, self.H + other.H,
                                  self.yty + other.yty)


def _stream(gt, task_index, seed, draw):
    """The generator of one task's sampling stream at (seed, draw)."""
    return _generator(_sample_seed_table(seed, gt.T, draw)[task_index])


class _StreamStore:
    """The normals drawn so far from sampling streams, keyed by (gt's
    identity, task, seed, draw), each with the generator positioned after
    them (see the module docstring). Held buffers are read-only."""

    def __init__(self):
        self.streams = {}  # key: (normals, generator after them)
        self.used = set()  # keys read since the last next_run

    def normals(self, key, count):
        """The first count normals of stream key."""
        self.used.add(key)
        z, rng = self.streams.get(key, (None, None))
        if z is None:
            rng = _stream(*key)
            z = rng.standard_normal(count)
        elif count > z.size:
            z = np.concatenate([z, rng.standard_normal(count - z.size)])
        else:
            return z[:count]
        z.setflags(write=False)
        self.streams[key] = (z, rng)
        return z

    def next_run(self):
        """Start a run: drop every stream the run before it did not read."""
        self.streams = {key: entry for key, entry in self.streams.items()
                        if key in self.used}
        self.used = set()


# the store of the shared_streams block in progress, None outside one
_store = contextvars.ContextVar("amtrl_stream_store", default=None)


@contextlib.contextmanager
def shared_streams():
    """A block whose draws share one _StreamStore, which it yields; the
    store is emptied and closed when the block ends or raises."""
    store = _StreamStore()
    token = _store.set(store)
    try:
        yield store
    finally:
        _store.reset(token)
        store.streams.clear()


def _draw_rows(gt, task_index, n, seed, draw):
    """The rows (X, Y) of n samples of one task from its stream at (seed,
    draw): the stream's first n * d normals as X, row by row, and the next n
    as the noise."""
    theta = gt.regression_vector(task_index)  # validates task_index
    key, count = (gt, task_index, int(seed), int(draw)), n * (gt.d + 1)
    store = _store.get()
    z = (_stream(*key).standard_normal(count) if store is None
         else store.normals(key, count))
    X = z[:n * gt.d].reshape(n, gt.d)
    Y = X @ theta + gt.sigma_z * z[n * gt.d:]
    return X, Y


def _drawn_dataset(gt, task_index, n, seed, draw):
    X, Y = _draw_rows(gt, task_index, n, seed, draw)
    return TaskDataset._drawn(gt, task_index, seed, ((draw, n),),
                              X.T @ X, X.T @ Y, Y @ Y)


@functools.lru_cache(maxsize=1)
def _target_draw(gt, n, seed, draw):
    """The target task's dataset at (gt, n, seed, draw). GroundTruth
    compares and hashes by identity, so an equal but distinct instance
    never gets this one's data; the entry keeps its instance alive."""
    return _drawn_dataset(gt, gt.T, n, seed, draw)


def sample_task(gt, task_index, n, seed, draw=0):
    """Draw n i.i.d. samples for one task, kept as their statistics.

    Deterministic in (seed, task_index, draw); distinct draw indices give
    independent streams, so incremental sampling never replays data. The
    arguments are checked by draw_arguments and the seed by integer(), so
    5.0 draws 5 samples while 5.7 or True raises ValueError. The target
    task comes from _target_draw's memo and, inside shared_streams, every
    task's normals from the stream store (see the module docstring); both
    give a fresh draw's data bit for bit.
    """
    task_index, n, draw = draw_arguments(gt.T, task_index, n, draw)
    seed = integer(seed, "seed")
    if task_index == gt.T:
        return _target_draw(gt, n, seed, draw)
    return _drawn_dataset(gt, task_index, n, seed, draw)


def _orthonormal_columns(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    # sign convention: first entry of nonnegligible magnitude made positive
    for j in range(cols):
        col = q[:, j]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        if lead < 0:
            q[:, j] = -col
    return q


def _complete_orthonormal(first_column, rng, cols):
    """Orthonormal basis whose first column is the given unit vector."""
    rows = first_column.shape[0]
    m = np.column_stack([first_column, rng.standard_normal((rows, cols - 1))])
    q, r = np.linalg.qr(m)
    if r[0, 0] < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_random_instance(d, k, T, sigma_z, sigma_min_floor=0.0, seed=0):
    """Generic instance: B_star random orthonormal, W_star i.i.d. Gaussian
    rescaled so sigma_min(W_star) >= sigma_min_floor, target a random unit
    mixture of the source columns (stored in meta["mixing_nu"]).
    """
    d, k, T, seed = map(integer, (d, k, T, seed), "d k T seed".split())
    sigma_min_floor = finite(sigma_min_floor, "sigma_min_floor")
    if not (1 <= k <= d and k <= T):
        raise ValueError(f"need 1 <= k <= d and k <= T, got d={d}, k={k}, T={T}")
    rng = _rng(seed, _GEN_KEY, 0)
    B = _orthonormal_columns(rng, d, k)
    for _ in range(50):
        W = rng.standard_normal((k, T))
        svals = np.linalg.svd(W, compute_uv=False)
        if svals[-1] > 1e-12 * max(1.0, svals[0]):
            break
    else:
        raise RuntimeError("could not draw a full-rank W_star")
    if svals[-1] < sigma_min_floor:
        W = W * (sigma_min_floor / svals[-1])
    nu_mix = rng.standard_normal(T)
    nu_mix = nu_mix / np.linalg.norm(nu_mix)
    w_target = W @ nu_mix
    meta = {
        "kind": "random",
        "seed": seed,
        "diverse": True,
        "highdim_regime": bool(d > T >= k),
        "sigma_min_floor": sigma_min_floor,
        "mixing_nu": nu_mix.tolist(),
    }
    return GroundTruth(d=d, k=k, T=T, B_star=B, W_star=W, w_target_star=w_target,
                       sigma_z=sigma_z, meta=meta)


def almost_sparse_nu(T):
    """The almost-1-sparse relevance vector: one dominant task plus T-1 small
    equal entries; unit L2 norm, L1 norm below 2 for every T >= 2."""
    if T < 2:
        raise ValueError("need T >= 2")
    nu = np.full(T, 1.0 / (T - 1))
    nu[0] = math.sqrt(1.0 - 1.0 / (T - 1))
    return nu


def make_almost_sparse_instance(d, k, T, sigma_z, seed=0, spectrum=None):
    """Instance whose target is reachable through an almost-1-sparse mixture.

    Returns (gt, reference_nu). reference_nu is placed in the row space of
    W_star, so it is also the minimum-L2-norm solution of
    W_star @ nu = w_target_star; L1-minimization finds a genuinely sparser
    one. reference_nu is stored in meta["reference_nu"].
    """
    d, k, T, seed = map(integer, (d, k, T, seed), "d k T seed".split())
    if not (1 <= k <= d and k <= T and T >= 2):
        raise ValueError(f"need 1 <= k <= d, k <= T, T >= 2; got d={d}, k={k}, T={T}")
    nu_ref = almost_sparse_nu(T)
    rng = _rng(seed, _GEN_KEY, 1)
    B = _orthonormal_columns(rng, d, k)
    V = _complete_orthonormal(nu_ref / np.linalg.norm(nu_ref), rng, k)
    U = np.linalg.qr(rng.standard_normal((k, k)))[0]
    if spectrum is None:
        spectrum = np.linspace(2.0, 1.0, k)
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.shape != (k,) or not np.all(np.isfinite(spectrum)
                                            & (spectrum > 0)):
        raise ValueError(f"spectrum must be k finite, positive singular "
                         f"values, got {spectrum.tolist()}")
    W = (U * spectrum) @ V.T
    w_target = W @ nu_ref
    meta = {
        "kind": "almost_sparse",
        "seed": seed,
        "diverse": True,
        "highdim_regime": bool(d > T >= k),
        "reference_nu": nu_ref.tolist(),
    }
    gt = GroundTruth(d=d, k=k, T=T, B_star=B, W_star=W, w_target_star=w_target,
                     sigma_z=sigma_z, meta=meta)
    return gt, nu_ref


def save_instance(gt, path):
    """Write an instance as JSON; matrices are flat row-major float lists.
    json writes each float as its shortest round-trip repr, so a reloaded
    instance is bit-identical; a non-finite entry raises ValueError. The
    meta names the identity input covariance, as every instance file has."""
    doc = {
        "d": gt.d,
        "k": gt.k,
        "T": gt.T,
        "sigma_z": gt.sigma_z,
        "B_star": gt.B_star.ravel(order="C").tolist(),
        "W_star": gt.W_star.ravel(order="C").tolist(),
        "w_target_star": gt.w_target_star.tolist(),
        "meta": {**gt.meta, "covariance_kind": "identity"},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)


def load_instance(path):
    """Read an instance that save_instance wrote. Inputs are N(0, I_d), so a
    file whose meta names another covariance raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        d, k, T = map(integer, (doc["d"], doc["k"], doc["T"]), "d k T".split())
        meta = dict(doc.get("meta", {}))
        covariance = meta.pop("covariance_kind", "identity")
        if covariance != "identity" or "sigma_diag" in meta:
            raise ValueError(f"{path}: input covariance {covariance!r} is "
                             "not supported; inputs are N(0, I_d)")
        gt = GroundTruth(
            d=d, k=k, T=T,
            B_star=np.asarray(doc["B_star"], dtype=float).reshape(d, k),
            W_star=np.asarray(doc["W_star"], dtype=float).reshape(k, T),
            w_target_star=np.asarray(doc["w_target_star"], dtype=float),
            sigma_z=doc["sigma_z"],
            meta=meta,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    return gt
