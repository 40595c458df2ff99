"""A fixed reference computation that measures the machine's current speed.

The benchmark's host is shared: the same amtrl run takes 220 ms in one
minute and 450 ms in the next, and sets of runs taken half an hour apart
differ by up to 40 % in their medians. Timed back to back, this fixed
computation takes either about 10 ms or about 17 ms, switching between
the two several times a second on either vCPU: the machine flips between
a fast and a slow state, and the share of time spent in the slow one
drifts. That moves every CPU-bound computation in the process, so the
benchmark times this computation after each of its timed entries, for a
fixed share of the entry's time, and scales each time by ``REFERENCE_MS``
over the mean of the timings taken around it: a time then reads as it
would at the reference machine's usual mix of states, and a change to
amtrl moves it as it moves the raw time, since nothing here calls amtrl.
The mean, not the median, because the timings fall into two groups: their
mean follows the share of time in each, where a median would jump from
one group to the other.

The computation mixes what amtrl spends its time on: an interpreter-bound
loop over floats, many small numpy operations (as in the Lasso's
coordinate sweeps) and dense 150 x 150 linear algebra (as in the fit's
B-step system), about a third of the time each. Its inputs are fixed.
"""

import math
import time

import numpy as np

# usual mean of sample() over a benchmark run on the reference machine
# (2-vCPU KVM guest, Intel Xeon Sapphire Rapids, numpy 2.4.6 on
# scipy-openblas 0.3.31, one BLAS thread); runs gave means of 12.5-16.7 ms
REFERENCE_MS = 15.0

_rng = np.random.default_rng(20230602)
_M = _rng.standard_normal((40, 40)) / 8.0
_V = _rng.standard_normal(40)
_S = _rng.standard_normal((150, 150))
_S = _S @ _S.T + 150.0 * np.eye(150)
_B = _rng.standard_normal((150, 5))


def _work():
    acc = 0.0
    for i in range(1, 20001):
        acc += math.sqrt(i) * 1e-3 - (i % 7) * 0.5
    y = _V.copy()
    for _ in range(700):
        y = _M @ y
        y /= np.linalg.norm(y)
        np.maximum(y, -0.5, out=y)
    for _ in range(9):
        x = np.linalg.solve(_S, _B)
        acc += float(x[0, 0]) + float((_S @ _S)[0, 0])
    return acc + float(y.sum())


def sample():
    """Wall ms of one pass of the reference computation."""
    t0 = time.perf_counter()
    _work()
    return (time.perf_counter() - t0) * 1e3


def scale(samples):
    """Factor that takes a time measured alongside `samples` to the
    reference machine's usual speed."""
    return REFERENCE_MS * len(samples) / sum(samples)
