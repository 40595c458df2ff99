"""The hand-rolled simplex against scipy's HiGHS on random feasible LPs."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from amtrl.simplex import InfeasibleError, solve_lp


@st.composite
def _feasible_lps(draw):
    """(c, A, b) with b = A x0 for some x0 >= 0 and c >= 0, so the LP is
    feasible and bounded below by 0. A is Gaussian or small-integer valued,
    full rank or a product of two thinner factors (rank-deficient)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    integer = draw(st.booleans())

    def sample(shape):
        if integer:
            return rng.integers(-3, 4, shape).astype(float)
        return rng.standard_normal(shape)

    if draw(st.booleans()):
        r = int(rng.integers(1, min(m, n) + 1))
        A = sample((m, r)) @ sample((r, n))
    else:
        A = sample((m, n))
    x0 = rng.integers(0, 4, n).astype(float) if integer \
        else rng.exponential(size=n)
    x0[rng.random(n) < 0.3] = 0.0
    c = rng.integers(0, 5, n).astype(float) if integer \
        else rng.exponential(size=n)
    return c, A, A @ x0


@settings(max_examples=300, deadline=None)
@given(_feasible_lps())
def test_solve_lp_matches_linprog(lp):
    c, A, b = lp
    res = solve_lp(c, A, b)
    ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None),
                                 method="highs")
    assert ref.status == 0
    x = res.x
    assert np.all(x >= 0.0)
    np.testing.assert_allclose(A @ x, b,
                               atol=1e-8 * (1.0 + np.abs(b).max()))
    assert abs(res.value - ref.fun) <= 1e-8 * (1.0 + abs(ref.fun))
    # a vertex: at most rank(A) positive entries
    assert np.count_nonzero(x) <= np.linalg.matrix_rank(A)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 8))
def test_solve_lp_infeasible_raises(seed, m, n):
    # A >= 0 and x >= 0 give A x >= 0, which no b with a negative entry meets
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, (m, n))
    b = A @ rng.exponential(size=n)
    b[int(rng.integers(m))] = -1.0 - rng.exponential()
    with pytest.raises(InfeasibleError):
        solve_lp(np.ones(n), A, b)
