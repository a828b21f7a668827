import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrisr.errors import NewtonFailure, SingularMatrixError
from mrisr.integrator import StepStats
from mrisr.linalg import BandedMatrix, Factorization, newton_solve, wrms


def _random_banded(n, ml, mu, rng):
    data = rng.standard_normal((ml + mu + 1, n))
    data[mu] += 5.0  # diagonal dominance
    return BandedMatrix(ml=ml, mu=mu, data=data)


def test_banded_to_dense_layout():
    data = np.array([[0.0, 12.0, 23.0],
                     [11.0, 22.0, 33.0],
                     [21.0, 32.0, 0.0]])
    B = BandedMatrix(ml=1, mu=1, data=data)
    expect = np.array([[11.0, 12.0, 0.0],
                       [21.0, 22.0, 23.0],
                       [0.0, 32.0, 33.0]])
    assert np.array_equal(B.to_dense(), expect)


@given(st.integers(min_value=3, max_value=30), st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_banded_solve_matches_dense(n, seed):
    rng = np.random.default_rng(seed)
    ml = int(rng.integers(1, min(3, n - 1) + 1))
    mu = int(rng.integers(1, min(3, n - 1) + 1))
    B = _random_banded(n, ml, mu, rng)
    rhs = rng.standard_normal(n)
    x_b = Factorization(B).solve(rhs)
    x_d = np.linalg.solve(B.to_dense(), rhs)
    assert np.allclose(x_b, x_d, atol=1e-10)


def test_factorization_reuse():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    fac = Factorization(A)
    for _ in range(3):
        rhs = rng.standard_normal(6)
        assert np.allclose(A @ fac.solve(rhs), rhs)


def test_singular_dense_raises():
    with pytest.raises(SingularMatrixError):
        Factorization(np.zeros((3, 3))).solve(np.ones(3))


def test_singular_banded_raises():
    data = np.zeros((3, 4))
    with pytest.raises(SingularMatrixError):
        Factorization(BandedMatrix(ml=1, mu=1, data=data)).solve(np.ones(4))


def test_wrms():
    assert wrms([3.0, 4.0], np.array([1.0, 1.0])) == \
        pytest.approx(np.sqrt(12.5))
    assert wrms([2.0], np.array([0.5])) == 1.0


@pytest.mark.parametrize("n", [1, 2, 303, 603])
def test_wrms_is_bitwise_mean_formula(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        w = 1.0 / (1e-6 + 1e-4 * np.abs(rng.standard_normal(n)))
        want = float(np.sqrt(np.mean((v * w) ** 2)))
        assert float.hex(wrms(v, w)) == float.hex(want)


def test_newton_scalar_quadratic():
    # the Jacobian stays frozen at x = 3, so the error contracts by
    # |1 - 2*2/6| = 1/3 per iteration: about 20 to reach the 3e-10 update
    root, it = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]),
                            lambda x: np.array([[2.0 * x[0]]]),
                            np.array([3.0]), max_iter=40)
    assert root[0] == pytest.approx(2.0, abs=1e-8)
    assert it <= 25


def test_newton_modified_linear_system_one_iteration():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    root, it = newton_solve(lambda x: A @ x - b, lambda x: A,
                            np.zeros(2))
    assert np.allclose(A @ root, b)
    assert it == 2  # one exact update plus the zero-update confirmation


def test_newton_divergence_raises():
    with pytest.raises(NewtonFailure):
        newton_solve(lambda x: np.array([np.exp(x[0])]),
                     lambda x: np.array([[np.exp(x[0])]]),
                     np.array([0.0]), max_iter=5)


def test_newton_counters():
    stats = StepStats()
    newton_solve(lambda x: np.array([x[0] - 1.0]),
                 lambda x: np.array([[1.0]]),
                 np.array([0.0]), stats=stats)
    assert stats.newton_iters == stats.linear_solves == 2
