import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrisr import linalg
from mrisr.errors import StepFailure
from mrisr.integrator import StepStats
from mrisr.linalg import (BandedMatrix, Factorization, NewtonState,
                          newton_solve, shifted_jacobian, wrms)


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
    with pytest.raises(StepFailure):
        Factorization(np.zeros((3, 3))).solve(np.ones(3))


def test_singular_banded_raises():
    data = np.zeros((3, 4))
    with pytest.raises(StepFailure):
        Factorization(BandedMatrix(ml=1, mu=1, data=data)).solve(np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
def test_nonfinite_matrix_raises(banded, bad):
    rng = np.random.default_rng(3)
    B = _random_banded(5, 1, 1, rng)
    B.data[1, 2] = bad
    with pytest.raises(StepFailure):
        Factorization(B if banded else B.to_dense())


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


def test_newton_scalar_quadratic(monkeypatch):
    # the Jacobian stays frozen at x = 3, so the error contracts by
    # |1 - 2*2/6| = 1/3 per iteration: about 20 to reach the 3e-10 update
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 40)
    stats = StepStats()
    root = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]),
                        Factorization(np.array([[6.0]])), np.array([3.0]),
                        stats)
    assert root[0] == pytest.approx(2.0, abs=1e-8)
    assert stats.newton_iters <= 25


def test_newton_modified_linear_system_one_iteration():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    stats = StepStats()
    root = newton_solve(lambda x: A @ x - b, Factorization(A), np.zeros(2),
                        stats)
    assert np.allclose(A @ root, b)
    # one exact update plus the zero-update confirmation
    assert stats.newton_iters == 2


def test_newton_divergence_raises(monkeypatch):
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 5)
    with pytest.raises(StepFailure):
        newton_solve(lambda x: np.array([np.exp(x[0])]),
                     Factorization(np.array([[1.0]])), np.array([0.0]),
                     StepStats())


def test_newton_stops_at_the_first_update_that_grows():
    # the frozen Jacobian 1 of 3x - 3 gives x_(k+1) = 3 - 2 x_k: each update
    # is -2 times the last, so the second update ends the solve as diverged
    # instead of running on to max_iter
    stats, state = StepStats(), NewtonState()
    with pytest.raises(StepFailure, match="^Newton iteration diverged$"):
        newton_solve(lambda x: 3.0 * x - 3.0, Factorization(np.eye(1)),
                     np.zeros(1), stats, state=state)
    assert stats.newton_iters == 2 and state.eta == np.inf


def test_newton_stops_when_two_update_norms_overflow():
    # the same iteration scaled by 1e200: the weights 1e12 of the guess 0
    # overflow both update norms, and their ratio inf/inf = NaN ends the
    # solve as diverged, as a growing update does
    stats, state = StepStats(), NewtonState()
    with pytest.raises(StepFailure, match="^Newton iteration diverged$"):
        newton_solve(lambda x: 3.0 * x - 3e200, Factorization(np.eye(1)),
                     np.zeros(1), stats, state=state)
    assert stats.newton_iters == 2 and state.eta == np.inf


def test_newton_counters():
    stats = StepStats()
    newton_solve(lambda x: np.array([x[0] - 1.0]),
                 Factorization(np.array([[1.0]])), np.array([0.0]), stats)
    assert stats.newton_iters == 2


def _jacobians(banded):
    rng = np.random.default_rng(3)
    J1, J2 = _random_banded(6, 1, 1, rng), _random_banded(6, 1, 1, rng)
    J1.data[0, 0] = J1.data[2, 5] = 0.0  # outside the matrix
    if not banded:
        J1, J2 = J1.to_dense(), J2.to_dense()
    return J1, J2


def _like(J, data):
    if isinstance(J, BandedMatrix):
        return BandedMatrix(ml=J.ml, mu=J.mu, data=data)
    return data


@pytest.mark.parametrize("banded", [False, True])
def test_newton_state_reuses_only_a_bit_equal_stage_matrix(banded):
    J1, _ = _jacobians(banded)
    data = J1.data if banded else J1
    state, stats = NewtonState(), StepStats()
    fac = state.factor(J1, 0.25, stats)
    state.eta = 1e-6
    # a fresh object with the same bits and the same scale: reused
    assert state.factor(_like(J1, data.copy()), 0.25, stats) is fac
    assert stats.factorizations == 1 and state.eta == 1e-6
    # another scale, one entry a bit off, a -0.0 for a +0.0, another
    # storage: each is factored again and the contraction estimate reset
    nudged, signed = data.copy(), data.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], np.inf)
    zero = (0, 0) if banded else (0, 2)
    assert signed[zero] == 0.0
    signed[zero] = -0.0
    other = J1.to_dense() if banded else BandedMatrix(5, 5, np.zeros((11, 6)))
    # (each matrix is compared with the one just before it)
    for J, scale in ((J1, 0.5), (_like(J1, signed), 0.5), (J1, 0.5),
                     (_like(J1, nudged), 0.5), (other, 0.5)):
        n = stats.factorizations
        state.eta = 1e-6
        state.factor(J, scale, stats)
        assert stats.factorizations == n + 1 and state.eta == 1.0


def test_newton_state_sees_a_jacobian_changed_in_place():
    # a jacI may hand back one array it updates in place: the cache keeps
    # its own copy, so the change is seen
    J = np.array([[-1.0, 0.5], [0.0, -2.0]])
    state, stats = NewtonState(), StepStats()
    state.factor(J, 0.1, stats)
    J[0, 0] = -3.0
    fac = state.factor(J, 0.1, stats)
    assert stats.factorizations == 2
    rhs = np.array([1.0, 2.0])
    want = Factorization(shifted_jacobian(J, 0.1)).solve(rhs)
    assert fac.solve(rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("banded", [False, True])
def test_newton_state_alternating_matrices_match_fresh_factorizations(
        banded):
    J1, J2 = _jacobians(banded)
    state, stats = NewtonState(), StepStats()
    rhs = np.arange(1.0, 7.0)
    for k in range(6):
        J = (J1, J2)[k % 2]
        got = state.factor(J, 0.3, stats).solve(rhs)
        want = Factorization(shifted_jacobian(J, 0.3)).solve(rhs)
        assert got.tobytes() == want.tobytes()
    assert stats.factorizations == 6


def test_newton_contraction_stop_skips_the_confirming_update():
    # a linear system: the first update is exact, and the second only
    # confirms it. The first solve measures the contraction; later solves
    # with the same factorization stop after their first update.
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    state, stats = NewtonState(), StepStats()
    fac = state.factor(np.eye(2) - A, 1.0, stats)  # I - (I - A) = A
    roots = []
    for b in ([1.0, 2.0], [2.0, -1.0], [0.5, 0.25]):
        b = np.array(b)
        roots.append(newton_solve(lambda x: A @ x - b, fac, np.zeros(2),
                                  stats, state=state))
        assert np.allclose(A @ roots[-1], b)
    assert stats.newton_iters == 2 + 1 + 1
    assert state.eta < 1e-3
    # a new factorization forgets the estimate: two updates again
    fac = state.factor(2.0 * (np.eye(2) - A), 0.5, stats)
    newton_solve(lambda x: A @ x - b, fac, np.zeros(2), stats, state=state)
    assert stats.newton_iters == 4 + 2


def test_newton_contraction_stop_keeps_the_update_test(monkeypatch):
    # a slowly contracting iteration: the carried estimate never lets a
    # solve stop later than |delta| <= 1 would
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 40)
    stats, state = StepStats(), NewtonState()
    fac = Factorization(np.array([[6.0]]))
    newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), fac,
                 np.array([3.0]), stats, state=state)
    plain = StepStats()
    newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), fac,
                 np.array([3.0]), plain)
    assert 0.0 < state.eta < 1.0
    assert stats.newton_iters == plain.newton_iters


def test_import_does_not_load_scipy_linalg():
    # the benchmark's setup time imports mrisr.harness; scipy.linalg and
    # scipy.integrate load only when a factorization or a reference needs
    # them, and scipy itself when its version is recorded
    code = ("import sys, mrisr, mrisr.harness, mrisr.cli; "
            "print([m for m in ('scipy', 'scipy.linalg', 'scipy.integrate') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
