import math
import re

import numpy as np
import pytest

from mrisr import problems
from mrisr.errors import PreconditionError
from mrisr.problems import (PROBLEMS, BrusselatorParams, brusselator_problem,
                            kpr_exact, kpr_problem, make_problem)


def _kpr_rhs_exact(t, beta=20.0):
    # time derivative of the analytic solution
    u, v = kpr_exact(t)
    return np.array([-beta * math.sin(beta * t) / (2.0 * u),
                     -math.sin(t) / (2.0 * v)])


def test_kpr_partition_residual_on_exact_solution():
    p = kpr_problem()
    rng = np.random.default_rng(42)
    ts = rng.uniform(0.0, 5.0 * math.pi / 2.0, 1000)
    worst = 0.0
    for t in ts:
        y = np.array(kpr_exact(t))
        rhs = p.fF(t, y) + p.fE(t, y) + p.fI(t, y)
        worst = max(worst, float(np.max(np.abs(rhs - _kpr_rhs_exact(t)))))
    assert worst < 1e-12


def test_kpr_initial_and_final_values():
    u0, v0 = kpr_exact(0.0)
    assert u0 == pytest.approx(2.0) and v0 == pytest.approx(math.sqrt(3.0))
    p = kpr_problem()
    assert p.y0 == pytest.approx([2.0, math.sqrt(3.0)])
    uT, vT = kpr_exact(5.0 * math.pi / 2.0)
    # beta = 20 puts cos(beta T) = cos(50 pi) = 1 at the endpoint
    assert uT == pytest.approx(2.0, abs=1e-12)
    assert vT == pytest.approx(math.sqrt(2.0), abs=1e-12)


def _reference_kpr():
    """The KPR callbacks as first written, on the numpy scalars that
    unpacking an array gives; kept as the bitwise reference for the
    callbacks on Python floats."""
    lamF, lamS = problems.KPR_LAMBDA_F, problems.KPR_LAMBDA_S
    L12 = (1.0 - problems.KPR_EPS) / problems.KPR_ALPHA * (lamF - lamS)
    L21 = -problems.KPR_ALPHA * problems.KPR_EPS * (lamF - lamS)
    beta = problems.KPR_BETA

    def g(t, y):
        u, v = y
        return ((-3.0 + u * u - math.cos(beta * t)) / (2.0 * u),
                (-2.0 + v * v - math.cos(t)) / (2.0 * v))

    def fF(t, y):
        g1, g2 = g(t, y)
        return np.array([lamF * g1 + L12 * g2
                         - beta * math.sin(beta * t) / (2.0 * y[0]), 0.0])

    def fI(t, y):
        g1, g2 = g(t, y)
        return np.array([0.0, L21 * g1 + lamS * g2])

    def fE(t, y):
        return np.array([0.0, -math.sin(t) / (2.0 * y[1])])

    def jacI(t, y):
        u, v = y
        dg1 = 0.5 + (3.0 + math.cos(beta * t)) / (2.0 * u * u)
        dg2 = 0.5 + (2.0 + math.cos(t)) / (2.0 * v * v)
        return np.array([[0.0, 0.0], [L21 * dg1, lamS * dg2]])

    return dict(fF=fF, fE=fE, fI=fI, jacI=jacI)


def test_kpr_callbacks_match_numpy_scalar_reference_bitwise():
    p = kpr_problem()
    ref = _reference_kpr()
    rng = np.random.default_rng(11)
    states = [np.array([-1.3, 0.8]), np.array([2.1, -0.4])]
    states += [rng.uniform(-3.0, 3.0, 2) for _ in range(400)]
    for y in states:
        t = rng.uniform(0.0, 5.0 * math.pi / 2.0)
        for f in ("fF", "fE", "fI", "jacI"):
            assert getattr(p, f)(t, y).tobytes() == ref[f](t, y).tobytes(), \
                (y, t, f)


def _fd_jac(f, t, y, h=1e-7):
    n = len(y)
    J = np.zeros((n, n))
    f0 = np.asarray(f(t, y), dtype=float)
    for j in range(n):
        yp = np.array(y, dtype=float)
        yp[j] += h
        J[:, j] = (np.asarray(f(t, yp), dtype=float) - f0) / h
    return J


def test_kpr_jacobian_matches_fd():
    p = kpr_problem()
    t, y = 0.7, np.array([1.9, 1.6])
    assert np.allclose(p.jacI(t, y), _fd_jac(p.fI, t, y), atol=1e-6)


@pytest.mark.parametrize("variant", ["fixed", "time-varying"])
def test_brusselator_jacobian_matches_fd(variant):
    pr = BrusselatorParams(N=9, variant=variant)
    p = brusselator_problem(pr)
    t, y = 0.3, p.y0
    J = p.jacI(t, y).to_dense()
    assert np.allclose(J, _fd_jac(p.fI, t, y), atol=1e-4)
    assert p.jacI(t, y).ml == 1 and p.jacI(t, y).mu == 1


def _loop_brusselator_jacobian(alpha, N):
    """The band of alpha * lap as jacI used to build it, one block per
    species, kept as the reference for the scaled precomputed pattern."""
    dx = 1.0 / (N - 1)
    stencil = np.array([1.0, -2.0, 1.0]) / dx ** 2
    data = np.zeros((3, 3 * N))
    for lo in (0, N, 2 * N):
        data[0, lo + 2:lo + N] = alpha * stencil[2]
        data[1, lo + 1:lo + N - 1] = alpha * stencil[1]
        data[2, lo:lo + N - 2] = alpha * stencil[0]
    return data


@pytest.mark.parametrize("variant", ["fixed", "time-varying"])
def test_brusselator_jacobian_is_the_loop_band_bitwise(variant):
    N = 101
    p = brusselator_problem(BrusselatorParams(N=N, variant=variant))
    for t in np.linspace(0.0, 3.0, 97):
        alpha = (6e-5 + 5e-5 * math.cos(math.pi * t)
                 if variant == "time-varying" else 1e-2)
        got = p.jacI(t, p.y0).data
        assert got.tobytes() == _loop_brusselator_jacobian(alpha, N).tobytes()


def test_direct_tv_brusselator_equals_registry():
    # the variant alone fixes the coefficients: built directly, the
    # time-varying problem is the registry's, bit for bit
    pd = brusselator_problem(BrusselatorParams(N=101, variant="time-varying"))
    pr = make_problem("brusselator-tv-101")
    assert pd.name == pr.name and np.array_equal(pd.y0, pr.y0)
    y = pr.y0 * (1.0 + 0.05 * np.sin(np.arange(len(pr.y0))))
    for t in (0.0, 0.37, 1.3):
        for f in ("fF", "fE", "fI"):
            assert getattr(pd, f)(t, y).tobytes() == \
                getattr(pr, f)(t, y).tobytes()
        assert pd.jacI(t, y).data.tobytes() == pr.jacI(t, y).data.tobytes()


def _reference_brusselator(N, variant):
    """The brusselator fF, fE and fI as first written: the state viewed as
    rows u, v, w, the stencils on interior columns, and every row of fF
    scaled by r(t) on its own; kept as the bitwise reference for the
    callbacks on contiguous buffers."""
    tv = variant == "time-varying"
    a, b, eps = {"fixed": (0.6, 2.0, 1e-2),
                 "time-varying": (1.0, 3.5, 1e-3)}[variant]
    dx = 1.0 / (N - 1)

    def coef(fixed):
        return lambda t: 6e-5 + 5e-5 * math.cos(math.pi * t) if tv else fixed

    alpha_t, rho_t = coef(1e-2), coef(1e-3)

    def r_t(t):
        return 0.6 + 0.5 * math.cos(4.0 * math.pi * t) if tv else 1.0

    def lap(q):
        out = np.zeros((3, N))
        out[:, 1:-1] = (q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]) / dx ** 2
        return out

    def adv(q):
        out = np.zeros((3, N))
        out[:, 1:-1] = (q[:, 2:] - q[:, :-2]) / (2.0 * dx)
        return out

    def fI(t, y):
        return (alpha_t(t) * lap(y.reshape(3, N))).ravel()

    def fE(t, y):
        return (rho_t(t) * adv(y.reshape(3, N))).ravel()

    def fF(t, y):
        u, v, w = y.reshape(3, N)
        r = r_t(t)
        uuv = u * u * v
        wu = w * u
        out = np.empty((3, N))
        out[0] = r * (a - (w - 1.0) * u + uuv)
        out[1] = r * (wu - uuv)
        out[2] = r * ((b - w) / eps - wu)
        out[:, 0] = out[:, -1] = 0.0
        return out.ravel()

    return dict(fF=fF, fE=fE, fI=fI)


@pytest.mark.parametrize("N,variant", [(201, "fixed"),
                                       (101, "time-varying"),
                                       (3, "fixed")])
def test_brusselator_callbacks_match_reference_bitwise(N, variant):
    # the same operations per element on contiguous buffers give the same
    # bits, also where NaN or +-inf sit at interior points or end points
    p = brusselator_problem(BrusselatorParams(N=N, variant=variant))
    ref = _reference_brusselator(N, variant)
    ends = [0, N - 1, N, 2 * N - 1, 2 * N, 3 * N - 1]
    rng = np.random.default_rng(N)
    bad = [math.nan, math.inf, -math.inf]
    for trial in range(24):
        y = p.y0 * (1.0 + 0.5 * rng.standard_normal(len(p.y0)))
        if trial % 3 == 1:
            at = rng.choice([i for i in range(len(p.y0)) if i not in ends],
                            size=min(3, len(p.y0) - 6), replace=False)
            y[at] = bad[:len(at)]
        elif trial % 3 == 2:
            y[ends] = rng.permutation(bad + bad)
        for t in (0.0, 0.37, 1.3, 2.75):
            with np.errstate(all="ignore"):
                for f in ("fF", "fE", "fI"):
                    got = getattr(p, f)(t, y)
                    assert got.tobytes() == ref[f](t, y).tobytes(), \
                        (trial, t, f)


@pytest.mark.parametrize("variant", ["fixed", "time-varying"])
def test_brusselator_callbacks_return_fresh_arrays(variant):
    # step() keeps fF(tn, yn) across stage rows, and the fast solve keeps
    # stage values, so no output may alias y or an earlier output
    p = brusselator_problem(BrusselatorParams(N=11, variant=variant))
    y = p.y0 + 0.1
    for f in (p.fF, p.fE, p.fI):
        first = f(0.3, y)
        second = f(0.3, y)
        assert first.shape == p.y0.shape and first.flags.c_contiguous
        assert not np.shares_memory(first, y)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()


def test_brusselator_boundaries_are_stationary():
    p = brusselator_problem(BrusselatorParams(N=15))
    N = 15
    bd = [0, N - 1, N, 2 * N - 1, 2 * N, 3 * N - 1]
    y = p.y0 + 0.1
    for f in (p.fF, p.fE, p.fI):
        out = f(0.2, y)
        assert np.all(out[bd] == 0.0)


def test_brusselator_time_varying_coefficients():
    pr = BrusselatorParams(N=9, variant="time-varying")
    p = brusselator_problem(pr)
    y = p.y0
    # diffusion coefficient changes sign pattern over half a period
    a0 = p.fI(0.0, y)
    a1 = p.fI(1.0, y)
    # alpha(0) = 1.1e-4, alpha(1) = 1e-5: an 11x ratio
    inner = np.abs(a0) > 0
    assert np.allclose(a0[inner] / a1[inner], 11.0, rtol=1e-12)


def test_brusselator_params_validation():
    with pytest.raises(ValueError):
        BrusselatorParams(N=2)
    with pytest.raises(ValueError):
        BrusselatorParams(variant="chaotic")


@pytest.mark.parametrize("kw,named", [
    (dict(N=2), "N = 2 is not an integer >= 3"),
    (dict(N=50.5), "N = 50.5 is not an integer >= 3"),
    (dict(variant="chaotic"),
     "variant = 'chaotic' is not 'fixed' or 'time-varying'"),
], ids=["N-small", "N-float", "variant"])
def test_brusselator_params_name_the_field(kw, named):
    # these raised bare ValueErrors, and N = 50.5 failed later in linspace
    with pytest.raises(PreconditionError, match=re.escape(named)):
        BrusselatorParams(**kw)


def test_registry():
    assert set(PROBLEMS) == {"kpr", "brusselator-201", "brusselator-801",
                             "brusselator-tv-101"}
    p = make_problem("brusselator-tv-101")
    assert len(p.y0) == 303 and p.name == "brusselator-tv-101"
    assert make_problem("kpr").name == "kpr"
    with pytest.raises(ValueError):
        make_problem("lorenz")
    with pytest.raises(PreconditionError, match="problem = 'lorenz'"):
        make_problem("lorenz")


def test_kpr_params_defaults():
    assert problems.KPR_LAMBDA_F == -10.0 and problems.KPR_BETA == 20.0

