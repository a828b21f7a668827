import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrisr import adaptivity
from mrisr.adaptivity import (HMIN, MMAX, ControllerState, ErrorEstimate,
                              accumulate_fast_error, controller_update,
                              estimate_slow_error, integrate_adaptive)
from mrisr.errors import PreconditionError
from mrisr.integrator import SplitIVP
from mrisr.linalg import BandedMatrix
from mrisr.rk import inner_method
from mrisr.tableau import load_builtin


def _st(**kw):
    base = dict(slow_order=2, fast_order=2)
    base.update(kw)
    return ControllerState(**base)


def test_controller_fixed_point():
    # at-tolerance estimates with safety 1 leave H and M unchanged
    st_ = _st(safety=1.0)
    accept, Hn, Mn = controller_update(st_, ErrorEstimate(1.0, 1.0), 0.2, 8)
    assert accept
    assert Hn == pytest.approx(0.2, rel=1e-14)
    assert Mn == 8


def test_controller_accept_boundary_and_factors():
    st_ = _st()
    accept, Hn, Mn = controller_update(st_, ErrorEstimate(1.0, 1.0), 1.0, 10)
    assert accept and Hn == pytest.approx(0.9) and Mn == 10
    # just over tolerance: reject but the update factors are continuous
    accept, Hn, _ = controller_update(st_, ErrorEstimate(1.0 + 1e-9, 1.0),
                                      1.0, 10)
    assert not accept
    assert Hn == pytest.approx(0.9, rel=1e-6)


def test_controller_slow_error_shrinks_h():
    st_ = _st()
    accept, Hn, Mn = controller_update(st_, ErrorEstimate(2.0, 1.0), 1.0, 10)
    assert not accept
    assert Hn == pytest.approx(0.9 * 2.0 ** (-0.42 / 3.0), rel=1e-12)
    # H shrank while h was happy, so M tracks H down (rounded up on reject)
    assert Mn == math.ceil(10 * Hn / 0.9 - 1e-9)


def test_controller_fast_error_raises_m():
    st_ = _st()
    _, Hn, Mn = controller_update(st_, ErrorEstimate(1.0, 16.0), 1.0, 10)
    assert Hn == pytest.approx(0.9)
    fh = 0.9 * 16.0 ** (-0.44 / 3.0)
    assert Mn == math.ceil(10 * 0.9 / fh - 1e-9)
    assert Mn > 10


def test_controller_growth_and_shrink_clamps():
    st_ = _st()
    _, Hn, _ = controller_update(st_, ErrorEstimate(1e-12, 1e-12), 1.0, 10)
    assert Hn == pytest.approx(5.0)  # grow_limit
    _, Hn, _ = controller_update(st_, ErrorEstimate(1e9, 1e9), 1.0, 10)
    assert Hn == pytest.approx(0.1)  # shrink_limit


def test_controller_nonfinite_rejects():
    accept, Hn, _ = controller_update(_st(), ErrorEstimate(math.inf, 1.0),
                                      1.0, 10)
    assert not accept and Hn < 1.0


def test_controller_m_bounds():
    _, _, Mn = controller_update(_st(), ErrorEstimate(1.0, 1e8), 1.0,
                                 MMAX - 2)
    assert Mn == MMAX == 10 ** 6
    _, _, Mn = controller_update(_st(), ErrorEstimate(1e8, 1e-10), 1.0, 1)
    assert Mn >= 1


def test_controller_underflow_raises():
    # the shrink clamp takes H = 2e-12 to 2e-13, below HMIN = 1e-12; the
    # driver gives the run up on it
    _, Hn, _ = controller_update(_st(), ErrorEstimate(1e9, 1.0), 2e-12, 10)
    assert Hn < HMIN


@given(st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_controller_update_is_scale_free(H, eS, eF):
    # Hnext/H depends only on the error estimates, not on H itself
    st_ = _st()
    _, Hn1, _ = controller_update(st_, ErrorEstimate(eS, eF), H, 10)
    _, Hn2, _ = controller_update(st_, ErrorEstimate(eS, eF), 1.0, 10)
    assert Hn1 / H == pytest.approx(Hn2, rel=1e-12)


def test_controller_state_validation():
    with pytest.raises(ValueError):
        ControllerState(slow_order=2, fast_order=2, safety=0.0)


@pytest.mark.parametrize("safety", [0.0, 1.5, math.nan, True])
def test_controller_state_names_the_field(safety):
    with pytest.raises(PreconditionError, match=f"safety = {safety!r} is not"):
        ControllerState(slow_order=2, fast_order=2, safety=safety)


@pytest.mark.parametrize("field, value", [
    ("slow_order", -1), ("fast_order", -1), ("slow_order", 2.5),
    ("fast_order", True), ("fast_order", None)])
def test_controller_state_checks_its_orders(field, value):
    # at p = -1 the exponent K/(p+1) divides by zero in controller_update;
    # 2.5, True and None are not orders
    with pytest.raises(PreconditionError, match=f"{field} = {value!r} is not"):
        _st(**{field: value})


def test_controller_state_allows_order_zero():
    # method_order reads 0 for a tableau that fails its first-order checks
    st_ = _st(slow_order=0, fast_order=0)
    assert controller_update(st_, ErrorEstimate(1.0, 1.0), 1.0, 10)[0]


def test_estimate_slow_error_pins():
    e = estimate_slow_error([1.0, 2.0], [1.1, 2.2], 0.1, 0.0)
    assert e == pytest.approx(math.sqrt(2.5), rel=1e-14)
    # pure relative weighting uses the larger of the two magnitudes
    e = estimate_slow_error([2.0], [2.2], 0.0, 0.1)
    assert e == pytest.approx(0.2 / 0.22, rel=1e-14)
    assert estimate_slow_error([1.0], [math.nan], 1.0, 0.0) == math.inf
    # a finite difference whose norm overflows, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_slow_error([1e300], [-1e300], 1.0, 0.0) == math.inf


def test_accumulate_fast_error():
    # the worst substep decides: a mean would dilute it
    assert accumulate_fast_error([1.0, 3.0, 2.0]) == 3.0


def _scalar_problem():
    # y' = -2y + cos t split three ways; smooth, mildly stiff
    return SplitIVP(dim=1,
                    fF=lambda t, y: -1.2 * y,
                    fE=lambda t, y: np.array([math.cos(t)]),
                    fI=lambda t, y: -0.8 * y,
                    y0=np.array([1.0]))


def _scalar_exact(t):
    # solve y' = -2y + cos t, y(0) = 1
    return ((2.0 * math.cos(t) + math.sin(t)) / 5.0
            + (1.0 - 2.0 / 5.0) * math.exp(-2.0 * t))


def test_adaptive_error_decreases_with_tolerance():
    p = _scalar_problem()
    t = load_builtin("imex-mri-sr21")
    rk = inner_method("bogacki-shampine")
    errs = []
    for tol in (1e-3, 1e-5, 1e-7):
        rec = integrate_adaptive(p, t, rk, 2.0, tol, sample_points=[2.0])
        assert not rec.failed
        errs.append(abs(rec.y[-1][0] - _scalar_exact(2.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_adaptive_record_contents():
    p = _scalar_problem()
    t = load_builtin("imex-mri-sr32")
    rec = integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0,
                             1e-5, sample_points=[0.5, 1.0])
    assert rec.t == [0.5, 1.0]
    assert rec.accepted >= 2 and not rec.failed
    assert rec.step_log
    row = rec.step_log[0]
    assert list(row) == ["t", "H", "M", "epsS", "epsF", "accepted", "cause"]
    assert rec.stats.implicit_solves > 0


def test_adaptive_requires_embeddings():
    p = _scalar_problem()
    with pytest.raises(PreconditionError):
        integrate_adaptive(p, load_builtin("merk3"),
                           inner_method("bogacki-shampine"), 1.0, 1e-4)
    with pytest.raises(PreconditionError):
        integrate_adaptive(p, load_builtin("imex-mri-sr21"),
                           inner_method("heun"), 1.0, 1e-4)


@pytest.mark.parametrize("M0", [0, -5, 2.7, True])
def test_adaptive_rejects_bad_m0(M0):
    # a bad M0 used to run silently as max(1, int(M0)), and True as 1
    with pytest.raises(PreconditionError, match="positive integer"):
        integrate_adaptive(_scalar_problem(), load_builtin("imex-mri-sr21"),
                           inner_method("bogacki-shampine"), 1.0, 1e-4,
                           M0=M0)


@pytest.mark.parametrize("tol,H0", [
    (-1e-3, None), (0.0, None), (math.nan, None), (math.inf, None),
    (1e-4, 0.0), (1e-4, -0.1), (1e-4, math.nan), (1e-4, math.inf),
    (True, None), (1e-4, True),
], ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf",
        "H0-zero", "H0-negative", "H0-nan", "H0-inf", "tol-bool", "H0-bool"])
def test_adaptive_rejects_bad_tol_and_h0(tol, H0):
    # a negative tol used to run as its absolute value, and a zero or NaN
    # tol or H0 ended in 'rejected 31 times' after 31 wasted steps
    name = "tol" if H0 is None else "H0"
    with pytest.raises(PreconditionError, match=f"{name} = .* positive"):
        integrate_adaptive(_scalar_problem(), load_builtin("imex-mri-sr21"),
                           inner_method("bogacki-shampine"), 1.0, tol,
                           H0=H0)


def test_adaptive_sample_point_validation():
    p = _scalar_problem()
    t = load_builtin("imex-mri-sr21")
    with pytest.raises(ValueError):
        integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0, 1e-4,
                           sample_points=[-0.5, 1.0])
    # a sample point past tEnd would otherwise be dropped silently
    with pytest.raises(PreconditionError):
        integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0, 1e-4,
                           sample_points=[0.5, 2.0])
    # a NaN sample point was dropped silently, and a non-finite tEnd gave
    # an unfailed record holding only t0
    with pytest.raises(PreconditionError, match="sample points"):
        integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0, 1e-4,
                           sample_points=[math.nan, 1.0])
    # a string sample point escaped as a TypeError from sorting
    with pytest.raises(PreconditionError, match="sample points"):
        integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0, 1e-4,
                           sample_points=["0.5", 1.0])
    for tEnd in (math.nan, math.inf):
        with pytest.raises(PreconditionError,
                           match=f"tEnd = {tEnd} is not a finite number"):
            integrate_adaptive(p, t, inner_method("bogacki-shampine"), tEnd,
                               1e-4)


def test_adaptive_takes_any_iterable_of_sample_points():
    # an array used to raise numpy's bare 'truth value ... is ambiguous'
    # ValueError
    p = _scalar_problem()
    t, rk = load_builtin("imex-mri-sr32"), inner_method("bogacki-shampine")
    want = integrate_adaptive(p, t, rk, 1.0, 1e-5, sample_points=[0.5, 1.0])
    for points in (np.array([0.5, 1.0]), (0.5, 1.0), iter([0.5, 1.0])):
        got = integrate_adaptive(p, t, rk, 1.0, 1e-5, sample_points=points)
        assert got.t == want.t
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.y, want.y))


def test_adaptive_reports_repeated_rejection():
    # an implicit part that always produces NaN can never be accepted
    p = SplitIVP(dim=1, fF=lambda t, y: 0.0 * y, fE=lambda t, y: 0.0 * y,
                 fI=lambda t, y: np.array([math.nan]), y0=np.array([1.0]))
    t = load_builtin("imex-mri-sr21")
    rec = integrate_adaptive(p, t, inner_method("bogacki-shampine"), 1.0,
                             1e-4)
    assert rec.failed and "rejected" in rec.failure
    assert rec.rejected == adaptivity.MAX_REJECTS + 1 and rec.accepted == 0
    assert len(rec.step_log) == rec.rejected
    assert not any(e["accepted"] for e in rec.step_log)


def test_adaptive_oscillation_fails_the_run(monkeypatch):
    # a controller that alternates accept and reject at a fixed H ends the
    # run with a failed record after OSCILLATION_CAP alternations
    calls = []

    def alternate(st, est, H, M):
        calls.append(H)
        return len(calls) % 2 == 1, H, M

    monkeypatch.setattr(adaptivity, "controller_update", alternate)
    rec = integrate_adaptive(_scalar_problem(), load_builtin("imex-mri-sr21"),
                             inner_method("bogacki-shampine"), 1.0, 1e-4,
                             H0=1e-3, M0=2)
    assert rec.failed and "50 consecutive accept/reject alternations" \
        in rec.failure
    assert len(calls) == adaptivity.OSCILLATION_CAP + 1
    # the 51st attempt, an accept, is the one given up on: it counts as
    # rejected, and every attempt has one log entry
    assert (rec.accepted, rec.rejected) == (25, 26)
    assert len(rec.step_log) == rec.accepted + rec.rejected
    assert rec.step_log[-1]["accepted"] == 0
    assert rec.stats.fast_f_evals > 0 and rec.stats.implicit_solves > 0


def test_adaptive_step_size_underflow_logs_and_counts_the_attempt(
        monkeypatch):
    # the attempt whose controller update falls below HMIN is logged and
    # counted as rejected, like the other two give-ups
    calls = []

    def underflow_third(st, est, H, M):
        calls.append(H)
        return True, (HMIN / 2 if len(calls) == 3 else H), M

    monkeypatch.setattr(adaptivity, "controller_update", underflow_third)
    rec = integrate_adaptive(_scalar_problem(), load_builtin("imex-mri-sr21"),
                             inner_method("bogacki-shampine"), 1.0, 1e-4,
                             H0=1e-3, M0=2)
    assert rec.failed and "Hmin" in rec.failure
    assert (rec.accepted, rec.rejected) == (2, 1)
    assert len(rec.step_log) == 3
    assert rec.step_log[-1]["accepted"] == 0


def test_adaptive_rejects_singular_stage_matrix_and_goes_on():
    # I - H*gamma_22*J is exactly 0 for SR21 at H0 = 0.1: that attempt is
    # rejected and the run continues with a smaller step
    J = np.array([[1.0 / (0.1 * 11 / 23)]])
    p = SplitIVP(dim=1, fF=lambda t, y: 0.0 * y, fE=lambda t, y: 0.0 * y,
                 fI=lambda t, y: J @ y, jacI=lambda t, y: J,
                 y0=np.array([1.0]))
    rec = integrate_adaptive(p, load_builtin("imex-mri-sr21"),
                             inner_method("bogacki-shampine"), 0.2, 1e-2,
                             H0=0.1, M0=2)
    assert not rec.failed, rec.failure
    first = rec.step_log[0]
    assert first["H"] == 0.1 and not first["accepted"]
    assert math.isinf(first["epsS"])
    assert first["cause"].startswith("stage 2")
    assert rec.accepted > 0 and rec.t[-1] == 0.2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
def test_adaptive_rejects_nonfinite_jacobian_and_goes_on(banded, bad):
    # jacI's first value is non-finite: that attempt is rejected, no
    # exception leaves the driver, and the run goes on
    values = [bad]

    def jacI(t, y):
        J = np.array([[values.pop() if values else -1.0]])
        return BandedMatrix(ml=0, mu=0, data=J) if banded else J

    p = SplitIVP(dim=1, fF=lambda t, y: 0.0 * y, fE=lambda t, y: 0.0 * y,
                 fI=lambda t, y: -y, jacI=jacI, y0=np.array([1.0]))
    rec = integrate_adaptive(p, load_builtin("imex-mri-sr21"),
                             inner_method("bogacki-shampine"), 0.2, 1e-2,
                             H0=0.1, M0=2)
    assert not rec.failed, rec.failure
    first = rec.step_log[0]
    assert first["H"] == 0.1 and not first["accepted"]
    assert math.isinf(first["epsS"])
    assert rec.accepted > 0 and rec.t[-1] == 0.2


@pytest.fixture(scope="module")
def brusselator_tv_ref():
    from scipy.integrate import solve_ivp
    from mrisr.problems import make_problem
    p = make_problem("brusselator-tv-101")
    rhs = lambda s, y: p.fF(s, y) + p.fE(s, y) + p.fI(s, y)
    sol = solve_ivp(rhs, (0.0, 3.0), np.array(p.y0, dtype=float),
                    method="Radau", t_eval=[3.0], rtol=1e-12, atol=1e-14)
    assert sol.status == 0
    return p, sol.y[:, -1]


@pytest.mark.parametrize("scale", [1 - 1e-12, 1 + 1e-12, 1 - 1e-8, 1 + 1e-8])
def test_adaptive_tolerance_sweep_robust_to_h0(brusselator_tv_ref, scale):
    # The criterion-8 sweep with H0 moved in its last bits. Whether a step
    # whose inner method is unstable on a few substeps gets accepted must
    # not hinge on rounding; when it does, the error stops falling with tol
    # at some of these H0.
    p, ref = brusselator_tv_ref
    t = load_builtin("imex-mri-sr21")
    rk = inner_method("bogacki-shampine")
    errs, fast_evals, solves = [], [], []
    for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        rec = integrate_adaptive(p, t, rk, 3.0, tol, sample_points=[3.0],
                                 H0=1e-3 * scale, M0=10)
        assert not rec.failed, rec.failure
        errs.append(float(np.max(np.abs(rec.y[-1] - ref))))
        fast_evals.append(rec.stats.fast_f_evals)
        solves.append(rec.stats.implicit_solves)
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-2 * errs[0]
    assert fast_evals[-1] > fast_evals[0] and solves[-1] > solves[0]
