import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mrisr import integrator, linalg
from mrisr.errors import PreconditionError, StepFailure
from mrisr.integrator import (IntegrationRecord, SplitIVP, StepStats,
                              integrate_fixed, solve_fast_ivp, step)
from mrisr.linalg import BandedMatrix, NewtonState, wrms
from mrisr.rk import INNER_METHODS, inner_method
from mrisr.tableau import BUILTIN_NAMES, load_builtin


def _linear_problem(lamF=-4.0, lamE=-0.9, lamI=-1.7):
    return SplitIVP(dim=1,
                    fF=lambda t, y: lamF * y,
                    fE=lambda t, y: lamE * y,
                    fI=lambda t, y: lamI * y,
                    y0=np.array([1.0]))


def _nonstiff_problem():
    # y' = -y (fast) + cos t (explicit) + -0.5 y (implicit)
    return SplitIVP(dim=1,
                    fF=lambda t, y: -1.0 * y,
                    fE=lambda t, y: np.array([math.cos(t)]),
                    fI=lambda t, y: -0.5 * y,
                    y0=np.array([1.0]))


def _dirk_step(t, lams, H, y0=1.0):
    """Zero-fast limit: the slow update reduces to the base IMEX pair."""
    from mrisr.theory import base_ark
    ark = base_ark(t)
    s = len(ark.c)
    AE = np.array([[float(x) for x in r] for r in ark.AE])
    AI = np.array([[float(x) for x in r] for r in ark.AI])
    zE, zI = lams[0] * H, lams[1] * H
    Y = np.linalg.solve(np.eye(s) - zE * AE - zI * AI, np.full(s, y0))
    return Y[-1]


_INNER_BY = {2: "heun", 3: "bogacki-shampine", 4: "zonneveld"}


def _inner_for(name):
    from mrisr.theory import method_order
    p = method_order(load_builtin(name), 6)
    return inner_method(_INNER_BY[min(p, 4)])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_zero_fast_limit_matches_base_imex_pair(name):
    # fF = 0 collapses the fast solves; the step is the base ARK pair,
    # provided the inner method integrates the tendency polynomials exactly
    t = load_builtin(name)
    inner = {1: "heun", 2: "heun", 3: "bogacki-shampine",
             4: "zonneveld"}[t.n_omega]
    lamE, lamI = -0.8, -1.1
    p = SplitIVP(dim=1, fF=lambda tt, y: 0.0 * y,
                 fE=lambda tt, y: lamE * y, fI=lambda tt, y: lamI * y,
                 y0=np.array([1.0]))
    H = 0.3
    y1, _, _ = step(p, t, inner_method(inner), p.y0, 0.0, H, 3,
                    stats=StepStats())
    assert y1[0] == pytest.approx(_dirk_step(t, (lamE, lamI), H), abs=1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_convergence_order_on_linear_problem(name):
    t = load_builtin(name)
    inner = _inner_for(name)
    from mrisr.theory import method_order
    p_ord = method_order(t, inner.order)
    prob = _linear_problem()
    lam = -4.0 - 0.9 - 1.7
    exact = math.exp(lam * 1.0)
    errs = []
    Hs = [0.1 * 2.0 ** (-k) for k in range(4)]
    for H in Hs:
        rec = integrate_fixed(prob, t, inner, 1.0, H, 10)
        errs.append(abs(rec.y[-1][0] - exact))
    slope = np.polyfit(np.log(Hs), np.log(errs), 1)[0]
    assert slope > p_ord - 0.5


def test_fast_limit_exponential():
    # pure fast problem: the step reduces to M inner-RK substeps of y' = -y
    t = load_builtin("imex-mri-sr21")
    p = SplitIVP(dim=1, fF=lambda tt, y: -1.0 * y,
                 fE=lambda tt, y: 0.0 * y, fI=lambda tt, y: 0.0 * y,
                 y0=np.array([1.0]))
    y1, _, _ = step(p, t, inner_method("zonneveld"), p.y0, 0.0, 1.0, 50,
                    stats=StepStats())
    assert y1[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_solve_fast_ivp_polynomial_forcing_exact():
    # v' = 3 theta^2 with fF = 0 is integrated exactly by a third-order RK
    p = SplitIVP(dim=1, fF=lambda tt, y: 0.0 * y,
                 fE=lambda tt, y: 0.0 * y, fI=lambda tt, y: 0.0 * y,
                 y0=np.array([0.0]))
    v0 = np.array([0.0])
    v, errs = solve_fast_ivp(p, np.array([[0.0], [0.0], [3.0]]), 1.0, 0.0,
                             1.0, v0, p.fF(0.0, v0),
                             inner_method("bogacki-shampine"), 4, StepStats())
    assert v[0] == pytest.approx(1.0, abs=1e-14)
    assert errs == []  # no error weights given


def _reference_fast_ivp(p, coeffs, scale, tn, span, v0, inner, n_sub,
                        err_weights=None):
    """The fast solve as it was first written: a Horner closure per stage
    call, every stage of every substep evaluated, and
    sqrt(mean((d * w)^2)) for the error norms."""
    nk = coeffs.shape[0]

    def forcing(theta):
        tau = theta / span
        acc = coeffs[nk - 1].copy()
        for k in range(nk - 2, -1, -1):
            acc *= tau
            acc += coeffs[k]
        acc *= scale
        return acc

    A, b, c, bhat = inner.floats
    sF = len(b)
    h = span / n_sub
    v = np.array(v0, dtype=float)
    want_err = err_weights is not None and bhat is not None
    errs = []
    K = np.empty((sF, len(v)))
    for m in range(n_sub):
        theta0 = m * h
        for q in range(sF):
            vq = v.copy()
            for r in range(q):
                a = A[q, r]
                if a != 0.0:
                    vq += (h * a) * K[r]
            th = theta0 + c[q] * h
            K[q] = p.fF(tn + th, vq) + forcing(th)
        v = v + h * (b @ K)
        if want_err:
            d = h * ((b - bhat) @ K)
            errs.append(float(np.sqrt(np.mean((d * err_weights) ** 2))))
    return v, errs


def _nonlinear_fast_problem(calls):
    def fF(tt, y):
        calls.append(tt)
        return -2.0 * y * math.cos(3.0 * tt) + 0.5 * np.sin(y[::-1])

    return SplitIVP(dim=3, fF=fF, fE=fF, fI=fF, y0=np.zeros(3))


@pytest.mark.parametrize("budget", [None, 1, 40])
@pytest.mark.parametrize("nk", [1, 2, 4])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("inner_name",
                         ["heun", "bogacki-shampine", "zonneveld",
                          "cash-karp"])
def test_solve_fast_ivp_matches_reference_loop(monkeypatch, inner_name,
                                               weighted, nk, budget):
    # the one-pass forcing, the shared first stage and the skipped
    # zero-weight stages change no bit of the state or the error norms,
    # also when the substeps are split over several forcing blocks
    from mrisr import integrator
    if budget is not None:
        monkeypatch.setattr(integrator, "_FORCING_BLOCK", budget)
    rng = np.random.default_rng(nk)
    calls = []
    p = _nonlinear_fast_problem(calls)
    inner = inner_method(inner_name)
    coeffs = rng.standard_normal((nk, 3))
    v0 = np.array([0.8, -0.4, 1.3])
    tn, span, scale, n_sub = 0.3, 0.7, 1.0 / 0.35, 7
    w = 1.0 / (1e-3 * (1.0 + np.abs(v0))) if weighted else None
    want, want_errs = _reference_fast_ivp(p, coeffs, scale, tn, span, v0,
                                          inner, n_sub, w)
    stats = StepStats()
    f0 = p.fF(tn, v0)
    del calls[:]
    got, errs = solve_fast_ivp(p, coeffs, scale, tn, span, v0, f0, inner,
                               n_sub, stats, w)
    assert got.tobytes() == want.tobytes()
    assert errs == want_errs
    assert len(errs) == (n_sub if weighted and inner.bhat is not None else 0)
    assert stats.fast_f_evals == len(calls)


def _reference_step_fast(p, coeffs, scale, tn, span, v0, f0, inner, n_sub,
                         stats, err_weights=None):
    """solve_fast_ivp as it was before the cached stage plans: the stage
    structure rebuilt from inner.floats at every call, and theta and
    tn + theta formed as numpy arrays."""
    A, b, c, bhat = inner.floats
    sF = len(b)
    h = span / n_sub
    v = np.array(v0, dtype=float)
    want_err = err_weights is not None and bhat is not None
    if want_err:
        db = b - bhat
        n_stages = sF
    else:
        n_stages = int(np.flatnonzero(b)[-1]) + 1
    ch = (c[:n_stages] * h)[None, :]
    errs = []
    K = np.zeros((sF, len(v)))
    ha = h * A
    terms = [(K[q], [(K[r], ha[q, r]) for r in range(q) if A[q, r] != 0.0])
             for q in range(1, n_stages)]
    block = max(1, integrator._FORCING_BLOCK // (n_stages * len(v)))
    calls = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for m0 in range(0, n_sub, block):
                m1 = min(n_sub, m0 + block)
                theta = (np.arange(m0, m1)[:, None] * h + ch).ravel()
                g = integrator._forcing(coeffs, scale, span, theta)
                ts = (tn + theta).tolist()
                j = 0
                for m in range(m0, m1):
                    f = f0 if m == 0 else p.fF(ts[j], v)
                    np.add(f, g[j], out=K[0])
                    for Kq, tq in terms:
                        j += 1
                        vq = v
                        for Kr, a in tq:
                            vq = vq + a * Kr
                        np.add(p.fF(ts[j], vq), g[j], out=Kq)
                    j += 1
                    calls += n_stages - (m == 0)
                    v = v + h * (b @ K)
                    if not np.logical_and.reduce(np.isfinite(v)):
                        raise StepFailure(
                            f"non-finite fast state at substep "
                            f"{m + 1}/{n_sub}")
                    if want_err:
                        errs.append(wrms(h * (db @ K), err_weights))
    finally:
        stats.fast_f_evals += calls
    return v, errs


def _reference_step(p, t, inner, yn, tn, H, M, stats, err_weights=None):
    """step() as it was before the cached stage plans: the stage rows
    sliced from t.floats at every call, with numpy-scalar coefficients."""
    state = NewtonState()
    c, omega, gamma, emb_omega, emb_gamma = t.floats
    s = t.s
    rows = [(c[i], omega[:, i, :i], gamma[i, :i], gamma[i, i])
            for i in range(1, s)]
    if err_weights is not None and t.has_embedding:
        rows.append((1.0, emb_omega[:, :s - 1], emb_gamma[:s - 1],
                     emb_gamma[s - 1]))
    yn = np.asarray(yn, dtype=float)
    Y = [yn]
    fast_errs = []
    fI = []
    F = []
    f0 = None
    ts = tn
    for i, (ci, om, gam, gii) in enumerate(rows, start=1):
        if len(F) < len(gam):
            fEj = np.asarray(p.fE(ts, Y[-1]), dtype=float)
            fIj = np.asarray(p.fI(ts, Y[-1]), dtype=float)
            stats.slow_e_evals += 1
            stats.slow_i_evals += 1
            fI.append(fIj)
            F.append(fEj + fIj)
        try:
            if ci > 0.0:
                coeffs = np.zeros((len(om), p.dim))
                for k in range(len(om)):
                    for j, w in enumerate(om[k]):
                        if w != 0.0:
                            coeffs[k] += w * F[j]
                if f0 is None:
                    f0 = p.fF(tn, yn)
                    stats.fast_f_evals += 1
                n_i = max(1, math.ceil(ci * M))
                v, errs = _reference_step_fast(p, coeffs, 1.0 / ci, tn,
                                               ci * H, yn, f0, inner, n_i,
                                               stats, err_weights)
                fast_errs += errs
            else:
                v = yn.copy()
            base = v
            for j, g in enumerate(gam):
                if g != 0.0:
                    base = base + (H * g) * fI[j]
            ts = tn + ci * H
            Yi = integrator.implicit_stage_solve(p, base, gii, ts, H, stats,
                                                 state)
        except StepFailure as e:
            where = f"stage {i + 1}" if i < s else "embedding pass"
            raise StepFailure(f"{where}: {e}") from e
        Y.append(Yi)
    yhat = Y[s] if len(Y) > s else None
    return Y[s - 1], yhat, fast_errs


def _outcome(run):
    """(y1 bytes, yhat bytes, fast errors) of a step, or its failure."""
    try:
        y1, yhat, errs = run()
    except StepFailure as e:
        return "failed", str(e)
    return y1.tobytes(), None if yhat is None else yhat.tobytes(), errs


# (H, M) of a step every pair takes, and of one that fails for some pairs
_STEP_SIZES = {"kpr": ((0.04, 3), (0.5, 1)),
               "brusselator-tv-101": ((2e-3, 4), (0.05, 1))}


@pytest.mark.parametrize("problem", sorted(_STEP_SIZES))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_step_matches_reference_step(name, problem):
    # the cached stage rows and inner plans change no bit of y1, yhat or
    # the fast error norms, nor any counter, nor the failure of a step
    # that fails
    from mrisr.problems import make_problem
    p = make_problem(problem)
    t = load_builtin(name)
    y0 = np.array(p.y0, dtype=float) * 1.01
    w = 1.0 / (1e-3 * (1.0 + np.abs(y0)))
    outcomes = []
    for inner_name in INNER_METHODS:
        inner = inner_method(inner_name)
        for H, M in _STEP_SIZES[problem]:
            for embedded in (False, True):
                kw = dict(err_weights=w if embedded else None)
                want_stats, stats = StepStats(), StepStats()
                # a diverging Newton update overflows its norm on the way
                # to the failure both sides report
                with np.errstate(over="ignore"):
                    want = _outcome(lambda: _reference_step(
                        p, t, inner, y0, 0.1, H, M, want_stats, **kw))
                    got = _outcome(lambda: step(p, t, inner, y0, 0.1, H, M,
                                                stats=stats, **kw))
                assert got == want, (inner_name, H, M, embedded)
                assert stats == want_stats
                outcomes.append(want[0] == "failed")
    assert not all(outcomes)


def test_step_stats_counts():
    t = load_builtin("imex-mri-sr21")
    p = _nonstiff_problem()
    stats = StepStats()
    step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 4, stats=stats)
    assert stats.slow_e_evals == 3  # s - 1 stages
    # fI is also evaluated inside each Newton residual
    assert stats.slow_i_evals >= 3
    assert stats.fast_f_evals > 0
    assert stats.implicit_solves == 3  # nonzero diagonal gamma rows


def test_pinned_step_values():
    # frozen one-step outputs on the coupled benchmark initial data
    from mrisr.problems import kpr_problem
    p = kpr_problem()
    w = 1.0 / (1e-3 * (1.0 + np.abs(p.y0)))
    t = load_builtin("imex-mri-sr21")
    y1, yhat, _ = step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 5,
                       stats=StepStats(), err_weights=w)
    assert y1 == pytest.approx([1.6081771001298533, 1.7306843270610364],
                               abs=1e-12)
    assert yhat == pytest.approx([1.6081768124357632, 1.7303370608596722],
                                 abs=1e-12)
    t = load_builtin("merk3")
    y1, yhat, _ = step(p, t, inner_method("bogacki-shampine"), p.y0, 0.0,
                       0.1, 5, stats=StepStats(), err_weights=w)
    assert yhat is None
    assert y1 == pytest.approx([1.6074465250452463, 1.730611015284307],
                               abs=1e-12)


def test_embedding_pass_is_optional():
    t = load_builtin("imex-mri-sr21")
    p = _nonstiff_problem()
    s1, s2 = StepStats(), StepStats()
    step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 4, stats=s1)
    step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 4, stats=s2,
         err_weights=np.ones(1))
    assert s2.fast_f_evals > s1.fast_f_evals


def test_substep_counts_scale_with_abscissae():
    # stage with c = 17/15 > 1 must take ceil(c*M) substeps; fF(tn, yn)
    # is evaluated once and shared by every stage's first substep
    t = load_builtin("imex-mri-sr32")
    p = _nonstiff_problem()
    stats = StepStats()
    step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 15, stats=stats)
    c = [float(x) for x in t.c[1:] if x > 0]
    expect = 1 + sum(2 * max(1, math.ceil(ci * 15)) - 1 for ci in c)
    assert stats.fast_f_evals == expect


@pytest.mark.parametrize("embedded", [False, True])
def test_step_counts_every_fast_call_it_makes(embedded):
    # a fixed Bogacki-Shampine step skips the fourth stage (b_4 = 0) and
    # makes 1 + sum over rows with c_i > 0 of (3 n_i - 1) fF calls; with
    # the embedding and error weights all four stages run on every row
    calls = []
    p = _nonlinear_fast_problem(calls)
    t = load_builtin("imex-mri-sr32")
    y0 = np.array([0.8, -0.4, 1.3])
    stats = StepStats()
    M = 6
    w = 1.0 / (1e-3 * (1.0 + np.abs(y0))) if embedded else None
    step(p, t, inner_method("bogacki-shampine"), y0, 0.2, 0.1, M,
         stats=stats, err_weights=w)
    c = [float(x) for x in t.c[1:] if x > 0] + ([1.0] if embedded else [])
    per_substep = 4 if embedded else 3
    fast_calls = 1 + sum(per_substep * max(1, math.ceil(ci * M)) - 1
                         for ci in c)
    # fE and fI share the counting callback: one of each per stage row
    slow_calls = stats.slow_e_evals + stats.slow_i_evals
    assert len(calls) == fast_calls + slow_calls
    assert stats.fast_f_evals == fast_calls
    assert calls.count(0.2) == 1 + 2  # the shared fF(tn, yn), fE_1, fI_1


def test_integrate_fixed_validates_schedule():
    t = load_builtin("imex-mri-sr21")
    p = _nonstiff_problem()
    with pytest.raises(ValueError):
        integrate_fixed(p, t, inner_method("heun"), 1.0, 0.3, 4)
    with pytest.raises(ValueError):
        integrate_fixed(p, t, inner_method("heun"), 1.0, 0.25, 4,
                        sample_points=[0.1])
    # a NaN sample point or t0 used to escape as round()'s bare ValueError
    with pytest.raises(PreconditionError, match="sample point = nan is not"):
        integrate_fixed(p, t, inner_method("heun"), 1.0, 0.25, 4,
                        sample_points=[math.nan])
    p.t0 = math.nan
    with pytest.raises(PreconditionError, match="p.t0 = nan is not"):
        integrate_fixed(p, t, inner_method("heun"), 1.0, 0.25, 4)


@pytest.mark.parametrize("kw,named", [
    (dict(M=0), "M = 0 is not a positive integer"),
    (dict(M=-5), "M = -5 is not a positive integer"),
    (dict(M=2.7), "M = 2.7 is not a positive integer"),
    (dict(M=True), "M = True is not a positive integer"),
    (dict(H=math.inf), "H = inf is not a positive finite number"),
    (dict(H=math.nan), "H = nan is not a positive finite number"),
    (dict(H=0.0), "H = 0.0 is not a positive finite number"),
    (dict(H=True), "H = True is not a positive finite number"),
    (dict(tEnd=math.nan), "tEnd = nan is not a finite number"),
    (dict(tEnd=math.inf), "tEnd = inf is not a finite number"),
], ids=["0", "-5", "2.7", "True", "H-inf", "H-nan", "H-zero", "H-bool",
        "tEnd-nan", "tEnd-inf"])
def test_integrate_fixed_rejects_bad_m(kw, named):
    # a bad M used to run silently as max(1, int(M)), M = True as M = 1,
    # and H = inf as zero steps that returned y0 as the solution at tEnd;
    # H = nan, H = 0 and a non-finite tEnd ended in bare ValueError,
    # ZeroDivisionError or OverflowError
    p = _nonstiff_problem()
    args = {**dict(tEnd=1.0, H=0.25, M=4), **kw}
    with pytest.raises(PreconditionError, match=re.escape(named)):
        integrate_fixed(p, load_builtin("imex-mri-sr21"), inner_method("heun"),
                        **args)


def test_step_rejects_bad_m_and_h():
    p = _nonstiff_problem()
    t, rk = load_builtin("imex-mri-sr21"), inner_method("heun")
    with pytest.raises(PreconditionError, match="positive integer"):
        step(p, t, rk, p.y0, 0.0, 0.1, 0)
    with pytest.raises(PreconditionError,
                       match="H = 0.0 is not a positive finite number"):
        step(p, t, rk, p.y0, 0.0, 0.0, 4)


def _two_component_problem(**changes):
    kw = dict(dim=2, fF=lambda tt, y: -y, fE=lambda tt, y: 0.0 * y,
              fI=lambda tt, y: -y, y0=np.array([1.0, 2.0]))
    return SplitIVP(**{**kw, **changes})


@pytest.mark.parametrize("changes,named", [
    (dict(fF=lambda tt, y: -y[:1]), "fF(t_n, y_n) has shape (1,), not (2,)"),
    (dict(fE=lambda tt, y: 0.0 * y[0]), "fE(t_n, y_n) has shape (), not (2,)"),
    (dict(fI=lambda tt, y: np.concatenate([-y, y])),
     "fI(t_n, y_n) has shape (4,), not (2,)"),
    (dict(dim=3), "y_n has shape (2,), not (3,)"),
], ids=["fF-short", "fE-scalar", "fI-long", "y0-short"])
def test_wrong_shape_fails_the_run_naming_the_value(changes, named):
    # fF = -y[:1] used to be broadcast: y = [0.1352, 0.5032] at t = 1
    # instead of [0.1352, 0.2704]; a short y0 ended in numpy's bare
    # broadcast ValueError
    p = _two_component_problem(**changes)
    t, rk = load_builtin("imex-mri-sr21"), inner_method("heun")
    with pytest.raises(PreconditionError, match=re.escape(named)):
        integrate_fixed(p, t, rk, 1.0, 0.1, 2)


@pytest.mark.parametrize("H", [math.nan, math.inf, -math.inf, -0.1, True])
def test_step_rejects_nonfinite_h(H):
    # H <= 0 let a NaN H through to the stage solves, and H = True ran as 1
    p = _nonstiff_problem()
    with pytest.raises(PreconditionError,
                       match=r"^H = .* is not a positive finite number$"):
        step(p, load_builtin("imex-mri-sr21"), inner_method("heun"), p.y0,
             0.0, H, 4)


def test_integrate_fixed_samples_and_accuracy():
    t = load_builtin("imex-mri-sr32")
    p = _nonstiff_problem()
    pts = [0.25, 0.5, 0.75, 1.0]
    rec = integrate_fixed(p, t, inner_method("bogacki-shampine"), 1.0,
                          0.0125, 8, sample_points=pts)
    assert rec.t == pts
    ref = solve_ivp(lambda tt, y: -1.5 * y + math.cos(tt), (0, 1), [1.0],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    for ts, ys in zip(rec.t, rec.y):
        assert ys[0] == pytest.approx(ref.sol(ts)[0], abs=5e-8)


def test_step_failure_reports_stage():
    # an implicit RHS whose Newton solve cannot converge
    p = SplitIVP(dim=1, fF=lambda tt, y: 0.0 * y,
                 fE=lambda tt, y: 0.0 * y,
                 fI=lambda tt, y: np.array([float("nan")]),
                 y0=np.array([1.0]))
    t = load_builtin("imex-mri-sr21")
    with pytest.raises(StepFailure):
        step(p, t, inner_method("heun"), p.y0, 0.0, 0.1, 2,
             stats=StepStats())


@pytest.mark.parametrize("inner_name", ["heun", "bogacki-shampine"])
def test_nonfinite_shared_first_stage_fails_first_fast_stage(inner_name):
    # fF(tn, yn) is evaluated once per step; a non-finite value still fails
    # the first stage with c_i > 0 at its first substep
    p = SplitIVP(dim=1,
                 fF=lambda tt, y: np.array([math.nan]) if tt == 0.0 else -y,
                 fE=lambda tt, y: 0.0 * y, fI=lambda tt, y: 0.0 * y,
                 y0=np.array([1.0]))
    with pytest.raises(StepFailure,
                       match=r"^stage 2: non-finite fast state at substep "
                             r"1/\d+$"):
        step(p, load_builtin("imex-mri-sr32"), inner_method(inner_name),
             p.y0, 0.0, 0.1, 4, stats=StepStats())


def test_integrate_fixed_partial_record_on_failure():
    seen = {"n": 0}

    def fF(tt, y):
        seen["n"] += 1
        return np.array([math.inf]) if tt > 0.5 else -y

    p = SplitIVP(dim=1, fF=fF, fE=lambda tt, y: 0.0 * y,
                 fI=lambda tt, y: 0.0 * y, y0=np.array([1.0]))
    t = load_builtin("imex-mri-sr21")
    rec = integrate_fixed(p, t, inner_method("heun"), 1.0, 0.25, 4)
    assert rec.failed and "stage" in rec.failure
    assert rec.accepted < 4 and rec.rejected == 1
    assert len(rec.step_log) == rec.accepted + 1
    last = rec.step_log[-1]
    assert last["cause"].startswith("stage ") and last["cause"] in rec.failure


def _singular_at_first_stage():
    # I - H*gamma_22*J is exactly 0 for SR21 (gamma_22 = 11/23) at H = 0.1
    J = np.array([[1.0 / (0.1 * 11 / 23)]])
    return SplitIVP(dim=1, fF=lambda tt, y: 0.0 * y,
                    fE=lambda tt, y: 0.0 * y, fI=lambda tt, y: J @ y,
                    jacI=lambda tt, y: J, y0=np.array([1.0]))


def test_singular_stage_matrix_fails_fixed_run():
    rec = integrate_fixed(_singular_at_first_stage(),
                          load_builtin("imex-mri-sr21"), inner_method("heun"),
                          0.2, 0.1, 2)
    assert rec.failure == "step 1 at t = 0: stage 2: LU factorization: " \
        "zero pivot 1"
    # the failed attempt is logged and counted as rejected, with its cause
    assert (rec.accepted, rec.rejected) == (0, 1)
    assert rec.step_log == [dict(t=0.0, H=0.1, M=2, epsS=None, epsF=None,
                                 accepted=0, cause="stage 2: LU "
                                 "factorization: zero pivot 1")]


def test_fixed_run_logs_every_step_like_an_adaptive_run():
    from mrisr.adaptivity import integrate_adaptive
    p = _nonstiff_problem()
    t = load_builtin("imex-mri-sr21")
    rec = integrate_fixed(p, t, inner_method("heun"), 0.2, 0.05, 3)
    adaptive = integrate_adaptive(p, t, inner_method("bogacki-shampine"),
                                  0.2, 1e-4)
    assert not rec.failed and not adaptive.failed
    assert [list(e) for e in rec.step_log] == \
        [list(adaptive.step_log[0])] * 4
    assert [e["t"] for e in rec.step_log] == [k * 0.05 for k in range(4)]
    assert all(e["H"] == 0.05 and e["M"] == 3 and e["epsS"] is None
               and e["epsF"] is None and e["accepted"] == 1
               and e["cause"] is None for e in rec.step_log)
    assert (rec.accepted, rec.rejected) == (4, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
def test_nonfinite_jacobian_fails_fixed_run(banded, bad):
    # a NaN or inf from jacI fails the first implicit stage at its
    # factorization in either storage; it neither escapes the driver nor
    # reaches the Newton iteration
    def jacI(tt, y):
        J = np.array([[bad]])
        return BandedMatrix(ml=0, mu=0, data=J) if banded else J

    p = SplitIVP(dim=1, fF=lambda tt, y: 0.0 * y, fE=lambda tt, y: 0.0 * y,
                 fI=lambda tt, y: -y, jacI=jacI, y0=np.array([1.0]))
    rec = integrate_fixed(p, load_builtin("imex-mri-sr21"),
                          inner_method("heun"), 0.2, 0.1, 2)
    assert rec.failed and "stage 2" in rec.failure
    assert "non-finite factor" in rec.failure
    assert rec.accepted == 0


def test_fd_jacobian_calls_are_counted():
    calls = {"n": 0}

    def fI(tt, y):
        calls["n"] += 1
        return np.array([-0.5 * y[0] + 0.1 * y[1] ** 2, -2.0 * y[1]])

    p = SplitIVP(dim=2, fF=lambda tt, y: -y, fE=lambda tt, y: 0.3 * y,
                 fI=fI, jacI=None, y0=np.array([1.0, 0.5]))
    rec = integrate_fixed(p, load_builtin("imex-mri-sr32"),
                          inner_method("bogacki-shampine"), 0.5, 0.125, 4)
    assert not rec.failed
    assert rec.stats.slow_i_evals == calls["n"]


def test_failed_newton_iterations_are_counted(monkeypatch):
    # one Newton iteration is not enough to meet the update tolerance
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 1)
    p = _nonstiff_problem()
    stats = StepStats()
    with pytest.raises(StepFailure):
        step(p, load_builtin("imex-mri-sr21"), inner_method("heun"), p.y0,
             0.0, 0.1, 4, stats=stats)
    assert stats.newton_iters == 1
    assert stats.implicit_solves == 0


def test_fixed_brusselator_factors_its_stage_matrix_once():
    # constant J and gamma_ii: one LU for the run, and every solve after
    # the first stops at its first update
    from mrisr.problems import make_problem
    p = make_problem("brusselator-201")
    rec = integrate_fixed(p, load_builtin("imex-mri-sr21"),
                          inner_method("heun"), 0.1, 0.1 / 64, 10)
    st = rec.stats
    assert not rec.failed
    assert st.factorizations == 1
    assert st.jacobian_evals == st.implicit_solves == 64 * 3
    assert st.newton_iters == st.implicit_solves + 1
    # each record owns its run's NewtonState: a second run factors again
    again = integrate_fixed(p, load_builtin("imex-mri-sr21"),
                            inner_method("heun"), 0.1, 0.1 / 64, 10)
    assert again.stats == st and again.stats.factorizations == 1


def test_record_failed_follows_failure():
    assert IntegrationRecord(failure="x").failed
    assert not IntegrationRecord().failed


@pytest.mark.parametrize("name,inner_name", [
    ("imex-mri-sr21", "heun"), ("imex-mri-sr32", "bogacki-shampine")])
def test_fixed_brusselator_forms_forcing_once_per_fast_solve(
        monkeypatch, name, inner_name):
    # the forcing block holds every substep of a fast solve at M = 10 and
    # dim 603, so each solve evaluates its forcing polynomial in one call
    from mrisr.problems import make_problem
    counts = {"forcing": 0, "solves": 0}
    forcing, solve = integrator._forcing, integrator.solve_fast_ivp

    def counted_forcing(*args):
        counts["forcing"] += 1
        return forcing(*args)

    def counted_solve(*args):
        counts["solves"] += 1
        return solve(*args)

    monkeypatch.setattr(integrator, "_forcing", counted_forcing)
    monkeypatch.setattr(integrator, "solve_fast_ivp", counted_solve)
    t = load_builtin(name)
    rec = integrate_fixed(make_problem("brusselator-201"), t,
                          inner_method(inner_name), 0.1 / 32, 0.1 / 64, 10)
    assert not rec.failed
    assert counts["solves"] == 2 * (t.s - 1)
    assert counts["forcing"] == counts["solves"]


def test_diverging_newton_run_fails_without_warnings():
    # SR32 on brusselator-201 at H = 0.3: the Newton update norms of
    # stage 5 overflow, which ends the solve as diverged at the second
    # update and is reported as a failed record, not as a numpy warning
    from mrisr.problems import make_problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = integrate_fixed(make_problem("brusselator-201"),
                              load_builtin("imex-mri-sr32"),
                              inner_method("bogacki-shampine"), 3.0, 0.3,
                              10, sample_points=[3.0])
    assert rec.failed
    assert rec.failure == ("step 1 at t = 0: stage 5: Newton iteration "
                           "diverged")


def test_kpr_refactors_every_solve_and_keeps_its_result():
    # KPR's Jacobian moves with the state, so nothing is reused and every
    # solve stops as it did with one factorization per solve: 4,622 Newton
    # iterations and this error before the per-run Newton state
    from mrisr.problems import kpr_exact, kpr_problem
    p = kpr_problem()
    tEnd = 5.0 * math.pi / 2.0
    pts = [tEnd * (i + 1) / 10 for i in range(10)]
    rec = integrate_fixed(p, load_builtin("imex-mri-sr32"),
                          inner_method("bogacki-shampine"), tEnd,
                          math.pi / 256, 10, sample_points=pts)
    st = rec.stats
    assert st.factorizations == st.jacobian_evals == st.implicit_solves \
        == 2560
    assert st.newton_iters <= 4622
    err = np.max(np.abs(np.array(rec.y) - [kpr_exact(x) for x in pts]))
    assert err == pytest.approx(3.999500552964719e-08, rel=1e-12)


def test_alternating_jacobian_matches_fresh_factorizations(monkeypatch):
    # a jacI that alternates between two matrices gets a new LU at every
    # solve, and each solve equals one with its own fresh factorization
    from mrisr import integrator
    from mrisr.linalg import Factorization, shifted_jacobian
    A = np.array([[-2.0, 0.5], [0.3, -1.0]])
    B = np.array([[-1.0, 0.2], [0.0, -3.0]])
    used = []

    def jacI(tt, y):
        used.append((A, B)[len(used) % 2])
        return used[-1]

    p = SplitIVP(dim=2, fF=lambda tt, y: -0.5 * y,
                 fE=lambda tt, y: np.array([math.cos(tt), 0.0]),
                 fI=lambda tt, y: A @ y - 0.2 * y ** 3, jacI=jacI,
                 y0=np.array([1.0, 0.5]))
    solves = []

    def spy(residual, fac, guess, stats, **kw):
        y = newton_solve(residual, fac, guess, stats, **kw)
        solves.append((residual, guess, kw, y))
        return y

    newton_solve = integrator.newton_solve
    monkeypatch.setattr(integrator, "newton_solve", spy)
    t = load_builtin("imex-mri-sr32")
    H = 0.05
    rec = integrate_fixed(p, t, inner_method("bogacki-shampine"), 0.5, H, 3)
    assert not rec.failed
    assert rec.stats.factorizations == rec.stats.implicit_solves \
        == len(used) == len(solves) > 10
    scale = H * t.floats[2][1, 1]
    for (residual, guess, kw, y), J in zip(solves, used):
        fac = Factorization(shifted_jacobian(J, scale))
        kw["state"] = None
        fresh = newton_solve(residual, fac, guess, StepStats(), **kw)
        assert fresh.tobytes() == y.tobytes()


def test_runs_share_no_newton_state():
    # two identical runs with another problem's run between them give the
    # same bits: the factorization and the contraction estimate are per run
    from mrisr.adaptivity import integrate_adaptive
    from mrisr.problems import kpr_problem, make_problem
    t = load_builtin("imex-mri-sr21")
    bruss = make_problem("brusselator-201")
    tv = make_problem("brusselator-tv-101")
    kpr = kpr_problem()

    def runs():
        return (integrate_fixed(bruss, t, inner_method("heun"), 0.05,
                                0.1 / 64, 10),
                integrate_adaptive(tv, t, inner_method("bogacki-shampine"),
                                   0.05, 1e-4, H0=1e-3, M0=10))

    first = runs()
    integrate_fixed(kpr, t, inner_method("heun"), math.pi / 8, math.pi / 64,
                    10)
    for a, b in zip(first, runs()):
        assert np.array(a.y).tobytes() == np.array(b.y).tobytes()
        assert a.stats == b.stats and a.step_log == b.step_log


def test_diverging_fast_solve_counts_every_call():
    calls = []

    def fF(tt, y):
        calls.append(tt)
        return 1e200 * y ** 3

    p = SplitIVP(dim=1, fF=fF, fE=lambda tt, y: 0.0 * y,
                 fI=lambda tt, y: 0.0 * y, y0=np.array([1.0]))
    stats = StepStats()
    with pytest.raises(StepFailure, match="non-finite fast state"):
        solve_fast_ivp(p, np.zeros((1, 1)), 1.0, 0.0, 1.0, p.y0,
                       fF(0.0, p.y0), inner_method("bogacki-shampine"), 8,
                       stats)
    assert stats.fast_f_evals == len(calls) - 1 > 0


def _load_tracing():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_hooks_resolve_and_see_every_layer():
    import importlib
    tracing = _load_tracing()
    for module, path, _ in tracing.WRAPPED:
        owner = importlib.import_module(f"mrisr.{module}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)
    # step() reaches the fast solve, the implicit solve and Newton through
    # module globals, so the traced run attributes time to each of them
    from mrisr import integrator
    p = _nonstiff_problem()
    with tracing.Tracer(problems=(p,)) as tr:
        rec = integrator.integrate_fixed(p, load_builtin("imex-mri-sr21"),
                                         inner_method("heun"), 0.2, 0.1, 2)
    for layer in ("integrator.driver", "integrator.step", "integrator.fast",
                  "integrator.implicit", "linalg.newton", "linalg.factor",
                  "linalg.backsolve", "problems.fF", "problems.fI"):
        assert tr.calls[layer] > 0, layer
    assert tr.calls["linalg.backsolve"] == rec.stats.newton_iters
    assert tr.calls["problems.fI"] == rec.stats.slow_i_evals
    assert tr.calls["integrator.step"] == len(rec.step_log)
    # the adaptive driver reaches step() through adaptivity's own global
    from mrisr import adaptivity
    with tracing.Tracer(problems=(p,)) as tr:
        rec = adaptivity.integrate_adaptive(
            p, load_builtin("imex-mri-sr21"), inner_method("bogacki-shampine"),
            0.2, 1e-4, H0=0.05, M0=2)
    assert not rec.failed, rec.failure
    for layer in ("adaptivity.driver", "integrator.step", "integrator.fast",
                  "adaptivity.error", "adaptivity.controller"):
        assert tr.calls[layer] > 0, layer
    assert tr.calls["integrator.step"] == len(rec.step_log)
    assert tr.calls["linalg.backsolve"] == rec.stats.newton_iters
