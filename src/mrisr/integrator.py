"""The multirate stage-restart step algorithm and fixed-step driver.

Each slow stage i restarts a fast IVP at y_n over [0, c_i*H]:

    v' = fF(t_n + theta, v) + g_i(theta),        v(0) = y_n,
    g_i(theta) = (1/c_i) sum_{j<i} omega_{i,j}(theta/(c_i H)) (fE_j + fI_j),

integrated with an explicit inner RK on n_i = max(1, ceil(c_i*M)) uniform
substeps. Every fast IVP starts at (t_n, y_n), so fF(t_n, y_n), the first
inner stage of each, is evaluated once per step and shared. The implicit
correction follows:

    Y_i = v_i(c_i H) + H sum_{j<=i} gamma_{i,j} fI_j

solved by modified Newton when gamma_{i,i} != 0. A run's steps share one
NewtonState, so a stage matrix I - H*gamma_{i,i}*J bit-equal to the last
one is not factored again. The embedded solution, when error weights are
given, is one more row of the same stage kernel: c = 1 with the embedding
Omega and Gamma rows over the first s - 1 tendencies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (FINITE, POSITIVE_FINITE, POSITIVE_INTEGER,
                     PreconditionError, StepFailure, require)
from .linalg import NewtonState, newton_solve, wrms

__all__ = ["SplitIVP", "StepStats", "IntegrationRecord",
           "solve_fast_ivp", "implicit_stage_solve", "step",
           "integrate_fixed"]


@dataclass
class SplitIVP:
    """A three-way additively partitioned initial value problem.

    fF/fE/fI map (t, y) -> dy, a vector of y's shape; the problem's size
    is y0's. step() checks that y_n is a vector, and fF(t_n, y_n) and the
    first fE/fI values against its shape.
    jacI(t, y) returns the Jacobian of fI, dense ndarray or BandedMatrix;
    when None a forward finite-difference dense Jacobian is used.
    """

    fF: callable
    fE: callable
    fI: callable
    jacI: callable = None
    t0: float = 0.0
    y0: np.ndarray = None
    name: str = ""


@dataclass
class StepStats:
    """Cost counters. newton_iters counts Newton iterations, one LU
    back-solve each; as_dict() also gives it as linearSolves, the key the
    harness rows (RUN_KEYS), their CSV columns and the benchmark read.
    jacobian_evals counts Jacobian evaluations, analytic or by finite
    differences, one per implicit stage; factorizations counts the LU
    factorizations made, fewer when a stage matrix is reused.
    """

    fast_f_evals: int = 0
    slow_e_evals: int = 0
    slow_i_evals: int = 0
    implicit_solves: int = 0
    newton_iters: int = 0
    jacobian_evals: int = 0
    factorizations: int = 0

    def as_dict(self):
        return dict(fastFEvals=self.fast_f_evals, slowEEvals=self.slow_e_evals,
                    slowIEvals=self.slow_i_evals,
                    implicitSolves=self.implicit_solves,
                    newtonIters=self.newton_iters,
                    linearSolves=self.newton_iters,
                    jacobianEvals=self.jacobian_evals,
                    factorizations=self.factorizations)


@dataclass
class IntegrationRecord:
    """The record of one run of either driver. t and y hold one sample per
    sample point reached: an adaptive run also samples tEnd, and neither
    samples t0 unless it is a fixed run's sample point. step_log holds one
    dict per step() attempt with the keys t, H, M, epsS and epsF (the
    normalized error estimates, None in a fixed run), accepted (1 or 0, and
    0 for the attempt a run gives up on) and cause (the StepFailure text of
    an attempt whose step raised, else None); accepted and rejected count
    it. failed means failure is set. The record keeps the last
    factorization of its NewtonState alive."""

    t: list = field(default_factory=list)
    y: list = field(default_factory=list)
    stats: StepStats = field(default_factory=StepStats)
    failure: str = None
    step_log: list = field(default_factory=list)
    state: NewtonState = field(init=False, repr=False, compare=False,
                               default_factory=NewtonState)

    @property
    def failed(self):
        return self.failure is not None

    @property
    def accepted(self):
        return sum(e["accepted"] for e in self.step_log)

    @property
    def rejected(self):
        return len(self.step_log) - self.accepted

    def log(self, t, H, M, accepted, cause=None, epsS=None, epsF=None):
        """Append the step_log entry of one step() attempt."""
        self.step_log.append(dict(t=t, H=H, M=M, epsS=epsS, epsF=epsF,
                                  accepted=int(accepted), cause=cause))


# floats of forcing evaluated ahead of the substep loop at a time: the
# substeps are done in blocks that keep the buffer under this budget
# (512 KiB). A solve of n_sub substeps of n_stages stages at dim takes one
# _forcing call when n_sub * n_stages * dim <= 2^16: at dim 603, up to
# 10 substeps per unit c with any inner method of up to 6 stages, c <= 1
# (and 12 substeps of 3 stages at c = 17/15). The buffer is sized to the
# solve, so most solves allocate far less than the budget. Against 64 KiB
# blocks, the median peak RSS of the benchmark moved by +0.25 MB on
# adapt-tv101 and -0.06 MB on fixed-and-analysis (BENCH_16.json).
_FORCING_BLOCK = 1 << 16


def _forcing(coeffs, scale, span, theta):
    """Rows Horner(coeffs, theta/span) * scale, one per entry of theta.

    coeffs is an (nk, dim) array of vector polynomial coefficients in
    tau = theta/span; theta is a sequence of floats. Every element sees the
    operations of a scalar Horner loop, so a row equals the polynomial
    evaluated at its theta alone.
    """
    tau = np.divide(theta, span)[:, None]
    g = np.empty((len(theta), coeffs.shape[1]))
    g[:] = coeffs[-1]
    for k in range(coeffs.shape[0] - 2, -1, -1):
        g *= tau
        g += coeffs[k]
    g *= scale
    return g


def solve_fast_ivp(p, coeffs, scale, tn, span, v0, f0, inner, n_sub, stats,
                   err_weights=None):
    """Integrate v' = fF(tn+theta, v) + g(theta) over theta in [0, span],
    g(theta) = Horner(coeffs, theta/span) * scale (see _forcing).

    Uses n_sub uniform substeps of the explicit inner RK, run from the
    inner method's cached stage plan (ButcherTable.plans); the scalars
    h*a_qr, c_q*h, theta = m*h + c_q*h and tn + theta are Python floats.
    f0 = fF(tn, v0) is the caller's, shared by every fast IVP that starts
    at (tn, v0), and stands for the first stage of the first substep.
    Trailing stages of weight b_q = 0 feed only the embedding and run only
    when err_weights is given. The fF calls made here are counted in
    stats, also when the solve raises. Returns
    (v, errs): errs holds one WRMS error norm per substep when err_weights
    is given and the inner method has an embedding, and is empty
    otherwise. Raises StepFailure on non-finite states.
    """
    want_err = err_weights is not None and inner.bhat is not None
    n_stages, c, a, b, db = inner.plans[want_err]
    h = span / n_sub
    v = np.array(v0, dtype=float)
    ch = [cq * h for cq in c]
    errs = []
    # skipped stages keep K = 0, so b @ K sums as over all stages
    K = np.zeros((len(b), len(v)))
    K0 = K[0]
    # (K_q, [(K_r, h*a_qr) over the nonzero a_qr]) of each stage q > 0
    terms = [(K[q], [(K[r], h * arq) for r, arq in aq])
             for q, aq in enumerate(a, start=1)]
    block = max(1, _FORCING_BLOCK // (n_stages * len(v)))
    fF = p.fF
    calls = 0
    # overflow in a diverging substep is detected and reported below, so
    # the transient numpy warnings on the way there are suppressed
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for m0 in range(0, n_sub, block):
                m1 = min(n_sub, m0 + block)
                theta = [m * h + x for m in range(m0, m1) for x in ch]
                g = _forcing(coeffs, scale, span, theta)
                ts = [tn + x for x in theta]
                j = 0
                for m in range(m0, m1):
                    f = f0 if m == 0 else fF(ts[j], v)
                    np.add(f, g[j], out=K0)
                    for Kq, tq in terms:
                        j += 1
                        vq = v
                        for Kr, ha in tq:
                            vq = vq + ha * Kr
                        np.add(fF(ts[j], vq), g[j], out=Kq)
                    j += 1
                    calls += n_stages - (m == 0)
                    v = v + h * (b @ K)
                    if not np.logical_and.reduce(np.isfinite(v)):
                        raise StepFailure(f"non-finite fast state at substep "
                                          f"{m + 1}/{n_sub}")
                    if want_err:
                        errs.append(wrms(h * (db @ K), err_weights))
    finally:
        stats.fast_f_evals += calls
    return v, errs


def _fd_jacobian(fI, t, y):
    """Forward finite-difference dense Jacobian of fI at (t, y)."""
    n = len(y)
    f0 = fI(t, y)
    J = np.empty((n, n))
    sq = math.sqrt(np.finfo(float).eps)
    for j in range(n):
        dy = sq * max(abs(y[j]), 1.0)
        yp = y.copy()
        yp[j] += dy
        J[:, j] = (fI(t, yp) - f0) / dy
    return J


def implicit_stage_solve(p, base, gammaii, t_stage, H, stats, state):
    """Solve Y = base + H*gamma_ii*fI(t_stage, Y) by modified Newton from
    Y = base, counting the work in stats; returns Y (a copy of base when
    gamma_ii = 0). The Jacobian is evaluated at base, analytic or by
    finite differences, and the run's NewtonState factors
    I - H*gamma_ii*J, or reuses the last factorization when that matrix
    is bit-equal to the last one. A singular matrix or a failed Newton
    solve raises StepFailure.
    """
    if gammaii == 0.0:
        return np.array(base, dtype=float)
    scale = H * gammaii
    if p.jacI is not None:
        J = p.jacI(t_stage, base)
    else:
        J = _fd_jacobian(p.fI, t_stage, base)
        stats.slow_i_evals += len(base) + 1
    stats.jacobian_evals += 1
    fac = state.factor(J, scale, stats)

    def residual(y):
        stats.slow_i_evals += 1
        return y - base - scale * p.fI(t_stage, y)

    y = newton_solve(residual, fac, base, stats, state=state)
    stats.implicit_solves += 1
    return y


def _check_shape(name, shape, want):
    if shape != want:
        raise PreconditionError(f"{name} has shape {shape}, not {want}")


def step(p, t, inner, yn, tn, H, M, stats=None, err_weights=None,
         state=None):
    """One slow step from (tn, yn) to tn + H with M fast substeps per unit c.

    Returns (y1, yhat, fast_errs): yhat is the embedded solution when
    err_weights is given and the tableau has an embedding, else None;
    fast_errs holds every stage's per-substep fast error norms, weighted
    by err_weights (see solve_fast_ivp).
    The stage rows come from the tableau's cached t.stage_rows, so the
    stage times tn + c_i*H and the weights H*gamma_ij are Python floats.
    fF(tn, yn) is evaluated once, at the first row with c_i > 0, and
    passed to every row's fast solve, the embedding row's included. Work
    is counted in stats, a fresh StepStats when None. state is the run's
    NewtonState, a fresh one when None. PreconditionError (a ValueError)
    unless H is positive and finite, M is a positive integer, y_n is a
    vector, and fF(tn, yn) and stage 1's fE and fI have its shape;
    StepFailure names the stage whose fast or implicit solve could not
    finish.
    """
    require("H", H, POSITIVE_FINITE)
    require("M", M, POSITIVE_INTEGER)
    stats = stats or StepStats()
    state = state or NewtonState()
    s = t.s
    # (c_i, gamma_ii, nonzero (k, j, Omega), nonzero (j, Gamma)) over the
    # first i tendencies; the embedding is one more row with c = 1 over s - 1
    rows = t.stage_rows if err_weights is not None else t.stage_rows[:s - 1]
    nk = t.n_omega
    yn = np.asarray(yn, dtype=float)
    if yn.ndim != 1:
        raise PreconditionError(f"y_n has shape {yn.shape}, not a vector's")

    Y = [yn]
    fast_errs = []
    fI = []
    F = []  # fE_j + fI_j
    f0 = None  # fF(tn, yn), the first inner stage of every fast IVP
    ts = tn
    for i, (ci, gii, om, gam) in enumerate(rows, start=1):
        if i < s:
            # tendencies of the stage just completed
            fEj = np.asarray(p.fE(ts, Y[-1]), dtype=float)
            fIj = np.asarray(p.fI(ts, Y[-1]), dtype=float)
            stats.slow_e_evals += 1
            stats.slow_i_evals += 1
            if i == 1:
                _check_shape("fE(t_n, y_n)", fEj.shape, yn.shape)
                _check_shape("fI(t_n, y_n)", fIj.shape, yn.shape)
            fI.append(fIj)
            F.append(fEj + fIj)
        try:
            if ci > 0.0:
                coeffs = np.zeros((nk, len(yn)))
                for k, j, w in om:
                    coeffs[k] += w * F[j]
                if f0 is None:
                    f0 = p.fF(tn, yn)
                    stats.fast_f_evals += 1
                    _check_shape("fF(t_n, y_n)", np.shape(f0), yn.shape)
                n_i = max(1, math.ceil(ci * M))
                v, errs = solve_fast_ivp(p, coeffs, 1.0 / ci, tn, ci * H, yn,
                                         f0, inner, n_i, stats, err_weights)
                fast_errs += errs
            else:
                v = yn.copy()
            base = v
            for j, g in gam:
                base = base + (H * g) * fI[j]
            ts = tn + ci * H
            Yi = implicit_stage_solve(p, base, gii, ts, H, stats, state)
        except StepFailure as e:
            where = f"stage {i + 1}" if i < s else "embedding pass"
            raise StepFailure(f"{where}: {e}") from e
        Y.append(Yi)
    yhat = Y[s] if len(Y) > s else None
    return Y[s - 1], yhat, fast_errs


def _steps_to(t_end, t0, H):
    """(t_end - t0)/H rounded, or None unless it is an integer to 1e-9."""
    k_f = (t_end - t0) / H
    k = round(k_f)
    return k if abs(k_f - k) <= 1e-9 * max(1.0, abs(k_f)) else None


def integrate_fixed(p, t, inner, tEnd, H, M, sample_points=None):
    """Fixed-step integration from (p.t0, p.y0) to tEnd.

    Steps skip the embedding row. PreconditionError (a ValueError) unless
    t0 and tEnd are finite, H positive and finite, M a positive integer,
    (tEnd - t0)/H an integer and sample_points step boundaries. A step
    failure ends the run with a partial record whose failure names it.
    """
    require("tEnd", tEnd, FINITE)
    require("H", H, POSITIVE_FINITE)
    require("M", M, POSITIVE_INTEGER)
    t0 = p.t0
    require("p.t0", t0, FINITE)
    n_steps = _steps_to(tEnd, t0, H)
    if n_steps is None or n_steps < 0:
        raise PreconditionError(
            f"(tEnd - t0)/H = {(tEnd - t0) / H} is not an integer")
    samples = list(sample_points) if sample_points is not None else [tEnd]
    sample_idx = {}
    for ts in samples:
        require("sample point", ts, FINITE)
        k = _steps_to(ts, t0, H)
        if k is None or not 0 <= k <= n_steps:
            raise PreconditionError(
                f"sample point {ts} is not a step boundary")
        sample_idx.setdefault(k, ts)

    rec = IntegrationRecord()
    y = np.array(p.y0, dtype=float)
    if 0 in sample_idx:
        rec.t.append(sample_idx[0])
        rec.y.append(y.copy())
    for k in range(n_steps):
        tn = t0 + k * H
        try:
            y, _, _ = step(p, t, inner, y, tn, H, M, stats=rec.stats,
                           state=rec.state)
        except StepFailure as e:
            rec.log(tn, H, M, False, cause=str(e))
            rec.failure = f"step {k + 1} at t = {tn:.6g}: {e}"
            return rec
        rec.log(tn, H, M, True)
        if k + 1 in sample_idx:
            rec.t.append(sample_idx[k + 1])
            rec.y.append(y.copy())
    return rec
