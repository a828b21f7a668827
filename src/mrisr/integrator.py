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
one is not factored again. The embedded solution,
when wanted, is one more row of the same stage kernel: c = 1 with the
embedding Omega and Gamma rows over the first s - 1 tendencies.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (FastSolveDivergence, NewtonFailure, PreconditionError,
                     SingularMatrixError, StepFailure)
from .linalg import NewtonState, newton_solve, wrms

__all__ = ["SplitIVP", "StepStats", "NewtonConfig", "IntegrationRecord",
           "solve_fast_ivp", "implicit_stage_solve", "step",
           "integrate_fixed"]


@dataclass
class SplitIVP:
    """A three-way additively partitioned initial value problem.

    fF/fE/fI map (t, y) -> dy. jacI(t, y) returns the Jacobian of fI, dense
    ndarray or BandedMatrix; when None a forward finite-difference dense
    Jacobian is used.
    """

    dim: int
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


@dataclass(frozen=True)
class NewtonConfig:
    atol: float = 1e-12
    rtol: float = 1e-10
    max_iter: int = 10


# the configuration of every implicit stage solve not given one
_NEWTON_DEFAULT = NewtonConfig()


@dataclass
class IntegrationRecord:
    """Sampled trajectory plus cost counters of one integration run."""

    t: list
    y: list
    stats: StepStats
    failed: bool = False
    failure: str = None
    accepted: int = 0
    rejected: int = 0
    step_log: list = field(default_factory=list)


# floats of forcing evaluated ahead of the substep loop at a time: the
# substeps are done in blocks that keep the buffer under this budget
# (64 KiB; blocks of 512 KiB raised the peak RSS of the adaptive
# brusselator-tv-101 sweep by 0.25 MB)
_FORCING_BLOCK = 1 << 13


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
    otherwise. Raises FastSolveDivergence on non-finite states.
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
                        raise FastSolveDivergence(
                            f"non-finite fast state at substep "
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


def implicit_stage_solve(p, base, gammaii, t_stage, H, stats, state,
                         cfg=None):
    """Solve Y = base + H*gamma_ii*fI(t_stage, Y) by modified Newton from
    Y = base, counting the work in stats; returns Y (a copy of base when
    gamma_ii = 0). The Jacobian is evaluated at base, analytic or by
    finite differences, and the run's NewtonState factors
    I - H*gamma_ii*J, or reuses the last factorization when that matrix
    is bit-equal to the last one. NewtonFailure and SingularMatrixError
    propagate.
    """
    if gammaii == 0.0:
        return np.array(base, dtype=float)
    cfg = cfg or _NEWTON_DEFAULT
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

    y = newton_solve(residual, fac, base, stats, atol=cfg.atol, rtol=cfg.rtol,
                     max_iter=cfg.max_iter, state=state)
    stats.implicit_solves += 1
    return y


def step(p, t, inner, yn, tn, H, M, cfg=None, stats=None, want_embedded=True,
         err_weights=None, state=None):
    """One slow step from (tn, yn) to tn + H with M fast substeps per unit c.

    Returns (y1, yhat, fast_errs): yhat is the embedded solution when
    want_embedded and the tableau has an embedding, else None; fast_errs
    holds every stage's per-substep fast error norms (see solve_fast_ivp).
    The stage rows come from the tableau's cached t.stage_rows, so the
    stage times tn + c_i*H and the weights H*gamma_ij are Python floats.
    fF(tn, yn) is evaluated once, at the first row with c_i > 0, and
    passed to every row's fast solve, the embedding row's included. Work
    is counted in stats, a fresh StepStats when None. state is the run's
    NewtonState, a fresh one when None. PreconditionError
    (a ValueError) unless H > 0 and M is a positive integer; StepFailure
    names the stage whose fast solve diverged or whose Newton solve failed.
    """
    if H <= 0:
        raise PreconditionError("H must be positive")
    if not isinstance(M, numbers.Integral) or M < 1:
        raise PreconditionError(f"M = {M!r} is not a positive integer")
    stats = stats or StepStats()
    state = state or NewtonState()
    s = t.s
    # (c_i, gamma_ii, nonzero (k, j, Omega), nonzero (j, Gamma)) over the
    # first i tendencies; the embedding is one more row with c = 1 over s - 1
    rows = t.stage_rows if want_embedded else t.stage_rows[:s - 1]
    nk = t.n_omega
    yn = np.asarray(yn, dtype=float)

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
            fI.append(fIj)
            F.append(fEj + fIj)
        try:
            if ci > 0.0:
                coeffs = np.zeros((nk, p.dim))
                for k, j, w in om:
                    coeffs[k] += w * F[j]
                if f0 is None:
                    f0 = p.fF(tn, yn)
                    stats.fast_f_evals += 1
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
            Yi = implicit_stage_solve(p, base, gii, ts, H, stats, state,
                                      cfg)
        except (FastSolveDivergence, NewtonFailure,
                SingularMatrixError) as e:
            where = f"stage {i + 1}" if i < s else "embedding pass"
            raise StepFailure(f"{where}: {e}") from e
        Y.append(Yi)
    yhat = Y[s] if len(Y) > s else None
    return Y[s - 1], yhat, fast_errs


def integrate_fixed(p, t, inner, tEnd, H, M, sample_points=None):
    """Fixed-step integration from (p.t0, p.y0) to tEnd.

    Steps skip the embedding row. PreconditionError (a ValueError) unless
    M is a positive integer, (tEnd - t0)/H is an integer and sample_points
    are step boundaries. Step failures abort with a partial record and the
    failed flag set.
    """
    if not isinstance(M, numbers.Integral) or M < 1:
        raise PreconditionError(f"M = {M!r} is not a positive integer")
    t0 = p.t0
    n_steps_f = (tEnd - t0) / H
    n_steps = round(n_steps_f)
    if n_steps < 0 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, abs(n_steps_f)):
        raise PreconditionError(
            f"(tEnd - t0)/H = {n_steps_f} is not an integer")
    samples = list(sample_points) if sample_points is not None else [tEnd]
    sample_idx = {}
    for ts in samples:
        k_f = (ts - t0) / H
        k = round(k_f)
        if abs(k_f - k) > 1e-9 * max(1.0, abs(k_f)) or not 0 <= k <= n_steps:
            raise PreconditionError(
                f"sample point {ts} is not a step boundary")
        sample_idx.setdefault(k, ts)

    stats = StepStats()
    state = NewtonState()
    record = IntegrationRecord(t=[], y=[], stats=stats)
    y = np.array(p.y0, dtype=float)
    if 0 in sample_idx:
        record.t.append(sample_idx[0])
        record.y.append(y.copy())
    for k in range(n_steps):
        tn = t0 + k * H
        try:
            y, _, _ = step(p, t, inner, y, tn, H, M, stats=stats,
                           want_embedded=False, state=state)
        except StepFailure as e:
            record.failed = True
            record.failure = f"step {k + 1} at t = {tn:.6g}: {e}"
            return record
        record.accepted += 1
        if k + 1 in sample_idx:
            record.t.append(sample_idx[k + 1])
            record.y.append(y.copy())
    return record
