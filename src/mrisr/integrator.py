"""The multirate stage-restart step algorithm and fixed-step driver.

Each slow stage i restarts a fast IVP at y_n over [0, c_i*H]:

    v' = fF(t_n + theta, v) + g_i(theta),        v(0) = y_n,
    g_i(theta) = (1/c_i) sum_{j<i} omega_{i,j}(theta/(c_i H)) (fE_j + fI_j),

integrated with an explicit inner RK on n_i = max(1, ceil(c_i*M)) uniform
substeps, followed by the implicit correction

    Y_i = v_i(c_i H) + H sum_{j<=i} gamma_{i,j} fI_j

solved by modified Newton when gamma_{i,i} != 0. The embedded solution,
when wanted, is one more row of the same stage kernel: c = 1 with the
embedding Omega and Gamma rows over the first s - 1 tendencies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (FastSolveDivergence, NewtonFailure, SingularMatrixError,
                     StageSolveFailure, StepFailure)
from .linalg import BandedMatrix, newton_solve, wrms


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
    fast_f_evals: int = 0
    slow_e_evals: int = 0
    slow_i_evals: int = 0
    implicit_solves: int = 0
    newton_iters: int = 0
    linear_solves: int = 0

    def add(self, other):
        self.fast_f_evals += other.fast_f_evals
        self.slow_e_evals += other.slow_e_evals
        self.slow_i_evals += other.slow_i_evals
        self.implicit_solves += other.implicit_solves
        self.newton_iters += other.newton_iters
        self.linear_solves += other.linear_solves

    def as_dict(self):
        return dict(fastFEvals=self.fast_f_evals, slowEEvals=self.slow_e_evals,
                    slowIEvals=self.slow_i_evals,
                    implicitSolves=self.implicit_solves,
                    newtonIters=self.newton_iters,
                    linearSolves=self.linear_solves)


@dataclass
class NewtonConfig:
    atol: float = 1e-12
    rtol: float = 1e-10
    max_iter: int = 10
    modified: bool = True


@dataclass
class IntegrationRecord:
    """Sampled trajectory plus cost counters of one integration run."""

    t: list
    y: list
    stats: StepStats
    config: dict
    failed: bool = False
    failure: str = None
    accepted: int = 0
    rejected: int = 0
    step_log: list = field(default_factory=list)


def _poly_forcing(coeffs, scale, span):
    """Closure theta -> Horner(coeffs, theta/span) * scale.

    coeffs is an (nk, dim) array of vector polynomial coefficients in
    tau = theta/span.
    """
    nk = coeffs.shape[0]

    def forcing(theta):
        tau = theta / span
        acc = coeffs[nk - 1].copy()
        for k in range(nk - 2, -1, -1):
            acc *= tau
            acc += coeffs[k]
        if scale != 1.0:
            acc *= scale
        return acc

    return forcing


def solve_fast_ivp(p, forcing, tn, span, v0, inner, n_sub, stats=None,
                   err_weights=None, inner_errs=None):
    """Integrate v' = fF(tn+theta, v) + forcing(theta) over theta in [0, span].

    Uses n_sub uniform substeps of the explicit inner RK. When err_weights is
    given and the inner method has an embedding, appends one WRMS error norm
    per substep to inner_errs. Raises FastSolveDivergence on non-finite
    states.
    """
    A, b, c, bhat = inner.arrays()
    sF = len(b)
    h = span / n_sub
    v = np.array(v0, dtype=float)
    want_err = err_weights is not None and bhat is not None
    if want_err:
        db = b - bhat
    K = np.empty((sF, len(v)))
    # overflow in a diverging substep is detected and reported below, so
    # the transient numpy warnings on the way there are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
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
            if stats is not None:
                stats.fast_f_evals += sF
            v = v + h * (b @ K)
            if not np.all(np.isfinite(v)):
                raise FastSolveDivergence(
                    f"non-finite fast state at substep {m + 1}/{n_sub}")
            if want_err:
                est = h * (db @ K)
                inner_errs.append(wrms(est, err_weights))
    return v


def _fd_jacobian(fI, t, y, f0=None):
    """Forward finite-difference dense Jacobian of fI at (t, y)."""
    n = len(y)
    if f0 is None:
        f0 = fI(t, y)
    J = np.empty((n, n))
    sq = math.sqrt(np.finfo(float).eps)
    for j in range(n):
        dy = sq * max(abs(y[j]), 1.0)
        yp = y.copy()
        yp[j] += dy
        J[:, j] = (fI(t, yp) - f0) / dy
    return J


def _shifted_jacobian(J, scale):
    """I - scale * J, preserving banded structure."""
    if isinstance(J, BandedMatrix):
        data = -scale * J.data
        data[J.mu, :] += 1.0
        return BandedMatrix(ml=J.ml, mu=J.mu, data=data)
    J = np.asarray(J, dtype=float)
    return np.eye(J.shape[0]) - scale * J


def implicit_stage_solve(p, base, gammaii, t_stage, H, guess, cfg=None,
                         stats=None):
    """Solve Y = base + H*gamma_ii*fI(t_stage, Y) by modified Newton.

    Returns (Y, iterations); gamma_ii = 0 short-circuits to (base, 0).
    """
    if gammaii == 0.0:
        return np.array(base, dtype=float), 0
    cfg = cfg or NewtonConfig()
    scale = H * gammaii

    def residual(y):
        if stats is not None:
            stats.slow_i_evals += 1
        return y - base - scale * p.fI(t_stage, y)

    def jacobian(y):
        if p.jacI is not None:
            J = p.jacI(t_stage, y)
        else:
            J = _fd_jacobian(p.fI, t_stage, y)
            if stats is not None:
                stats.slow_i_evals += len(y) + 1
        return _shifted_jacobian(J, scale)

    counters = {}
    try:
        y, iters = newton_solve(residual, jacobian, guess, tol=1.0,
                                atol=cfg.atol, rtol=cfg.rtol,
                                max_iter=cfg.max_iter, modified=cfg.modified,
                                counters=counters)
    except (NewtonFailure, SingularMatrixError) as e:
        raise StageSolveFailure(str(e)) from e
    finally:
        # a failed solve's iterations were spent too
        if stats is not None:
            stats.newton_iters += counters.get("newton_iters", 0)
            stats.linear_solves += counters.get("linear_solves", 0)
    if stats is not None:
        stats.implicit_solves += 1
    return y, iters


def step(p, t, inner, yn, tn, H, M, cfg=None, stats=None, want_embedded=None,
         err_weights=None, inner_errs=None):
    """One slow step from (tn, yn) to tn + H.

    Returns (y1, yhat_or_None, stats). want_embedded defaults to whether the
    tableau carries an embedding; pass False to skip the embedding row.
    err_weights/inner_errs feed per-substep embedded fast error norms to the
    adaptive controller.
    """
    if H <= 0:
        raise ValueError("H must be positive")
    M = max(1, int(M))
    if stats is None:
        stats = StepStats()
    if want_embedded is None:
        want_embedded = t.has_embedding
    c, omega, gamma, emb_omega, emb_gamma = t.floats
    s = t.s
    # stage rows (c_i, Omega row, Gamma row, gamma_ii) over the first i
    # tendencies; the embedding is one more row with c = 1 over s - 1
    rows = [(c[i], omega[:, i, :i], gamma[i, :i], gamma[i, i])
            for i in range(1, s)]
    if want_embedded and t.has_embedding:
        rows.append((1.0, emb_omega[:, :s - 1], emb_gamma[:s - 1],
                     emb_gamma[s - 1]))
    yn = np.asarray(yn, dtype=float)

    Y = [yn]
    fI = []
    F = []  # fE_j + fI_j
    ts = tn
    for i, (ci, om, gam, gii) in enumerate(rows, start=1):
        if len(F) < len(gam):
            # tendencies of the stage just completed
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
                span = ci * H
                forcing = _poly_forcing(coeffs, 1.0 / ci, span)
                n_i = max(1, math.ceil(ci * M))
                v = solve_fast_ivp(p, forcing, tn, span, yn, inner, n_i,
                                   stats=stats, err_weights=err_weights,
                                   inner_errs=inner_errs)
            else:
                v = yn.copy()
            base = v
            for j, g in enumerate(gam):
                if g != 0.0:
                    base = base + (H * g) * fI[j]
            ts = tn + ci * H
            Yi, _ = implicit_stage_solve(p, base, gii, ts, H, base, cfg=cfg,
                                         stats=stats)
        except (FastSolveDivergence, StageSolveFailure) as e:
            where = f"stage {i + 1}" if i < s else "embedding pass"
            raise StepFailure(f"{where}: {e}", stage=i + 1) from e
        Y.append(Yi)
    yhat = Y[s] if len(Y) > s else None
    return Y[s - 1], yhat, stats


def integrate_fixed(p, t, inner, tEnd, H, M, sample_points=None, cfg=None,
                    embedded=False):
    """Fixed-step integration from (p.t0, p.y0) to tEnd.

    sample_points must coincide with step boundaries (checked). Step failures
    abort with a partial record and the failed flag set.
    """
    t0 = p.t0
    n_steps_f = (tEnd - t0) / H
    n_steps = round(n_steps_f)
    if n_steps < 0 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, abs(n_steps_f)):
        raise ValueError(f"(tEnd - t0)/H = {n_steps_f} is not an integer")
    samples = list(sample_points) if sample_points is not None else [tEnd]
    sample_idx = {}
    for ts in samples:
        k_f = (ts - t0) / H
        k = round(k_f)
        if abs(k_f - k) > 1e-9 * max(1.0, abs(k_f)) or not 0 <= k <= n_steps:
            raise ValueError(f"sample point {ts} is not a step boundary")
        sample_idx.setdefault(k, ts)

    stats = StepStats()
    record = IntegrationRecord(t=[], y=[], stats=stats, config=dict(
        method=t.name, inner=inner.name, H=H, M=M, tEnd=tEnd,
        problem=p.name))
    y = np.array(p.y0, dtype=float)
    if 0 in sample_idx:
        record.t.append(sample_idx[0])
        record.y.append(y.copy())
    for k in range(n_steps):
        tn = t0 + k * H
        try:
            y, _, _ = step(p, t, inner, y, tn, H, M, cfg=cfg, stats=stats,
                           want_embedded=embedded)
        except StepFailure as e:
            record.failed = True
            record.failure = f"step {k + 1} at t = {tn:.6g}: {e}"
            return record
        record.accepted += 1
        if k + 1 in sample_idx:
            record.t.append(sample_idx[k + 1])
            record.y.append(y.copy())
    return record
