"""Embedded error estimation and the H-M step-size controller.

The controller adapts the slow step H from the slow embedded error and the
substep count M (hence the inner step h = H/M) from the fast embedded error,
using multiplicative updates with exponents k1/(p+1) and k2/(q+1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (OscillationError, PreconditionError, StepFailure,
                     StepSizeUnderflow)
from .integrator import IntegrationRecord, StepStats, step
from .linalg import wrms
from .theory import method_order

__all__ = ["ControllerState", "ErrorEstimate", "estimate_slow_error",
           "accumulate_fast_error", "controller_update", "integrate_adaptive"]

# integrate_adaptive fails a run after this many rejections of one step
MAX_REJECTS = 30
# and raises OscillationError after this many accept/reject alternations
OSCILLATION_CAP = 50


@dataclass
class ControllerState:
    """Constant-constant controller parameters.

    slow_order/fast_order are the orders p and q entering the update
    exponents k1/(p+1) and k2/(q+1).
    """

    slow_order: int
    fast_order: int
    k1: float = 0.42
    k2: float = 0.44
    safety: float = 0.9
    Hmin: float = 1e-12
    Hmax: float = math.inf
    Mmin: int = 1
    Mmax: int = 10 ** 6
    grow_limit: float = 5.0
    shrink_limit: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("controller exponents must be positive")
        if self.Hmin > self.Hmax or self.Mmin > self.Mmax:
            raise ValueError("bounds out of order")


@dataclass
class ErrorEstimate:
    """Tolerance-normalized error estimates; 1.0 means exactly at tolerance."""

    slow: float
    fast: float

    def finite(self):
        return math.isfinite(self.slow) and math.isfinite(self.fast)


def estimate_slow_error(y1, yhat, atol, rtol):
    """WRMS norm of y1 - yhat with weights 1/(atol + rtol*max(|y1|, |yhat|)).

    With atol/rtol set to the slow tolerance, 1.0 means at-tolerance.
    Returns inf when the difference has non-finite components.
    """
    y1 = np.asarray(y1, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    diff = y1 - yhat
    if not np.all(np.isfinite(diff)):
        return math.inf
    w = 1.0 / (np.asarray(atol, dtype=float)
               + rtol * np.maximum(np.abs(y1), np.abs(yhat)))
    return wrms(diff, w)


def accumulate_fast_error(inner_errs):
    """Largest of the per-substep embedded error norms (a flat list).

    The fast estimate must see the worst substep: a few substeps where the
    explicit inner method is unstable can carry all of a step's error, and
    a mean over the M*(stages) substeps dilutes them below 1 while the slow
    embedding, which cannot see fast error, lets the step through.
    """
    return float(np.max(inner_errs))


def _clamp_factor(factor, st):
    return min(st.grow_limit, max(st.shrink_limit, factor))


def controller_update(st, est, H, M):
    """One controller decision: (accept, Hnext, Mnext).

    accept iff both normalized estimates are <= 1. H shrinks with the slow
    error; the inner step h = H/M additionally shrinks with the fast error,
    so M picks up the ratio of the two updates. Raises StepSizeUnderflow
    when Hnext would fall below Hmin.
    """
    if not est.finite():
        eS, eF = 10.0, 10.0
    else:
        eS, eF = max(est.slow, 1e-10), max(est.fast, 1e-10)
    accept = est.finite() and est.slow <= 1.0 and est.fast <= 1.0
    fH = st.safety * eS ** (-st.k1 / (st.slow_order + 1))
    fh = st.safety * eF ** (-st.k2 / (st.fast_order + 1))
    fH = _clamp_factor(fH, st)
    fh = _clamp_factor(fh, st)
    if not accept:
        # never grow H on a rejected step (a small slow error with a large
        # fast error would otherwise inflate H while M catches up)
        fH = min(fH, 1.0)
    Hnext = min(st.Hmax, H * fH)
    if Hnext < st.Hmin:
        raise StepSizeUnderflow(
            f"step size {Hnext:.3e} fell below Hmin={st.Hmin:.3e}")
    # h = H/M tracks the fast tolerance: M_next = M * fH / fh
    raw = M * fH / fh
    # round to nearest on accept; never round the increase away on reject
    # (at small M that reproduces the step that was just rejected)
    Mraw = math.ceil(raw - 1e-9) if not accept else math.floor(raw + 0.5)
    Mnext = int(min(st.Mmax, max(st.Mmin, Mraw)))
    if not accept and Hnext >= H and Mnext <= M:
        # guarantee progress on rejection: integer rounding of M can
        # otherwise reproduce the exact step that was just rejected
        if M < st.Mmax:
            Mnext = M + 1
        else:
            Hnext = H * st.safety
    return accept, Hnext, Mnext


def integrate_adaptive(p, t, inner, tEnd, tol, sample_points=None, H0=None,
                       M0=10):
    """Adaptive integration from (p.t0, p.y0) to tEnd.

    Slow and fast tolerances are both tol/2. The slow estimate is the WRMS
    norm of the slow embedding; the fast estimate is the largest
    per-substep embedded norm of the inner method over all stages of the
    step (see accumulate_fast_error). The controller uses the default
    ControllerState for the method orders. Steps are truncated to hit
    sample points and tEnd exactly. PreconditionError (a ValueError)
    unless both methods carry an embedding and every sample point lies in
    (t0, tEnd]. Raises OscillationError after OSCILLATION_CAP (50)
    consecutive accept/reject alternations. StepSizeUnderflow, and more
    than MAX_REJECTS (30) rejections of one step, end the run with a
    partial record and the failed flag set.
    """
    if not t.has_embedding:
        raise PreconditionError(f"tableau {t.name!r} has no embedding")
    if inner.bhat is None:
        raise PreconditionError(
            f"inner method {inner.name!r} has no embedding")
    targets = sorted(set(list(sample_points or []) + [tEnd]))
    if any(x <= p.t0 or x > tEnd for x in targets):
        raise PreconditionError("sample points must lie in (t0, tEnd]")
    q = inner.emb_order if inner.emb_order is not None else inner.order
    st = ControllerState(slow_order=method_order(t, inner.order),
                         fast_order=q)
    tolS = tolF = 0.5 * tol
    stats = StepStats()

    tn = p.t0
    yn = np.array(p.y0, dtype=float)
    rec = IntegrationRecord(t=[tn], y=[yn.copy()], stats=stats)
    H = H0 if H0 is not None else (tEnd - p.t0) / 100.0
    M = max(1, int(M0))
    alternations = 0
    prev_accept = None
    rejects_here = 0
    ti = 0
    while tn < tEnd - 1e-14 * max(1.0, abs(tEnd)):
        while targets[ti] <= tn + 1e-14 * max(1.0, abs(targets[ti])):
            ti += 1
        target = targets[ti]
        H_try = min(H, target - tn)
        truncated = H_try < H
        err_w = 1.0 / (tolF * (1.0 + np.abs(yn)))
        inner_errs = []
        try:
            y1, yhat, _ = step(p, t, inner, yn, tn, H_try, M, stats=stats,
                               want_embedded=True, err_weights=err_w,
                               inner_errs=inner_errs)
            est = ErrorEstimate(slow=estimate_slow_error(y1, yhat, tolS, tolS),
                                fast=accumulate_fast_error(inner_errs))
        except StepFailure:
            est = ErrorEstimate(slow=math.inf, fast=math.inf)
            y1 = None
        try:
            accept, Hnext, Mnext = controller_update(st, est, H_try, M)
        except StepSizeUnderflow as e:
            rec.failed, rec.failure = True, str(e)
            return rec
        rec.step_log.append(dict(t=tn, H=H_try, M=M, epsS=est.slow,
                                 epsF=est.fast, accepted=int(accept)))
        if prev_accept is not None and accept != prev_accept:
            alternations += 1
        else:
            alternations = 0
        prev_accept = accept
        if alternations >= OSCILLATION_CAP:
            raise OscillationError(
                f"{OSCILLATION_CAP} consecutive accept/reject alternations "
                f"at t={tn:.6g}")
        if accept:
            rec.accepted += 1
            rejects_here = 0
            tn = target if truncated or abs(tn + H_try - target) < 1e-14 \
                else tn + H_try
            yn = y1
            if tn >= target - 1e-14 * max(1.0, abs(target)):
                tn = target
                rec.t.append(tn)
                rec.y.append(yn.copy())
        else:
            rec.rejected += 1
            rejects_here += 1
            if rejects_here > MAX_REJECTS:
                rec.failed = True
                rec.failure = (f"step at t={tn:.6g} rejected "
                               f"{rejects_here} times")
                return rec
        if not truncated or not accept:
            H = Hnext
        M = Mnext
    return rec
