"""Embedded error estimation and the H-M step-size controller.

The controller adapts the slow step H from the slow embedded error and the
substep count M (hence the inner step h = H/M) from the fast embedded error,
using multiplicative updates with exponents K1/(p+1) and K2/(q+1).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, StepFailure, StepSizeUnderflow
from .integrator import IntegrationRecord, StepStats, step
from .linalg import NewtonState, wrms
from .theory import method_order

__all__ = ["ControllerState", "ErrorEstimate", "estimate_slow_error",
           "accumulate_fast_error", "controller_update", "integrate_adaptive"]

# integrate_adaptive fails a run after this many rejections of one step,
# or after this many consecutive accept/reject alternations
MAX_REJECTS = 30
OSCILLATION_CAP = 50

# controller exponents, smallest H, largest M, and the clamp on the factor
# by which one update may change H or h
K1, K2 = 0.42, 0.44
HMIN, MMAX = 1e-12, 10 ** 6
GROW_LIMIT, SHRINK_LIMIT = 5.0, 0.1


@dataclass
class ControllerState:
    """Constant-constant controller parameters.

    slow_order/fast_order are the orders p and q entering the update
    exponents K1/(p+1) and K2/(q+1); safety in (0, 1] scales both factors.
    """

    slow_order: int
    fast_order: int
    safety: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")


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
    Returns inf when the difference has non-finite components, or when the
    norm overflows.
    """
    y1 = np.asarray(y1, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    diff = y1 - yhat
    if not np.isfinite(diff).all():
        return math.inf
    w = 1.0 / (np.asarray(atol, dtype=float)
               + rtol * np.maximum(np.abs(y1), np.abs(yhat)))
    with np.errstate(over="ignore"):
        return wrms(diff, w)


def accumulate_fast_error(fast_errs):
    """Largest of the per-substep embedded error norms (a flat list).

    The fast estimate must see the worst substep: a few substeps where the
    explicit inner method is unstable can carry all of a step's error, and
    a mean over the M*(stages) substeps dilutes them below 1 while the slow
    embedding, which cannot see fast error, lets the step through.
    """
    return float(np.max(fast_errs))


def _clamp_factor(factor):
    return min(GROW_LIMIT, max(SHRINK_LIMIT, factor))


def controller_update(st, est, H, M):
    """One controller decision: (accept, Hnext, Mnext).

    accept iff both normalized estimates are <= 1. H shrinks with the slow
    error; the inner step h = H/M additionally shrinks with the fast error,
    so M picks up the ratio of the two updates, within [1, MMAX]. Each
    factor is clamped to [SHRINK_LIMIT, GROW_LIMIT]. Raises
    StepSizeUnderflow when Hnext would fall below HMIN.
    """
    if not est.finite():
        eS, eF = 10.0, 10.0
    else:
        eS, eF = max(est.slow, 1e-10), max(est.fast, 1e-10)
    accept = est.finite() and est.slow <= 1.0 and est.fast <= 1.0
    fH = _clamp_factor(st.safety * eS ** (-K1 / (st.slow_order + 1)))
    fh = _clamp_factor(st.safety * eF ** (-K2 / (st.fast_order + 1)))
    if not accept:
        # never grow H on a rejected step (a small slow error with a large
        # fast error would otherwise inflate H while M catches up)
        fH = min(fH, 1.0)
    Hnext = H * fH
    if Hnext < HMIN:
        raise StepSizeUnderflow(
            f"step size {Hnext:.3e} fell below Hmin={HMIN:.3e}")
    # h = H/M tracks the fast tolerance: M_next = M * fH / fh
    raw = M * fH / fh
    # round to nearest on accept; never round the increase away on reject
    # (at small M that reproduces the step that was just rejected)
    Mraw = math.ceil(raw - 1e-9) if not accept else math.floor(raw + 0.5)
    Mnext = int(min(MMAX, max(1, Mraw)))
    if not accept and Hnext >= H and Mnext <= M:
        # guarantee progress on rejection: integer rounding of M can
        # otherwise reproduce the exact step that was just rejected
        if M < MMAX:
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
    unless both methods carry an embedding, M0 is a positive integer and
    every sample point lies in (t0, tEnd]; it is the only exception raised.
    StepSizeUnderflow, more than MAX_REJECTS (30) rejections of one step
    and OSCILLATION_CAP (50) consecutive accept/reject alternations end the
    run with a partial record and the failed flag set. Every attempted step
    adds one step_log entry and one to accepted or rejected; the attempt a
    run gives up on counts as rejected, with accepted=0 in its entry.
    """
    if not t.has_embedding:
        raise PreconditionError(f"tableau {t.name!r} has no embedding")
    if inner.bhat is None:
        raise PreconditionError(
            f"inner method {inner.name!r} has no embedding")
    if not isinstance(M0, numbers.Integral) or M0 < 1:
        raise PreconditionError(f"M0 = {M0!r} is not a positive integer")
    targets = sorted(set(list(sample_points or []) + [tEnd]))
    if any(x <= p.t0 or x > tEnd for x in targets):
        raise PreconditionError("sample points must lie in (t0, tEnd]")
    q = inner.emb_order if inner.emb_order is not None else inner.order
    st = ControllerState(slow_order=method_order(t, inner.order),
                         fast_order=q)
    tolS = tolF = 0.5 * tol
    stats = StepStats()
    state = NewtonState()

    tn = p.t0
    yn = np.array(p.y0, dtype=float)
    rec = IntegrationRecord(t=[tn], y=[yn.copy()], stats=stats)
    H = H0 if H0 is not None else (tEnd - p.t0) / 100.0
    M = M0
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
        try:
            y1, yhat, fast_errs = step(p, t, inner, yn, tn, H_try, M,
                                       stats=stats, err_weights=err_w,
                                       state=state)
            est = ErrorEstimate(slow=estimate_slow_error(y1, yhat, tolS, tolS),
                                fast=accumulate_fast_error(fast_errs))
        except StepFailure:
            est = ErrorEstimate(slow=math.inf, fast=math.inf)
            y1 = None
        failure = None
        try:
            accept, Hnext, Mnext = controller_update(st, est, H_try, M)
        except StepSizeUnderflow as e:
            accept, failure = False, str(e)
        else:
            if prev_accept is not None and accept != prev_accept:
                alternations += 1
            else:
                alternations = 0
            prev_accept = accept
            rejects_here = 0 if accept else rejects_here + 1
            if alternations >= OSCILLATION_CAP:
                accept, failure = False, (
                    f"{OSCILLATION_CAP} consecutive accept/reject "
                    f"alternations at t={tn:.6g}")
            elif rejects_here > MAX_REJECTS:
                failure = f"step at t={tn:.6g} rejected {rejects_here} times"
        # every attempt is logged and counted once; an attempt the run
        # gives up on counts as rejected
        rec.step_log.append(dict(t=tn, H=H_try, M=M, epsS=est.slow,
                                 epsF=est.fast, accepted=int(accept)))
        if not accept:
            rec.rejected += 1
        if failure is not None:
            rec.failed, rec.failure = True, failure
            return rec
        if accept:
            rec.accepted += 1
            tn = target if truncated else tn + H_try
            yn = y1
            if tn >= target - 1e-14 * max(1.0, abs(target)):
                tn = target
                rec.t.append(tn)
                rec.y.append(yn.copy())
        if not truncated or not accept:
            H = Hnext
        M = Mnext
    return rec
