"""Benchmark problems: the KPR test problem and the stiff brusselator PDE.

Both come with the three-way fast/explicit/implicit splitting expected by the
integrator, analytic implicit Jacobians, and a registry keyed by name.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ReferenceFailure
from .integrator import SplitIVP, integrate_fixed
from .linalg import BandedMatrix
from .rk import inner_method
from .tableau import load_builtin

__all__ = ["KPRParams", "BrusselatorParams", "kpr_problem", "kpr_exact",
           "brusselator_problem", "reference_solution", "REF_GATE",
           "PROBLEMS", "make_problem"]


# ---------------------------------------------------------------------------
# KPR

@dataclass
class KPRParams:
    lamF: float = -10.0
    lamS: float = -1.0
    eps: float = 0.1
    alpha: float = 1.0
    beta: float = 20.0


def kpr_exact(t, beta=20.0):
    """Analytic solution (u, v) = (sqrt(3 + cos(beta t)), sqrt(2 + cos t))."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(3.0 + np.cos(beta * t)), np.sqrt(2.0 + np.cos(t))


def kpr_problem(params=None):
    """KPR coupled fast/slow system with the row-masked splitting.

    The nonlinear vector g = ((-3 + u^2 - cos(beta t))/(2u),
    (-2 + v^2 - cos t)/(2v)) vanishes along the exact solution; Lambda mixes
    the components. fF carries row 1 of Lambda*g plus the fast forcing term
    -beta sin(beta t)/(2u), fI carries row 2, and fE the slow forcing
    -sin(t)/(2v), so that fF + fE + fI equals the full right-hand side.
    """
    pr = params or KPRParams()
    lamF, lamS = pr.lamF, pr.lamS
    L12 = (1.0 - pr.eps) / pr.alpha * (lamF - lamS)
    L21 = -pr.alpha * pr.eps * (lamF - lamS)
    beta = pr.beta

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

    return SplitIVP(dim=2, fF=fF, fE=fE, fI=fI, jacI=jacI, t0=0.0,
                    y0=np.array([2.0, math.sqrt(3.0)]), name="kpr")


# ---------------------------------------------------------------------------
# Stiff brusselator

@dataclass
class BrusselatorParams:
    N: int = 201
    variant: str = "fixed"  # "fixed" or "time-varying"
    a: float = 0.6
    b: float = 2.0
    eps: float = 1e-2
    alpha: float = 1e-2    # diffusion (fixed variant)
    rho: float = 1e-3      # advection (fixed variant)
    r: float = 1.0         # reaction scale (fixed variant)
    layout: str = "species"  # "species" or "interleaved"

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("N must be at least 3")
        if self.variant not in ("fixed", "time-varying"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.layout not in ("species", "interleaved"):
            raise ValueError(f"unknown layout {self.layout!r}")


def _tv_brusselator_defaults(pr):
    return BrusselatorParams(N=pr.N, variant="time-varying", a=1.0, b=3.5,
                             eps=1e-3, layout=pr.layout)


def brusselator_problem(params=None):
    """1-D advection-reaction-diffusion brusselator on [0, 1].

    fI = diffusion, fE = advection, fF = reaction; second-order centered
    differences on a uniform N-point grid, with stationary boundaries
    (time derivative pinned to zero at x = 0, 1 in every partition).
    State is species-major (all u, then v, then w) by default, which makes
    the implicit Jacobian a single bandwidth-1 banded matrix; the
    interleaved layout (u1, v1, w1, u2, ...) gives bandwidth 3.
    """
    pr = params or BrusselatorParams()
    N = pr.N
    dx = 1.0 / (N - 1)
    x = np.linspace(0.0, 1.0, N)
    tv = pr.variant == "time-varying"

    def alpha_t(t):
        return 6e-5 + 5e-5 * math.cos(math.pi * t) if tv else pr.alpha

    def rho_t(t):
        return 6e-5 + 5e-5 * math.cos(math.pi * t) if tv else pr.rho

    def r_t(t):
        return 0.6 + 0.5 * math.cos(4.0 * math.pi * t) if tv else pr.r

    if tv:
        u0 = 1.2 + 0.1 * np.sin(math.pi * x)
        v0 = 3.1 + 0.1 * np.sin(math.pi * x)
        w0 = 3.0 + 0.1 * np.sin(math.pi * x)
    else:
        u0 = pr.a + 0.1 * np.sin(math.pi * x)
        v0 = pr.b / pr.a + 0.1 * np.sin(math.pi * x)
        w0 = pr.b + 0.1 * np.sin(math.pi * x)

    species = pr.layout == "species"
    if species:
        def split(y):
            return y[:N], y[N:2 * N], y[2 * N:]

        def join(u, v, w):
            return np.concatenate([u, v, w])
    else:
        def split(y):
            return y[0::3], y[1::3], y[2::3]

        def join(u, v, w):
            out = np.empty(3 * N)
            out[0::3], out[1::3], out[2::3] = u, v, w
            return out

    inner = slice(1, N - 1)

    def lap(q):
        out = np.zeros(N)
        out[inner] = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dx ** 2
        return out

    def adv(q):
        out = np.zeros(N)
        out[inner] = (q[2:] - q[:-2]) / (2.0 * dx)
        return out

    def fI(t, y):
        u, v, w = split(y)
        al = alpha_t(t)
        return join(al * lap(u), al * lap(v), al * lap(w))

    def fE(t, y):
        u, v, w = split(y)
        ro = rho_t(t)
        return join(ro * adv(u), ro * adv(v), ro * adv(w))

    def fF(t, y):
        u, v, w = split(y)
        r = r_t(t)
        fu = r * (pr.a - (w - 1.0) * u + u * u * v)
        fv = r * (w * u - u * u * v)
        fw = r * ((pr.b - w) / pr.eps - w * u)
        fu[0] = fu[-1] = fv[0] = fv[-1] = fw[0] = fw[-1] = 0.0
        return join(fu, fv, fw)

    stencil = np.array([1.0, -2.0, 1.0]) / dx ** 2

    def jacI(t, y):
        al = alpha_t(t)
        ml = mu = 1 if species else 3
        data = np.zeros((ml + mu + 1, 3 * N))
        if species:
            for blk in range(3):
                lo = blk * N
                data[0, lo + 2:lo + N] = al * stencil[2]      # super
                data[1, lo + 1:lo + N - 1] = al * stencil[1]  # diag
                data[2, lo:lo + N - 2] = al * stencil[0]      # sub
        else:
            for sp in range(3):
                rows = 3 * np.arange(1, N - 1) + sp
                data[mu, rows] = al * stencil[1]
                data[mu - 3, rows + 3] = al * stencil[2]
                data[mu + 3, rows - 3] = al * stencil[0]
        return BandedMatrix(ml=ml, mu=mu, data=data)

    name = f"brusselator-{'tv-' if tv else ''}{N}"
    return SplitIVP(dim=3 * N, fF=fF, fE=fE, fI=fI, jacI=jacI, t0=0.0,
                    y0=join(u0, v0, w0), name=name)


# ---------------------------------------------------------------------------
# Reference solutions

# relative change between successive halvings that accepts a reference
REF_GATE = 1e-10


def reference_solution(p, tEnd, sample_points, H0=None, gate=REF_GATE,
                       max_halvings=9):
    """Self-generated reference samples with a convergence gate.

    Integrates with IMEX-MRI-SR32, the Bogacki-Shampine inner method and
    M = 10, starting from steps of about H0 (default (tEnd - t0)/64) and
    halving H until two successive halvings change every sample by less
    than the gate (relative, worst component). Returns the samples, one
    row per sample point. Raises ReferenceFailure when the gate is not met
    within max_halvings.
    """
    t = load_builtin("imex-mri-sr32")
    rk = inner_method("bogacki-shampine")
    sample_points = sorted(sample_points)
    n0 = max(8, int(math.ceil((tEnd - p.t0) / (H0 or (tEnd - p.t0) / 64))))
    # step counts must make every sample point a step boundary
    spans = np.diff([p.t0] + sample_points)
    if abs(sample_points[-1] - tEnd) > 1e-12 * max(1.0, abs(tEnd)):
        raise ValueError("last sample point must equal tEnd")

    def run(refine):
        # span-wise integration: each span gets a step that divides it
        ys = []
        tn, yn = p.t0, np.array(p.y0, dtype=float)
        for span, tgt in zip(spans, sample_points):
            q = SplitIVP(dim=p.dim, fF=p.fF, fE=p.fE, fI=p.fI, jacI=p.jacI,
                         t0=tn, y0=yn, name=p.name)
            n = int(math.ceil(refine * span / (tEnd - p.t0) * n0))
            rec = integrate_fixed(q, t, rk, tgt, span / n, 10)
            if rec.failed:
                raise ReferenceFailure(
                    f"reference integration failed: {rec.failure}")
            tn, yn = tgt, rec.y[-1]
            ys.append(yn)
        return np.array(ys)

    prev = None
    change = math.inf
    for k in range(max_halvings + 1):
        try:
            cur = run(2 ** k)
        except ReferenceFailure:
            if k == max_halvings:
                raise
            prev = None  # unstable at this refinement; keep halving
            continue
        if prev is not None:
            scale = np.maximum(np.abs(cur), 1.0)
            change = float(np.max(np.abs(cur - prev) / scale))
            if change < gate:
                return cur
        prev = cur
    raise ReferenceFailure(
        f"convergence gate {gate:g} unmet after {max_halvings} halvings "
        f"(last change {change:.3e})")


PROBLEMS = {
    "kpr": lambda: kpr_problem(),
    "brusselator-201": lambda: brusselator_problem(BrusselatorParams(N=201)),
    "brusselator-801": lambda: brusselator_problem(BrusselatorParams(N=801)),
    "brusselator-tv-101": lambda: brusselator_problem(
        _tv_brusselator_defaults(BrusselatorParams(N=101))),
}


def make_problem(name):
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; have {sorted(PROBLEMS)}")
    return PROBLEMS[name]()
