"""Benchmark problems: the KPR test problem and the stiff brusselator PDE.

Both come with the three-way fast/explicit/implicit splitting expected by the
integrator, analytic implicit Jacobians, and a registry keyed by name.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import INTEGER, one_of, require
from .integrator import SplitIVP
from .linalg import BandedMatrix

__all__ = ["BrusselatorParams", "kpr_problem", "kpr_exact",
           "brusselator_problem", "PROBLEMS", "make_problem"]


# ---------------------------------------------------------------------------
# KPR

# the KPR parameters of the paper's experiments
KPR_LAMBDA_F = -10.0
KPR_LAMBDA_S = -1.0
KPR_EPS = 0.1
KPR_ALPHA = 1.0
KPR_BETA = 20.0


def kpr_exact(t):
    """Analytic solution (u, v) = (sqrt(3 + cos(beta t)), sqrt(2 + cos t))."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(3.0 + np.cos(KPR_BETA * t)), np.sqrt(2.0 + np.cos(t))


def kpr_problem():
    """KPR coupled fast/slow system with the row-masked splitting.

    The nonlinear vector g = ((-3 + u^2 - cos(beta t))/(2u),
    (-2 + v^2 - cos t)/(2v)) vanishes along the exact solution kpr_exact;
    Lambda mixes the components. fF carries row 1 of Lambda*g plus the fast
    forcing term -beta sin(beta t)/(2u), fI carries row 2, and fE the slow
    forcing -sin(t)/(2v), so that fF + fE + fI equals the full right-hand
    side. The parameters are the module constants KPR_*. The callbacks
    unpack the state with y.tolist() and do their arithmetic on Python
    floats, the IEEE operations of numpy scalars at a fraction of the
    cost; a zero u or v therefore raises ZeroDivisionError.
    """
    lamF, lamS = KPR_LAMBDA_F, KPR_LAMBDA_S
    L12 = (1.0 - KPR_EPS) / KPR_ALPHA * (lamF - lamS)
    L21 = -KPR_ALPHA * KPR_EPS * (lamF - lamS)
    beta = KPR_BETA

    def g(t, u, v):
        return ((-3.0 + u * u - math.cos(beta * t)) / (2.0 * u),
                (-2.0 + v * v - math.cos(t)) / (2.0 * v))

    def fF(t, y):
        u, v = y.tolist()
        g1, g2 = g(t, u, v)
        return np.array([lamF * g1 + L12 * g2
                         - beta * math.sin(beta * t) / (2.0 * u), 0.0])

    def fI(t, y):
        u, v = y.tolist()
        g1, g2 = g(t, u, v)
        return np.array([0.0, L21 * g1 + lamS * g2])

    def fE(t, y):
        _, v = y.tolist()
        return np.array([0.0, -math.sin(t) / (2.0 * v)])

    def jacI(t, y):
        u, v = y.tolist()
        dg1 = 0.5 + (3.0 + math.cos(beta * t)) / (2.0 * u * u)
        dg2 = 0.5 + (2.0 + math.cos(t)) / (2.0 * v * v)
        return np.array([[0.0, 0.0], [L21 * dg1, lamS * dg2]])

    return SplitIVP(fF=fF, fE=fE, fI=fI, jacI=jacI, t0=0.0,
                    y0=np.array([2.0, math.sqrt(3.0)]), name="kpr")


# ---------------------------------------------------------------------------
# Stiff brusselator

# reaction constants (a, b, eps) of each variant
_BRUSSELATOR_ABE = {"fixed": (0.6, 2.0, 1e-2),
                    "time-varying": (1.0, 3.5, 1e-3)}
# diffusion, advection and reaction scale of the fixed variant
_FIXED_ALPHA, _FIXED_RHO, _FIXED_R = 1e-2, 1e-3, 1.0


@dataclass
class BrusselatorParams:
    N: int = 201
    variant: str = "fixed"  # "fixed" or "time-varying"

    def __post_init__(self):
        require("N", self.N, INTEGER.at_least(3))
        require("variant", self.variant, one_of(*_BRUSSELATOR_ABE))


def brusselator_problem(params):
    """1-D advection-reaction-diffusion brusselator on [0, 1].

    fI = diffusion, fE = advection, fF = reaction; second-order centered
    differences on a uniform N-point grid, with stationary boundaries
    (time derivative pinned to zero at x = 0, 1 in every partition).
    The state is species-major (all u, then v, then w), which makes the
    implicit Jacobian a single bandwidth-1 banded matrix. The variant alone
    sets the coefficients; the time-varying one modulates diffusion,
    advection and reaction in t. Each callback returns a fresh array and
    forms it in place: every operation writes with out= into a view of it,
    on u, v and w taken as slices of y, with one temporary (w*u, used by
    two rows of fF). fF scales its three rows by r(t) in one multiply; fI
    and fE apply their stencils to the flat state and scale the interior.
    Each then zeroes the six species end points in one index write. Every
    element sees the operations of the row-wise form, in the same order,
    so the outputs are bitwise those of the state viewed as rows u, v, w.
    """
    N = params.N
    dx = 1.0 / (N - 1)
    x = np.linspace(0.0, 1.0, N)
    tv = params.variant == "time-varying"
    a, b, eps = _BRUSSELATOR_ABE[params.variant]

    def alpha_t(t):
        return 6e-5 + 5e-5 * math.cos(math.pi * t) if tv else _FIXED_ALPHA

    def rho_t(t):
        return 6e-5 + 5e-5 * math.cos(math.pi * t) if tv else _FIXED_RHO

    def r_t(t):
        return 0.6 + 0.5 * math.cos(4.0 * math.pi * t) if tv else _FIXED_R

    base = np.array([1.2, 3.1, 3.0]) if tv else np.array([a, b / a, b])
    y0 = (base[:, None] + 0.1 * np.sin(math.pi * x)).ravel()

    # the stencils run over the flat state, across species boundaries too;
    # the six species end points are then zeroed in one index write
    ends = np.array([0, N - 1, N, 2 * N - 1, 2 * N, 3 * N - 1])
    N2, N3 = 2 * N, 3 * N
    dx2, two_dx = dx ** 2, 2.0 * dx
    mul, sub = np.multiply, np.subtract

    def fI(t, y):
        out = np.empty(N3)
        o = out[1:-1]
        mul(2.0, y[1:-1], o)
        sub(y[2:], o, o)
        o += y[:-2]
        o /= dx2
        o *= alpha_t(t)
        out[ends] = 0.0
        return out

    def fE(t, y):
        out = np.empty(N3)
        o = out[1:-1]
        sub(y[2:], y[:-2], o)
        o /= two_dx
        o *= rho_t(t)
        out[ends] = 0.0
        return out

    def fF(t, y):
        u, v, w = y[:N], y[N:N2], y[N2:]
        out = np.empty(N3)
        o0, o1, o2 = out[:N], out[N:N2], out[N2:]
        wu = w * u
        mul(u, u, o1)  # row 1 holds uuv = u*u*v until it is formed
        o1 *= v
        sub(w, 1.0, o0)  # row 0: a - (w - 1)*u + uuv
        o0 *= u
        sub(a, o0, o0)
        o0 += o1
        sub(wu, o1, o1)  # row 1: wu - uuv
        sub(b, w, o2)  # row 2: (b - w)/eps - wu
        o2 /= eps
        o2 -= wu
        out *= r_t(t)
        out[ends] = 0.0
        return out

    # band data of lap for each species (zero rows at the boundaries);
    # jacI scales it by alpha(t) > 0, which leaves its zeros +0.0
    stencil = np.array([1.0, -2.0, 1.0]) / dx ** 2
    pattern = np.zeros((3, 3 * N))
    for lo in (0, N, 2 * N):
        pattern[0, lo + 2:lo + N] = stencil[2]      # super
        pattern[1, lo + 1:lo + N - 1] = stencil[1]  # diag
        pattern[2, lo:lo + N - 2] = stencil[0]      # sub

    def jacI(t, y):
        return BandedMatrix(ml=1, mu=1, data=alpha_t(t) * pattern)

    name = f"brusselator-{'tv-' if tv else ''}{N}"
    return SplitIVP(fF=fF, fE=fE, fI=fI, jacI=jacI, t0=0.0, y0=y0, name=name)


PROBLEMS = {
    "kpr": lambda: kpr_problem(),
    "brusselator-201": lambda: brusselator_problem(BrusselatorParams(N=201)),
    "brusselator-801": lambda: brusselator_problem(BrusselatorParams(N=801)),
    "brusselator-tv-101": lambda: brusselator_problem(
        BrusselatorParams(N=101, variant="time-varying")),
}

PROBLEM_NAME = one_of(*PROBLEMS)


def make_problem(name):
    require("problem", name, PROBLEM_NAME)
    return PROBLEMS[name]()
