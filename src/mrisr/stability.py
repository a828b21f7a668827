"""Linear stability: phi functions, the stability function R, and region scans.

Applied to the scalar test problem y' = (lamF + lamE + lamI) y the method's
amplification factor is

    R(zF, zE, zI) = e_s^T (I - (zE + zI) eta(zF) - zI Gamma)^{-1} phi_0(c zF)

with eta_{i,j}(zF) = sum_k omega^k_{i,j} phi_{k+1}(c_i zF) and z* = H lam*.
stability_value solves this s-by-s system densely. The region scans use
that eta is strictly lower and Gamma lower triangular, and solve it by
forward substitution batched over grid cells and sector samples.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ANGLE, FINITE, FINITE_NONNEGATIVE, INTEGER, one_of,
                     require)

__all__ = ["phi", "eta_matrix", "stability_value", "SectorSpec",
           "sector_samples", "RegionScan", "scan_joint_region",
           "scan_component_region"]

# the scan settings' rules, which harness.ExperimentConfig applies too
WHICH = one_of("E", "I")
WINDOW = FINITE.n_of(4, "four finite numbers")
RES = INTEGER.at_least(2).n_of(2, "two integers >= 2")

_TAYLOR_TERMS = 20
_SWITCH_RADIUS = 0.5


def _phi_taylor(k, z):
    # phi_k(z) = (k-1)! * sum_{j>=0} z^j / (j+k)!; term ratio z/(k+j+1)
    acc = np.full_like(z, 1.0 / k)
    term = np.full_like(z, 1.0 / k)
    for j in range(1, _TAYLOR_TERMS):
        term = term * z / (k + j)
        acc = acc + term
    return acc


def phi(k, z):
    """phi_0(z) = e^z; phi_k(z) = integral_0^1 e^{z(1-t)} t^{k-1} dt for k >= 1.

    Note phi_k(0) = 1/k. Evaluated by the recurrence
    phi_1 = (e^z - 1)/z, phi_{k+1} = (k phi_k - 1)/z, switching to a
    20-term Taylor series below |z| = 0.5 where the recurrence cancels.
    Accepts complex scalars or arrays; k is an integer >= 0.
    """
    require("k", k, INTEGER.at_least(0))
    scalar = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    if k == 0:
        out = np.exp(z)
        return complex(out) if scalar else out
    small = np.abs(z) < _SWITCH_RADIUS
    zs = np.where(small, 1.0, z)  # safe divisor
    out = (np.exp(zs) - 1.0) / zs
    for m in range(1, k):
        out = (m * out - 1.0) / zs
    out = np.where(small, _phi_taylor(k, np.where(small, z, 0.0)), out)
    return complex(out) if scalar else out


def eta_matrix(t, zF):
    """eta(zF) = sum_k diag(phi_{k+1}(c*zF)) Omega^k, complex s-by-s."""
    c, omega, _, _, _ = t.floats
    s = len(c)
    eta = np.zeros((s, s), dtype=complex)
    for k in range(omega.shape[0]):
        eta += phi(k + 1, c * zF)[:, None] * omega[k]
    return eta


def stability_value(t, zF, zE, zI):
    """Amplification factor R(zF, zE, zI); inf on a resolvent pole."""
    c, _, gamma, _, _ = t.floats
    s = len(c)
    A = np.eye(s, dtype=complex) - (zE + zI) * eta_matrix(t, zF) - zI * gamma
    rhs = np.exp(c * zF).astype(complex)
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return complex(np.inf)
    return x[-1]


@dataclass(frozen=True)
class SectorSpec:
    """Left-half-plane sector: |arg(z) - pi| <= angle (degrees), |z| <= radius.

    radius = 0 degenerates to the single point z = 0.
    """

    angle: float
    radius: float

    def __post_init__(self):
        require("angle", self.angle, ANGLE)
        require("radius", self.radius, FINITE_NONNEGATIVE)


def sector_samples(spec, n_radial, n_angular):
    """Sample points of a sector: log-radial lattice plus the origin.

    Both counts are integers >= 2: with two or more radii and angles the
    lattice endpoints cover the two boundary rays and the outer arc.
    """
    require("n_radial", n_radial, INTEGER.at_least(2))
    require("n_angular", n_angular, INTEGER.at_least(2))
    if spec.radius == 0:
        return np.array([0.0 + 0.0j])
    radii = np.geomspace(spec.radius * 1e-6, spec.radius, n_radial)
    half = math.radians(spec.angle)
    if spec.angle == 0:
        angles = np.array([math.pi])
    else:
        angles = np.linspace(math.pi - half, math.pi + half, n_angular)
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate(([0.0 + 0.0j], pts))


@dataclass
class RegionScan:
    """Indicator grid over a complex-plane window.

    indicator[i, j] is True when max |R| over the sampled sectors stayed
    <= 1 + tol at grid point re[j] + 1i*im[i]. max_abs_r[i, j] is the
    largest |R| the scan evaluated there: over every sample for a stable
    cell; for a ruled-out cell, over the samples in scan order (zF outer,
    the other sector inner) up to and including its first |R| > 1 + tol.
    A resolvent pole counts as |R| = inf.
    """

    re: np.ndarray
    im: np.ndarray
    indicator: np.ndarray
    max_abs_r: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def area_fraction(self):
        return float(np.mean(self.indicator))

    def rows(self):
        for i, y in enumerate(self.im):
            for j, x in enumerate(self.re):
                yield (x, y, int(self.indicator[i, j]),
                       self.max_abs_r[i, j])


_SCAN_TOL = 1e-12
# alive cells x inner-sector samples solved together per fast sample: a
# block of max(1, _BATCH // alive cells) samples bounds a scan's working
# arrays at s x max(_BATCH, alive cells) complex entries
_BATCH = 8192


def _grid(window, res):
    require("window", window, WINDOW)
    require("res", res, RES)
    re0, re1, im0, im1 = window
    nre, nim = res
    return np.linspace(re0, re1, nre), np.linspace(im0, im1, nim)


def _last_abs(eta, gamma, rhs, zsum, zI):
    """|x_s| where (I - zsum*eta - zI*Gamma) x = rhs, for every entry of the
    2-D array zsum; zI broadcasts to its shape.

    eta is strictly lower and Gamma lower triangular, so this is forward
    substitution, x_i = (rhs_i + sum_{j<i} (zsum eta_ij + zI gamma_ij) x_j)
    / (1 - zI gamma_ii), one row at a time over the whole batch. A zero
    pivot gives a non-finite value, returned as inf.
    """
    s = len(rhs)
    x = np.empty((s,) + zsum.shape, dtype=complex)
    flat = x.reshape(s, -1)
    for i in range(s):
        xi = x[i]
        xi[...] = rhs[i]
        for coef, z in ((eta, zsum), (gamma, zI)):
            if coef[i, :i].any():
                term = (coef[i, :i] @ flat[:i]).reshape(zsum.shape)
                term *= z
                xi += term
        if gamma[i, i]:
            xi /= 1.0 - zI * gamma[i, i]
    out = np.abs(x[-1])
    out[~np.isfinite(out)] = np.inf
    return out


def _scan(t, grid_role, sampled, window, res, n_radial, n_angular):
    """Shared scan core.

    grid_role is 'E' or 'I' (which variable the grid runs over); sampled
    maps role -> SectorSpec to maximize over. 'F' is always sampled; the
    other variable is 0 unless sampled.

    Samples are visited with zF outer and the other sampled variable inner.
    For each zF the resolvent is solved by forward substitution (an
    MRISRTableau checks at construction that Omega is strictly lower and
    Gamma lower triangular) over a block of inner samples times the cells
    still alive; the block holds max(1, _BATCH // alive cells) samples. A
    cell keeps the max |R| of its samples up to and including its first
    |R| > 1 + tol and is then dropped, so it sees no later sample.
    """
    re, im = _grid(window, res)
    zgrid = (re[None, :] + 1j * im[:, None]).ravel()
    ncell = zgrid.size
    c, _, gamma, _, _ = t.floats

    sample_sets = {role: sector_samples(spec, n_radial, n_angular)
                   for role, spec in sampled.items()}
    other_role = "I" if grid_role == "E" else "E"
    other_samples = sample_sets.get(other_role, np.array([0.0]))

    alive = np.ones(ncell, dtype=bool)
    max_abs = np.zeros(ncell)
    with np.errstate(all="ignore"):
        for zF in sample_sets["F"]:
            eta = eta_matrix(t, zF)
            rhs = np.exp(c * zF).astype(complex)
            b = 0
            while b < other_samples.size:
                idx = np.nonzero(alive)[0]
                if idx.size == 0:
                    break
                zother = other_samples[b:b + max(1, _BATCH // idx.size),
                                       None]
                b += len(zother)
                zg = zgrid[idx][None, :]
                zsum = zg + zother  # zE + zI, (block samples, alive cells)
                vals = _last_abs(eta, gamma, rhs, zsum,
                                 zother if grid_role == "E" else zg)
                over = vals > 1.0 + _SCAN_TOL
                dropped = over.any(axis=0)
                stop = np.where(dropped, over.argmax(axis=0), len(zother) - 1)
                seen = np.arange(len(zother))[:, None] <= stop
                max_abs[idx] = np.maximum(
                    max_abs[idx], np.where(seen, vals, 0.0).max(axis=0))
                alive[idx[dropped]] = False
    nim, nre = len(im), len(re)
    return RegionScan(
        re=re, im=im,
        indicator=alive.reshape(nim, nre),
        max_abs_r=max_abs.reshape(nim, nre),
        meta=dict(method=t.name, grid_role=grid_role,
                  window=list(window), res=list(res),
                  n_radial=n_radial, n_angular=n_angular,
                  sectors={r: dict(angle=sp.angle, radius=sp.radius)
                           for r, sp in sampled.items()},
                  tol=_SCAN_TOL),
    )


def scan_joint_region(t, fast, implicit, window, res, n_radial=16,
                      n_angular=16):
    """Joint stability scan: grid over zE, max over zF and zI sectors; a
    cell's samples stop at its first |R| > 1 + tol. Solved by batched
    forward substitution, which the triangular Omega and Gamma that
    MRISRTableau checks at construction allow."""
    return _scan(t, "E", {"F": fast, "I": implicit}, window, res,
                 n_radial, n_angular)


def scan_component_region(t, which, fast, window, res, n_radial=16,
                          n_angular=16):
    """Single-variable scan: grid over zE (which='E', zI=0) or zI
    (which='I', zE=0), maximizing over the fast sector only; a cell's
    samples stop at its first |R| > 1 + tol. Solved as
    scan_joint_region."""
    require("which", which, WHICH)
    return _scan(t, which, {"F": fast}, window, res, n_radial, n_angular)
