"""Linear stability: phi functions, the stability function R, and region scans.

Applied to the scalar test problem y' = (lamF + lamE + lamI) y the method's
amplification factor is

    R(zF, zE, zI) = e_s^T (I - (zE + zI) eta(zF) - zI Gamma)^{-1} phi_0(c zF)

with eta_{i,j}(zF) = sum_k omega^k_{i,j} phi_{k+1}(c_i zF) and z* = H lam*.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["phi", "eta_matrix", "stability_value", "SectorSpec",
           "sector_samples", "RegionScan", "scan_joint_region",
           "scan_component_region"]

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
    Accepts complex scalars or arrays.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
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
        if not 0 <= self.angle <= 90:
            raise ValueError("angle must be in [0, 90] degrees")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")


def sector_samples(spec, n_radial=16, n_angular=16):
    """Sample points of a sector: log-radial lattice plus the origin.

    The lattice endpoints cover the two boundary rays and the outer arc.
    """
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
    <= 1 + tol at grid point re[j] + 1i*im[i]. max_abs_r holds the largest
    |R| evaluated per cell (cells ruled out early stop accumulating).
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


def _grid(window, res):
    re0, re1, im0, im1 = window
    nre, nim = res
    if nre < 2 or nim < 2:
        raise ValueError("resolution must be at least 2 per axis")
    return np.linspace(re0, re1, nre), np.linspace(im0, im1, nim)


def _scan(t, grid_role, fixed, sampled, window, res, n_radial, n_angular,
          early_exit):
    """Shared scan core.

    grid_role is 'E' or 'I' (which variable the grid runs over); fixed maps
    role -> constant value; sampled maps role -> SectorSpec to maximize over.
    """
    re, im = _grid(window, res)
    zgrid = (re[None, :] + 1j * im[:, None]).ravel()
    ncell = zgrid.size
    c, _, gamma, _, _ = t.floats
    s = len(c)
    eye = np.eye(s, dtype=complex)

    sample_sets = {}
    for role, spec in sampled.items():
        sample_sets[role] = sector_samples(spec, n_radial, n_angular)
    fast_samples = sample_sets.get("F", np.array([fixed.get("F", 0.0)]))
    other_role = "I" if grid_role == "E" else "E"
    other_samples = sample_sets.get(
        other_role, np.array([fixed.get(other_role, 0.0)]))

    alive = np.ones(ncell, dtype=bool)
    max_abs = np.zeros(ncell)
    for zF in np.atleast_1d(fast_samples):
        eta = eta_matrix(t, zF)
        rhs = np.exp(c * zF).astype(complex)
        for zother in np.atleast_1d(other_samples):
            idx = np.nonzero(alive)[0] if early_exit else np.arange(ncell)
            if idx.size == 0:
                break
            zg = zgrid[idx]
            if grid_role == "E":
                zE = zg
                zI = zother
                A = (eye[None] - (zE + zI)[:, None, None] * eta[None]
                     - zI * gamma[None])
            else:
                zI = zg
                zE = zother
                A = (eye[None] - (zE + zI)[:, None, None] * eta[None]
                     - zI[:, None, None] * gamma[None])
            vals = np.full(idx.size, np.inf)
            try:
                B = np.broadcast_to(rhs[:, None], (idx.size, s, 1)).copy()
                x = np.linalg.solve(A, B)
                vals = np.abs(x[:, -1, 0])
                vals[~np.isfinite(vals)] = np.inf
            except np.linalg.LinAlgError:
                for q in range(idx.size):
                    try:
                        vals[q] = abs(np.linalg.solve(A[q], rhs)[-1])
                    except np.linalg.LinAlgError:
                        vals[q] = np.inf
            np.maximum.at(max_abs, idx, vals)
            alive[idx[vals > 1.0 + _SCAN_TOL]] = False
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
                      n_angular=16, early_exit=True):
    """Joint stability scan: grid over zE, max over zF and zI sectors."""
    return _scan(t, "E", {}, {"F": fast, "I": implicit}, window, res,
                 n_radial, n_angular, early_exit)


def scan_component_region(t, which, fast, window, res, n_radial=16,
                          n_angular=16, early_exit=True):
    """Single-variable scan: grid over zE (which='E', zI=0) or zI
    (which='I', zE=0), maximizing over the fast sector only."""
    if which not in ("E", "I"):
        raise ValueError("which must be 'E' or 'I'")
    fixed = {"I": 0.0} if which == "E" else {"E": 0.0}
    return _scan(t, which, fixed, {"F": fast}, window, res,
                 n_radial, n_angular, early_exit)
