import cmath
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mrisr import stability
from mrisr.errors import PreconditionError
from mrisr.stability import (RegionScan, SectorSpec, eta_matrix, phi,
                             scan_component_region, scan_joint_region,
                             sector_samples, stability_value)
from mrisr.tableau import BUILTIN_NAMES, load_builtin


def _phi_quad(k, z):
    # phi_k(z) = integral_0^1 e^{z(1-t)} t^{k-1} dt, k >= 1
    re = quad(lambda s: (cmath.exp(z * (1 - s)) * s ** (k - 1)).real,
              0.0, 1.0, limit=200)[0]
    im = quad(lambda s: (cmath.exp(z * (1 - s)) * s ** (k - 1)).imag,
              0.0, 1.0, limit=200)[0]
    return re + 1j * im


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_phi_matches_quadrature(k):
    rng = np.random.default_rng(100 + k)
    zs = rng.uniform(-10, 10, 20) + 1j * rng.uniform(-10, 10, 20)
    # force coverage of the small-z Taylor branch
    zs = np.concatenate([zs, [1e-7 + 1e-7j, -3e-7, 0.49j, 0.51j]])
    for z in zs:
        want = _phi_quad(k, complex(z))
        got = phi(k, complex(z))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_phi_at_zero_and_k0():
    for k in range(1, 7):
        assert phi(k, 0.0) == pytest.approx(1.0 / k, rel=1e-14)
    assert phi(0, 1.3 - 0.2j) == pytest.approx(cmath.exp(1.3 - 0.2j))
    with pytest.raises(ValueError):
        phi(-1, 0.0)


def test_phi_array_matches_scalars():
    zs = np.array([-2.0 + 1j, 0.1, 3.0j, -1e-8])
    out = phi(3, zs)
    assert out.shape == zs.shape
    for z, v in zip(zs, out):
        assert v == pytest.approx(phi(3, complex(z)), rel=1e-13)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_r_at_origin_is_one(name):
    assert stability_value(load_builtin(name), 0.0, 0.0, 0.0) == \
        pytest.approx(1.0, abs=1e-14)


def _base_ark_r(t, zE, zI):
    from mrisr.theory import base_ark
    ark = base_ark(t)
    s = len(ark.c)
    AE = np.array([[float(x) for x in r] for r in ark.AE], dtype=complex)
    AI = np.array([[float(x) for x in r] for r in ark.AI], dtype=complex)
    Y = np.linalg.solve(np.eye(s) - zE * AE - zI * AI, np.ones(s))
    return Y[-1]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_zero_fast_matches_base_ark_resolvent(name):
    # at zF = 0 the amplification factor is the base ARK pair's: the
    # explicit polynomial along zI = 0 and the DIRK rational along zE = 0
    t = load_builtin(name)
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-3, 0.5), rng.uniform(-3, 3))
        assert stability_value(t, 0.0, z, 0.0) == \
            pytest.approx(_base_ark_r(t, z, 0.0), abs=1e-12)
        assert stability_value(t, 0.0, 0.0, z) == \
            pytest.approx(_base_ark_r(t, 0.0, z), abs=1e-12)


def test_pinned_r_values():
    v = stability_value(load_builtin("imex-mri-sr32"),
                        -2 + 1j, -0.5 - 0.3j, -1 + 0.2j)
    assert v == pytest.approx(0.05392228956108503 + 0.036341659440780036j,
                              abs=1e-13)
    v = stability_value(load_builtin("merk4"), -3 + 0.5j, -0.7 - 1.1j, 0.0)
    assert v == pytest.approx(0.008042193211541926 - 0.016528945234506726j,
                              abs=1e-13)


def test_r_matches_resolved_time_step():
    # a single step with the fast scale well resolved reproduces R on the
    # scalar linear test problem
    from mrisr.integrator import SplitIVP, StepStats, step
    from mrisr.rk import inner_method
    t = load_builtin("imex-mri-sr43")
    lamF, lamE, lamI = -2.0, -0.3, -0.5
    H = 1.0
    p = SplitIVP(dim=1, fF=lambda tt, y: lamF * y, fE=lambda tt, y: lamE * y,
                 fI=lambda tt, y: lamI * y, y0=np.array([1.0]))
    y1, _, _ = step(p, t, inner_method("zonneveld"), p.y0, 0.0, H, 400,
                    stats=StepStats())
    R = stability_value(t, lamF * H, lamE * H, lamI * H)
    assert abs(R.imag) < 1e-14
    assert y1[0] == pytest.approx(R.real, abs=1e-9)


def test_eta_matrix_at_zero():
    # eta(0) = sum_k Omega^k / (k+1) = omega_bar
    from mrisr.tableau import omega_bar
    t = load_builtin("merk3")
    eta = eta_matrix(t, 0.0)
    ob = np.array([[float(x) for x in r] for r in omega_bar(t)])
    assert np.allclose(eta, ob, atol=1e-15)


def test_sector_spec_validation():
    with pytest.raises(ValueError):
        SectorSpec(angle=91.0, radius=1.0)
    with pytest.raises(ValueError):
        SectorSpec(angle=-1.0, radius=1.0)
    with pytest.raises(ValueError):
        SectorSpec(angle=10.0, radius=-1.0)


@given(st.floats(min_value=0.0, max_value=90.0),
       st.floats(min_value=1e-3, max_value=1e4))
@settings(max_examples=30, deadline=None)
def test_sector_samples_lie_in_sector(angle, radius):
    spec = SectorSpec(angle, radius)
    pts = sector_samples(spec, 8, 9)
    assert pts[0] == 0.0
    nz = pts[pts != 0]
    assert np.max(np.abs(nz)) <= radius * (1 + 1e-12)
    dev = np.abs(np.angle(nz) % (2 * math.pi) - math.pi)
    assert np.all(dev <= math.radians(angle) + 1e-9)


def test_sector_samples_degenerate():
    pts = sector_samples(SectorSpec(30.0, 0.0), 2, 2)
    assert pts.shape == (1,) and pts[0] == 0.0


@pytest.mark.parametrize("n", [1, 0, -1, 2.5, True])
def test_sector_sample_counts_fail_at_the_boundary(n):
    # one radius samples only |z| = radius*1e-6 and none only the origin,
    # so either count below 2 would scan a point, not the sector
    t = load_builtin("imex-mri-sr32")
    fast, implicit = SectorSpec(45.0, 100.0), SectorSpec(45.0, 1e4)
    window, res = (-4.0, 1.0, -3.0, 3.0), (4, 4)
    for name, counts in (("n_radial", dict(n_radial=n, n_angular=8)),
                         ("n_angular", dict(n_radial=8, n_angular=n))):
        msg = f"{name} = {n!r} is not"
        with pytest.raises(PreconditionError, match=re.escape(msg)):
            sector_samples(SectorSpec(30.0, 0.0), **counts)
        with pytest.raises(PreconditionError, match=re.escape(msg)):
            scan_joint_region(t, fast, implicit, window, res, **counts)
        with pytest.raises(PreconditionError, match=re.escape(msg)):
            scan_component_region(t, "I", fast, window, res, **counts)


def test_degenerate_fast_sector_equals_base_region():
    # with the fast sector collapsed to {0} the scan is the base explicit
    # region indicator |R(0, z, 0)| <= 1
    t = load_builtin("imex-mri-sr21")
    window = (-4.0, 1.0, -3.0, 3.0)
    scan = scan_component_region(t, "E", SectorSpec(45.0, 0.0), window,
                                 (12, 11))
    for x, y, ind, _maxr in scan.rows():
        want = abs(_base_ark_r(t, complex(x, y), 0.0)) <= 1 + 1e-12
        assert bool(ind) == want


def test_scan_meta_and_shape():
    t = load_builtin("imex-mri-sr21")
    scan = scan_component_region(t, "I", SectorSpec(45.0, 10.0),
                                 (-4.0, 1.0, -3.0, 3.0), (8, 6),
                                 n_radial=4, n_angular=5)
    assert isinstance(scan, RegionScan)
    assert scan.indicator.shape == (6, 8)
    assert scan.meta["method"] == "imex-mri-sr21"
    assert scan.meta["grid_role"] == "I"
    assert scan.meta["sectors"]["F"] == dict(angle=45.0, radius=10.0)
    assert 0.0 <= scan.area_fraction <= 1.0
    assert len(list(scan.rows())) == 48


def test_early_exit_does_not_change_indicator():
    # the scan drops a cell at its first |R| > 1 + tol; a brute-force max
    # over every sample of every cell must give the same indicator
    t = load_builtin("imex-mri-sr32")
    fast = SectorSpec(45.0, 5.0)
    scan = scan_component_region(t, "E", fast, (-4.0, 0.5, -3.0, 3.0),
                                 (9, 9), n_radial=5, n_angular=5)
    zFs = sector_samples(fast, 5, 5)
    worst = np.array([[max(abs(stability_value(t, zF, x + 1j * y, 0.0))
                           for zF in zFs) for x in scan.re] for y in scan.im])
    oracle = worst <= 1.0 + 1e-12
    assert 0 < oracle.sum() < oracle.size
    assert np.array_equal(scan.indicator, oracle)
    # a stable cell saw every sample, so its max |R| is the full max
    assert np.allclose(scan.max_abs_r[oracle], worst[oracle], rtol=1e-12,
                       atol=0.0)


def _scan_oracle(t, scan, zFs, others):
    # dense per-cell oracle in the scan's order, zF outer and the other
    # sector inner, stopping at the first |R| > 1 + 1e-12 (a pole is inf)
    ind = np.ones(scan.indicator.shape, dtype=bool)
    upto = np.zeros(scan.indicator.shape)
    for a, y in enumerate(scan.im):
        for b, x in enumerate(scan.re):
            for zF in zFs:
                for zo in others:
                    zE, zI = ((x + 1j * y, zo) if scan.meta["grid_role"] == "E"
                              else (zo, x + 1j * y))
                    r = abs(stability_value(t, zF, zE, zI))
                    upto[a, b] = max(upto[a, b], r if math.isfinite(r)
                                     else math.inf)
                    if not r <= 1.0 + 1e-12:
                        ind[a, b] = False
                        break
                if not ind[a, b]:
                    break
    return ind, upto


def test_joint_scan_matches_dense_oracle(monkeypatch):
    t = load_builtin("imex-mri-sr32")
    fast, implicit = SectorSpec(45.0, 5.0), SectorSpec(45.0, 50.0)
    args = (t, fast, implicit, (-4.0, 0.5, -3.0, 3.0), (9, 9))
    scan = scan_joint_region(*args, n_radial=3, n_angular=5)
    ind, upto = _scan_oracle(t, scan, sector_samples(fast, 3, 5),
                             sector_samples(implicit, 3, 5))
    assert 0 < ind.sum() < ind.size
    # the default batch takes all 16 implicit samples at once; 250 starts
    # with blocks of 3, which grow as cells drop out
    for batch in (stability._BATCH, 250):
        monkeypatch.setattr(stability, "_BATCH", batch)
        scan = scan_joint_region(*args, n_radial=3, n_angular=5)
        assert np.array_equal(scan.indicator, ind)
        # ruled-out cells too: the max up to the first exceedance
        assert np.allclose(scan.max_abs_r, upto, rtol=1e-12, atol=0.0)


def test_implicit_component_scan_matches_dense_oracle():
    # the grid's right edge ends on the resolvent pole zI = 1/gamma_ii
    t = load_builtin("imex-mri-sr32")
    pole = 1.0 / t.floats[2][1, 1]
    assert 1.0 - pole * t.floats[2][1, 1] == 0.0
    fast = SectorSpec(45.0, 100.0)
    scan = scan_component_region(t, "I", fast, (pole - 4.0, pole, -6.0, 6.0),
                                 (9, 9), n_radial=4, n_angular=4)
    ind, upto = _scan_oracle(t, scan, sector_samples(fast, 4, 4), [0.0])
    assert 0 < ind.sum() < ind.size
    assert scan.max_abs_r[4, 8] == math.inf
    assert np.array_equal(scan.indicator, ind)
    assert np.allclose(scan.max_abs_r, upto, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("where", ["omega diagonal", "gamma upper"])
def test_scan_rejects_non_triangular_tableau(where):
    # the triangular solve of a scan would give a silently wrong region for
    # such a tableau, so building one by hand already fails
    t = load_builtin("imex-mri-sr21")
    if where == "omega diagonal":
        om = [list(r) for r in t.omega[0]]
        om[2][2] = Fraction(1, 3)
        with pytest.raises(PreconditionError, match=re.escape(
                "Omega[0] not strictly lower triangular at (3,3)")):
            replace(t, omega=(tuple(map(tuple, om)),))
    else:
        gam = [list(r) for r in t.gamma]
        gam[1][3] = Fraction(1, 5)
        with pytest.raises(PreconditionError, match=re.escape(
                "Gamma not lower triangular at (2,4)")):
            replace(t, gamma=tuple(map(tuple, gam)))


def test_joint_scan_origin_neighborhood_stable():
    # near the origin every method is stable under small sector perturbations
    t = load_builtin("imex-mri-sr43")
    scan = scan_joint_region(t, SectorSpec(45.0, 0.01), SectorSpec(45.0, 0.01),
                             (-0.05, 0.0, -0.02, 0.02), (5, 5),
                             n_radial=4, n_angular=5)
    assert scan.indicator.all()


def test_scan_rejects_tiny_grid():
    t = load_builtin("imex-mri-sr21")
    with pytest.raises(ValueError):
        scan_component_region(t, "E", SectorSpec(45.0, 1.0),
                              (-1.0, 0.0, -1.0, 1.0), (1, 5))
    with pytest.raises(ValueError):
        scan_component_region(t, "X", SectorSpec(45.0, 1.0),
                              (-1.0, 0.0, -1.0, 1.0), (5, 5))


@pytest.mark.parametrize("build,named", [
    (lambda: SectorSpec(120.0, 1.0), "angle = 120.0 is not an angle"),
    (lambda: SectorSpec(True, 1.0), "angle = True is not an angle"),
    (lambda: SectorSpec(45.0, -1.0), "radius = -1.0 is not a finite number"),
    (lambda: SectorSpec(45.0, math.nan), "radius = nan is not"),
    (lambda: SectorSpec(45.0, math.inf), "radius = inf is not"),
    (lambda: phi(-1, 0.0), "k = -1 is not an integer >= 0"),
    (lambda: scan_component_region(
        load_builtin("imex-mri-sr21"), "X", SectorSpec(45.0, 1.0),
        (-1.0, 0.0, -1.0, 1.0), (5, 5)), "which = 'X' is not 'E' or 'I'"),
    (lambda: scan_component_region(
        load_builtin("imex-mri-sr21"), "E", SectorSpec(45.0, 1.0),
        (-1.0, 0.0, -1.0, 1.0), (1, 5)), "res = (1, 5) is not two integers"),
    (lambda: scan_joint_region(
        load_builtin("imex-mri-sr21"), SectorSpec(45.0, 1.0),
        SectorSpec(45.0, 1.0), (-1.0, 0.0, -1.0, math.nan), (5, 5)),
     "window = (-1.0, 0.0, -1.0, nan) is not four finite numbers"),
], ids=["angle", "angle-bool", "radius-negative", "radius-nan", "radius-inf",
        "phi-k", "which", "res", "window"])
def test_bad_input_names_the_field(build, named):
    # these raised bare ValueErrors naming no value, a NaN or inf radius
    # was accepted, and a NaN in the window scanned a grid of NaNs
    with pytest.raises(PreconditionError, match=re.escape(named)):
        build()

