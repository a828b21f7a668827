import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrisr.errors import PreconditionError
from mrisr.rk import INNER_METHODS, inner_method, rk_order_residuals
from mrisr.tableau import BUILTIN_NAMES, MRISRTableau, load_builtin
from mrisr.theory import (ARKPair, assemble_gark, base_ark, c_statistic,
                          check_ark_order, check_coupling_order,
                          check_internal_consistency, gark_linear_step,
                          method_order)

F = Fraction

SR_NAMES = ("imex-mri-sr21", "imex-mri-sr32", "imex-mri-sr43")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_internal_consistency_exact(name):
    rep = check_internal_consistency(load_builtin(name))
    assert rep.order == 2
    assert all(v == 0 for v in rep.residuals.values())


@pytest.mark.parametrize("name,order", [
    ("imex-mri-sr21", 2), ("imex-mri-sr32", 3), ("imex-mri-sr43", 4),
    ("merk2", 2), ("merk3", 3), ("merk4", 4), ("merk5", 4),
])
def test_base_ark_orders_exact(name, order):
    ark = base_ark(load_builtin(name))
    rep = check_ark_order(ark, order)
    assert rep.order == order
    if order < 4:
        # and the next order genuinely fails
        assert check_ark_order(ark, order + 1).order == order


def test_ark_condition_count():
    ark = base_ark(load_builtin("imex-mri-sr43"))
    rep = check_ark_order(ark, 4)
    # colored-tree enumeration: 2 + 2 + 6 + 18 conditions through order 4
    assert len(rep.residuals) == 28
    assert [len(check_ark_order(ark, p).residuals) for p in range(1, 4)] == \
        [2, 4, 10]
    with pytest.raises(ValueError):
        check_ark_order(ark, 5)


@pytest.mark.parametrize("name", sorted(INNER_METHODS))
def test_ark_check_of_one_method_is_the_rk_check(name):
    # one tree table serves both checks: with AE = AI and bE = bI every
    # colored condition is the single-method condition of its tree
    tb = INNER_METHODS[name]
    ark = ARKPair(AE=tb.A, AI=tb.A, bE=tb.b, bI=tb.b, c=tb.c)
    colored = check_ark_order(ark, 4).residuals
    single = rk_order_residuals(tb.A, tb.b, tb.c, 4)
    assert {(re.sub("[EI]", "", lbl), r) for lbl, r in colored.items()} == \
        set(single.items())


def test_base_ark_weights_differ_when_gamma_last_row_nonzero():
    ark21 = base_ark(load_builtin("imex-mri-sr21"))
    assert (ark21.bE != ark21.bI).any()
    ark43 = base_ark(load_builtin("imex-mri-sr43"))
    assert np.array_equal(ark43.bE, ark43.bI)  # last Gamma row is zero


@pytest.mark.parametrize("name", ["imex-mri-sr32", "imex-mri-sr43",
                                  "merk3", "merk4", "merk5"])
def test_coupling_order3_exact(name):
    rep = check_coupling_order(load_builtin(name), 3)
    assert rep.all_pass and all(v == 0 for v in rep.residuals.values())


@pytest.mark.parametrize("name", ["imex-mri-sr43", "merk4", "merk5"])
def test_coupling_order4_exact(name):
    rep = check_coupling_order(load_builtin(name), 4)
    assert rep.all_pass and all(v == 0 for v in rep.residuals.values())


def test_sr21_third_order_residual_is_one_twelfth():
    rep = check_coupling_order(load_builtin("imex-mri-sr21"), 3)
    assert not rep.all_pass
    assert F(1, 12) in {abs(v) for v in rep.residuals.values()}


def _one_omega_family(theta):
    """3-stage, n_omega = 1 tableau with a second-order explicit base."""
    b2 = F(1, 2) / theta
    b1 = 1 - b2
    omega0 = ((0, 0, 0), (theta, 0, 0), (b1, b2, 0))
    gamma = ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    return MRISRTableau(name=f"one-omega-{theta}", c=(0, theta, 1),
                        omega=(omega0,), gamma=gamma)


@given(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1, 5)]))
def test_one_omega_family_third_order_gap(theta):
    # with b.c = 1/2 forced, the third-order coupling residual is exactly
    # b.c/2 - 1/6 = 1/12 for every member of the family
    t = _one_omega_family(theta)
    assert check_internal_consistency(t).order == 2
    ark = base_ark(t)
    assert check_ark_order(ark, 2).order == 2
    rep = check_coupling_order(t, 3)
    res = rep.residuals["coupling3"]
    assert res == F(1, 12)


@pytest.mark.parametrize("name,inner_order,expect", [
    ("imex-mri-sr21", 2, 2),
    ("imex-mri-sr21", 4, 2),   # base method caps the order
    ("imex-mri-sr32", 2, 2),   # inner order floors it
    ("imex-mri-sr32", 3, 3),
    ("imex-mri-sr43", 3, 3),
    ("imex-mri-sr43", 4, 4),
    ("merk2", 2, 2),
    ("merk3", 3, 3),
    ("merk4", 4, 3),           # n_omega = 3 needs a fifth-order inner
    ("merk4", 5, 4),
    ("merk5", 5, 3),           # n_omega = 4 needs a sixth-order inner
    ("merk5", 6, 4),
])
def test_method_order_floors(name, inner_order, expect):
    assert method_order(load_builtin(name), inner_order) == expect


def test_c_statistic_pins():
    assert c_statistic(load_builtin("imex-mri-sr21"), 2) == \
        pytest.approx(0.09464252095919105, rel=1e-12)
    assert c_statistic(load_builtin("imex-mri-sr32"), 3) == \
        pytest.approx(2.6254006133622227, rel=1e-12)


def test_c_statistic_errors():
    with pytest.raises(ValueError):
        c_statistic(load_builtin("imex-mri-sr43"), 4)
    with pytest.raises(PreconditionError, match="merk3 has no embedding"):
        c_statistic(load_builtin("merk3"), 3)


def test_gark_bushy_precondition():
    # merk5 has n_omega = 4; heun only integrates monomials up to degree 1
    with pytest.raises(PreconditionError):
        assemble_gark(load_builtin("merk5"), inner_method("heun"))
    g = assemble_gark(load_builtin("merk5"), inner_method("zonneveld"))
    assert g.AFF.shape == (11 * 5, 11 * 5)


def test_gark_shapes_and_weights():
    t = load_builtin("imex-mri-sr21")
    g = assemble_gark(t, inner_method("heun"))
    ark = base_ark(t)
    assert np.array_equal(g.ASE[-1], ark.bE)
    assert np.array_equal(g.ASI[-1], ark.bI)
    # fast weights are the last ASF row: c_s * b^F on the last slow block
    assert np.array_equal(g.ASF[-1, -2:], (F(1, 2), F(1, 2)))
    assert all(x == 0 for x in g.ASF[-1, :-2])


def test_gark_linear_step_neutral():
    t = load_builtin("imex-mri-sr21")
    g = assemble_gark(t, inner_method("heun"))
    assert gark_linear_step(g, 0.0, 0.0, 0.0) == pytest.approx(1.0)


_INNER_BY = {"imex-mri-sr21": "heun", "imex-mri-sr43": "bogacki-shampine",
             "merk2": "heun", "merk3": "bogacki-shampine",
             "merk4": "zonneveld", "merk5": "zonneveld"}


@pytest.mark.parametrize("name", sorted(_INNER_BY))
def test_step_equals_gark_flattening_at_m1(name):
    # with one inner pass per stage (all abscissae <= 1) the time stepper
    # and the flattened linear stage system are the same algorithm
    from mrisr.integrator import SplitIVP, StepStats, step
    t = load_builtin(name)
    inner = inner_method(_INNER_BY[name])
    g = assemble_gark(t, inner)
    lamF, lamE, lamI = -3.0, -1.3, -0.7
    H = 0.4
    p = SplitIVP(dim=1, fF=lambda tt, y: lamF * y, fE=lambda tt, y: lamE * y,
                 fI=lambda tt, y: lamI * y, y0=np.array([1.0]))
    oracle = gark_linear_step(g, lamF * H, lamE * H, lamI * H)
    y1, _, _ = step(p, t, inner, p.y0, 0.0, H, 1, stats=StepStats())
    assert y1[0] == pytest.approx(oracle.real, abs=1e-13)
