import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mrisr.errors import PreconditionError, UnknownMethodError
from mrisr.rk import (BOGACKI_SHAMPINE, CASH_KARP, HEUN, INNER_METHODS,
                      ZONNEVELD, ButcherTable, bushy_tree_residuals, certify,
                      frac, inner_method, rk_order, rk_order_residuals)


def test_frac_coercion():
    assert frac("7/24") == Fraction(7, 24)
    assert frac(3) == 3
    assert frac(Fraction(1, 2)) == Fraction(1, 2)


def test_stated_orders_verified_exactly():
    assert rk_order(HEUN.A, HEUN.b, HEUN.c) == 2
    assert rk_order(BOGACKI_SHAMPINE.A, BOGACKI_SHAMPINE.b,
                    BOGACKI_SHAMPINE.c) == 3
    assert rk_order(ZONNEVELD.A, ZONNEVELD.b, ZONNEVELD.c) == 4
    assert rk_order(CASH_KARP.A, CASH_KARP.b, CASH_KARP.c) == 5


def test_embedded_orders():
    assert rk_order(BOGACKI_SHAMPINE.A, BOGACKI_SHAMPINE.bhat,
                    BOGACKI_SHAMPINE.c) == 2
    assert rk_order(ZONNEVELD.A, ZONNEVELD.bhat, ZONNEVELD.c) == 3
    assert rk_order(CASH_KARP.A, CASH_KARP.bhat, CASH_KARP.c) == 4


def test_zonneveld_is_rk4_plus_extra_stage():
    # propagating weights reduce to classical RK4 (last weight zero)
    assert ZONNEVELD.b == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3),
                           Fraction(1, 6), 0)
    assert ZONNEVELD.c[4] == Fraction(3, 4)


def test_order_residual_values():
    # Euler: b.c - 1/2 = -1/2
    res = rk_order_residuals(((0,),), (Fraction(1),), (Fraction(0),), 2)
    assert res["b.1"] == 0
    assert res["b.c"] == Fraction(-1, 2)


def test_bushy_tree_residuals():
    res = bushy_tree_residuals(ZONNEVELD.b, ZONNEVELD.c, 3)
    assert res[0] == 0 and res[1] == 0 and res[2] == 0
    # b.c^3 = 1/4 holds for RK4 weights too
    assert res[3] == 0
    res2 = bushy_tree_residuals(HEUN.b, HEUN.c, 2)
    assert res2[0] == 0 and res2[1] == 0
    assert res2[2] == Fraction(1, 2) - Fraction(1, 3)


def test_certify_rejects_wrong_order():
    bad = ButcherTable(name="bad", A=HEUN.A, b=HEUN.b, c=HEUN.c, order=3)
    with pytest.raises(PreconditionError):
        certify(bad)


def test_certify_rejects_bad_row_sums():
    bad = ButcherTable(name="bad", A=((0, 0), (0, 0)), b=HEUN.b, c=HEUN.c,
                       order=1)
    with pytest.raises(PreconditionError):
        certify(bad)


def test_inner_method_lookup():
    assert inner_method("heun") is HEUN
    with pytest.raises(UnknownMethodError):
        inner_method("rk4")


def test_arrays_are_floats():
    A, b, c, bhat = BOGACKI_SHAMPINE.arrays()
    assert A.dtype == float and bhat is not None
    assert np.allclose(A.sum(axis=1), c)
    # built once, and shared read-only
    assert BOGACKI_SHAMPINE.arrays() is BOGACKI_SHAMPINE.arrays()
    assert list(bhat) == [float(x) for x in BOGACKI_SHAMPINE.bhat]
    with pytest.raises(ValueError):
        b[0] = 0.0


@given(st.sampled_from(sorted(INNER_METHODS)))
def test_all_inner_methods_certify(name):
    certify(INNER_METHODS[name])


@given(st.sampled_from(sorted(INNER_METHODS)),
       st.floats(min_value=-3.0, max_value=-0.01))
def test_linear_stability_consistency(name, z):
    # R(z) = b^T (I - zA)^{-1} 1 * z + 1 matches the exp-Taylor to order p
    t = INNER_METHODS[name]
    A, b, c, _ = t.arrays()
    s = len(b)
    R = 1.0 + z * b @ np.linalg.solve(np.eye(s) - z * A, np.ones(s))
    taylor = sum(z ** k / math.factorial(k) for k in range(t.order + 1))
    assert abs(R - taylor) <= abs(z) ** (t.order + 1)
