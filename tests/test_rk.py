import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mrisr.errors import PreconditionError
from mrisr.rk import (BOGACKI_SHAMPINE, CASH_KARP, HEUN, INNER_METHODS,
                      ZONNEVELD, ButcherTable, bushy_tree_residuals,
                      inner_method, rk_order, rk_order_residuals)


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


def test_order_condition_counts():
    # 1, 1, 2, 4 and 9 rooted trees of orders 1 to 5
    A, b, c = CASH_KARP.A, CASH_KARP.b, CASH_KARP.c
    assert [len(rk_order_residuals(A, b, c, p)) for p in range(1, 6)] == \
        [1, 2, 4, 8, 17]
    assert all(r == 0 for r in rk_order_residuals(A, b, c, 5).values())
    with pytest.raises(ValueError):
        rk_order_residuals(A, b, c, 6)


def test_bushy_tree_residuals():
    res = bushy_tree_residuals(ZONNEVELD.b, ZONNEVELD.c, 3)
    assert res[0] == 0 and res[1] == 0 and res[2] == 0
    # b.c^3 = 1/4 holds for RK4 weights too
    assert res[3] == 0
    res2 = bushy_tree_residuals(HEUN.b, HEUN.c, 2)
    assert res2[0] == 0 and res2[1] == 0
    assert res2[2] == Fraction(1, 2) - Fraction(1, 3)


def test_construction_rejects_bad_row_sums():
    with pytest.raises(PreconditionError,
                       match=r"^bad: row 2 of A does not sum to c$"):
        ButcherTable(name="bad", A=((0, 0), (0, 0)), b=HEUN.b, c=HEUN.c)
    # the registries are keyed by name, so it must be a string
    with pytest.raises(PreconditionError, match=r"^name = 5 is not a string$"):
        ButcherTable(name=5, A=HEUN.A, b=HEUN.b, c=HEUN.c)


def test_hand_built_table_derives_its_orders():
    # nothing states them, so a table built by hand reads its own
    t = ButcherTable(name="mine", A=HEUN.A, b=HEUN.b, c=HEUN.c)
    assert (t.order, t.emb_order) == (2, None)


def test_builtin_inner_orders():
    assert [(INNER_METHODS[n].order, INNER_METHODS[n].emb_order)
            for n in ("heun", "bogacki-shampine", "zonneveld",
                      "cash-karp")] == [(2, None), (3, 2), (4, 3), (5, 4)]


def test_inner_method_lookup():
    assert all(inner_method(n) is t for n, t in INNER_METHODS.items())
    with pytest.raises(PreconditionError, match="inner method = 'rk4'"):
        inner_method("rk4")


def test_arrays_are_floats():
    A, b, c, bhat = BOGACKI_SHAMPINE.floats
    assert A.dtype == float and bhat is not None
    assert np.allclose(A.sum(axis=1), c)
    # built once, and shared read-only
    assert BOGACKI_SHAMPINE.floats is BOGACKI_SHAMPINE.floats
    assert list(bhat) == [float(x) for x in BOGACKI_SHAMPINE.bhat]
    with pytest.raises(ValueError):
        b[0] = 0.0


@pytest.mark.parametrize("name", sorted(INNER_METHODS))
def test_stage_plans_are_the_float_view(name):
    # (fixed, embedded): the stages run, their c, every nonzero a_qr in
    # order and no zero, b, and b - bhat for the embedded mode
    table = INNER_METHODS[name]
    A, b, c, bhat = table.floats
    plans = table.plans
    assert table.plans is plans  # built once
    assert type(plans) is tuple and len(plans) == 2
    last = max(q for q in range(len(b)) if b[q] != 0.0) + 1
    modes = [(plans[0], last, None)]
    if bhat is None:
        assert plans[1] is None
    else:
        modes.append((plans[1], len(b), b - bhat))
    for plan, n, db in modes:
        stages, cs, a, pb, pdb = plan
        assert type(plan) is tuple and stages == n
        assert cs == tuple(float(x) for x in c[:n])
        assert a == tuple(tuple((r, A[q, r]) for r in range(q)
                                if A[q, r] != 0.0) for q in range(1, n))
        assert all(type(aq) is tuple and type(x) is float and x != 0.0
                   for aq in a for _, x in aq)
        assert pb is b
        if db is None:
            assert pdb is None
        else:
            assert pdb.tobytes() == db.tobytes()
            with pytest.raises(ValueError):
                pdb[0] = 0.0
    with pytest.raises(TypeError):
        plans[0][2][0] = ()


@given(st.sampled_from(sorted(INNER_METHODS)),
       st.floats(min_value=-3.0, max_value=-0.01))
def test_linear_stability_consistency(name, z):
    # R(z) = b^T (I - zA)^{-1} 1 * z + 1 matches the exp-Taylor to order p
    t = INNER_METHODS[name]
    A, b, c, _ = t.floats
    s = len(b)
    R = 1.0 + z * b @ np.linalg.solve(np.eye(s) - z * A, np.ones(s))
    taylor = sum(z ** k / math.factorial(k) for k in range(t.order + 1))
    assert abs(R - taylor) <= abs(z) ** (t.order + 1)
