"""Inner (fast) explicit Runge-Kutta methods and exact order-condition checks.

Coefficients are stored as exact rationals so that order conditions and the
bushy-tree quadrature conditions b^T c^k = 1/(k+1) can be verified with zero
residual. A table's float view is built once, on first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PreconditionError, UnknownMethodError


def frac(x):
    """Coerce ints, strings like '7/24', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _fmat(rows):
    return tuple(tuple(frac(x) for x in row) for row in rows)


def _fvec(row):
    return tuple(frac(x) for x in row)


def _readonly(rows):
    """Float ndarray of nested Fractions that refuses writes."""
    a = np.array(rows, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ButcherTable:
    """An explicit RK method, optionally with an embedded weight row.

    A is stored dense (strictly lower triangular for the shipped methods),
    b/c/bhat as tuples of Fractions. `order` and `emb_order` are the orders the
    coefficients are certified to in certify().
    """

    name: str
    A: tuple
    b: tuple
    c: tuple
    order: int
    bhat: tuple = None
    emb_order: int = None

    @property
    def stages(self):
        return len(self.b)

    def arrays(self):
        """Read-only float views (A, b, c, bhat-or-None), built once."""
        return self._arrays

    @cached_property
    def _arrays(self):
        bhat = None if self.bhat is None else _readonly(self.bhat)
        return _readonly(self.A), _readonly(self.b), _readonly(self.c), bhat


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _matvec(A, v):
    return [_dot(row, v) for row in A]


def rk_order_residuals(A, b, c, p):
    """Residuals of the rooted-tree order conditions for a single RK method.

    Returns {label: Fraction} covering every condition of order <= p (p <= 5):
      order 1: b.1 = 1
      order 2: b.c = 1/2
      order 3: b.c^2 = 1/3, b.Ac = 1/6
      order 4: b.c^3 = 1/4, b.(c*Ac) = 1/8, b.Ac^2 = 1/12, b.AAc = 1/24
      order 5: the nine rooted trees of order five
    """
    res = {}
    res["b.1"] = sum(b) - 1
    if p >= 2:
        res["b.c"] = _dot(b, c) - Fraction(1, 2)
    if p >= 3:
        res["b.c2"] = _dot(b, [x * x for x in c]) - Fraction(1, 3)
        Ac = _matvec(A, c)
        res["b.Ac"] = _dot(b, Ac) - Fraction(1, 6)
    if p >= 4:
        Ac = _matvec(A, c)
        res["b.c3"] = _dot(b, [x ** 3 for x in c]) - Fraction(1, 4)
        res["b.cAc"] = _dot(b, [ci * x for ci, x in zip(c, Ac)]) - Fraction(1, 8)
        res["b.Ac2"] = _dot(b, _matvec(A, [x * x for x in c])) - Fraction(1, 12)
        res["b.AAc"] = _dot(b, _matvec(A, Ac)) - Fraction(1, 24)
    if p >= 5:
        Ac = _matvec(A, c)
        c2 = [x * x for x in c]
        Ac2 = _matvec(A, c2)
        res["b.c4"] = _dot(b, [x ** 4 for x in c]) - Fraction(1, 5)
        res["b.c2Ac"] = _dot(b, [ci * ci * x for ci, x in zip(c, Ac)]) \
            - Fraction(1, 10)
        res["b.AcAc"] = _dot(b, [x * x for x in Ac]) - Fraction(1, 20)
        res["b.cAc2"] = _dot(b, [ci * x for ci, x in zip(c, Ac2)]) \
            - Fraction(1, 15)
        res["b.Ac3"] = _dot(b, _matvec(A, [x ** 3 for x in c])) \
            - Fraction(1, 20)
        res["b.cAAc"] = _dot(b, [ci * x for ci, x in
                                 zip(c, _matvec(A, Ac))]) - Fraction(1, 30)
        res["b.AcAc_"] = _dot(b, _matvec(A, [ci * x for ci, x in
                                             zip(c, Ac)])) - Fraction(1, 40)
        res["b.AAc2"] = _dot(b, _matvec(A, Ac2)) - Fraction(1, 60)
        res["b.AAAc"] = _dot(b, _matvec(A, _matvec(A, Ac))) - Fraction(1, 120)
    return res


def rk_order(A, b, c, maxp=5):
    """Largest order <= maxp at which all conditions hold exactly."""
    by_order = {1: ["b.1"], 2: ["b.c"], 3: ["b.c2", "b.Ac"],
                4: ["b.c3", "b.cAc", "b.Ac2", "b.AAc"],
                5: ["b.c4", "b.c2Ac", "b.AcAc", "b.cAc2", "b.Ac3",
                    "b.cAAc", "b.AcAc_", "b.AAc2", "b.AAAc"]}
    res = rk_order_residuals(A, b, c, maxp)
    p = 0
    for q in range(1, maxp + 1):
        if all(res[lbl] == 0 for lbl in by_order[q]):
            p = q
        else:
            break
    return p


def bushy_tree_residuals(b, c, kmax):
    """Residuals of b^T c^k - 1/(k+1) for k = 0..kmax."""
    return {k: _dot(b, [x ** k for x in c]) - Fraction(1, k + 1)
            for k in range(kmax + 1)}


def certify(table):
    """Verify the stated orders of a ButcherTable exactly; raise if wrong.

    Also checks row-sum consistency c = A.1 and that b sums to 1.
    """
    for i, row in enumerate(table.A):
        if sum(row) != table.c[i]:
            raise PreconditionError(
                f"{table.name}: row {i + 1} of A does not sum to c")
    got = rk_order(table.A, table.b, table.c, maxp=min(table.order, 5))
    if got < min(table.order, 5):
        raise PreconditionError(
            f"{table.name}: stated order {table.order}, verified only {got}")
    if table.bhat is not None:
        got_hat = rk_order(table.A, table.bhat, table.c,
                           maxp=min(table.emb_order, 5))
        if got_hat < min(table.emb_order, 5):
            raise PreconditionError(
                f"{table.name}: embedded order {table.emb_order}, "
                f"verified only {got_hat}")
    return table


HEUN = ButcherTable(
    name="heun",
    A=_fmat([[0, 0], [1, 0]]),
    b=_fvec(["1/2", "1/2"]),
    c=_fvec([0, 1]),
    order=2,
)

# Bogacki-Shampine 3(2). The propagating weights are third order; the fourth
# stage is only used by the embedded second-order estimate.
BOGACKI_SHAMPINE = ButcherTable(
    name="bogacki-shampine",
    A=_fmat([
        [0, 0, 0, 0],
        ["1/2", 0, 0, 0],
        [0, "3/4", 0, 0],
        ["2/9", "1/3", "4/9", 0],
    ]),
    b=_fvec(["2/9", "1/3", "4/9", 0]),
    c=_fvec([0, "1/2", "3/4", 1]),
    order=3,
    bhat=_fvec(["7/24", "1/4", "1/3", "1/8"]),
    emb_order=2,
)

# Zonneveld 4(3): classical RK4 plus a fifth stage giving a third-order
# embedded estimate.
ZONNEVELD = ButcherTable(
    name="zonneveld",
    A=_fmat([
        [0, 0, 0, 0, 0],
        ["1/2", 0, 0, 0, 0],
        [0, "1/2", 0, 0, 0],
        [0, 0, 1, 0, 0],
        ["5/32", "7/32", "13/32", "-1/32", 0],
    ]),
    b=_fvec(["1/6", "1/3", "1/3", "1/6", 0]),
    c=_fvec([0, "1/2", "1/2", 1, "3/4"]),
    order=4,
    bhat=_fvec(["-1/2", "7/3", "7/3", "13/6", "-16/3"]),
    emb_order=3,
)

# Cash-Karp 5(4): fifth-order propagating weights with a fourth-order
# embedded estimate.
CASH_KARP = ButcherTable(
    name="cash-karp",
    A=_fmat([
        [0, 0, 0, 0, 0, 0],
        ["1/5", 0, 0, 0, 0, 0],
        ["3/40", "9/40", 0, 0, 0, 0],
        ["3/10", "-9/10", "6/5", 0, 0, 0],
        ["-11/54", "5/2", "-70/27", "35/27", 0, 0],
        ["1631/55296", "175/512", "575/13824", "44275/110592",
         "253/4096", 0],
    ]),
    b=_fvec(["37/378", 0, "250/621", "125/594", 0, "512/1771"]),
    c=_fvec([0, "1/5", "3/10", "3/5", 1, "7/8"]),
    order=5,
    bhat=_fvec(["2825/27648", 0, "18575/48384", "13525/55296",
                "277/14336", "1/4"]),
    emb_order=4,
)

INNER_METHODS = {
    "heun": HEUN,
    "bogacki-shampine": BOGACKI_SHAMPINE,
    "zonneveld": ZONNEVELD,
    "cash-karp": CASH_KARP,
}

_certified = set()


def inner_method(name):
    """Look up an inner method by name, certifying it on first access."""
    try:
        table = INNER_METHODS[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown inner method {name!r}; have {sorted(INNER_METHODS)}"
        ) from None
    if name not in _certified:
        certify(table)
        _certified.add(name)
    return table
