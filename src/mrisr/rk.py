"""Inner (fast) explicit Runge-Kutta methods and exact order-condition checks.

Coefficients are stored as exact rationals so that order conditions and the
bushy-tree quadrature conditions b^T c^k = 1/(k+1) hold with zero residual.
A table's orders, its float view and the stage plans of its fast solves are
derived from its coefficients, each once, on first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import INTEGER, PreconditionError, one_of, require

__all__ = ["ButcherTable", "rk_order_residuals", "rk_order",
           "bushy_tree_residuals", "HEUN", "BOGACKI_SHAMPINE",
           "ZONNEVELD", "CASH_KARP", "INNER_METHODS", "inner_method"]


def _fmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _fvec(row):
    return tuple(Fraction(x) for x in row)


def _readonly(rows):
    """Float ndarray of nested Fractions that refuses writes."""
    a = np.array(rows, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ButcherTable:
    """An explicit RK method, optionally with an embedded weight row.

    A, b, c and bhat hold Fractions. Construction checks that A is strictly
    lower triangular with row sums c, all sized by b, and that b (and bhat)
    sum to 1, so every table has order >= 1. order and emb_order
    are derived from the coefficients; floats and plans are the float forms
    solve_fast_ivp reads. Each is built on first use and cached.
    """

    name: str
    A: tuple
    b: tuple
    c: tuple
    bhat: tuple = None

    def __post_init__(self):
        s = len(self.b)
        if (len(self.A) != s or any(len(row) != s for row in self.A)
                or len(self.c) != s
                or (self.bhat is not None and len(self.bhat) != s)):
            raise PreconditionError(f"{self.name}: A must be {s}x{s}, and c "
                                    f"and bhat of length {s}, as b is")
        for i, row in enumerate(self.A):
            if any(row[i:]):
                raise PreconditionError(f"{self.name}: row {i + 1} of A is "
                                        "not strictly lower triangular")
            if sum(row) != self.c[i]:
                raise PreconditionError(
                    f"{self.name}: row {i + 1} of A does not sum to c")
        for key, w in (("b", self.b), ("bhat", self.bhat)):
            if w is not None and sum(w) != 1:
                raise PreconditionError(
                    f"{self.name}: {key} does not sum to 1")

    @property
    def stages(self):
        return len(self.b)

    @cached_property
    def order(self):
        """Order of b: the largest p <= 5 whose rooted-tree conditions all
        hold exactly (a table of order 6 or more reads 5)."""
        return rk_order(self.A, self.b, self.c)

    @cached_property
    def emb_order(self):
        """Order of bhat, capped at 5 like order; None without bhat."""
        return (None if self.bhat is None
                else rk_order(self.A, self.bhat, self.c))

    @cached_property
    def floats(self):
        """Read-only float arrays (A, b, c, bhat-or-None), built once."""
        bhat = None if self.bhat is None else _readonly(self.bhat)
        return _readonly(self.A), _readonly(self.b), _readonly(self.c), bhat

    @cached_property
    def plans(self):
        """The stage plans of a fast solve, built once from the float view:
        (fixed, embedded), embedded None without bhat. Each is
        (stages, c, a, b, db): the stages a substep runs (in a fixed solve
        up to the last one of nonzero weight b_q), their c_q as Python
        floats, one tuple of the nonzero (r, a_qr) per stage q = 2..stages,
        b, and b - bhat as a read-only array (None in a fixed solve).
        """
        A, b, c, bhat = self.floats

        def plan(n, db):
            a = tuple(tuple((r, float(A[q, r])) for r in range(q)
                            if A[q, r] != 0.0) for q in range(1, n))
            return n, tuple(c[:n].tolist()), a, b, db

        fixed = plan(int(np.flatnonzero(b)[-1]) + 1, None)
        if bhat is None:
            return fixed, None
        db = b - bhat
        db.flags.writeable = False
        return fixed, plan(len(b), db)


# Rooted trees of order 1..5 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.2) as (label template, density, elementary weight Phi(A, B, c)); the
# order condition is b.Phi = 1/density. {s}, {n} and {m} in a template name
# the colours of b, A and B, and a tree without {n} or {m} ignores A or B.
# Order 5 is only evaluated with one colour, so no tree names a third.
_TREES = {
    1: [("b{s}.1", 1, lambda A, B, c: c ** 0)],
    2: [("b{s}.c", 2, lambda A, B, c: c)],
    3: [("b{s}.c2", 3, lambda A, B, c: c ** 2),
        ("b{s}.A{n}c", 6, lambda A, B, c: A @ c)],
    4: [("b{s}.c3", 4, lambda A, B, c: c ** 3),
        ("b{s}.cA{n}c", 8, lambda A, B, c: c * (A @ c)),
        ("b{s}.A{n}c2", 12, lambda A, B, c: A @ c ** 2),
        ("b{s}.A{n}A{m}c", 24, lambda A, B, c: A @ (B @ c))],
    5: [("b{s}.c4", 5, lambda A, B, c: c ** 4),
        ("b{s}.c2A{n}c", 10, lambda A, B, c: c ** 2 * (A @ c)),
        ("b{s}.A{n}cA{m}c", 20, lambda A, B, c: (A @ c) * (B @ c)),
        ("b{s}.cA{n}c2", 15, lambda A, B, c: c * (A @ c ** 2)),
        ("b{s}.A{n}c3", 20, lambda A, B, c: A @ c ** 3),
        ("b{s}.cA{n}A{m}c", 30, lambda A, B, c: c * (A @ (B @ c))),
        ("b{s}.A{n}cA{m}c_", 40, lambda A, B, c: A @ (c * (B @ c))),
        ("b{s}.A{n}A{m}c2", 60, lambda A, B, c: A @ (B @ c ** 2)),
        ("b{s}.A{n}A{m}A{m}c", 120, lambda A, B, c: A @ (B @ (B @ c)))],
}


def _exact(x):
    """Object ndarray of exact entries, so @ and * stay exact."""
    return np.array(x, dtype=object)


def _tree_residuals(weights, mats, c, p):
    """{q: {label: b.Phi - 1/density}} for every tree of order q <= p (<= 5).

    weights and mats map colour letters to weight vectors and coefficient
    matrices; each tree is evaluated for every colouring of b, A and B.
    """
    require("p", p, INTEGER.at_most(5))
    c = _exact(c)
    weights = {s: _exact(b) for s, b in weights.items()}
    mats = {n: _exact(A) for n, A in mats.items()}
    groups = {q: {} for q in range(1, p + 1)}
    for q, res in groups.items():
        for tmpl, density, phi in _TREES[q]:
            Phis = {(n, m): phi(mats.get(n), mats.get(m), c)
                    for n in (mats if "{n}" in tmpl else [""])
                    for m in (mats if "{m}" in tmpl else [""])}
            for s, b in weights.items():
                for (n, m), Phi in Phis.items():
                    res[tmpl.format(s=s, n=n, m=m)] = \
                        b @ Phi - Fraction(1, density)
    return groups


def _leading_order(groups):
    """Largest q such that every residual of orders 1..q is zero."""
    q = 0
    while q + 1 in groups and not any(groups[q + 1].values()):
        q += 1
    return q


def rk_order_residuals(A, b, c, p):
    """Residuals of the rooted-tree order conditions for a single RK method.

    Returns {label: Fraction} covering every condition of order <= p, one
    per rooted tree (1, 1, 2, 4 and 9 of orders 1 to 5), in order:
      order 1: b.1 = 1
      order 2: b.c = 1/2
      order 3: b.c^2 = 1/3, b.Ac = 1/6
      order 4: b.c^3 = 1/4, b.(c*Ac) = 1/8, b.Ac^2 = 1/12, b.AAc = 1/24
      order 5: the nine rooted trees of order five
    The same tree table serves the additive pairs of
    theory.check_ark_order, in two colours. p is an integer <= 5.
    """
    groups = _tree_residuals({"": b}, {"": A}, c, p)
    return {lbl: r for g in groups.values() for lbl, r in g.items()}


def rk_order(A, b, c):
    """Largest order <= 5 at which all rooted-tree conditions hold exactly."""
    return _leading_order(_tree_residuals({"": b}, {"": A}, c, 5))


def bushy_tree_residuals(b, c, kmax):
    """Residuals of b^T c^k - 1/(k+1) for k = 0..kmax."""
    b, c = _exact(b), _exact(c)
    return {k: b @ c ** k - Fraction(1, k + 1) for k in range(kmax + 1)}


HEUN = ButcherTable(
    name="heun",
    A=_fmat([[0, 0], [1, 0]]),
    b=_fvec(["1/2", "1/2"]),
    c=_fvec([0, 1]),
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
    bhat=_fvec(["7/24", "1/4", "1/3", "1/8"]),
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
    bhat=_fvec(["-1/2", "7/3", "7/3", "13/6", "-16/3"]),
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
    bhat=_fvec(["2825/27648", 0, "18575/48384", "13525/55296",
                "277/14336", "1/4"]),
)

INNER_METHODS = {
    "heun": HEUN,
    "bogacki-shampine": BOGACKI_SHAMPINE,
    "zonneveld": ZONNEVELD,
    "cash-karp": CASH_KARP,
}

INNER_NAME = one_of(*INNER_METHODS)


def inner_method(name):
    """Look up an inner method by name."""
    require("inner method", name, INNER_NAME)
    return INNER_METHODS[name]
