"""Order-condition verification: GARK flattening, base ARK extraction,
internal consistency, coupling conditions, and the embedding C-statistic.

All residuals are computed in exact rational arithmetic; a residual of 0 means
the condition holds identically, not merely to rounding.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateEmbeddingError, PreconditionError
from .rk import _dot, _matvec, bushy_tree_residuals
from .tableau import omega_bar

__all__ = [
    "GarkTables", "ARKPair", "OrderReport", "assemble_gark", "base_ark",
    "check_internal_consistency", "check_coupling_order", "check_ark_order",
    "method_order", "c_statistic", "gark_linear_step",
]


def _zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


@dataclass(frozen=True)
class OrderReport:
    """Labelled residuals with pass flags.

    `order` is the largest verified order for the check that produced the
    report (-1 when not applicable). `notes` carries free-form caveats.
    """

    order: int
    residuals: dict
    tolerance: Fraction = Fraction(0)
    notes: tuple = ()

    def passes(self, label):
        return abs(self.residuals[label]) <= self.tolerance

    @property
    def all_pass(self):
        return all(self.passes(lbl) for lbl in self.residuals)


@dataclass(frozen=True)
class ARKPair:
    """The slow base method: an implicit-explicit pair with shared abscissae.

    bE/bI may differ when the last Gamma row is nonzero.
    """

    AE: tuple
    AI: tuple
    bE: tuple
    bI: tuple
    c: tuple


@dataclass(frozen=True)
class GarkTables:
    """Flattened coupled coefficient tables of a multirate method + inner RK.

    Fast block unknowns are ordered stage-major: the s_F inner stages of slow
    stage 1, then of slow stage 2, and so on.
    """

    AFF: tuple
    AFE: tuple
    AFI: tuple
    ASF: tuple
    ASE: tuple
    ASI: tuple
    bF: tuple
    bE: tuple
    bI: tuple
    cF: tuple
    cS: tuple


def base_ark(t):
    """Extract the slow base ARK pair (AE = Omega-bar, AI = Omega-bar + Gamma)."""
    Ob = omega_bar(t)
    s = t.s
    AI = tuple(tuple(Ob[i][j] + t.gamma[i][j] for j in range(s))
               for i in range(s))
    return ARKPair(AE=Ob, AI=AI, bE=Ob[s - 1], bI=AI[s - 1], c=t.c)


def assemble_gark(t, inner):
    """Flatten a tableau + inner RK into coupled GARK tables.

    Requires the inner weights to integrate monomials up to degree
    n_omega - 1 exactly (b^T c^k = 1/(k+1)); that is what lets the
    tendency-polynomial forcing be represented with the listed tables.
    """
    bushy = bushy_tree_residuals(inner.b, inner.c, t.n_omega - 1)
    bad = [k for k, r in bushy.items() if r != 0]
    if bad:
        raise PreconditionError(
            "inner method fails quadrature condition b^T c^k = 1/(k+1) "
            f"for k in {bad} (needed for n_omega = {t.n_omega})")
    s, sF = t.s, inner.stages
    n = s * sF
    Ob = omega_bar(t)

    AFF = _zeros(n, n)
    for i in range(s):
        for p in range(sF):
            for q in range(sF):
                AFF[i * sF + p][i * sF + q] = t.c[i] * inner.A[p][q]

    # Column j of the fast-slow coupling: sum_k Omega[k][i][j] * (A^F c^F^k)
    AFE = _zeros(n, s)
    powc = [[x ** k for x in inner.c] for k in range(t.n_omega)]
    Ack = [_matvec(inner.A, powc[k]) for k in range(t.n_omega)]
    for i in range(s):
        for j in range(s):
            for k in range(t.n_omega):
                w = t.omega[k][i][j]
                if w:
                    for p in range(sF):
                        AFE[i * sF + p][j] += w * Ack[k][p]

    ASF = _zeros(s, n)
    for i in range(s):
        for p in range(sF):
            ASF[i][i * sF + p] = t.c[i] * inner.b[p]

    ASI = tuple(tuple(Ob[i][j] + t.gamma[i][j] for j in range(s))
                for i in range(s))
    cF = tuple(t.c[i] * inner.c[p] for i in range(s) for p in range(sF))
    bF = tuple(ASF[s - 1])

    frz = lambda M: tuple(tuple(row) for row in M)
    AFE = frz(AFE)
    return GarkTables(
        AFF=frz(AFF), AFE=AFE, AFI=AFE, ASF=frz(ASF),
        ASE=Ob, ASI=ASI,
        bF=bF, bE=Ob[s - 1], bI=ASI[s - 1],
        cF=cF, cS=t.c,
    )


def check_internal_consistency(t):
    """Row-sum conditions: Omega[0].1 = c, Omega[k>=1].1 = 0, Gamma.1 = 0.

    With a base method and inner method of order >= 2 these act as the
    second-order conditions. Residuals are vector max-norms, exact.
    """
    res = {}
    s = t.s
    res["Omega[0].1-c"] = max(abs(sum(t.omega[0][i]) - t.c[i])
                              for i in range(s))
    for k in range(1, t.n_omega):
        res[f"Omega[{k}].1"] = max(abs(sum(t.omega[k][i])) for i in range(s))
    res["Gamma.1"] = max(abs(sum(t.gamma[i])) for i in range(s))
    order = 2 if all(v == 0 for v in res.values()) else 0
    return OrderReport(order=order, residuals=res)


def _weighted_omega_sum(t, denom):
    """sum_k Omega[k] * denom(k) as an s-by-s Fraction matrix."""
    s = t.s
    out = _zeros(s, s)
    for k, O in enumerate(t.omega):
        w = denom(k)
        for i in range(s):
            for j in range(s):
                out[i][j] += O[i][j] * w
    return out


def _coupling_residuals(t, p, final_omega_rows=None, final_gamma_row=None):
    """Coupling-condition residuals at exactly order p (3 or 4).

    By default the conditions use the last tableau row (the solution stage);
    passing embedding rows instead yields the embedded method's residuals.
    """
    s = t.s
    c = list(t.c)
    if final_omega_rows is None:
        final_omega_rows = tuple(t.omega[k][s - 1] for k in range(t.n_omega))
        final_gamma_row = t.gamma[s - 1]

    def fin(denom):
        # final-row weighted omega sum, as a length-s vector
        out = [Fraction(0)] * s
        for k, row in enumerate(final_omega_rows):
            w = denom(k)
            for j in range(s):
                out[j] += row[j] * w
        return out

    L = _weighted_omega_sum(t, lambda k: Fraction(1, (k + 1) * (k + 2)))
    res = {}
    if p == 3:
        res["coupling3"] = _dot(fin(
            lambda k: Fraction(1, (k + 1) * (k + 2))), c) - Fraction(1, 6)
        return res
    if p != 4:
        raise ValueError("coupling conditions available for p = 3 or 4 only")
    Ob = omega_bar(t)
    bE = fin(lambda k: Fraction(1, k + 1))
    Lc = _matvec(L, c)
    CLc = [c[i] * Lc[i] for i in range(s)]
    res["coupling4a"] = _dot(fin(
        lambda k: Fraction(1, (k + 1) * (k + 3))), c) - Fraction(1, 8)
    finL = fin(lambda k: Fraction(1, (k + 1) * (k + 2)))
    res["coupling4b"] = _dot(finL, [x * x for x in c]) - Fraction(1, 12)
    res["coupling4c"] = _dot(final_gamma_row, CLc)
    res["coupling4d"] = _dot(bE, CLc) - Fraction(1, 24)
    res["coupling4f"] = _dot(finL, _matvec(Ob, c)) - Fraction(1, 24)
    res["coupling4g"] = _dot(finL, _matvec(t.gamma, c))
    # implied by coupling3 minus coupling4a; checked as a sanity assertion
    res["coupling4-implied"] = _dot(fin(
        lambda k: Fraction(1, (k + 1) * (k + 2) * (k + 3))), c) - Fraction(1, 24)
    return res


def check_coupling_order(t, p):
    """Coupling conditions beyond the base method, at order p in {3, 4}."""
    res = _coupling_residuals(t, p)
    order = p if all(v == 0 for v in res.values()) else 0
    notes = ()
    if p == 4:
        notes = ("the implied condition equals the order-3 condition minus "
                 "condition 4a and must vanish whenever both do",)
    return OrderReport(order=order, residuals=res, notes=notes)


# Condition labels of the 2-additive RK (shared c) colored-tree set, by order.
# Counts: 2 at order 1, 2 at order 2, 6 at order 3, 18 at order 4.
_ARK_BY_ORDER = {
    1: ["b{s}.1"],
    2: ["b{s}.c"],
    3: ["b{s}.c2", "b{s}.A{n}c"],
    4: ["b{s}.c3", "b{s}.cA{n}c", "b{s}.A{n}c2", "b{s}.A{n}A{m}c"],
}


def check_ark_order(ark, p):
    """Residuals of every additive-RK order condition up to order p (<= 4).

    The condition set is the complete colored rooted-tree enumeration for two
    coefficient matrices (E, I) sharing abscissae, with separate weight
    vectors bE and bI:

      order 1: b_s.1 = 1                         (2 conditions)
      order 2: b_s.c = 1/2                       (2)
      order 3: b_s.c^2 = 1/3, b_s.A_n c = 1/6    (6)
      order 4: b_s.c^3 = 1/4, b_s.(c*A_n c) = 1/8,
               b_s.A_n c^2 = 1/12, b_s.A_n A_m c = 1/24   (18)

    for s, n, m ranging over {E, I}. Literature countings that also include
    fast-coupled trees arrive at different totals; those conditions live in
    check_coupling_order.
    """
    if p > 4:
        raise ValueError("conditions enumerated up to order 4 only")
    c = list(ark.c)
    mats = {"E": ark.AE, "I": ark.AI}
    bs = {"E": ark.bE, "I": ark.bI}
    res = {}
    for s_lbl, b in bs.items():
        res[f"b{s_lbl}.1"] = sum(b) - 1
        if p >= 2:
            res[f"b{s_lbl}.c"] = _dot(b, c) - Fraction(1, 2)
        if p >= 3:
            res[f"b{s_lbl}.c2"] = _dot(b, [x * x for x in c]) - Fraction(1, 3)
        if p >= 4:
            res[f"b{s_lbl}.c3"] = _dot(b, [x ** 3 for x in c]) - Fraction(1, 4)
        for n_lbl, A in mats.items():
            Ac = _matvec(A, c)
            if p >= 3:
                res[f"b{s_lbl}.A{n_lbl}c"] = _dot(b, Ac) - Fraction(1, 6)
            if p >= 4:
                res[f"b{s_lbl}.cA{n_lbl}c"] = _dot(
                    b, [ci * x for ci, x in zip(c, Ac)]) - Fraction(1, 8)
                res[f"b{s_lbl}.A{n_lbl}c2"] = _dot(
                    b, _matvec(A, [x * x for x in c])) - Fraction(1, 12)
                for m_lbl, A2 in mats.items():
                    res[f"b{s_lbl}.A{n_lbl}A{m_lbl}c"] = _dot(
                        b, _matvec(A, _matvec(A2, c))) - Fraction(1, 24)
    order = 0
    for q in range(1, p + 1):
        labels = [tmpl.format(s=s_lbl, n=n_lbl, m=m_lbl)
                  for tmpl in _ARK_BY_ORDER[q]
                  for s_lbl in "EI" for n_lbl in "EI" for m_lbl in "EI"]
        if all(res[lbl] == 0 for lbl in set(labels) & set(res)):
            order = q
        else:
            break
    notes = ("condition counts here follow the colored-tree enumeration "
             "(2/2/6/18 per order); countings that include fast-coupled "
             "trees differ",)
    return OrderReport(order=order, residuals=res, notes=notes)


def _ark_order_of(t):
    ark = base_ark(t)
    return check_ark_order(ark, 4).order


def method_order(t, inner_order):
    """Largest verified order p <= 4 for the combined multirate method.

    Combines: internal consistency (acts as the order-2 conditions), base ARK
    order, coupling conditions, and the inner-method order floor
    (max(3, n_omega+1) for p = 3, max(4, n_omega+2) for p = 4).
    """
    ark_p = _ark_order_of(t)
    if ark_p < 1 or inner_order < 1:
        return 0
    p = 1
    if ark_p >= 2 and inner_order >= 2 and \
            check_internal_consistency(t).order == 2:
        p = 2
    else:
        return p
    if ark_p >= 3 and inner_order >= max(3, t.n_omega + 1) and \
            check_coupling_order(t, 3).all_pass:
        p = 3
    else:
        return p
    if ark_p >= 4 and inner_order >= max(4, t.n_omega + 2) and \
            check_coupling_order(t, 4).all_pass:
        p = 4
    return p


def _embedding_base_weights(t):
    """(bE-hat, bI-hat) of the embedded method."""
    s = t.s
    bEh = [Fraction(0)] * s
    for k, row in enumerate(t.emb_omega):
        for j in range(s):
            bEh[j] += row[j] / (k + 1)
    bIh = [bEh[j] + t.emb_gamma[j] for j in range(s)]
    return tuple(bEh), tuple(bIh)


def _residual_vector(t, order, embedded):
    """All residuals at exactly `order`, as an ordered list of Fractions.

    Includes the base-ARK colored-tree conditions at that order plus the
    coupling conditions at that order (orders 3 and 4 only).
    """
    ark = base_ark(t)
    if embedded:
        bEh, bIh = _embedding_base_weights(t)
        ark = ARKPair(AE=ark.AE, AI=ark.AI, bE=bEh, bI=bIh, c=ark.c)
    full = check_ark_order(ark, order).residuals
    labels = [tmpl.format(s=s_lbl, n=n_lbl, m=m_lbl)
              for tmpl in _ARK_BY_ORDER[order]
              for s_lbl in "EI" for n_lbl in "EI" for m_lbl in "EI"]
    seen = []
    vec = []
    for lbl in labels:
        if lbl in full and lbl not in seen:
            seen.append(lbl)
            vec.append(full[lbl])
    if order in (3, 4):
        if embedded:
            cres = _coupling_residuals(
                t, order, final_omega_rows=t.emb_omega,
                final_gamma_row=t.emb_gamma)
        else:
            cres = _coupling_residuals(t, order)
        cres.pop("coupling4-implied", None)
        vec.extend(cres[k] for k in sorted(cres))
    return vec


def c_statistic(t, p):
    """Embedding quality ratio ||tau-hat(p+1) - tau(p+1)||_2 / ||tau-hat(p)||_2.

    tau(q) is the vector of order-q condition residuals of the primary method
    and tau-hat(q) that of the embedded method. Requires p + 1 <= 4 since the
    condition sets stop at order 4.
    """
    if not t.has_embedding:
        raise DegenerateEmbeddingError(f"{t.name} has no embedding")
    if p + 1 > 4:
        raise ValueError("order-5 residuals unavailable; need p + 1 <= 4")
    tau_next = _residual_vector(t, p + 1, embedded=False)
    tau_hat_next = _residual_vector(t, p + 1, embedded=True)
    tau_hat_p = _residual_vector(t, p, embedded=True)
    denom = sum(x * x for x in tau_hat_p)
    if denom == 0:
        raise DegenerateEmbeddingError(
            f"embedding of {t.name} has zero order-{p} residual; "
            "it is not one order lower")
    num = sum((a - b) ** 2 for a, b in zip(tau_hat_next, tau_next))
    return float(num) ** 0.5 / float(denom) ** 0.5


def gark_linear_step(g, zF, zE, zI, y0=1.0):
    """One step of the flattened coupled method on y' = (lamF+lamE+lamI)*y.

    Solves the combined linear stage system directly from the flattened
    tables, with z* = H*lam*. This is the verification oracle against which
    the step algorithm is checked. Returns y1.
    """
    import numpy as np

    AFF = np.array(g.AFF, dtype=float)
    AFE = np.array(g.AFE, dtype=float)
    ASF = np.array(g.ASF, dtype=float)
    ASE = np.array(g.ASE, dtype=float)
    ASI = np.array(g.ASI, dtype=float)
    n, s = AFE.shape
    N = n + s
    Z = np.zeros((N, N), dtype=complex)
    Z[:n, :n] = zF * AFF
    Z[:n, n:] = (zE + zI) * AFE
    Z[n:, :n] = zF * ASF
    Z[n:, n:] = zE * ASE + zI * ASI
    u = np.linalg.solve(np.eye(N, dtype=complex) - Z,
                        np.full(N, y0, dtype=complex))
    return u[-1]
