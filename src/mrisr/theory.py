"""Order-condition verification: GARK flattening, base ARK extraction,
internal consistency, coupling conditions, and the embedding C-statistic.

All residuals are computed in exact rational arithmetic, on object ndarrays
of Fractions; a residual of 0 means the condition holds identically, not
merely to rounding.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import INTEGER, PreconditionError, one_of, require
from .rk import _exact, _leading_order, _tree_residuals, bushy_tree_residuals
from .tableau import omega_bar, weighted

__all__ = [
    "GarkTables", "ARKPair", "OrderReport", "assemble_gark", "base_ark",
    "check_internal_consistency", "check_coupling_order", "check_ark_order",
    "order_facts", "method_order", "c_statistic", "gark_linear_step",
]


@dataclass(frozen=True)
class OrderReport:
    """Labelled exact residuals of one order check.

    `order` is the largest verified order for the check that produced the
    report, 0 when none is.
    """

    order: int
    residuals: dict

    @property
    def all_pass(self):
        return not any(self.residuals.values())


@dataclass(frozen=True)
class ARKPair:
    """The slow base method: an implicit-explicit pair with shared abscissae,
    each field an object ndarray of Fractions.

    bE/bI may differ when the last Gamma row is nonzero.
    """

    AE: np.ndarray
    AI: np.ndarray
    bE: np.ndarray
    bI: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class GarkTables:
    """Flattened coupled coefficient tables of a multirate method + inner RK,
    each field an object ndarray of Fractions.

    Fast block unknowns are ordered stage-major: the s_F inner stages of slow
    stage 1, then of slow stage 2, and so on. The fast stages see fE and fI
    through one forcing, so AFE is also the fast-implicit coupling. The
    weights bF, bE and bI are the last rows of ASF, ASE and ASI.
    """

    AFF: np.ndarray
    AFE: np.ndarray
    ASF: np.ndarray
    ASE: np.ndarray
    ASI: np.ndarray


def base_ark(t):
    """Extract the slow base ARK pair (AE = Omega-bar, AI = Omega-bar + Gamma)."""
    AE = omega_bar(t)
    AI = AE + _exact(t.gamma)
    return ARKPair(AE=AE, AI=AI, bE=AE[-1], bI=AI[-1], c=_exact(t.c))


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
    ark = base_ark(t)
    A, b, c = _exact(inner.A), _exact(inner.b), _exact(inner.c)
    # the fast blocks are block diagonal: stage i scales the inner table by c_i
    C = np.diag(ark.c)
    # row (i, p) of the fast-slow coupling: sum_k Omega[k][i] (A^F c^F^k)[p]
    AFE = sum(np.kron(O, (A @ c ** k)[:, None])
              for k, O in enumerate(_exact(t.omega)))
    return GarkTables(AFF=np.kron(C, A), AFE=AFE, ASF=np.kron(C, b[None, :]),
                      ASE=ark.AE, ASI=ark.AI)


def check_internal_consistency(t):
    """Row-sum conditions: Omega[0].1 = c, Omega[k>=1].1 = 0, Gamma.1 = 0.

    With a base method and inner method of order >= 2 these act as the
    second-order conditions. Residuals are vector max-norms, exact.
    """
    sums = _exact(t.omega).sum(axis=2)  # row sums of every Omega[k]
    res = {"Omega[0].1-c": abs(sums[0] - _exact(t.c)).max()}
    for k in range(1, t.n_omega):
        res[f"Omega[{k}].1"] = abs(sums[k]).max()
    res["Gamma.1"] = abs(_exact(t.gamma).sum(axis=1)).max()
    order = 2 if all(v == 0 for v in res.values()) else 0
    return OrderReport(order=order, residuals=res)


def _coupling_residuals(t, p, final_omega_rows=None, final_gamma_row=None):
    """Coupling-condition residuals at exactly order p (3 or 4).

    By default the conditions use the last tableau row (the solution stage);
    passing embedding rows instead yields the embedded method's residuals.
    """
    require("p", p, one_of(3, 4))
    c = _exact(t.c)
    if final_omega_rows is None:
        final_omega_rows = [O[-1] for O in t.omega]
        final_gamma_row = t.gamma[-1]

    fin = lambda weight: weighted(final_omega_rows, weight)
    wL = lambda k: Fraction(1, (k + 1) * (k + 2))
    finL = fin(wL)
    if p == 3:
        return {"coupling3": finL @ c - Fraction(1, 6)}
    CLc = c * (weighted(t.omega, wL) @ c)
    return {
        "coupling4a": fin(lambda k: Fraction(1, (k + 1) * (k + 3))) @ c
        - Fraction(1, 8),
        "coupling4b": finL @ c ** 2 - Fraction(1, 12),
        "coupling4c": _exact(final_gamma_row) @ CLc,
        "coupling4d": fin(lambda k: Fraction(1, k + 1)) @ CLc
        - Fraction(1, 24),
        "coupling4f": finL @ omega_bar(t) @ c - Fraction(1, 24),
        "coupling4g": finL @ _exact(t.gamma) @ c,
        # implied by coupling3 minus coupling4a; checked as a sanity assertion
        "coupling4-implied":
            fin(lambda k: Fraction(1, (k + 1) * (k + 2) * (k + 3))) @ c
            - Fraction(1, 24),
    }


def check_coupling_order(t, p):
    """Coupling conditions beyond the base method, at order p in {3, 4}.
    At p = 4, 'coupling4-implied' is coupling3 minus coupling4a."""
    res = _coupling_residuals(t, p)
    order = p if all(v == 0 for v in res.values()) else 0
    return OrderReport(order=order, residuals=res)


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

    for s, n, m ranging over {E, I}: the rooted trees of the table behind
    rk.rk_order_residuals, evaluated for every colouring. Literature
    countings that also include fast-coupled trees arrive at different
    totals; those conditions live in check_coupling_order. p is an
    integer <= 4.
    """
    require("p", p, INTEGER.at_most(4))
    groups = _tree_residuals({"E": ark.bE, "I": ark.bI},
                             {"E": ark.AE, "I": ark.AI}, ark.c, p)
    res = {lbl: r for g in groups.values() for lbl, r in g.items()}
    return OrderReport(order=_leading_order(groups), residuals=res)


def order_facts(t, inner_order):
    """Each order fact of tableau t with an inner method of order
    inner_order, derived once: internal_consistency, base_order (of the base
    ARK pair, up to 4), coupling_order (the highest q in {3, 4} whose
    coupling conditions all pass, else 2) and method_order: the largest
    p <= base_order that also has internal consistency if p >= 2,
    coupling_order >= p if p >= 3, and inner_order at least p for p <= 2,
    max(3, n_omega+1) for p = 3 and max(4, n_omega+2) for p = 4.
    """
    consistent = check_internal_consistency(t).order == 2
    ark_p = check_ark_order(base_ark(t), 4).order
    # coupling4-implied is coupling3 minus coupling4a, so order 4 needs 3
    coup = 2
    if check_coupling_order(t, 3).all_pass:
        coup = 4 if check_coupling_order(t, 4).all_pass else 3
    p = 0
    for q, inner_floor, holds in ((1, 1, True), (2, 2, consistent),
                                  (3, max(3, t.n_omega + 1), coup >= 3),
                                  (4, max(4, t.n_omega + 2), coup >= 4)):
        if ark_p < q or inner_order < inner_floor or not holds:
            break
        p = q
    return dict(internal_consistency=consistent, base_order=ark_p,
                coupling_order=coup, method_order=p)


def method_order(t, inner_order):
    """Largest verified order p <= 4 for the combined multirate method:
    order_facts(t, inner_order)['method_order']."""
    return order_facts(t, inner_order)["method_order"]


def _residual_vector(t, order, embedded):
    """All residuals at exactly `order`, as an object ndarray of Fractions.

    Includes the base-ARK colored-tree conditions at that order plus the
    coupling conditions at that order (orders 3 and 4 only).
    """
    ark = base_ark(t)
    rows, gamma_row = (t.emb_omega, t.emb_gamma) if embedded else \
        ([O[-1] for O in t.omega], t.gamma[-1])
    bE = weighted(rows, lambda k: Fraction(1, k + 1))
    groups = _tree_residuals({"E": bE, "I": bE + _exact(gamma_row)},
                             {"E": ark.AE, "I": ark.AI}, ark.c, order)
    vec = list(groups[order].values())
    if order in (3, 4):
        cres = _coupling_residuals(t, order, rows, gamma_row)
        cres.pop("coupling4-implied", None)
        vec.extend(cres[k] for k in sorted(cres))
    return _exact(vec)


def c_statistic(t, p):
    """Embedding quality ratio ||tau-hat(p+1) - tau(p+1)||_2 / ||tau-hat(p)||_2.

    tau(q) is the vector of order-q condition residuals of the primary method
    and tau-hat(q) that of the embedded method. Requires p + 1 <= 4 since the
    condition sets stop at order 4, and an embedding with a nonzero
    tau-hat(p) (PreconditionError otherwise).
    """
    if not t.has_embedding:
        raise PreconditionError(f"{t.name} has no embedding")
    require("p", p, INTEGER.at_most(3))
    tau_next = _residual_vector(t, p + 1, embedded=False)
    tau_hat_next = _residual_vector(t, p + 1, embedded=True)
    tau_hat_p = _residual_vector(t, p, embedded=True)
    denom = tau_hat_p @ tau_hat_p
    if denom == 0:
        raise PreconditionError(
            f"embedding of {t.name} has zero order-{p} residual; "
            "it is not one order lower")
    d = tau_hat_next - tau_next
    return float(d @ d) ** 0.5 / float(denom) ** 0.5


def gark_linear_step(g, zF, zE, zI):
    """One step from y0 = 1 of the flattened coupled method on
    y' = (lamF+lamE+lamI)*y.

    Solves the combined linear stage system directly from the flattened
    tables, with z* = H*lam*. This is the verification oracle against which
    the step algorithm is checked. Returns y1.
    """
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
                        np.ones(N, dtype=complex))
    return u[-1]
