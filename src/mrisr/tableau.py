"""Exact-rational coefficient sets for multirate stage-restart methods.

An MRISRTableau holds the slow abscissae c, the tendency-polynomial coefficient
matrices Omega[0..n_omega-1], the implicit correction matrix Gamma, and
(optionally) embedding rows. All entries are Fractions. The read-only
`floats` view holds them as float arrays, and `stage_rows` holds the rows
step() reads as tuples of Python floats taken from it; both are built on
first use and cached on the tableau, the only place entries are converted.

Stage i of a step integrates a fast IVP over [0, c_i*H] with forcing

    g_i(theta) = (1/c_i) * sum_{j<i} omega_{i,j}(theta/(c_i*H)) * (fE_j + fI_j),
    omega_{i,j}(tau) = sum_k Omega[k][i][j] * tau^k,

followed by an implicit correction with the Gamma row.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PreconditionError, UnknownMethodError
from .rk import _fmat, _fvec, _readonly

__all__ = [
    "MRISRTableau", "load_builtin", "omega_bar", "omega_row",
    "validate_structure", "tableau_to_dict", "tableau_from_dict",
    "save_tableau", "load_tableau", "BUILTIN_NAMES",
]


@dataclass(frozen=True)
class MRISRTableau:
    """One multirate stage-restart method.

    omega is a tuple of n_omega s-by-s matrices (tuples of tuples of
    Fractions); gamma is s-by-s. emb_omega/emb_gamma, when present, are the
    embedding rows (length s each, one omega row per k). The float forms
    `floats` and `stage_rows` are cached on the frozen tableau.
    """

    name: str
    c: tuple
    omega: tuple
    gamma: tuple
    emb_omega: tuple = None
    emb_gamma: tuple = None

    @property
    def s(self):
        return len(self.c)

    @property
    def n_omega(self):
        return len(self.omega)

    @property
    def has_embedding(self):
        return self.emb_omega is not None

    @cached_property
    def floats(self):
        """Read-only float arrays (c, omega, gamma, emb_omega, emb_gamma).

        omega has shape (n_omega, s, s); emb_omega (n_omega, s) and
        emb_gamma (s,) are None without an embedding.
        """
        emb_omega = emb_gamma = None
        if self.has_embedding:
            emb_omega = _readonly(self.emb_omega)
            emb_gamma = _readonly(self.emb_gamma)
        return (_readonly(self.c), _readonly(self.omega),
                _readonly(self.gamma), emb_omega, emb_gamma)

    @cached_property
    def stage_rows(self):
        """The rows of one step, built once from the float view: one
        (c_i, gamma_ii, omega, gamma) of Python floats per stage i = 2..s,
        then, with an embedding, its row with c = 1 over the first s - 1
        tendencies. omega holds the nonzero (k, j, Omega[k][i][j]) in order
        of k, then j < i; gamma holds the nonzero (j, Gamma[i][j]), j < i.
        """
        c, omega, gamma, emb_omega, emb_gamma = self.floats
        s = self.s
        rows = [(c[i], gamma[i, i], omega[:, i, :i], gamma[i, :i])
                for i in range(1, s)]
        if self.has_embedding:
            rows.append((1.0, emb_gamma[s - 1], emb_omega[:, :s - 1],
                         emb_gamma[:s - 1]))
        return tuple(
            (float(ci), float(gii),
             tuple((k, j, float(w)) for (k, j), w in np.ndenumerate(om)
                   if w != 0.0),
             tuple((j, float(g)) for j, g in enumerate(gam) if g != 0.0))
            for ci, gii, om, gam in rows)


def omega_row(rows, weight):
    """sum_k weight(k) * rows[k], as a tuple of Fractions.

    rows holds one row per tendency power k. Row i of every Omega[k] gives
    row i of a weighted Omega sum (of omega_bar, with weight 1/(k+1)), and
    t.emb_omega with the same weight gives the embedded slow weights.
    """
    ws = [weight(k) for k in range(len(rows))]
    return tuple(sum((w * row[j] for w, row in zip(ws, rows)), Fraction(0))
                 for j in range(len(rows[0])))


def omega_bar(t):
    """Integral of the tendency polynomials over tau in [0,1].

    Returns sum_k Omega[k]/(k+1) as an s-by-s tuple of Fractions, one
    omega_row per stage. This is the explicit slow base table.
    """
    return tuple(omega_row([O[i] for O in t.omega],
                           lambda k: Fraction(1, k + 1)) for i in range(t.s))


def validate_structure(t):
    """Return a list of violated structural invariants (empty = valid)."""
    findings = []
    s = t.s
    if t.c[0] != 0:
        findings.append("c[1] must be 0")
    if t.c[-1] != 1:
        findings.append("c[s] must be 1 (solution stage)")
    for i, ci in enumerate(t.c):
        if ci < 0:
            findings.append(f"c[{i + 1}] = {ci} is negative")
    mats = [(f"Omega[{k}]", O) for k, O in enumerate(t.omega)]
    mats.append(("Gamma", t.gamma))
    for name, M in mats:
        if len(M) != s or any(len(row) != s for row in M):
            findings.append(f"{name} is not {s}x{s}")
            continue
        if any(x != 0 for x in M[0]):
            findings.append(f"{name} first row nonzero")
        strict = not name.startswith("Gamma")
        for i in range(s):
            for j in range(s):
                if j > i or (strict and j == i):
                    if M[i][j] != 0:
                        kind = ("not strictly lower triangular" if strict
                                else "not lower triangular")
                        findings.append(f"{name} {kind} at ({i + 1},{j + 1})")
    if t.has_embedding:
        if len(t.emb_omega) != t.n_omega:
            findings.append("embedding omega rows must match n_omega")
        for k, row in enumerate(t.emb_omega):
            if len(row) != s:
                findings.append(f"embOmega[{k}] length != s")
        if t.emb_gamma is None or len(t.emb_gamma) != s:
            findings.append("embGamma missing or wrong length")
    return findings


# ---------------------------------------------------------------------------
# Built-in stage-restart tableaux (exact rational coefficients)
# ---------------------------------------------------------------------------

_SR21 = MRISRTableau(
    name="imex-mri-sr21",
    c=_fvec([0, "3/5", "4/15", 1]),
    omega=(
        _fmat([
            [0, 0, 0, 0],
            ["3/5", 0, 0, 0],
            ["14/165", "2/11", 0, 0],
            ["-13/54", "137/270", "11/15", 0],
        ]),
    ),
    gamma=_fmat([
        [0, 0, 0, 0],
        ["-11/23", "11/23", 0, 0],
        ["-6692/52371", "-18355/52371", "11/23", 0],
        ["11621/90666", "-215249/226665", "17287/50370", "11/23"],
    ]),
    emb_omega=(_fvec(["-1/4", "1/2", "3/4", 0]),),
    emb_gamma=_fvec(["-31/12", "-1/6", "11/4", 0]),
)

_SR32 = MRISRTableau(
    name="imex-mri-sr32",
    c=_fvec([0, "23/34", "4/5", "17/15", 1]),
    omega=(
        _fmat([
            [0, 0, 0, 0, 0],
            ["23/34", 0, 0, 0, 0],
            ["71/70", "-3/14", 0, 0, 0],
            ["124/1155", "4/7", "5/11", 0, 0],
            ["162181/187680", "119/1380", "11/32", "-5/17", 0],
        ]),
        _fmat([
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            ["-14453/63825", "14453/63825", 0, 0, 0],
            ["-2101267877/1206582300", "2476735438/301645575",
             "-13575085/2098404", 0, 0],
            ["-762580446799/588660102960", "11083240219/4328383110",
             "-211274129/100368304", "89562055/106641323", 0],
        ]),
    ),
    gamma=_fmat([
        [0, 0, 0, 0, 0],
        ["-4/7", "4/7", 0, 0, 0],
        ["-2707004/3127425", "919904/3127425", "4/7", 0, 0],
        ["852879271/703839675", "-1575000496/703839675", "5/11", "4/7", 0],
        ["43136869/2019912118", "-73810600/1009956059", "-17653551/87822266",
         "-13993902/43911133", "4/7"],
    ]),
    emb_omega=(
        _fvec(["76355/74834", "-46/31", "67/34", "-36/71", 0]),
        _fvec(["-3732974/2278035", "13857574/2278035", "-52/9", "4/3", 0]),
    ),
    emb_gamma=_fvec(["-179/4140", "799/14490", "1/14", "-1/12", 0]),
)

_SR43 = MRISRTableau(
    name="imex-mri-sr43",
    c=_fvec([0, "1/4", "3/4", "11/20", "1/2", 1, 1]),
    omega=(
        _fmat([
            [0, 0, 0, 0, 0, 0, 0],
            ["1/4", 0, 0, 0, 0, 0, 0],
            ["9/8", "-3/8", 0, 0, 0, 0, 0],
            ["187/2340", "7/9", "-4/13", 0, 0, 0, 0],
            ["64/165", "1/6", "-3/5", "6/11", 0, 0, 0],
            ["1816283/549120", "-2/9", "-4/11", "-1/6", "-2561809/1647360",
             0, 0],
            [0, "7/11", "-2203/264", "10825/792", "-85/12", "841/396", 0],
        ]),
        _fmat([
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            ["-11/4", "11/4", 0, 0, 0, 0, 0],
            ["-1228/2925", "-92/225", "808/975", 0, 0, 0, 0],
            ["-2572/2805", "167/255", "199/136", "-1797/1496", 0, 0, 0],
            ["-1816283/274560", "253/36", "-23/44", "76/3",
             "-20775791/823680", 0, 0],
            [0, "107/132", "1289/88", "-9275/792", 0, "-371/99", 0],
        ]),
    ),
    gamma=_fmat([
        [0, 0, 0, 0, 0, 0, 0],
        ["-1/4", "1/4", 0, 0, 0, 0, 0],
        ["1/4", "-1/2", "1/4", 0, 0, 0, 0],
        ["13/100", "-7/30", "-11/75", "1/4", 0, 0, 0],
        ["6/85", "-301/1360", "-99/544", "45/544", "1/4", 0, 0],
        [0, "-9/4", "-19/48", "-75/16", "85/12", "1/4", 0],
        [0, 0, 0, 0, 0, 0, 0],
    ]),
    emb_omega=(
        _fvec(["1/400", "49/12", "43/6", "-7/10", "-85/12", "-2963/1200", 0]),
        _fvec(["-1/200", "-137/24", "-235/16", "1237/80", 0, "2963/600", 0]),
    ),
    emb_gamma=_fvec([0, 0, 0, 0, 0, 0, 0]),
)


# ---------------------------------------------------------------------------
# MERK tableaux, generated from the interpolation rule
# ---------------------------------------------------------------------------

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _merk_omegas(c, groups):
    """Tendency matrices for a MERK-style method.

    groups maps a 0-based stage index i to the tuple of earlier stage indices
    whose slow data stage i interpolates. Stage i's forcing is
    f_1 + q_i(theta), where q_i is the Lagrange interpolant of (f_j - f_1)
    through the nodes {0} U {c_j * H}. In tendency form this gives
    omega_{i,j}(tau) = c_i * M_j(tau) with

        M_j(tau) = c_i*tau * prod_{l != j}(c_i*tau - c_l)
                   / (c_j * prod_{l != j}(c_j - c_l)),

    and omega_{i,1} absorbing minus the row sum (so each Omega[k] row sums to
    zero for k >= 1 and to c_i for k = 0 automatically). The node abscissae
    of every group are nonzero and distinct, so no denominator vanishes.
    """
    s = len(c)
    nk = 1 + max((len(v) for v in groups.values()), default=0)
    omegas = [[[Fraction(0)] * s for _ in range(s)] for _ in range(nk)]
    for i in range(1, s):
        nodes = groups.get(i, ())
        col_polys = {0: [Fraction(1)]}
        for j in nodes:
            num = [Fraction(0), c[i]]
            den = c[j]
            for l in nodes:
                if l == j:
                    continue
                num = _poly_mul(num, [-c[l], c[i]])
                den *= c[j] - c[l]
            M = [x / den for x in num]
            col_polys[j] = M
            base = col_polys[0] + [Fraction(0)] * (len(M) - len(col_polys[0]))
            col_polys[0] = [a - b for a, b in
                            zip(base, M + [Fraction(0)] * (len(base) - len(M)))]
        for j, poly in col_polys.items():
            for k, coef in enumerate(poly):
                if coef:
                    omegas[k][i][j] = c[i] * coef
    return tuple(tuple(tuple(row) for row in O) for O in omegas)


_MERK_GROUPS = {
    2: {2: (1,)},
    3: {2: (1,), 3: (2,)},
    4: {2: (1,), 3: (1,), 4: (2, 3), 5: (2, 3), 6: (4, 5)},
    5: {2: (1,), 3: (1,), 4: (2, 3), 5: (2, 3), 6: (2, 3),
        7: (4, 5, 6), 8: (4, 5, 6), 9: (4, 5, 6), 10: (7, 8, 9)},
}

# merk4's c6 = (3 - 4 c5)/(4 - 6 c5) and merk5's
# c9 = (12 - 15 c10 - 15 c8 + 20 c10 c8)/(15 - 20 c10 - 20 c8 + 30 c10 c8):
# the abscissa restrictions of their nominal orders
_MERK_DEFAULT_C = {
    2: _fvec([0, "1/2", 1]),
    3: _fvec([0, "1/2", "2/3", 1]),
    4: _fvec([0, "1/2", "1/2", "1/3", "5/6", "1/3", 1]),
    5: _fvec([0, "1/2", "1/2", "1/3", "1/2", "1/3", "1/4", "7/10", "1/2",
             "2/3", 1]),
}


def _make_merk(order):
    """merkN from its fixed abscissae _MERK_DEFAULT_C[N]."""
    c = _MERK_DEFAULT_C[order]
    omegas = _merk_omegas(list(c), _MERK_GROUPS[order])
    s = len(c)
    gamma = tuple(tuple(Fraction(0) for _ in range(s)) for _ in range(s))
    return MRISRTableau(name=f"merk{order}", c=c, omega=omegas, gamma=gamma)


_BUILTINS = {
    "imex-mri-sr21": _SR21,
    "imex-mri-sr32": _SR32,
    "imex-mri-sr43": _SR43,
}

BUILTIN_NAMES = ("imex-mri-sr21", "imex-mri-sr32", "imex-mri-sr43",
                 "merk2", "merk3", "merk4", "merk5")

# the MERK tableaux are built on first use (about 3 ms of Fraction work)
_merk_cache = {}


def load_builtin(name):
    """Return a built-in tableau by registry name."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name in ("merk2", "merk3", "merk4", "merk5"):
        if name not in _merk_cache:
            _merk_cache[name] = _make_merk(int(name[-1]))
        return _merk_cache[name]
    raise UnknownMethodError(
        f"unknown method {name!r}; have {list(BUILTIN_NAMES)}")


# ---------------------------------------------------------------------------
# Interchange format: JSON with fraction strings
# ---------------------------------------------------------------------------

def _fstr(x):
    return str(Fraction(x))


def tableau_to_dict(t):
    d = {
        "name": t.name,
        "s": t.s,
        "nOmega": t.n_omega,
        "c": [_fstr(x) for x in t.c],
        "omega": [[[_fstr(x) for x in row] for row in O] for O in t.omega],
        "gamma": [[_fstr(x) for x in row] for row in t.gamma],
    }
    if t.has_embedding:
        d["embOmega"] = [[_fstr(x) for x in row] for row in t.emb_omega]
        d["embGamma"] = [_fstr(x) for x in t.emb_gamma]
    return d


def tableau_from_dict(d):
    """Tableau from its interchange dict; PreconditionError if invalid."""
    emb_omega = None
    emb_gamma = None
    if d.get("embOmega") is not None:
        emb_omega = tuple(_fvec(row) for row in d["embOmega"])
        emb_gamma = _fvec(d["embGamma"])
    t = MRISRTableau(
        name=d["name"],
        c=_fvec(d["c"]),
        omega=tuple(_fmat(O) for O in d["omega"]),
        gamma=_fmat(d["gamma"]),
        emb_omega=emb_omega,
        emb_gamma=emb_gamma,
    )
    findings = validate_structure(t)
    if findings:
        raise PreconditionError(
            f"invalid tableau {t.name!r}: " + "; ".join(findings))
    return t


def save_tableau(t, path):
    with open(path, "w") as f:
        json.dump(tableau_to_dict(t), f, indent=1)


def load_tableau(path):
    with open(path) as f:
        return tableau_from_dict(json.load(f))
