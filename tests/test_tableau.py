import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mrisr.errors import PreconditionError
from mrisr.integrator import _forcing
from mrisr.rk import HEUN, ButcherTable
from mrisr.tableau import (BUILTIN_NAMES, MRISRTableau, load_builtin,
                           load_tableau, omega_bar, save_tableau,
                           tableau_from_dict, tableau_to_dict,
                           validate_structure)

F = Fraction


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_validate_clean(name):
    assert validate_structure(load_builtin(name)) == []


def test_unknown_method():
    with pytest.raises(PreconditionError, match="method = 'imex-mri-sr99'"):
        load_builtin("imex-mri-sr99")


def test_sr21_shape_and_entries():
    t = load_builtin("imex-mri-sr21")
    assert t.s == 4 and t.n_omega == 1 and t.has_embedding
    assert t.c == (0, F(3, 5), F(4, 15), 1)
    assert t.omega[0][1][0] == F(3, 5)
    assert t.gamma[1][1] == F(11, 23)


def test_sr32_abscissa_exceeds_one():
    t = load_builtin("imex-mri-sr32")
    assert t.c[3] == F(17, 15) > 1


def test_sr43_last_gamma_row_zero():
    t = load_builtin("imex-mri-sr43")
    assert all(x == 0 for x in t.gamma[-1])
    assert t.c == (0, F(1, 4), F(3, 4), F(11, 20), F(1, 2), 1, 1)


def test_row_sums_exact():
    # Omega[0].1 = c, Omega[k>=1].1 = 0, Gamma.1 = 0 for every builtin
    for name in BUILTIN_NAMES:
        t = load_builtin(name)
        for i in range(t.s):
            assert sum(t.omega[0][i]) == t.c[i]
            for k in range(1, t.n_omega):
                assert sum(t.omega[k][i]) == 0
            assert sum(t.gamma[i]) == 0


def test_omega_bar_first_column():
    t = load_builtin("imex-mri-sr21")
    ob = omega_bar(t)
    # single Omega matrix: omega_bar equals Omega[0]
    assert np.array_equal(ob, t.omega[0])


def test_merk2_generated_entries():
    t = load_builtin("merk2")
    assert t.s == 3 and t.n_omega == 2
    assert t.omega[1][2] == (-2, 2, 0)
    assert t.omega[0][2] == (1, 0, 0)


def test_merk3_row3_passes_base_order3():
    # the interpolation rule gives omega1[2][1] = c3^2/c2 = 8/9 with the
    # default abscissae (1/2, 2/3)
    t = load_builtin("merk3")
    assert t.omega[1][2][1] == F(8, 9)


def test_merk4_printed_final_row():
    t = load_builtin("merk4")
    # final stage interpolates stages 5 and 6: the tau-coefficients touch
    # only column 1 and those node columns, and the constant part is e1
    assert t.omega[0][6] == (1, 0, 0, 0, 0, 0, 0)
    nz = [j for j, x in enumerate(t.omega[1][6]) if x != 0]
    assert nz == [0, 4, 5]
    assert t.omega[2][6][5] == -6


def test_structure_findings_for_corrupt_tableau():
    t = load_builtin("imex-mri-sr21")
    rows = [list(r) for r in t.omega[0]]
    rows[0][1] = F(1)  # first row must be zero
    with pytest.raises(PreconditionError, match="first row"):
        MRISRTableau(name="bad", c=t.c,
                     omega=(tuple(tuple(r) for r in rows),), gamma=t.gamma)
    with pytest.raises(PreconditionError, match=re.escape("c[1]")):
        MRISRTableau(name="bad2", c=(F(1, 2),) + t.c[1:],
                     omega=t.omega, gamma=t.gamma)
    with pytest.raises(PreconditionError, match="^" + re.escape(
            "invalid tableau 'bad3': c[3] = -4/15 is negative") + "$"):
        MRISRTableau(name="bad3", c=t.c[:2] + (F(-4, 15),) + t.c[3:],
                     omega=t.omega, gamma=t.gamma)


def _sr21_omega_at_2_4():
    t = load_builtin("imex-mri-sr21")
    om = [list(r) for r in t.omega[0]]
    om[1][3] = F(1, 7)
    return replace(t, omega=(tuple(map(tuple, om)),))


def _empty_omega_dict():
    d = tableau_to_dict(load_builtin("imex-mri-sr21"))
    del d["embOmega"], d["embGamma"]
    return json.loads(json.dumps(dict(d, omega=[])))


def _no_emb_omega_dict():
    d = tableau_to_dict(load_builtin("imex-mri-sr21"))
    del d["embOmega"]
    return d


# each of these once built silently, then gave a wrong answer or failed
# deep inside a step
@pytest.mark.parametrize("build, message", [
    (lambda: replace(load_builtin("imex-mri-sr21"),
                     c=load_builtin("imex-mri-sr21").c[:-1] + (F(1, 2),)),
     "invalid tableau 'imex-mri-sr21': c[s] must be 1 (solution stage)"),
    (_sr21_omega_at_2_4, "invalid tableau 'imex-mri-sr21': "
     "Omega[0] not strictly lower triangular at (2,4)"),
    (lambda: ButcherTable(name="diag", A=((0, 0), (F(2, 3), F(1, 3))),
                          b=HEUN.b, c=HEUN.c),
     "diag: row 2 of A is not strictly lower triangular"),
    (lambda: ButcherTable(name="half", A=HEUN.A, b=(F(1, 2), F(1, 4)),
                          c=HEUN.c),
     "half: b does not sum to 1"),
    (lambda: ButcherTable(name="hat", A=HEUN.A, b=HEUN.b, c=HEUN.c,
                          bhat=(F(1), F(1))),
     "hat: bhat does not sum to 1"),
    (lambda: tableau_from_dict(_empty_omega_dict()),
     "invalid tableau 'imex-mri-sr21': Omega is empty"),
    (lambda: replace(load_builtin("merk2"), emb_gamma=(0, 0, 0)),
     "invalid tableau 'merk2': embGamma without embOmega"),
    (lambda: tableau_from_dict(_no_emb_omega_dict()),
     "invalid tableau 'imex-mri-sr21': embGamma without embOmega"),
], ids=["c_s-half", "omega-2-4", "inner-diagonal", "inner-b-sum",
        "inner-bhat-sum", "json-empty-omega",
        "emb-gamma-alone", "json-emb-gamma-alone"])
def test_invalid_table_fails_at_construction(build, message):
    with pytest.raises(PreconditionError, match="^" + re.escape(message)):
        build()


def test_load_rejects_invalid_tableau(tmp_path):
    d = tableau_to_dict(load_builtin("imex-mri-sr21"))
    d["gamma"][1][2] = "1/7"  # above the diagonal
    with pytest.raises(PreconditionError, match="not lower triangular"):
        tableau_from_dict(d)
    d = tableau_to_dict(load_builtin("imex-mri-sr21"))
    d["c"][2] = "-4/15"
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(d))
    with pytest.raises(PreconditionError, match="negative"):
        load_tableau(path)


def _drop(key):
    return lambda d: d.pop(key)


def _set(value, key, *index):
    def edit(d):
        row = d[key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = value
    return edit


@pytest.mark.parametrize("edit,named", [
    (_drop("c"), "no 'c'"),
    (_drop("embGamma"), "embGamma missing"),
    (_drop("name"), "no 'name'"),
    (_set(float("nan"), "gamma", 1, 0), r"gamma\[1\]\[0\] = nan"),
    (_set(float("inf"), "omega", 0, 2, 1), r"omega\[0\]\[2\]\[1\] = inf"),
    (_set(None, "c", 1), r"c\[1\] = None"),
    (_set("abc", "embOmega", 0, 1), r"embOmega\[0\]\[1\] = 'abc'"),
    (_set("1/0", "embGamma", 2), r"embGamma\[2\] = '1/0'"),
    (_set(3, "gamma", 1), r"gamma\[1\] = 3 is not a list"),
    (lambda d: d.update(c=[]), "c is empty"),
    (_set(True, "gamma", 1, 1), r"gamma\[1\]\[1\] = True is not a finite"),
    # a misspelt key used to load the tableau without its embedding, and
    # a derived count to be ignored whatever it said
    (lambda d: d.update(embOmgea=d.pop("embOmega")), "key = 'embOmgea'"),
    (lambda d: d.update(s=9), "key = 's'"),
], ids=["missing-c", "missing-embGamma", "missing-name", "nan", "inf",
        "none", "abc", "zero-denominator", "scalar-row", "empty-c", "bool",
        "misspelt-key", "derived-key"])
def test_tableau_from_dict_names_bad_key_or_entry(edit, named, tmp_path):
    # these used to escape as KeyError, ValueError, OverflowError or
    # TypeError from deep inside the Fraction conversion
    d = tableau_to_dict(load_builtin("imex-mri-sr21"))
    edit(d)
    with pytest.raises(PreconditionError, match=named):
        tableau_from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(PreconditionError, match=named):
        load_tableau(path)


def test_load_tableau_rejects_a_file_that_is_not_a_dict(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(PreconditionError, match="not list"):
        load_tableau(path)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_float_view_is_exact_and_read_only(name):
    t = load_builtin(name)
    c, omega, gamma, emb_omega, emb_gamma = t.floats
    assert t.floats is t.floats  # built once
    exact = [(c, t.c), (omega, t.omega), (gamma, t.gamma)]
    if t.has_embedding:
        exact += [(emb_omega, t.emb_omega), (emb_gamma, t.emb_gamma)]
    else:
        assert emb_omega is None and emb_gamma is None
    for arr, fracs in exact:
        want = np.vectorize(float)(np.array(fracs, dtype=object))
        assert arr.dtype == float and arr.shape == want.shape
        assert np.array_equal(arr, want)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_stage_rows_are_the_float_view(name):
    # one row per stage i = 2..s, then the embedding row; each lists every
    # nonzero of the float view in order, and no zero
    t = load_builtin(name)
    c, omega, gamma, emb_omega, emb_gamma = t.floats
    s = t.s
    want = [(c[i], gamma[i, i], omega[:, i, :i], gamma[i, :i])
            for i in range(1, s)]
    if t.has_embedding:
        want.append((1.0, emb_gamma[s - 1], emb_omega[:, :s - 1],
                     emb_gamma[:s - 1]))
    rows = t.stage_rows
    assert len(rows) == len(want)
    for (ci, gii, om, gam), (wc, wg, wom, wgam) in zip(rows, want):
        assert (ci, gii) == (wc, wg)
        assert om == tuple((k, j, wom[k, j]) for k in range(t.n_omega)
                           for j in range(wom.shape[1]) if wom[k, j] != 0.0)
        assert gam == tuple((j, g) for j, g in enumerate(wgam) if g != 0.0)
        assert all(w != 0.0 for _, _, w in om)
        assert all(type(x) is float for x in (ci, gii)
                   + tuple(w for _, _, w in om) + tuple(g for _, g in gam))
    # built once, and made of tuples, so no caller can change it
    assert t.stage_rows is rows
    assert type(rows) is tuple
    assert all(type(r) is tuple and type(r[2]) is tuple
               and type(r[3]) is tuple for r in rows)
    with pytest.raises(TypeError):
        rows[0][2][0] = (0, 0, 1.0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_json_roundtrip(name, tmp_path):
    t = load_builtin(name)
    path = tmp_path / f"{name}.json"
    save_tableau(t, path)
    back = load_tableau(path)
    assert back == t
    # entries are serialized as exact fraction strings, and nothing that
    # is derived from them (s, n_omega) is written
    d = json.loads(path.read_text())
    assert all(type(x) is str for x in d["c"])
    assert set(d) <= {"name", "c", "omega", "gamma", "embOmega", "embGamma"}


def test_dict_roundtrip_preserves_embedding():
    t = load_builtin("imex-mri-sr43")
    back = tableau_from_dict(tableau_to_dict(t))
    assert back.emb_omega == t.emb_omega
    assert back.emb_gamma == t.emb_gamma


@given(st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_poly_eval_matches_naive(i, j):
    t = load_builtin("imex-mri-sr43")
    if not (1 <= j < i <= t.s):
        return
    # the step's forcing: omega_{i,j}(theta/span) * scale, per component
    tau, span, scale = 0.37, 0.8, 1.0 / 0.3
    coeffs = np.array([[float(t.omega[k][i - 1][j - 1])] * 2
                       for k in range(t.n_omega)])
    coeffs[:, 1] *= -2.0
    naive = sum(float(t.omega[k][i - 1][j - 1]) * tau ** k
                for k in range(t.n_omega))
    got = _forcing(coeffs, scale, span, np.array([tau * span]))[0]
    assert np.allclose(got, [scale * naive, -2.0 * scale * naive],
                       rtol=0.0, atol=1e-13)
