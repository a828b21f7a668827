import copy
import json
import math
import platform
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

import mrisr
from mrisr import adaptivity, errors, harness, stability, theory
from mrisr.errors import MRISRError, PreconditionError
from mrisr.harness import (PROBLEM_H0, PROBLEM_TEND, RUN_KEYS,
                           ExperimentConfig, default_inner, fit_slope,
                           run_adaptive, run_convergence, run_stability_export,
                           run_verify, versions, write_csv)
from mrisr.integrator import SplitIVP, StepStats
from mrisr.tableau import BUILTIN_NAMES


def test_fit_slope_recovers_synthetic_order():
    Hs = [0.1 * 2.0 ** (-k) for k in range(6)]
    errs = [3.7 * H ** 3 for H in Hs]
    assert fit_slope(Hs, errs) == pytest.approx(3.0, abs=1e-10)
    assert fit_slope([0.1], [1.0]) is None


def test_fit_rows_skips_failed_unresolved_and_diverged_rows():
    # SR43 on brusselator-201 has a k = 6 row that diverged without
    # failing (maxError 96.1; the reference's max norm over the sample
    # points is 66.05); fitted with the two resolved rows it read as a
    # slope of 16
    Hs = [0.1 * 2.0 ** (-k) for k in range(7)]
    errs = [500.0 * H ** 4 for H in Hs]
    rows = [dict(H=H, maxError=e, failed=0) for H, e in zip(Hs, errs)]
    rows[0].update(maxError=96.1)              # diverged, not failed
    rows[1].update(maxError=3.4)               # exactly at the ceiling
    rows[2].update(maxError=math.nan, failed=1)
    rows[3].update(maxError=math.inf)
    rows[6].update(maxError=1e-9)              # below the floor
    want = fit_slope(Hs[4:6], errs[4:6])
    assert want == pytest.approx(4.0, abs=1e-10)
    assert harness._fit_rows(rows, 1e-8, 3.4) == want
    # the ceiling alone decides whether a large error is fitted
    assert harness._fit_rows(rows, 1e-8, 100.0) != want
    assert harness._fit_rows(rows[:5], 1e-8, 3.4) is None


def test_default_inner_pairing():
    assert default_inner("imex-mri-sr21").name == "heun"
    assert default_inner("imex-mri-sr32").name == "bogacki-shampine"
    assert default_inner("imex-mri-sr43").name == "zonneveld"
    assert default_inner("merk2").name == "heun"
    assert default_inner("merk5").name == "cash-karp"
    # every builtin has a pairing: there is no fallback by order
    assert set(harness._DEFAULT_INNER) == set(BUILTIN_NAMES)
    with pytest.raises(PreconditionError, match="method = 'rk4'"):
        default_inner("rk4")


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="converge", methods=["rk4"])
    with pytest.raises(ValueError):
        ExperimentConfig(kind="converge", methods=["merk2"], kmin=5, kmax=2)
    cfg = ExperimentConfig(kind="converge", methods=["merk3"],
                           inner={"merk3": "zonneveld"})
    assert cfg.inner_for("merk3").name == "zonneveld"


@pytest.mark.parametrize("kw,named", [
    (dict(tols=[1e-3, -1e-3]), "tol = -0.001"),
    (dict(tols=[float("nan")]), "tol = nan"),
    (dict(tols=["1e-3"]), "tol = '1e-3'"),
    (dict(tols=1e-3), "not a list"),
    (dict(H0=0.0), "H0 = 0.0"),
    (dict(H0=float("inf")), "H0 = inf"),
], ids=["tol-negative", "tol-nan", "tol-string", "tols-scalar", "H0-zero",
        "H0-inf"])
def test_experiment_config_rejects_bad_tols_and_h0(kw, named):
    with pytest.raises(PreconditionError, match=named):
        ExperimentConfig(kind="adaptive", methods=["imex-mri-sr21"], **kw)


@pytest.mark.parametrize("kw,named", [
    (dict(methods=["rk4"]), "method = 'rk4' is not 'imex-mri-sr21' or"),
    (dict(problem="nope"), "problem = 'nope' is not 'kpr' or"),
    # an empty list used to run nothing, or the default tols
    (dict(methods=[]), "methods = [] is not a list of one or more entries"),
    (dict(methods="merk2"), "methods = 'merk2' is not a list"),
    (dict(tols=[]), "tols = [] is not a list of one or more entries"),
    (dict(kmin=5, kmax=2), "kmin = 5 > kmax = 2"),
    (dict(window=(1.0, 2.0, 3.0)), "window = (1.0, 2.0, 3.0)"),
    (dict(window=(-8.0, 0.5, -6.0, math.inf)), "window = "),
    (dict(window="-8,0.5,-6,6"), "window = "),
    (dict(res=(1, 5)), "res = (1, 5)"),
    (dict(res=(48.0, 48)), "res = "),
    (dict(res=48), "res = 48"),
    (dict(M=0), "M = 0 is not a positive integer"),
    (dict(M="10"), "M = '10' is not a positive integer"),
    (dict(M=2.0), "M = 2.0 is not a positive integer"),
    (dict(M=True), "M = True is not a positive integer"),
    (dict(kmin=2.5), "kmin = 2.5 is not an integer"),
    (dict(kmax="8"), "kmax = '8' is not an integer"),
    (dict(which="X"), "which = 'X' is not 'E' or 'I'"),
    (dict(alpha=120.0), "alpha = 120.0 is not an angle in [0, 90] degrees"),
    (dict(beta=-1.0), "beta = -1.0 is not an angle"),
    (dict(alpha=float("nan")), "alpha = nan is not an angle"),
    (dict(rho=-1.0), "rho = -1.0 is not a finite number >= 0"),
    (dict(xi=-5), "xi = -5 is not a finite number >= 0"),
    (dict(xi="1e4"), "xi = '1e4' is not a finite number >= 0"),
    (dict(inner={"imex-mri-sr12": "zonneveld"}),
     "inner key = 'imex-mri-sr12' is not 'imex-mri-sr21'"),
    (dict(methods=["imex-mri-sr21", "imex-mri-sr32"],
          inner={"imex-mri-sr32": "rk4"}),
     "inner['imex-mri-sr32'] = 'rk4' is not 'heun' or"),
    (dict(inner=["heun"]), "inner = ['heun'] is not a dict"),
], ids=["method", "problem", "methods-empty", "methods-string",
        "tols-empty", "kmin-kmax", "window-three", "window-inf",
        "window-string", "res-one", "res-float", "res-scalar", "M-zero",
        "M-string", "M-float", "M-bool", "kmin-float", "kmax-string", "which",
        "alpha-over-90", "beta-negative", "alpha-nan", "rho-negative",
        "xi-negative", "xi-string", "inner-key", "inner-name", "inner-list"])
def test_experiment_config_rejects_bad_input_by_field(kw, named):
    # at construction, so a study never starts on it
    cfg = dict(kind="stability", methods=["imex-mri-sr21"])
    with pytest.raises(PreconditionError, match=re.escape(named)):
        ExperimentConfig(**{**cfg, **kw})


def _kpr_cfg(**kw):
    base = dict(kind="converge", methods=["imex-mri-sr21"], problem="kpr",
                kmin=2, kmax=4)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_convergence_kpr_second_order():
    recs = run_convergence(_kpr_cfg())
    assert len(recs) == 1
    rec = recs[0]
    assert len(rec.rows) == 3
    assert all(not r["failed"] for r in rec.rows)
    assert rec.slope == pytest.approx(2.0, abs=0.4)
    errs = [r["maxError"] for r in rec.rows]
    assert errs[0] > errs[1] > errs[2]
    assert {"H", "M", "runtime", "fastFEvals", "implicitSolves"} <= \
        set(rec.rows[0])


def test_run_convergence_is_deterministic():
    a = run_convergence(_kpr_cfg())[0].rows
    b = run_convergence(_kpr_cfg())[0].rows
    for ra, rb in zip(copy.deepcopy(a), copy.deepcopy(b)):
        ra.pop("runtime"), rb.pop("runtime")
        assert ra == rb


def test_run_adaptive_kpr():
    cfg = _kpr_cfg(kind="adaptive", tols=[1e-3, 1e-5])
    recs = run_adaptive(cfg)
    rows = recs[0].rows
    assert [r["tol"] for r in rows] == [1e-3, 1e-5]
    assert all(not r["failed"] for r in rows)
    assert rows[0]["maxError"] > rows[1]["maxError"]
    assert rows[1]["fastFEvals"] > rows[0]["fastFEvals"]


def test_run_convergence_records_h_that_does_not_divide_interval():
    # H = pi leaves 2.5 steps on [0, 5pi/2]; H = pi/2 misses the sample
    # points pi/4, 3pi/4, ...; the study records both and goes on
    rows = run_convergence(_kpr_cfg(kmin=0, kmax=2))[0].rows
    assert [r["k"] for r in rows] == [0, 1, 2]
    assert rows[0]["failed"] and "2.5 is not an integer" in rows[0]["failure"]
    assert rows[1]["failed"] and "not a step boundary" in rows[1]["failure"]
    assert not rows[2]["failed"] and math.isfinite(rows[2]["maxError"])


def test_rows_carry_every_counter():
    counters = set(StepStats().as_dict()) | {"accepted", "rejected"}
    assert len(counters) == 10 and counters <= set(RUN_KEYS)
    fixed = run_convergence(_kpr_cfg(kmin=0, kmax=2))[0].rows
    adaptive = run_adaptive(_kpr_cfg(kind="adaptive", tols=[1e-3]))[0].rows
    failed, good = fixed[0], fixed[2]
    for row in (good, adaptive[0], failed):
        assert set(RUN_KEYS) <= set(row)
    assert good["accepted"] == 10 and good["rejected"] == 0
    assert good["newtonIters"] == good["linearSolves"] > 0
    # KPR's Jacobian changes at every implicit stage
    assert good["jacobianEvals"] == good["factorizations"] \
        == good["implicitSolves"] > 0
    assert adaptive[0]["accepted"] > 0 and adaptive[0]["newtonIters"] > 0
    assert all(failed[k] == 0 for k in counters)


def test_value_error_inside_a_run_is_not_a_failed_row(monkeypatch):
    # only MRISRError becomes a failed row; a ValueError from a bug (say a
    # shape mismatch in a right-hand side) must surface
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("mrisr.harness.integrate_fixed", broken)
    with pytest.raises(ValueError, match="broadcast"):
        run_convergence(_kpr_cfg(kmin=2, kmax=2))


def _no_adaptive_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(adaptivity, "integrate_adaptive",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def test_run_adaptive_rejects_methods_without_embedding(monkeypatch):
    # merk3 has no embedding: the whole study is refused before any run,
    # wherever merk3 stands in the list
    calls = _no_adaptive_runs(monkeypatch)
    for methods in (["merk3", "imex-mri-sr21"], ["imex-mri-sr21", "merk3"]):
        cfg = _kpr_cfg(kind="adaptive", methods=methods, tols=[1e-3])
        with pytest.raises(PreconditionError, match="merk3 has no embedding"):
            run_adaptive(cfg)
    assert calls == []


def test_run_adaptive_rejects_requested_inner_without_embedding(monkeypatch):
    calls = _no_adaptive_runs(monkeypatch)
    cfg = _kpr_cfg(kind="adaptive", inner={"imex-mri-sr21": "heun"},
                   tols=[1e-3])
    with pytest.raises(PreconditionError,
                       match="inner method heun of imex-mri-sr21"):
        run_adaptive(cfg)
    assert calls == []


def test_run_adaptive_default_inner_falls_back_to_embedded_pair():
    # the default pairing of imex-mri-sr21, heun, has no embedding
    rec = run_adaptive(_kpr_cfg(kind="adaptive", tols=[1e-3]))[0]
    assert default_inner("imex-mri-sr21").name == "heun"
    assert rec.config["inner"] == "bogacki-shampine"


def test_run_verify_report():
    # every field of every builtin, c_statistic to the last bit
    base = dict(structure=[], internal_consistency=True)
    assert run_verify() == {
        "imex-mri-sr21": dict(base, base_order=2, coupling_order=2,
                              method_order=2,
                              c_statistic=0.09464252095919105),
        "imex-mri-sr32": dict(base, base_order=3, coupling_order=3,
                              method_order=3,
                              c_statistic=2.6254006133622227),
        "imex-mri-sr43": dict(base, base_order=4, coupling_order=4,
                              method_order=4, c_statistic=None),
        "merk2": dict(base, base_order=2, coupling_order=3, method_order=2),
        "merk3": dict(base, base_order=3, coupling_order=3, method_order=3),
        "merk4": dict(base, base_order=4, coupling_order=4, method_order=4),
        "merk5": dict(base, base_order=4, coupling_order=4, method_order=4,
                      note="verified to order 4; order-5 condition set "
                           "out of scope"),
    }
    assert list(run_verify(methods=["merk5", "merk2"])) == ["merk5", "merk2"]


def test_run_verify_runs_each_check_once_per_tableau(monkeypatch):
    calls = Counter()
    for name in ("check_internal_consistency", "check_ark_order",
                 "check_coupling_order"):
        def counted(*args, _name=name, _check=getattr(theory, name)):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(theory, name, counted)
    run_verify()
    n = len(BUILTIN_NAMES)
    assert calls["check_internal_consistency"] == n
    assert calls["check_ark_order"] == n
    # one coupling check at order 3 and, only when it passes, one at order 4
    assert calls["check_coupling_order"] <= 2 * n


def test_run_stability_export_writes_grid(tmp_path):
    cfg = ExperimentConfig(kind="stability", methods=["imex-mri-sr21"],
                           which="E", alpha=45.0, rho=1.0,
                           window=(-3.0, 0.5, -2.0, 2.0), res=(6, 5),
                           out=str(tmp_path))
    files = run_stability_export(cfg)
    assert len(files) == 1
    lines = open(files[0]).read().strip().splitlines()
    assert lines[0] == "re,im,indicator,maxAbsR"
    assert len(lines) == 1 + 6 * 5
    meta = json.load(open(files[0] + ".json"))
    assert meta["method"] == "imex-mri-sr21"
    assert meta["res"] == [6, 5]


def test_write_csv_header_and_sidecar(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b"], [dict(a=1, b=2.5), dict(a=3)],
              sidecar=dict(seed=0, note="x", v=np.float64(1.5)))
    lines = path.read_text().strip().splitlines()
    assert lines == ["a,b", "1,2.5", "3,"]
    side = json.loads((tmp_path / "out.csv.json").read_text())
    assert side == dict(seed=0, note="x", v=1.5, versions=versions())


def test_sidecar_records_versions(tmp_path):
    # read back from a stability export, against versions found here
    cfg = ExperimentConfig(kind="stability", methods=["merk2"], which="E",
                           alpha=45.0, rho=1.0,
                           window=(-3.0, 0.5, -2.0, 2.0), res=(3, 2),
                           out=str(tmp_path))
    files = run_stability_export(cfg)
    meta = json.load(open(files[0] + ".json"))
    assert meta["versions"] == dict(
        mrisr=mrisr.__version__, python=platform.python_version(),
        numpy=np.__version__, scipy=scipy.__version__)
    assert meta["method"] == "merk2"


def test_reference_cache_keys_on_the_sample_points():
    from mrisr.harness import _exact_samples
    from mrisr.problems import kpr_exact, make_problem
    p = make_problem("kpr")
    for pts in ([0.5, 1.0, 1.5], [0.25, 0.75, 1.25]):
        ref, _ = _exact_samples("kpr", p, pts)
        assert np.array_equal(ref, [list(kpr_exact(s)) for s in pts])


def test_run_convergence_brusselator_end_to_end(monkeypatch):
    # the brusselator reference is scipy BDF, made once by _exact_samples;
    # it agrees with perfbench/refs.npz (BDF at rtol 1e-11) well below the
    # floor. k = 6, 7 are the coarsest H at which SR21 + heun runs through;
    # the test takes about 10 s, most of it in the reference
    calls, real = [], harness._exact_samples

    def spy(name, p, pts):
        calls.append(real(name, p, pts))
        return calls[-1]
    monkeypatch.setattr(harness, "_exact_samples", spy)
    cfg = ExperimentConfig(kind="converge", methods=["imex-mri-sr21"],
                           problem="brusselator-201", kmin=6, kmax=7)
    rows = run_convergence(cfg)[0].rows
    (ref, floor), = calls
    stored = np.load(Path(__file__).parents[1] / "perfbench" / "refs.npz")
    assert np.max(np.abs(ref - stored["bruss201_bdf"])) < 0.1 * floor
    assert [r["failed"] for r in rows] == [0, 0]
    for r in rows:
        assert math.isfinite(r["maxError"]) and r["maxError"] > floor
    assert rows[0]["maxError"] > rows[1]["maxError"]


def test_reference_that_stops_short_is_an_error():
    # y' = y^2 from y(0) = 1 blows up at t = 1, before the last sample point
    p = SplitIVP(dim=1, fF=lambda t, y: y * y, fE=lambda t, y: 0.0 * y,
                 fI=lambda t, y: 0.0 * y, y0=np.array([1.0]))
    with pytest.raises(MRISRError, match="BDF reference for blowup failed"):
        harness._exact_samples("blowup", p, [0.5, 2.0])
    assert ("blowup", (0.5, 2.0)) not in harness._REF_CACHE


def test_problem_tables_cover_registry():
    from mrisr.problems import PROBLEMS
    assert set(PROBLEM_TEND) == set(PROBLEMS) == set(PROBLEM_H0)
    assert PROBLEM_TEND["kpr"] == pytest.approx(5.0 * math.pi / 2.0)


def test_experiment_config_and_scans_share_their_rules():
    # the CLI's checks are the library's, so they cannot drift apart
    rules = {name: rule for names, rule in harness._FIELD_RULES
             for name in names.split()}
    assert rules["which"] is stability.WHICH
    assert rules["window"] is stability.WINDOW
    assert rules["res"] is stability.RES
    assert rules["alpha"] is rules["beta"] is errors.ANGLE
    assert rules["rho"] is rules["xi"] is errors.FINITE_NONNEGATIVE
