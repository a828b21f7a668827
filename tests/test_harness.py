import copy
import json
import math

import numpy as np
import pytest

from mrisr.harness import (PROBLEM_H0, PROBLEM_TEND, ExperimentConfig,
                           default_inner, fit_slope, run_adaptive,
                           run_convergence, run_stability_export, run_verify,
                           write_csv)


def test_fit_slope_recovers_synthetic_order():
    Hs = [0.1 * 2.0 ** (-k) for k in range(6)]
    errs = [3.7 * H ** 3 for H in Hs]
    assert fit_slope(Hs, errs) == pytest.approx(3.0, abs=1e-10)
    assert fit_slope([0.1], [1.0]) is None


def test_default_inner_pairing():
    assert default_inner("imex-mri-sr21").name == "heun"
    assert default_inner("imex-mri-sr32").name == "bogacki-shampine"
    assert default_inner("imex-mri-sr43").name == "zonneveld"
    assert default_inner("merk2").name == "heun"
    assert default_inner("merk5").name == "cash-karp"


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="converge", methods=["rk4"])
    with pytest.raises(ValueError):
        ExperimentConfig(kind="converge", methods=["merk2"], kmin=5, kmax=2)
    cfg = ExperimentConfig(kind="converge", methods=["merk3"],
                           inner={"merk3": "zonneveld"})
    assert cfg.inner_for("merk3").name == "zonneveld"


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


def test_run_adaptive_skips_methods_without_embedding():
    cfg = _kpr_cfg(kind="adaptive", methods=["merk3", "imex-mri-sr21"],
                   tols=[1e-3])
    recs = run_adaptive(cfg)
    assert len(recs) == 1
    assert recs[0].config["method"] == "imex-mri-sr21"


def test_run_verify_report():
    rep = run_verify(methods=["imex-mri-sr21", "imex-mri-sr43", "merk5"])
    assert rep["imex-mri-sr21"]["base_order"] == 2
    assert rep["imex-mri-sr43"]["base_order"] == 4
    assert rep["imex-mri-sr43"]["coupling_order"] == 4
    assert rep["merk5"]["note"]
    for e in rep.values():
        assert e["structure"] == [] and e["internal_consistency"]


def test_run_stability_export_writes_grid(tmp_path):
    cfg = ExperimentConfig(kind="stability", methods=["imex-mri-sr21"],
                           which="E", alpha=45.0, rho=1.0,
                           window=(-3.0, 0.5, -2.0, 2.0), res=(6, 5))
    files = run_stability_export(cfg, str(tmp_path))
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
    assert side == dict(seed=0, note="x", v=1.5)


def test_reference_cache_keys_on_the_sample_points():
    from mrisr.harness import _exact_samples
    from mrisr.problems import kpr_exact, make_problem
    p = make_problem("kpr")
    for pts in ([0.5, 1.0, 1.5], [0.25, 0.75, 1.25]):
        ref, _ = _exact_samples("kpr", p, pts, "standard")
        assert np.array_equal(ref, [list(kpr_exact(s)) for s in pts])


def test_problem_tables_cover_registry():
    from mrisr.problems import PROBLEMS
    assert set(PROBLEM_TEND) == set(PROBLEMS) == set(PROBLEM_H0)
    assert PROBLEM_TEND["kpr"] == pytest.approx(5.0 * math.pi / 2.0)
