"""Experiment drivers: verification, convergence, efficiency, stability
exports, and adaptive runs, with CSV output and JSON config sidecars."""

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import adaptivity, stability, theory
from .errors import MRISRError, ReferenceFailure
from .integrator import integrate_fixed
from .problems import PROBLEMS, kpr_exact, make_problem, reference_solution
from .rk import inner_method
from .tableau import BUILTIN_NAMES, load_builtin, validate_structure

__all__ = ["ExperimentConfig", "RunRecord", "default_inner", "fit_slope",
           "run_convergence", "run_efficiency", "run_adaptive",
           "run_stability_export", "run_verify", "write_csv",
           "PROBLEM_TEND", "PROBLEM_H0"]

PROBLEM_TEND = {
    "kpr": 5.0 * math.pi / 2.0,
    "brusselator-201": 3.0,
    "brusselator-801": 3.0,
    "brusselator-tv-101": 3.0,
}

# base H for the H = H0 * 2^-k refinement schedules
PROBLEM_H0 = {
    "kpr": math.pi,
    "brusselator-201": 0.3,
    "brusselator-801": 0.3,
    "brusselator-tv-101": 0.3,
}

_DEFAULT_INNER = {
    "imex-mri-sr21": "heun",
    "imex-mri-sr32": "bogacki-shampine",
    "imex-mri-sr43": "zonneveld",
    "merk2": "heun",
    "merk3": "bogacki-shampine",
    "merk4": "zonneveld",
    "merk5": "cash-karp",
}

_INNER_BY_ORDER = {1: "heun", 2: "heun", 3: "bogacki-shampine",
                   4: "zonneveld", 5: "cash-karp"}


def default_inner(method_name):
    """Inner explicit RK paired with a slow method, matching its order."""
    if method_name in _DEFAULT_INNER:
        return inner_method(_DEFAULT_INNER[method_name])
    t = load_builtin(method_name)
    p = theory.method_order(t, 6)
    return inner_method(_INNER_BY_ORDER[min(max(p, 1), 5)])


@dataclass
class ExperimentConfig:
    kind: str
    methods: list
    problem: str = "kpr"
    inner: dict = field(default_factory=dict)  # method -> inner name
    H0: float = None
    kmin: int = 0
    kmax: int = 8
    M: int = 10
    n_samples: int = 10
    tols: list = None
    out: str = None
    json_out: bool = False
    reference_quality: str = "standard"
    # stability-scan settings
    which: str = "E"
    alpha: float = 45.0
    rho: float = 100.0
    beta: float = 45.0
    xi: float = 1e4
    window: tuple = (-8.0, 0.5, -6.0, 6.0)
    res: tuple = (48, 48)
    joint: bool = False

    def __post_init__(self):
        for m in self.methods:
            if m not in BUILTIN_NAMES:
                raise ValueError(f"unknown method {m!r}")
        if self.kmin > self.kmax:
            raise ValueError("kmin > kmax")

    def inner_for(self, method):
        if method in self.inner:
            return inner_method(self.inner[method])
        return default_inner(method)


@dataclass
class RunRecord:
    config: dict
    rows: list
    slope: float = None
    floor: float = 0.0
    meta: dict = field(default_factory=dict)


def fit_slope(Hs, errs):
    """Least-squares slope of log(err) versus log(H)."""
    Hs = np.asarray(Hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if len(Hs) < 2:
        return None
    return float(np.polyfit(np.log(Hs), np.log(errs), 1)[0])


def _sample_points(tEnd, n):
    return [tEnd * (i + 1) / n for i in range(n)]


_REF_CACHE = {}


def _exact_samples(problem_name, p, sample_points, quality):
    """(samples array, error floor) for a problem; analytic where available."""
    key = (problem_name, quality, tuple(sample_points))
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    out = _exact_samples_uncached(problem_name, p, sample_points, quality)
    _REF_CACHE[key] = out
    return out


def _exact_samples_uncached(problem_name, p, sample_points, quality):
    if problem_name == "kpr":
        return (np.array([list(kpr_exact(s)) for s in sample_points]), 0.0)
    gate = {"draft": 1e-7, "standard": 1e-10}[quality]
    # brusselator variants are unstable at coarse H; start refinement low
    H0 = 3.0 / 512.0 if problem_name.startswith("brusselator") else None
    ref, _h = reference_solution(p, sample_points[-1], sample_points,
                                 quality=quality, H0=H0)
    return ref, 100.0 * gate


def _one_fixed_run(p, t, rk, H, M, sample_points, ref):
    start = time.monotonic()
    rec = integrate_fixed(p, t, rk, sample_points[-1], H, M,
                          sample_points=sample_points)
    runtime = time.monotonic() - start
    row = dict(H=H, M=M, runtime=runtime,
               fastFEvals=rec.stats.fast_f_evals,
               slowEEvals=rec.stats.slow_e_evals,
               slowIEvals=rec.stats.slow_i_evals,
               implicitSolves=rec.stats.implicit_solves,
               failed=int(rec.failed), maxError=math.nan)
    if not rec.failed:
        ys = np.array(rec.y)  # t0 is not a sample point
        row["maxError"] = float(np.max(np.abs(ys - ref)))
    else:
        row["failure"] = rec.failure
    return row


def _fit_rows(rows, floor):
    good = [(r["H"], r["maxError"]) for r in rows
            if not r["failed"] and math.isfinite(r["maxError"])
            and r["maxError"] > floor]
    if len(good) < 2:
        return None
    return fit_slope([g[0] for g in good], [g[1] for g in good])


def _run_fixed(cfg, H_of_k):
    """Fixed-step runs of each method over H = H_of_k(k, tEnd), k in
    [kmin, kmax]; a run that raises is recorded as a failed row."""
    p = make_problem(cfg.problem)
    tEnd = PROBLEM_TEND[cfg.problem]
    pts = _sample_points(tEnd, cfg.n_samples)
    ref, floor = _exact_samples(cfg.problem, p, pts, cfg.reference_quality)
    records = []
    for m in cfg.methods:
        t = load_builtin(m)
        rk = cfg.inner_for(m)
        rows = []
        for k in range(cfg.kmin, cfg.kmax + 1):
            H = H_of_k(k, tEnd)
            row = dict(method=m, k=k)
            try:
                row.update(_one_fixed_run(p, t, rk, H, cfg.M, pts, ref))
            except MRISRError as e:
                row.update(H=H, M=cfg.M, failed=1, failure=str(e),
                           maxError=math.nan, runtime=math.nan,
                           fastFEvals=0, slowEEvals=0, slowIEvals=0,
                           implicitSolves=0)
            rows.append(row)
        records.append(RunRecord(config=_echo(cfg, method=m, inner=rk.name),
                                 rows=rows, slope=_fit_rows(rows, floor),
                                 floor=floor))
    return records


def run_convergence(cfg):
    """Fixed-step convergence study over H = H0 * 2^-k, k in [kmin, kmax]."""
    H0 = cfg.H0 if cfg.H0 is not None else PROBLEM_H0[cfg.problem]
    return _run_fixed(cfg, lambda k, tEnd: H0 * 2.0 ** (-k))


def run_efficiency(cfg):
    """Efficiency study over H = 0.1 * 2^-k; failures recorded as rows."""
    def H_of_k(k, tEnd):
        H = 0.1 * 2.0 ** (-k)
        n = (tEnd / cfg.n_samples) / H
        if abs(n - round(n)) > 1e-9:
            # snap H to divide the sampling interval evenly
            H = (tEnd / cfg.n_samples) / math.ceil(n)
        return H

    return _run_fixed(cfg, H_of_k)


def run_adaptive(cfg):
    """Adaptive runs over a tolerance schedule; reports achieved max error."""
    p = make_problem(cfg.problem)
    tEnd = PROBLEM_TEND[cfg.problem]
    pts = _sample_points(tEnd, cfg.n_samples)
    ref, floor = _exact_samples(cfg.problem, p, pts, cfg.reference_quality)
    tols = cfg.tols or [10.0 ** (-k) for k in range(2, 7)]
    records = []
    for m in cfg.methods:
        t = load_builtin(m)
        if not t.has_embedding:
            continue
        rk = cfg.inner_for(m)
        if rk.bhat is None:
            # adaptive runs need an embedded inner estimate
            rk = inner_method("bogacki-shampine")
        rows = []
        for tol in tols:
            row = dict(method=m, tol=tol)
            start = time.monotonic()
            try:
                rec = adaptivity.integrate_adaptive(
                    p, t, rk, tEnd, tol, sample_points=pts, M0=cfg.M)
                row.update(runtime=time.monotonic() - start,
                           accepted=rec.accepted, rejected=rec.rejected,
                           fastFEvals=rec.stats.fast_f_evals,
                           implicitSolves=rec.stats.implicit_solves,
                           failed=int(rec.failed), maxError=math.nan)
                if not rec.failed:
                    ys = np.array(rec.y[1:])
                    row["maxError"] = float(np.max(np.abs(ys - ref)))
                else:
                    row["failure"] = rec.failure
            except MRISRError as e:
                row.update(runtime=time.monotonic() - start, failed=1,
                           failure=str(e), maxError=math.nan, accepted=0,
                           rejected=0, fastFEvals=0, implicitSolves=0)
            rows.append(row)
        records.append(RunRecord(config=_echo(cfg, method=m, inner=rk.name),
                                 rows=rows, floor=floor))
    return records


def run_stability_export(cfg, outdir=None):
    """Region scans written as CSV grids with JSON metadata sidecars."""
    outdir = outdir or cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    files = []
    for m in cfg.methods:
        t = load_builtin(m)
        fast = stability.SectorSpec(cfg.alpha, cfg.rho)
        if cfg.joint:
            impl = stability.SectorSpec(cfg.beta, cfg.xi)
            scan = stability.scan_joint_region(t, fast, impl, cfg.window,
                                               cfg.res)
            tag = f"{m}-joint-a{cfg.alpha:g}-b{cfg.beta:g}"
        else:
            scan = stability.scan_component_region(t, cfg.which, fast,
                                                   cfg.window, cfg.res)
            tag = f"{m}-{cfg.which}-a{cfg.alpha:g}"
        path = os.path.join(outdir, f"stability-{tag}.csv")
        write_csv(path, ["re", "im", "indicator", "maxAbsR"],
                  list(scan.rows()), sidecar=dict(scan.meta, **_echo(cfg)))
        files.append(path)
    return files


def run_verify(cfg=None, methods=None):
    """Structural and order verification report for builtin methods."""
    methods = methods or (cfg.methods if cfg else list(BUILTIN_NAMES))
    report = {}
    for m in methods:
        t = load_builtin(m)
        entry = dict(structure=validate_structure(t))
        entry["internal_consistency"] = \
            theory.check_internal_consistency(t).order == 2
        ark = theory.base_ark(t)
        base = 0
        for q in range(1, 5):
            if theory.check_ark_order(ark, q).all_pass:
                base = q
        entry["base_order"] = base
        coup = 2
        for q in (3, 4):
            if theory.check_coupling_order(t, q).all_pass:
                coup = q
        entry["coupling_order"] = coup
        entry["method_order"] = theory.method_order(t, 6)
        if t.has_embedding:
            try:
                entry["c_statistic"] = theory.c_statistic(
                    t, entry["method_order"])
            except ValueError:
                entry["c_statistic"] = None  # needs residuals beyond order 4
        if m == "merk5":
            entry["note"] = ("verified to order 4; order-5 condition set "
                             "out of scope")
        report[m] = entry
    return report


def _echo(cfg, **extra):
    d = {k: v for k, v in asdict(cfg).items() if v is not None}
    d.update(extra)
    return d


def write_csv(path, header, rows, sidecar=None):
    """Write rows (dicts or sequences) as CSV; optional JSON sidecar."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            if isinstance(r, dict):
                w.writerow([r.get(h, "") for h in header])
            else:
                w.writerow(list(r))
    if sidecar is not None:
        with open(path + ".json", "w") as f:
            json.dump(_jsonable(sidecar), f, indent=2, sort_keys=True)
            f.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
