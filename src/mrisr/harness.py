"""Experiment drivers: verification, convergence, efficiency, stability
exports, and adaptive runs, with CSV output and JSON config sidecars."""

import csv
import json
import math
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import adaptivity, stability, theory
from .errors import (ANGLE, BOOL, DICT, FINITE_NONNEGATIVE, INTEGER,
                     NONEMPTY_LIST, POSITIVE_FINITE, POSITIVE_INTEGER,
                     STRING, MRISRError, PreconditionError, one_of, require)
from .integrator import IntegrationRecord, StepStats, integrate_fixed
from .problems import PROBLEM_NAME, kpr_exact, make_problem
from .rk import INNER_NAME, inner_method
from .tableau import (BUILTIN_NAMES, METHOD_NAME, load_builtin,
                      validate_structure)

__all__ = ["RunRecord", "default_inner", "fit_slope",
           "run_convergence", "run_efficiency", "run_adaptive",
           "run_stability_export", "run_verify", "versions", "write_csv",
           "PROBLEM_TEND", "PROBLEM_H0", "RUN_KEYS"]

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


def default_inner(method_name):
    """Inner explicit RK paired with a builtin slow method, matching its
    order."""
    require("method", method_name, METHOD_NAME)
    return inner_method(_DEFAULT_INNER[method_name])


# the rule of each study setting but methods and inner (_pairs), by name;
# the scan settings share theirs with mrisr.stability
_RULES = dict(problem=PROBLEM_NAME, kmin=INTEGER, kmax=INTEGER,
              M=POSITIVE_INTEGER, H0=POSITIVE_FINITE.or_none(),
              tols=NONEMPTY_LIST.or_none(), out=STRING.or_none(),
              which=stability.WHICH, alpha=ANGLE, beta=ANGLE,
              rho=FINITE_NONNEGATIVE, xi=FINITE_NONNEGATIVE,
              window=stability.WINDOW, res=stability.RES, joint=BOOL)


def _check(**settings):
    """settings, once each passes its rule in _RULES."""
    for name, value in settings.items():
        require(name, value, _RULES[name])
    return settings


def _pairs(methods, inner=None):
    """(name, tableau, inner method) of each builtin method in methods; the
    inner method is the one inner names for it, else default_inner's."""
    require("methods", methods, NONEMPTY_LIST)
    for m in methods:
        require("method", m, METHOD_NAME)
    inner = {} if inner is None else inner
    require("inner", inner, DICT)
    for m, name in inner.items():
        require("inner key", m, one_of(*methods))
        require(f"inner[{m!r}]", name, INNER_NAME)
    return [(m, load_builtin(m),
             inner_method(inner[m]) if m in inner else default_inner(m))
            for m in methods]


@dataclass
class RunRecord:
    config: dict
    rows: list
    slope: float = None


def fit_slope(Hs, errs):
    """Least-squares slope of log(err) versus log(H)."""
    Hs = np.asarray(Hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if len(Hs) < 2:
        return None
    return float(np.polyfit(np.log(Hs), np.log(errs), 1)[0])


# every study samples the solution at N_SAMPLES evenly spaced times
N_SAMPLES = 10


def _sample_points(tEnd):
    return [tEnd * (i + 1) / N_SAMPLES for i in range(N_SAMPLES)]


_REF_CACHE = {}

# Errors below this are not resolved by the brusselator references, and a
# slope fit skips them. Over the ten sample points, BDF at the settings in
# _exact_samples agrees with Radau at the same settings to 2.2e-10 on
# brusselator-201 and to 1.5e-9 on brusselator-tv-101.
_REF_FLOOR = 1e-8


def _exact_samples(p, sample_points):
    """(samples array, error floor) for a problem, keyed by p.name: analytic
    for KPR, scipy BDF at rtol 1e-12 / atol 1e-14 on fF + fE + fI otherwise.
    Raises MRISRError with scipy's message when BDF does not reach the last
    sample point."""
    key = (p.name, tuple(sample_points))
    if key not in _REF_CACHE:
        if p.name == "kpr":
            out = (np.array([list(kpr_exact(s)) for s in sample_points]), 0.0)
        else:
            # imported here: scipy.integrate takes about 0.5 s to import
            from scipy.integrate import solve_ivp
            sol = solve_ivp(lambda t, y: p.fF(t, y) + p.fE(t, y) + p.fI(t, y),
                            (p.t0, sample_points[-1]),
                            np.array(p.y0, dtype=float), method="BDF",
                            t_eval=sample_points, rtol=1e-12, atol=1e-14)
            if sol.status != 0:
                raise MRISRError(
                    f"BDF reference for {p.name} failed: {sol.message}")
            out = (sol.y.T, _REF_FLOOR)
        _REF_CACHE[key] = out
    return _REF_CACHE[key]


# columns every run row carries, after its study's leading keys
RUN_KEYS = ["maxError", "runtime", "accepted", "rejected",
            *StepStats().as_dict(), "failed"]


def _run_row(run, ref):
    """Time run() and summarise its IntegrationRecord as the RUN_KEYS of one
    row, plus 'failure' when it failed. A run that raises gives a failed row
    with zero counters; the drivers raise only PreconditionError, for an H
    or sample point off the grid or a callback value of the wrong shape."""
    start = time.monotonic()
    try:
        rec = run()
    except MRISRError as e:
        rec = IntegrationRecord(failure=str(e))
    row = dict(maxError=math.nan, runtime=time.monotonic() - start,
               accepted=rec.accepted, rejected=rec.rejected,
               **rec.stats.as_dict(), failed=int(rec.failed))
    if rec.failed:
        row["failure"] = rec.failure
    else:
        row["maxError"] = float(np.max(np.abs(np.array(rec.y) - ref)))
    return row


def _fit_rows(rows, floor, ceiling):
    """Slope over the rows that ran with floor < maxError < ceiling. Below
    the floor the reference does not resolve the error; at or above the
    ceiling, the reference's max norm over the sample points, a run that
    diverged without failing has no correct digit left."""
    good = [(r["H"], r["maxError"]) for r in rows
            if not r["failed"] and floor < r["maxError"] < ceiling]
    return fit_slope([g[0] for g in good], [g[1] for g in good])


def _run_fixed(methods, inner, H_of_k, settings):
    """Fixed-step runs of each method over H = H_of_k(k, tEnd), k in
    [kmin, kmax]; a run that raises is recorded as a failed row. A record's
    config is settings with its method and inner method."""
    problem, kmin, kmax, M = (settings[k] for k in ("problem", "kmin",
                                                     "kmax", "M"))
    if kmin > kmax:
        raise PreconditionError(f"kmin = {kmin} > kmax = {kmax}")
    pairs = _pairs(methods, inner)
    p = make_problem(problem)
    tEnd = PROBLEM_TEND[problem]
    pts = _sample_points(tEnd)
    ref, floor = _exact_samples(p, pts)
    ceiling = np.max(np.abs(ref))
    records = []
    for m, t, rk in pairs:
        rows = []
        for k in range(kmin, kmax + 1):
            H = H_of_k(k, tEnd)
            rows.append(dict(method=m, k=k, H=H, M=M, **_run_row(
                lambda: integrate_fixed(p, t, rk, pts[-1], H, M,
                                        sample_points=pts), ref)))
        records.append(RunRecord(config=dict(settings, method=m,
                                             inner=rk.name),
                                 rows=rows,
                                 slope=_fit_rows(rows, floor, ceiling)))
    return records


def run_convergence(methods, problem="kpr", inner=None, H0=None, kmin=0,
                    kmax=8, M=10):
    """Fixed-step convergence study over H = H0 * 2^-k, k in [kmin, kmax]
    (H0 defaults to PROBLEM_H0[problem]); inner maps a method to the name
    of its inner method, default_inner's by default."""
    settings = _check(problem=problem, H0=H0, kmin=kmin, kmax=kmax, M=M)
    settings["H0"] = H0 = PROBLEM_H0[problem] if H0 is None else H0
    return _run_fixed(methods, inner, lambda k, tEnd: H0 * 2.0 ** (-k),
                      settings)


def run_efficiency(methods, problem="kpr", inner=None, kmin=0, kmax=8, M=10):
    """Efficiency study over H = 0.1 * 2^-k, with the settings of
    run_convergence; failures recorded as rows."""
    def H_of_k(k, tEnd):
        H = 0.1 * 2.0 ** (-k)
        n = (tEnd / N_SAMPLES) / H
        if abs(n - round(n)) > 1e-9:
            # snap H to divide the sampling interval evenly
            H = (tEnd / N_SAMPLES) / math.ceil(n)
        return H

    return _run_fixed(methods, inner, H_of_k,
                      _check(problem=problem, kmin=kmin, kmax=kmax, M=M))


def run_adaptive(methods, problem="kpr", inner=None, H0=None, tols=None,
                 M=10):
    """Adaptive runs over a tolerance schedule; reports achieved max error.

    H0, when set, is every run's first step. Both the slow method and its
    inner method need an embedding. Before any run starts,
    PreconditionError names a method without one, and an inner method
    without one that inner asks for. A default pairing without one (heun,
    for imex-mri-sr21) is replaced by bogacki-shampine.
    """
    settings = _check(problem=problem, H0=H0, tols=tols, M=M)
    for tol in tols or ():
        require("tol", tol, POSITIVE_FINITE)
    pairs = []
    for m, t, rk in _pairs(methods, inner):
        if not t.has_embedding:
            raise PreconditionError(
                f"{m} has no embedding; adaptive runs need one")
        if rk.bhat is None:
            if m in (inner or ()):
                raise PreconditionError(
                    f"inner method {rk.name} of {m} has no embedding; "
                    "adaptive runs need one")
            rk = inner_method("bogacki-shampine")
        pairs.append((m, t, rk))
    p = make_problem(problem)
    tEnd = PROBLEM_TEND[problem]
    pts = _sample_points(tEnd)
    ref, _ = _exact_samples(p, pts)
    settings["tols"] = tols = tols or [10.0 ** (-k) for k in range(2, 7)]
    records = []
    for m, t, rk in pairs:
        rows = [dict(method=m, tol=tol, **_run_row(
            lambda: adaptivity.integrate_adaptive(
                p, t, rk, tEnd, tol, sample_points=pts, H0=H0, M0=M), ref))
            for tol in tols]
        records.append(RunRecord(config=dict(settings, method=m,
                                             inner=rk.name),
                                 rows=rows))
    return records


def run_stability_export(methods, out=None, which="E", alpha=45.0,
                         rho=100.0, beta=45.0, xi=1e4,
                         window=(-8.0, 0.5, -6.0, 6.0), res=(48, 48),
                         joint=False):
    """Region scans, of `which` or with joint of zE and the zI sector
    (beta, xi), written as CSV grids with their scan.meta as JSON sidecars,
    in out (default: the working directory)."""
    _check(out=out, which=which, alpha=alpha, rho=rho, beta=beta, xi=xi,
           window=window, res=res, joint=joint)
    pairs = _pairs(methods)
    outdir = out or "."
    os.makedirs(outdir, exist_ok=True)
    fast = stability.SectorSpec(alpha, rho)
    files = []
    for m, t, _ in pairs:
        if joint:
            impl = stability.SectorSpec(beta, xi)
            scan = stability.scan_joint_region(t, fast, impl, window, res)
            tag = f"{m}-joint-a{alpha:g}-b{beta:g}"
        else:
            scan = stability.scan_component_region(t, which, fast, window,
                                                   res)
            tag = f"{m}-{which}-a{alpha:g}"
        path = os.path.join(outdir, f"stability-{tag}.csv")
        write_csv(path, ["re", "im", "indicator", "maxAbsR"],
                  list(scan.rows()), sidecar=scan.meta)
        files.append(path)
    return files


def run_verify(methods=None):
    """Structural and order verification report for builtin methods (all of
    them by default)."""
    methods = methods or list(BUILTIN_NAMES)
    report = {}
    for m in methods:
        t = load_builtin(m)
        entry = dict(structure=validate_structure(t),
                     **theory.order_facts(t, 6))
        if t.has_embedding:
            # the condition sets stop at order 4, and C needs order p + 1
            p = entry["method_order"]
            entry["c_statistic"] = \
                theory.c_statistic(t, p) if p + 1 <= 4 else None
        if m == "merk5":
            entry["note"] = ("verified to order 4; order-5 condition set "
                             "out of scope")
        report[m] = entry
    return report


def versions():
    """Versions of mrisr, Python, numpy and scipy, as recorded in sidecars."""
    import scipy

    from . import __version__
    return dict(mrisr=__version__, python=platform.python_version(),
                numpy=np.__version__, scipy=scipy.__version__)


def write_csv(path, header, rows, sidecar):
    """Write rows (dicts or sequences) as CSV, and the dict sidecar as JSON
    to path + '.json', with the versions() added under 'versions'."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            if isinstance(r, dict):
                w.writerow([r.get(h, "") for h in header])
            else:
                w.writerow(list(r))
    with open(path + ".json", "w") as f:
        json.dump(dict(sidecar, versions=versions()), f, indent=2,
                  sort_keys=True, default=lambda x: x.item())
        f.write("\n")
    return path
