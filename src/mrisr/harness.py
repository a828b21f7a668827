"""Experiment drivers: verification, convergence, efficiency, stability
exports, and adaptive runs, with CSV output and JSON config sidecars."""

import csv
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import adaptivity, stability, theory
from .errors import (ANGLE, DICT, FINITE_NONNEGATIVE, INTEGER,
                     NONEMPTY_LIST, POSITIVE_FINITE, POSITIVE_INTEGER,
                     MRISRError, PreconditionError, one_of, require)
from .integrator import IntegrationRecord, StepStats, integrate_fixed
from .problems import PROBLEM_NAME, kpr_exact, make_problem
from .rk import INNER_NAME, inner_method
from .tableau import (BUILTIN_NAMES, METHOD_NAME, load_builtin,
                      validate_structure)

__all__ = ["ExperimentConfig", "RunRecord", "default_inner", "fit_slope",
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


# (fields, rule) of ExperimentConfig's one-field checks, shared with the
# library objects it builds where they check the same value
_FIELD_RULES = (
    ("methods", NONEMPTY_LIST),
    ("problem", PROBLEM_NAME),
    ("kmin kmax", INTEGER),
    ("M", POSITIVE_INTEGER),
    ("H0", POSITIVE_FINITE.or_none()),
    ("tols", NONEMPTY_LIST.or_none()),
    ("inner", DICT),
    ("which", stability.WHICH),
    ("alpha beta", ANGLE),
    ("rho xi", FINITE_NONNEGATIVE),
    ("window", stability.WINDOW),
    ("res", stability.RES),
)


@dataclass
class ExperimentConfig:
    methods: list
    problem: str = "kpr"
    inner: dict = field(default_factory=dict)  # method -> inner name
    H0: float = None
    kmin: int = 0
    kmax: int = 8
    M: int = 10
    tols: list = None
    out: str = None
    json_out: bool = False
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
        for names, rule in _FIELD_RULES:
            for name in names.split():
                require(name, getattr(self, name), rule)
        for m in self.methods:
            require("method", m, METHOD_NAME)
        if self.kmin > self.kmax:
            raise PreconditionError(f"kmin = {self.kmin} > kmax = {self.kmax}")
        for tol in self.tols or ():
            require("tol", tol, POSITIVE_FINITE)
        for m, name in self.inner.items():
            require("inner key", m, one_of(*self.methods))
            require(f"inner[{m!r}]", name, INNER_NAME)

    def inner_for(self, method):
        if method in self.inner:
            return inner_method(self.inner[method])
        return default_inner(method)


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


def _run_fixed(cfg, H_of_k):
    """Fixed-step runs of each method over H = H_of_k(k, tEnd), k in
    [kmin, kmax]; a run that raises is recorded as a failed row."""
    p = make_problem(cfg.problem)
    tEnd = PROBLEM_TEND[cfg.problem]
    pts = _sample_points(tEnd)
    ref, floor = _exact_samples(p, pts)
    ceiling = np.max(np.abs(ref))
    records = []
    for m in cfg.methods:
        t = load_builtin(m)
        rk = cfg.inner_for(m)
        rows = []
        for k in range(cfg.kmin, cfg.kmax + 1):
            H = H_of_k(k, tEnd)
            rows.append(dict(method=m, k=k, H=H, M=cfg.M, **_run_row(
                lambda: integrate_fixed(p, t, rk, pts[-1], H, cfg.M,
                                        sample_points=pts), ref)))
        records.append(RunRecord(config=_echo(cfg, method=m, inner=rk.name),
                                 rows=rows,
                                 slope=_fit_rows(rows, floor, ceiling)))
    return records


def run_convergence(cfg):
    """Fixed-step convergence study over H = H0 * 2^-k, k in [kmin, kmax]."""
    H0 = cfg.H0 if cfg.H0 is not None else PROBLEM_H0[cfg.problem]
    return _run_fixed(cfg, lambda k, tEnd: H0 * 2.0 ** (-k))


def run_efficiency(cfg):
    """Efficiency study over H = 0.1 * 2^-k; failures recorded as rows."""
    def H_of_k(k, tEnd):
        H = 0.1 * 2.0 ** (-k)
        n = (tEnd / N_SAMPLES) / H
        if abs(n - round(n)) > 1e-9:
            # snap H to divide the sampling interval evenly
            H = (tEnd / N_SAMPLES) / math.ceil(n)
        return H

    return _run_fixed(cfg, H_of_k)


def run_adaptive(cfg):
    """Adaptive runs over a tolerance schedule; reports achieved max error.

    cfg.H0, when set, is every run's first step. Both the slow method and
    its inner method need an embedding. Before any
    run starts, PreconditionError names a method without one, and an inner
    method without one that cfg.inner asks for. A default pairing without
    one (heun, for imex-mri-sr21) is replaced by bogacki-shampine.
    """
    pairs = []
    for m in cfg.methods:
        t = load_builtin(m)
        if not t.has_embedding:
            raise PreconditionError(
                f"{m} has no embedding; adaptive runs need one")
        rk = cfg.inner_for(m)
        if rk.bhat is None:
            if m in cfg.inner:
                raise PreconditionError(
                    f"inner method {rk.name} of {m} has no embedding; "
                    "adaptive runs need one")
            rk = inner_method("bogacki-shampine")
        pairs.append((m, t, rk))
    p = make_problem(cfg.problem)
    tEnd = PROBLEM_TEND[cfg.problem]
    pts = _sample_points(tEnd)
    ref, _ = _exact_samples(p, pts)
    tols = cfg.tols or [10.0 ** (-k) for k in range(2, 7)]
    records = []
    for m, t, rk in pairs:
        rows = [dict(method=m, tol=tol, **_run_row(
            lambda: adaptivity.integrate_adaptive(
                p, t, rk, tEnd, tol, sample_points=pts, H0=cfg.H0,
                M0=cfg.M), ref))
            for tol in tols]
        records.append(RunRecord(config=_echo(cfg, method=m, inner=rk.name),
                                 rows=rows))
    return records


def run_stability_export(cfg):
    """Region scans written as CSV grids with JSON metadata sidecars, in
    cfg.out (default: the working directory)."""
    outdir = cfg.out or "."
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


def _echo(cfg, **extra):
    d = {k: v for k, v in asdict(cfg).items() if v is not None}
    d.update(extra)
    return d


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
