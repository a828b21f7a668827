"""The benchmark's workloads: set-up, operations and output checks.

set_up(name) builds one workload's inputs and returns a Case: the operations
of one pass (an operation is one integration run, one stability scan or one
verify call) and the problems whose callbacks a traced run wraps. Each
operation's output is checked against a reference that is computed outside
every timed region: analytic for KPR, stored in refs.npz (see make_refs.py)
for the brusselators, and recorded values for the verify and scan
operations.

Run as a script, this module times the set-up of one workload in a fresh
interpreter and prints the seconds:

    python3 perfbench/workloads.py adapt-tv101
"""

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.npz"

NAMES = ("fixed-and-analysis", "adapt-tv101")

N_SAMPLES = 10
KPR_TEND = 5.0 * math.pi / 2.0
ADAPT_TOLS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
ADAPT_TEND = 3.0

# Output checks. A fixed-step run must stay within these max-norm errors
# (the seed code gives 4.0e-8 and 1.2e-5). An adaptive run only has to reach
# tEnd within a sanity limit: its error against tol is reported as tol_ratio,
# which shows the known tolerance defect instead of failing on it.
ERR_LIMIT = {"kpr-sr32": 1e-7, "bruss201-sr21": 3e-5, "adapt-tv101": 5e-2}

# Recorded output of the seed code for the verify and scan operations.
SCAN_RES = (64, 64)
SCAN_LATTICE = 8
SCAN_WINDOW = (-8.0, 0.5, -6.0, 6.0)
STABLE_CELLS = 658
VERIFY_REPORT = {
    "imex-mri-sr21": {"structure": [], "internal_consistency": True,
                      "base_order": 2, "coupling_order": 2,
                      "method_order": 2, "c_statistic": 0.09464252095919105},
    "imex-mri-sr32": {"structure": [], "internal_consistency": True,
                      "base_order": 3, "coupling_order": 3,
                      "method_order": 3, "c_statistic": 2.6254006133622227},
    "imex-mri-sr43": {"structure": [], "internal_consistency": True,
                      "base_order": 4, "coupling_order": 4,
                      "method_order": 4, "c_statistic": None},
    "merk2": {"structure": [], "internal_consistency": True,
              "base_order": 2, "coupling_order": 3, "method_order": 2},
    "merk3": {"structure": [], "internal_consistency": True,
              "base_order": 3, "coupling_order": 3, "method_order": 3},
    "merk4": {"structure": [], "internal_consistency": True,
              "base_order": 4, "coupling_order": 4, "method_order": 4},
    "merk5": {"structure": [], "internal_consistency": True,
              "base_order": 4, "coupling_order": 4, "method_order": 4,
              "note": "verified to order 4; order-5 condition set "
                      "out of scope"},
}


class CheckFailed(Exception):
    """An operation's output failed its check."""


@dataclass
class Op:
    label: str
    run: object    # () -> output of one call into the library
    check: object  # (output, reference) -> dict of measures; may raise


@dataclass
class Case:
    ops: list
    problems: tuple = ()  # SplitIVPs whose callbacks a traced run wraps


def use_checkout_source():
    """Import mrisr from this checkout's src/, never from an installed copy."""
    if not (SRC / "mrisr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mrisr source at {SRC}; run from the "
                         "root of a full checkout")
    sys.path.insert(0, str(SRC))


def sample_points(tEnd):
    return [tEnd * (i + 1) / N_SAMPLES for i in range(N_SAMPLES)]


def _fixed_op(name, integrator, p, t, rk, tEnd, H, M):
    pts = sample_points(tEnd)

    def run():
        return integrator.integrate_fixed(p, t, rk, tEnd, H, M,
                                          sample_points=pts)

    def check(rec, ref):
        import numpy as np
        if rec.failed:
            raise CheckFailed(rec.failure)
        if rec.t != pts:
            raise CheckFailed(f"sampled at {rec.t}, not {pts}")
        err = float(np.max(np.abs(np.array(rec.y) - ref)))
        if not err <= ERR_LIMIT[name]:
            raise CheckFailed(f"max error {err:.3e} > {ERR_LIMIT[name]:g}")
        return dict(err=err, stats=rec.stats.as_dict())

    return Op(name, run, check)


def _adaptive_op(adaptivity, p, t, rk, tol):
    def run():
        return adaptivity.integrate_adaptive(
            p, t, rk, ADAPT_TEND, tol, sample_points=[ADAPT_TEND],
            H0=1e-3, M0=10)

    def check(rec, ref):
        import numpy as np
        if rec.failed:
            raise CheckFailed(rec.failure)
        if rec.t[-1] != ADAPT_TEND:
            raise CheckFailed(f"stopped at t={rec.t[-1]}")
        err = float(np.max(np.abs(rec.y[-1] - ref)))
        if not err <= ERR_LIMIT["adapt-tv101"]:
            raise CheckFailed(f"final error {err:.3e} > "
                              f"{ERR_LIMIT['adapt-tv101']:g}")
        return dict(err=err, tol_ratio=err / tol, stats=rec.stats.as_dict(),
                    accepted=rec.accepted, rejected=rec.rejected)

    return Op(f"tol={tol:g}", run, check)


def _kpr_sr32():
    from mrisr import inner_method, integrator, kpr_problem, load_builtin
    p = kpr_problem()
    op = _fixed_op("kpr-sr32", integrator, p, load_builtin("imex-mri-sr32"),
                   inner_method("bogacki-shampine"), KPR_TEND,
                   math.pi / 256, 10)
    return Case(ops=[op], problems=(p,))


def _bruss201_sr21():
    from mrisr import inner_method, integrator, load_builtin, make_problem
    p = make_problem("brusselator-201")
    op = _fixed_op("bruss201-sr21", integrator, p,
                   load_builtin("imex-mri-sr21"), inner_method("heun"),
                   3.0, 0.1 / 64, 10)
    return Case(ops=[op], problems=(p,))


def _adapt_tv101():
    from mrisr import adaptivity, inner_method, load_builtin, make_problem
    p = make_problem("brusselator-tv-101")
    t = load_builtin("imex-mri-sr21")
    rk = inner_method("bogacki-shampine")
    return Case(ops=[_adaptive_op(adaptivity, p, t, rk, tol)
                     for tol in ADAPT_TOLS], problems=(p,))


def _analysis_sr32():
    from mrisr import SectorSpec, harness, load_builtin, stability
    from mrisr.tableau import BUILTIN_NAMES
    for m in BUILTIN_NAMES:
        load_builtin(m)
    t = load_builtin("imex-mri-sr32")
    fast, implicit = SectorSpec(45.0, 100.0), SectorSpec(45.0, 1e4)

    def verify():
        return harness.run_verify()

    def check_verify(report, ref):
        if report != VERIFY_REPORT:
            raise CheckFailed(f"verify report differs: {report}")
        return {}

    def scan():
        return stability.scan_joint_region(
            t, fast, implicit, SCAN_WINDOW, SCAN_RES,
            n_radial=SCAN_LATTICE, n_angular=SCAN_LATTICE)

    def check_scan(region, ref):
        cells = int(region.indicator.sum())
        if region.indicator.shape != SCAN_RES[::-1] or cells != STABLE_CELLS:
            raise CheckFailed(f"{cells} stable cells, recorded {STABLE_CELLS}")
        return dict(stable_cells=cells)

    return Case(ops=[Op("verify", verify, check_verify),
                     Op("scan", scan, check_scan)])


def _fixed_and_analysis():
    parts = (_kpr_sr32(), _bruss201_sr21(), _analysis_sr32())
    return Case(ops=[op for c in parts for op in c.ops],
                problems=tuple(p for c in parts for p in c.problems))


_SET_UP = {"fixed-and-analysis": _fixed_and_analysis,
           "adapt-tv101": _adapt_tv101}


def set_up(name):
    """Import mrisr, load tableaux and inner methods, build the problems."""
    return _SET_UP[name]()


def load_reference(name):
    """Reference output per operation label, made outside any timed region."""
    import numpy as np
    from mrisr import kpr_exact
    with np.load(REFS) as refs:
        if name == "adapt-tv101":
            final = refs["tv101_radau_final"]
            return {f"tol={tol:g}": final for tol in ADAPT_TOLS}
        return {"kpr-sr32": np.array([kpr_exact(s)
                                      for s in sample_points(KPR_TEND)]),
                "bruss201-sr21": refs["bruss201_bdf"],
                "verify": None, "scan": None}


if __name__ == "__main__":
    start = time.perf_counter()
    use_checkout_source()
    set_up(sys.argv[1])
    print(time.perf_counter() - start)
