"""Run criterion 8's adaptive sweep over the two perturbation families.

The sweep is the benchmark's adapt-tv101 workload: imex-mri-sr21 with
Bogacki-Shampine on brusselator-tv-101, H0 = 1e-3, M0 = 10, tEnd = 3, at
the tolerances of perfbench/workloads.py, each run measured in the max norm
against the stored Radau solution in perfbench/refs.npz. Both files are
only read. It is run three ways:

- the rounding families: fF, and then fI, scaled by (1 + j 2^-52) for
  j = +-1, +-2, +-3, +-4; each scale is a distinct double next to 1, so
  each family is eight distinct last-bit perturbations of one callback
- the H0 family: H0 scaled by 1, 1 +- {1, 3}e-12, 1 +- {1, 3}e-11,
  1 +- 1e-10, 1 +- 1e-9, 1 +- 1e-8 and 1 +- 1e-7
- H0 scaled by 1 - 1e-6

Each row gives error/tol at every tol, tol_ratio and max_err (the largest
error/tol and error, as the benchmark reports them), whether criterion 8's
four assertions hold (no run fails, the error falls at every tighter tol,
the last error is below 1% of the first, and fF calls and implicit solves
both grow from the first tol to the last), and the attempted steps, fF
calls and implicit solves summed over the sweep. The last line counts the
runs per family that keep criterion 8. It takes about 85 s on 2 cores:

    python3 tools/adaptive_families.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

H0, M0 = 1e-3, 10
H0_SCALES = (1.0, 1 - 1e-12, 1 + 1e-12, 1 - 3e-12, 1 + 3e-12, 1 - 1e-11,
             1 + 1e-11, 1 - 3e-11, 1 + 3e-11, 1 - 1e-10, 1 + 1e-10,
             1 - 1e-9, 1 + 1e-9, 1 - 1e-8, 1 + 1e-8, 1 - 1e-7, 1 + 1e-7)


def sweep(mrisr, p, H0, ref):
    """One criterion-8 sweep: its printed row and whether criterion 8 holds."""
    t = mrisr.load_builtin("imex-mri-sr21")
    rk = mrisr.inner_method("bogacki-shampine")
    errs, fast, solves, attempts, failed = [], [], [], 0, False
    for tol in workloads.ADAPT_TOLS:
        rec = mrisr.integrate_adaptive(p, t, rk, workloads.ADAPT_TEND, tol,
                                       sample_points=[workloads.ADAPT_TEND],
                                       H0=H0, M0=M0)
        failed |= rec.failed
        errs.append(float(np.max(np.abs(rec.y[-1] - ref)))
                    if not rec.failed else float("nan"))
        fast.append(rec.stats.fast_f_evals)
        solves.append(rec.stats.implicit_solves)
        attempts += rec.accepted + rec.rejected
    holds = (not failed and all(a > b for a, b in zip(errs, errs[1:]))
             and errs[-1] < 1e-2 * errs[0]
             and fast[-1] > fast[0] and solves[-1] > solves[0])
    ratios = [e / tol for e, tol in zip(errs, workloads.ADAPT_TOLS)]
    row = (" ".join(f"{r:6.2f}" for r in ratios)
           + f"  {max(ratios):9.3f}  {max(errs):9.3e}  "
           f"{'yes' if holds else 'NO':>5}  {attempts:8d}  {sum(fast):8d}  "
           f"{sum(solves):8d}")
    return row, holds


def main():
    workloads.use_checkout_source()
    import mrisr
    p = mrisr.make_problem("brusselator-tv-101")
    ref = workloads.load_reference("adapt-tv101")["tol=0.01"]
    tols = " ".join(f"{tol:>6.0e}" for tol in workloads.ADAPT_TOLS)
    print(f"{'run (error/tol at tol)':24s} {tols}  tol_ratio    max_err  "
          "crit8  attempts  fF calls  implicit")
    runs = []
    for part in ("fF", "fI"):
        for j in (1, -1, 2, -2, 3, -3, 4, -4):
            def scaled(s, y, f=getattr(p, part), scale=1 + j * 2.0 ** -52):
                return f(s, y) * scale

            runs.append((f"{part} rounding", f"{part} x (1 {j:+d} 2^-52)",
                         dataclasses.replace(p, **{part: scaled}), H0))
    runs += [("H0", f"H0 x {x!r}", p, H0 * x) for x in H0_SCALES]
    runs.append(("H0 x (1 - 1e-6)", f"H0 x {1 - 1e-6!r}", p,
                 H0 * (1 - 1e-6)))
    passes = {}
    for family, label, problem, h0 in runs:
        row, holds = sweep(mrisr, problem, h0, ref)
        print(f"{label:24s} {row}", flush=True)
        n_pass, n = passes.get(family, (0, 0))
        passes[family] = (n_pass + holds, n + 1)
    print("criterion 8 holds: " + ", ".join(
        f"{family} {n_pass}/{n}" for family, (n_pass, n) in passes.items()))


if __name__ == "__main__":
    main()
