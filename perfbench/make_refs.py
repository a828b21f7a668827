"""Write refs.npz, the stored brusselator references of the benchmark.

The references come from scipy, independent of mrisr's integrators, with the
settings of the acceptance tests: BDF at rtol 1e-11 / atol 1e-13 for
brusselator-201 at the ten sample points, and Radau at rtol 1e-12 /
atol 1e-14 for brusselator-tv-101 at tEnd. They take about 20 s to compute,
which is why the benchmark loads them instead. Regenerate with

    python3 perfbench/make_refs.py
"""

import numpy as np
from scipy.integrate import solve_ivp

import workloads


def _solve(p, tEnd, t_eval, method, rtol, atol):
    sol = solve_ivp(lambda s, y: p.fF(s, y) + p.fE(s, y) + p.fI(s, y),
                    (0.0, tEnd), np.array(p.y0, dtype=float), method=method,
                    t_eval=t_eval, rtol=rtol, atol=atol)
    if sol.status != 0:
        raise RuntimeError(f"{method} reference failed: {sol.message}")
    return sol.y.T


def main():
    workloads.use_checkout_source()
    from mrisr import make_problem
    bruss = _solve(make_problem("brusselator-201"), 3.0,
                   workloads.sample_points(3.0), "BDF", 1e-11, 1e-13)
    tv = _solve(make_problem("brusselator-tv-101"), workloads.ADAPT_TEND,
                [workloads.ADAPT_TEND], "Radau", 1e-12, 1e-14)
    np.savez(workloads.REFS, bruss201_bdf=bruss, tv101_radau_final=tv[-1])


if __name__ == "__main__":
    main()
