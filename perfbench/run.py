"""Run one workload of the mrisr benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload adapt-tv101 --seed 1 --seconds 55 --trace 0

Load is a closed loop: this one process calls the library directly from one
thread, one operation after the other, and repeats the workload's pass until
--seconds are used. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 interleaves untraced and traced passes and reports
the per-layer metrics. The seed only orders the operations of each pass and
the traced/untraced pairs; the workloads themselves are deterministic.

The next-to-last line of standard output is a JSON report (environment,
per-pass times, per-operation results and findings); the last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracing import Tracer

SETUP_PROBES = 5
# Metric value for a metric that does not apply to the workload: the
# result must list every metric, and a metric may never read 0.
NOT_APPLICABLE = 1.0
LAYERS = ("problems.fF", "problems.fE", "problems.fI", "problems.jacI",
          "integrator.driver", "integrator.step", "integrator.fast",
          "integrator.implicit", "linalg.newton", "linalg.factor",
          "linalg.backsolve", "adaptivity.driver", "adaptivity.error",
          "adaptivity.controller", "stability.scan", "stability.eta",
          "theory.verify", "theory.check")
STATS = ("fastFEvals", "slowEEvals", "slowIEvals", "implicitSolves",
         "newtonIters", "linearSolves")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def metric_units():
    """{metric name: unit} for both metric lists of BENCHMARK.json."""
    with open(workloads.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_commit():
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (head.parent / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    import numpy
    import scipy
    import mrisr
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return dict(mrisr=mrisr.__version__, commit=git_commit(),
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, blas=blas, nproc=os.cpu_count(),
                machine=platform.machine())


def probe_setup(name):
    """Set-up seconds of the workload, measured in a fresh interpreter."""
    probe = workloads.HERE / "workloads.py"
    out = subprocess.run([sys.executable, str(probe), name],
                         cwd=workloads.ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def run_pass(case, refs, rng, traced):
    """One pass over the workload's operations, in seed order.

    Only the library calls are timed; output checks run after each call.
    """
    ops = list(case.ops)
    rng.shuffle(ops)
    tracer = Tracer(case.problems) if traced else None
    result = dict(traced=traced, order=[op.label for op in ops],
                  op_seconds={}, op_cpu_s={}, measures={}, failures={},
                  tracer=tracer)
    with tracer or contextlib.nullcontext():
        for op in ops:
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                out = op.run()
            except Exception as e:  # an operation that raises has failed
                result["failures"][op.label] = f"{type(e).__name__}: {e}"
                continue
            finally:
                result["op_seconds"][op.label] = time.perf_counter() - start
                result["op_cpu_s"][op.label] = time.process_time() - cpu_start
            try:
                result["measures"][op.label] = op.check(out, refs[op.label])
            except workloads.CheckFailed as e:
                result["failures"][op.label] = f"check: {e}"
    return result


def run_for(seconds, one_round):
    """Repeat one_round() for about `seconds`, at least once.

    A round is started while at least half of the median round still fits,
    so the measured time ends, on average, at `seconds`.
    """
    end = time.perf_counter() + seconds
    rounds, lengths = [], []
    while True:
        start = time.perf_counter()
        rounds.extend(one_round())
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(lengths) / 2 > end:
            return rounds


def pass_time(passes, clock="op_seconds"):
    """Time of one pass: the sum over operations of the median call time.

    clock picks wall time ("op_seconds") or process CPU time ("op_cpu_s").
    A pass with a failed operation yields no timing; None if none is left.
    Per-operation medians drop a slow outlier in each operation separately,
    which steadies workloads that fit only a few passes in a run.
    """
    ok = [p for p in passes if not p["failures"]]
    if not ok:
        return None
    return sum(statistics.median(p[clock][label] for p in ok)
               for label in ok[0][clock])


def _sum_stats(measures):
    return {k: sum(m["stats"][k] for m in measures.values() if "stats" in m)
            for k in STATS}


def end_to_end(passes, setup_s, ok_frac):
    measures = [m for p in passes for m in p["measures"].values()]
    errs = [m["err"] for m in measures if "err" in m]
    ratios = [m["tol_ratio"] for m in measures if "tol_ratio" in m]
    return dict(
        wall_s=pass_time(passes),
        setup_s=statistics.median(setup_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ok_frac=ok_frac,
        max_err=max(errs) if errs else NOT_APPLICABLE,
        tol_ratio=max(ratios) if ratios else NOT_APPLICABLE)


def per_layer(passes, findings):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    calls = traced[0]["tracer"].calls
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = statistics.median(
            p["tracer"].self_s[layer] for p in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    stats = _sum_stats(traced[0]["measures"])
    for k in STATS:
        out[f"integrator.stats.{k}"] = stats[k]
    out["integrator.fast_evals_per_step"] = ratio(
        calls["problems.fF"], calls["integrator.step"])
    out["linalg.newton.iters_per_call"] = ratio(
        calls["linalg.backsolve"], calls["linalg.newton"])
    out["linalg.factors_per_solve"] = ratio(
        calls["linalg.factor"], calls["linalg.newton"])
    adaptive = [m for m in traced[0]["measures"].values() if "accepted" in m]
    attempted = sum(m["accepted"] + m["rejected"] for m in adaptive)
    out["adaptivity.attempted_steps"] = attempted
    out["adaptivity.accept_ratio"] = ratio(
        sum(m["accepted"] for m in adaptive), attempted)
    out["stability.stable_cells"] = sum(
        m.get("stable_cells", 0) for m in traced[0]["measures"].values())

    # wrapper counts against the program's own StepStats counters
    xcheck = {
        "fF_minus_fastFEvals": calls["problems.fF"] - stats["fastFEvals"],
        "fI_minus_slowIEvals": calls["problems.fI"] - stats["slowIEvals"],
        "iters_minus_newtonIters":
            calls["linalg.backsolve"] - stats["newtonIters"]}
    for k, v in xcheck.items():
        out[f"xcheck.{k}"] = v
        if v:
            findings.append(f"counter mismatch {k} = {v}")
    if stats["linearSolves"] == stats["newtonIters"] and stats["newtonIters"]:
        findings.append("StepStats.linearSolves equals newtonIters")

    traced_wall, untraced_wall = pass_time(traced), pass_time(untraced)
    out["trace.traced_wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = (traced_wall - untraced_wall
                               if traced_wall and untraced_wall else None)
    ok = [p for p in traced if not p["failures"]]
    out["trace.remainder_s"] = statistics.median(
        sum(p["op_seconds"].values()) - p["tracer"].spanned_s
        for p in ok) if ok else None
    return out


def main(argv=None):
    args = parse_args(argv)
    workloads.use_checkout_source()
    e2e_units, layer_units = metric_units()
    rng = random.Random(args.seed)
    case = workloads.set_up(args.workload)
    refs = workloads.load_reference(args.workload)
    env = environment()
    findings = []

    if args.trace:
        def one_round():
            order = [False, True]
            rng.shuffle(order)
            return [run_pass(case, refs, rng, traced) for traced in order]
        setup_s = []
        passes = run_for(args.seconds, one_round)
    else:
        setup_s = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        passes = run_for(args.seconds,
                         lambda: [run_pass(case, refs, rng, False)])

    attempted = sum(len(p["order"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    by_label = {}
    for p in passes:
        for label, m in p["measures"].items():
            by_label.setdefault(label, []).append(m)
    span_calls = [p["tracer"].calls for p in passes if p["traced"]]
    deterministic = (
        all(m == ms[0] for ms in by_label.values() for m in ms)
        and all(c == span_calls[0] for c in span_calls))
    if not deterministic:
        findings.append("outputs, counters or span counts differ between "
                        "passes")
    if args.trace:
        values, units = per_layer(passes, findings), layer_units
    else:
        ok_frac = (attempted - failed) / attempted
        values, units = end_to_end(passes, setup_s, ok_frac), e2e_units
    if set(values) != set(units):
        raise SystemExit("perfbench: metrics "
                         f"{sorted(set(values) ^ set(units))} differ from "
                         "BENCHMARK.json")

    report = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, env=env, setup_s=setup_s, findings=findings,
        cpu_s=pass_time((p for p in passes if not p["traced"]), "op_cpu_s"),
        passes=[dict(traced=p["traced"], order=p["order"],
                     op_seconds=p["op_seconds"], op_cpu_s=p["op_cpu_s"],
                     failures=p["failures"])
                for p in passes],
        operations={label: ms[0] for label, ms in by_label.items()})
    print(json.dumps({"report": report}))
    print(json.dumps(dict(
        correct=failed == 0 and deterministic, attempted=attempted,
        failed=failed,
        metrics={name: {"value": values[name], "unit": unit}
                 for name, unit in units.items()})))


if __name__ == "__main__":
    main()
