"""Command-line interface.

Subcommands: verify, converge, efficiency, adaptive, stability,
list-methods. A JSON config file can set any flag; explicit flags win.
Exit codes: 0 all runs completed, 2 some rows failed, 1 usage error.
"""

import argparse
import json
import math
import os
import sys

from . import harness
from .errors import MRISRError
from .rk import INNER_METHODS
from .tableau import BUILTIN_NAMES

_FIXED_ROW_KEYS = ["method", "k", "H", "M", "maxError", "runtime",
                   "fastFEvals", "slowEEvals", "slowIEvals", "implicitSolves",
                   "failed"]
_ROW_KEYS = {
    "converge": _FIXED_ROW_KEYS,
    "efficiency": _FIXED_ROW_KEYS,
    "adaptive": ["method", "tol", "maxError", "accepted", "rejected",
                 "runtime", "fastFEvals", "implicitSolves", "failed"],
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON file of defaults for any flag")
    sp.add_argument("--method", action="append", default=None,
                    help="method name (repeatable, or comma-separated)")
    sp.add_argument("--inner", action="append", default=None,
                    help="inner RK: NAME for all methods or METHOD=NAME")
    sp.add_argument("--problem", default=None)
    sp.add_argument("--H0", type=float, default=None)
    sp.add_argument("--kmin", type=int, default=None)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--m", type=int, default=None, help="fast substeps M")
    sp.add_argument("--tol", action="append", type=float, default=None)
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--json", action="store_true", default=None,
                    help="emit JSON to stdout instead of a table")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mrisr",
        description="Multirate IMEX integration experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("verify", "converge", "efficiency", "adaptive"):
        _add_common(sub.add_parser(name))
    st = sub.add_parser("stability")
    _add_common(st)
    st.add_argument("--which", choices=["E", "I"], default=None)
    st.add_argument("--joint", action="store_true", default=None)
    st.add_argument("--alpha", type=float, default=None)
    st.add_argument("--rho", type=float, default=None)
    st.add_argument("--beta", type=float, default=None)
    st.add_argument("--xi", type=float, default=None)
    st.add_argument("--window", default=None,
                    help="re0,re1,im0,im1 (default -8,0.5,-6,6)")
    st.add_argument("--res", default=None, help="NRExNIM (default 48x48)")
    sub.add_parser("list-methods")
    return ap


def _merge_config(args):
    merged = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            merged.update(json.load(f))
    for k, v in vars(args).items():
        if k not in ("command", "config") and v is not None:
            merged[k] = v
    return merged


def _methods(opts, default_all=False):
    raw = opts.get("method")
    if raw is None:
        if default_all:
            return list(BUILTIN_NAMES)
        raise ValueError("--method is required")
    if isinstance(raw, str):
        raw = [raw]
    out = []
    for item in raw:
        out.extend(x.strip() for x in str(item).split(",") if x.strip())
    return out


def _inner_map(opts, methods):
    raw = opts.get("inner")
    if raw is None:
        return {}
    if isinstance(raw, (str, dict)):
        raw = [raw]
    mapping = {}
    for item in raw:
        if isinstance(item, dict):
            mapping.update(item)
        elif "=" in item:
            m, name = item.split("=", 1)
            mapping[m.strip()] = name.strip()
        else:
            for m in methods:
                mapping[m] = item.strip()
    return mapping


def _experiment_config(kind, opts):
    methods = _methods(opts, default_all=(kind in ("verify", "stability")))
    kw = dict(kind=kind, methods=methods,
              inner=_inner_map(opts, methods))
    for src, dst in (("problem", "problem"), ("H0", "H0"), ("kmin", "kmin"),
                     ("kmax", "kmax"), ("m", "M"), ("tol", "tols"),
                     ("out", "out"), ("json", "json_out"),
                     ("which", "which"), ("alpha", "alpha"), ("rho", "rho"),
                     ("beta", "beta"), ("xi", "xi"), ("joint", "joint")):
        if opts.get(src) is not None:
            kw[dst] = opts[src]
    if opts.get("window") is not None:
        w = opts["window"]
        kw["window"] = tuple(float(x) for x in str(w).split(",")) \
            if isinstance(w, str) else tuple(w)
    if opts.get("res") is not None:
        r = opts["res"]
        kw["res"] = tuple(int(x) for x in str(r).lower().split("x")) \
            if isinstance(r, str) else tuple(r)
    return harness.ExperimentConfig(**kw)


def _emit_records(kind, cfg, records):
    keys = _ROW_KEYS[kind]
    all_rows = [row for rec in records for row in rec.rows]
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, f"{kind}-{cfg.problem}.csv")
        harness.write_csv(path, keys, all_rows, sidecar=dict(
            config=[rec.config for rec in records],
            slopes={rec.config["method"]: rec.slope for rec in records}))
        print(f"wrote {path}")
    if cfg.json_out:
        print(json.dumps(dict(
            rows=all_rows,
            slopes={rec.config["method"]: rec.slope for rec in records}),
            indent=2, default=str))
    else:
        print("  ".join(f"{k:>14}" for k in keys))
        for row in all_rows:
            print("  ".join(_fmt(row.get(k)) for k in keys))
        for rec in records:
            if rec.slope is not None:
                print(f"{rec.config['method']}: fitted slope "
                      f"{rec.slope:.3f}")
    return 2 if any(r.get("failed") for r in all_rows) else 0


def _fmt(v):
    if isinstance(v, float):
        return f"{v:>14.6g}"
    return f"{str(v):>14}"


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        opts = _merge_config(args)
        cmd = args.command
        if cmd == "list-methods":
            for m in BUILTIN_NAMES:
                print(m)
            print("inner methods:", ", ".join(sorted(INNER_METHODS)))
            return 0
        if cmd == "verify":
            cfg = _experiment_config("verify", opts)
            report = harness.run_verify(cfg)
            if cfg.json_out:
                print(json.dumps(report, indent=2, default=str))
            else:
                for m, e in report.items():
                    ok = "ok" if not e["structure"] else "INVALID"
                    print(f"{m:>16}  structure={ok}  "
                          f"base={e['base_order']}  "
                          f"coupling={e['coupling_order']}  "
                          f"order={e['method_order']}")
            bad = any(e["structure"] for e in report.values())
            return 2 if bad else 0
        if cmd == "stability":
            cfg = _experiment_config("stability", opts)
            if min(cfg.res) < 2:
                raise ValueError("resolution must be at least 2 per axis")
            files = harness.run_stability_export(cfg, cfg.out or ".")
            for f in files:
                print(f"wrote {f}")
            return 0
        cfg = _experiment_config(cmd, opts)
        runner = {"converge": harness.run_convergence,
                  "efficiency": harness.run_efficiency,
                  "adaptive": harness.run_adaptive}[cmd]
        return _emit_records(cmd, cfg, runner(cfg))
    except (MRISRError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
