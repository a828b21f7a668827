"""Command-line interface.

Subcommands: verify, converge, efficiency, adaptive, stability,
list-methods. Each takes only the flags it reads (_SUBCOMMAND_FLAGS); any
other flag is a usage error. A JSON config file can set any of them;
explicit flags win, and a key that names no flag of the subcommand is a
usage error.
Exit codes: 0 all runs completed, 2 some rows failed, 1 usage error.
"""

import argparse
import json
import os
import sys

from . import harness
from .errors import BOOL, NONEMPTY_LIST, STRING, MRISRError, require
from .rk import INNER_METHODS
from .tableau import BUILTIN_NAMES

__all__ = ["main"]

# 'failure' is empty on good rows and holds the reason on failed ones
_ROW_KEYS = {
    "converge": ["method", "k", "H", "M", *harness.RUN_KEYS, "failure"],
    "efficiency": ["method", "k", "H", "M", *harness.RUN_KEYS, "failure"],
    "adaptive": ["method", "tol", *harness.RUN_KEYS, "failure"],
}

# flags whose names differ from their study's setting
_FLAG_FIELDS = {"m": "M", "tol": "tols"}

_STUDIES = {"converge": harness.run_convergence,
            "efficiency": harness.run_efficiency,
            "adaptive": harness.run_adaptive}


# every flag a subcommand may take: (argparse name, keyword arguments)
_FLAGS = {
    "method": ("--method", dict(
        action="append", help="method name (repeatable, or comma-separated)")),
    "inner": ("--inner", dict(
        action="append", help="inner RK: NAME for all methods or METHOD=NAME")),
    "problem": ("--problem", {}),
    "H0": ("--H0", dict(type=float)),
    "kmin": ("--kmin", dict(type=int)),
    "kmax": ("--kmax", dict(type=int)),
    "m": ("--m", dict(type=int, help="fast substeps M")),
    "tol": ("--tol", dict(action="append", type=float)),
    "out": ("--out", dict(help="output directory")),
    "json": ("--json", dict(action="store_true",
                            help="emit JSON to stdout instead of a table")),
    "which": ("--which", dict(help="grid variable, E or I")),
    "joint": ("--joint", dict(action="store_true")),
    "alpha": ("--alpha", dict(type=float)),
    "rho": ("--rho", dict(type=float)),
    "beta": ("--beta", dict(type=float)),
    "xi": ("--xi", dict(type=float)),
    "window": ("--window", dict(help="re0,re1,im0,im1 (default -8,0.5,-6,6)")),
    "res": ("--res", dict(help="NRExNIM (default 48x48)")),
}

# the flags each subcommand reads; any other flag is a usage error. H0 is
# the base of converge's H schedule and the first step of adaptive runs;
# efficiency's schedule has a fixed base.
_RUN_FLAGS = ("method", "inner", "problem", "m", "out", "json")
_SUBCOMMAND_FLAGS = {
    "verify": ("method", "json"),
    "converge": (*_RUN_FLAGS, "H0", "kmin", "kmax"),
    "efficiency": (*_RUN_FLAGS, "kmin", "kmax"),
    "adaptive": (*_RUN_FLAGS, "H0", "tol"),
    "stability": ("method", "out", "which", "joint", "alpha", "rho", "beta",
                  "xi", "window", "res"),
    "list-methods": (),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mrisr",
        description="Multirate IMEX integration experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, flags in _SUBCOMMAND_FLAGS.items():
        sp = sub.add_parser(name)
        if flags:
            sp.add_argument("--config",
                            help="JSON file of defaults for any flag")
        for flag in flags:
            opt, kw = _FLAGS[flag]
            sp.add_argument(opt, default=None, **kw)
    return ap


def _merge_config(args):
    """Options from the --config file overlaid by explicit flags; a config
    that is not a JSON object, or a key of it that names no flag of the
    subcommand, is a usage error."""
    flags = set(vars(args)) - {"command", "config"}
    merged = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            merged = json.load(f)
        if not isinstance(merged, dict):
            raise ValueError(f"--config {args.config} does not hold a JSON "
                             "object")
    unknown = sorted(set(merged) - flags)
    if unknown:
        raise ValueError(f"unknown option {unknown[0]!r}")
    for k, v in vars(args).items():
        if k in flags and v is not None:
            merged[k] = v
    return merged


def _methods(raw, default_all=False):
    if raw is None:
        if default_all:
            return list(BUILTIN_NAMES)
        raise ValueError("--method is required")
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        raise ValueError(f"method {raw!r} is not NAME or a list of names")
    out = []
    for item in raw:
        out.extend(x.strip() for x in str(item).split(",") if x.strip())
    # run_verify reads an empty list as all methods
    require("methods", out, NONEMPTY_LIST)
    return out


def _inner_map(raw, methods):
    if not isinstance(raw, list):
        raw = [raw]
    mapping = {}
    for item in raw:
        if isinstance(item, dict):
            mapping.update(item)
        elif not isinstance(item, str):
            raise ValueError(f"inner {item!r} is not NAME, METHOD=NAME or "
                             "a dict of them")
        elif "=" in item:
            m, name = item.split("=", 1)
            mapping[m.strip()] = name.strip()
        else:
            for m in methods:
                mapping[m] = item.strip()
    return mapping


def _settings(opts):
    """Merged options as a study's keyword arguments, by setting name; a
    --window or --res string becomes its tuple."""
    kw = {_FLAG_FIELDS.get(k, k): v for k, v in opts.items()
          if v is not None}
    for key, sep, conv in (("window", ",", float), ("res", "x", int)):
        if isinstance(kw.get(key), str):
            try:
                kw[key] = tuple(conv(x) for x in kw[key].lower().split(sep))
            except ValueError:
                pass  # a string left as given: the study names it
    return kw


def _emit_records(cmd, records, out, json_out):
    keys = _ROW_KEYS[cmd]
    all_rows = [row for rec in records for row in rec.rows]
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{cmd}-{records[0].config['problem']}.csv")
        harness.write_csv(path, keys, all_rows, sidecar=dict(
            config=[rec.config for rec in records],
            slopes={rec.config["method"]: rec.slope for rec in records}))
        print(f"wrote {path}")
    if json_out:
        print(json.dumps(dict(
            rows=all_rows,
            slopes={rec.config["method"]: rec.slope for rec in records}),
            indent=2, default=str))
    else:
        print("  ".join(f"{k:>14}" for k in keys))
        for row in all_rows:
            print("  ".join(_fmt(row.get(k, "")) for k in keys))
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
        kw = _settings(opts)
        json_out = kw.pop("json", False)
        require("json", json_out, BOOL)
        methods = _methods(kw.pop("method", None),
                           default_all=(cmd in ("verify", "stability")))
        if cmd == "verify":
            report = harness.run_verify(methods)
            if json_out:
                print(json.dumps(report, indent=2, default=str))
            else:
                for m, e in report.items():
                    print(f"{m:>16}  base={e['base_order']}  "
                          f"coupling={e['coupling_order']}  "
                          f"order={e['method_order']}")
            return 0
        if cmd == "stability":
            # --out is the study's own setting here
            for f in harness.run_stability_export(methods, **kw):
                print(f"wrote {f}")
            return 0
        out = kw.pop("out", None)
        require("out", out, STRING.or_none())
        if "inner" in kw:
            kw["inner"] = _inner_map(kw["inner"], methods)
        return _emit_records(cmd, _STUDIES[cmd](methods, **kw), out,
                             json_out)
    except (MRISRError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
