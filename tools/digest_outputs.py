"""Print one sha256 per benchmark operation, over everything it returns,
and one per experiment-layer command.

Runs each operation of both workloads in perfbench/workloads.py once, with
the mrisr of this checkout, and hashes its whole output: an integration
record's samples (t and the bytes of every y), its StepStats, failure and
step_log; the verify report; every array of a stability scan. Then it runs
each command of EXPERIMENTS through mrisr.cli.main with --json and hashes
what it prints: the rows and slopes, each row without its runtime, or the
verify report. Two checkouts produce bitwise-identical outputs when their
digests match:

    python3 tools/digest_outputs.py > a.txt     # in one checkout
    python3 tools/digest_outputs.py > b.txt     # in the other
    diff a.txt b.txt

It takes a few seconds and is not part of the test suite.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# (label, mrisr arguments) of the experiment-layer digests
EXPERIMENTS = (
    ("converge", ["converge", "--method", "imex-mri-sr21,imex-mri-sr32",
                  "--problem", "kpr", "--kmin", "2", "--kmax", "5"]),
    ("adaptive", ["adaptive", "--method", "imex-mri-sr32", "--problem",
                  "kpr", "--tol", "1e-3"]),
    ("efficiency", ["efficiency", "--method", "imex-mri-sr21,imex-mri-sr32",
                    "--problem", "kpr", "--kmin", "0", "--kmax", "2"]),
    ("verify", ["verify"]),
)


def _feed(h, x):
    """Feed x to the hash h, type and structure included, exactly."""
    if isinstance(x, np.ndarray):
        h.update(f"ndarray {x.dtype.str} {x.shape}:".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__}(".encode())
        for f in dataclasses.fields(x):
            if f.compare:  # a run's NewtonState is work space, not output
                h.update(f"{f.name}=".encode())
                _feed(h, getattr(x, f.name))
        h.update(b")")
    elif isinstance(x, dict):
        h.update(b"{")
        for k, v in x.items():
            h.update(f"{k!r}:".encode())
            _feed(h, v)
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(f"{type(x).__name__}[".encode())
        for v in x:
            _feed(h, v)
        h.update(b"]")
    else:  # the repr of a float round-trips it exactly
        h.update(f"{type(x).__name__} {x!r};".encode())


def _experiment_output(argv):
    """The JSON that mrisr prints for argv --json, without the runtimes of
    its rows (verify's report has none)."""
    from mrisr import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    if code == 1:
        raise SystemExit(f"mrisr {' '.join(argv)}: usage error")
    report = json.loads(out.getvalue())
    for row in report.get("rows", ()):
        del row["runtime"]
    return report


def main():
    workloads.use_checkout_source()
    for name in workloads.NAMES:
        for op in workloads.set_up(name).ops:
            h = hashlib.sha256()
            _feed(h, op.run())
            print(f"{name} {op.label} {h.hexdigest()}")
    for label, argv in EXPERIMENTS:
        h = hashlib.sha256()
        _feed(h, _experiment_output(argv))
        print(f"experiments {label} {h.hexdigest()}")


if __name__ == "__main__":
    main()
