"""Print one sha256 per benchmark operation, over everything it returns.

Runs each operation of both workloads in perfbench/workloads.py once, with
the mrisr of this checkout, and hashes its whole output: an integration
record's samples (t and the bytes of every y), its StepStats, failure and
step_log; the verify report; every array of a stability scan. Two
checkouts produce bitwise-identical outputs when their digests match:

    python3 tools/digest_outputs.py > a.txt     # in one checkout
    python3 tools/digest_outputs.py > b.txt     # in the other
    diff a.txt b.txt

It takes a few seconds and is not part of the test suite.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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


def main():
    workloads.use_checkout_source()
    for name in workloads.NAMES:
        for op in workloads.set_up(name).ops:
            h = hashlib.sha256()
            _feed(h, op.run())
            print(f"{name} {op.label} {h.hexdigest()}")


if __name__ == "__main__":
    main()
