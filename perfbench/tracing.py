"""Per-layer spans of mrisr, recorded from outside the program.

A Tracer replaces the names the program looks up (module attributes, class
methods and problem callbacks) with wrappers that time each call, and puts
the originals back on exit. Spans stay in memory, summed per layer name: the
call count and the self time, which is the span's duration minus the time of
the spans it caused. Time outside every span is the top-level remainder.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module of mrisr, attribute the program looks up there, layer name)
WRAPPED = (
    ("integrator", "integrate_fixed", "integrator.driver"),
    ("integrator", "step", "integrator.step"),
    ("adaptivity", "step", "integrator.step"),
    ("integrator", "solve_fast_ivp", "integrator.fast"),
    ("integrator", "implicit_stage_solve", "integrator.implicit"),
    ("integrator", "newton_solve", "linalg.newton"),
    ("linalg", "Factorization.__init__", "linalg.factor"),
    ("linalg", "Factorization.solve", "linalg.backsolve"),
    ("adaptivity", "integrate_adaptive", "adaptivity.driver"),
    ("adaptivity", "estimate_slow_error", "adaptivity.error"),
    ("adaptivity", "accumulate_fast_error", "adaptivity.error"),
    ("adaptivity", "controller_update", "adaptivity.controller"),
    ("stability", "scan_joint_region", "stability.scan"),
    ("stability", "eta_matrix", "stability.eta"),
    ("harness", "run_verify", "theory.verify"),
    ("theory", "check_internal_consistency", "theory.check"),
    ("theory", "check_ark_order", "theory.check"),
    ("theory", "check_coupling_order", "theory.check"),
)
CALLBACKS = ("fF", "fE", "fI", "jacI")


class Tracer:
    """Context manager that wraps mrisr's layers while it is entered."""

    def __init__(self, problems=()):
        self.problems = problems
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._open = [0.0]  # child time of each open span; [0] is top level
        self._restore = []

    def _wrap(self, name, fn):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = open_.pop()
                open_[-1] += span
                calls[name] += 1
                self_s[name] += span - child

        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def __enter__(self):
        for module, path, name in WRAPPED:
            owner = importlib.import_module(f"mrisr.{module}")
            *inner, attr = path.split(".")
            for part in inner:
                owner = getattr(owner, part)
            self._patch(owner, attr, name)
        for problem in self.problems:
            for cb in CALLBACKS:
                if getattr(problem, cb) is not None:
                    self._patch(problem, cb, f"problems.{cb}")
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    @property
    def spanned_s(self):
        """Total time inside top-level spans (the sum of all self times)."""
        return self._open[0]
