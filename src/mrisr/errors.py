"""Exception hierarchy of the mrisr package, and the rules for its inputs."""

import math
import numbers
from collections import namedtuple
from collections.abc import Hashable

__all__ = ["MRISRError", "PreconditionError", "StepFailure", "Rule",
           "one_of", "require", "LIST", "NONEMPTY_LIST", "DICT", "INTEGER",
           "POSITIVE_INTEGER", "FINITE", "POSITIVE_FINITE",
           "FINITE_NONNEGATIVE", "ANGLE"]


class MRISRError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(MRISRError, ValueError):
    """Bad input: an unknown method, problem or inner-method name, a bad
    coefficient, or any other documented precondition that fails."""


class StepFailure(MRISRError):
    """A solve inside a slow step could not finish: the fast IVP diverged,
    the LU factorization was singular, or Newton failed. step() prefixes
    the message with the failing stage."""


class Rule(namedtuple("Rule", "test what")):
    """What a value must be: test(value) holds, and what says so in words."""

    def at_least(self, lo):
        return Rule(lambda x: self.test(x) and x >= lo, f"{self.what} >= {lo}")

    def at_most(self, hi):
        return Rule(lambda x: self.test(x) and x <= hi, f"{self.what} <= {hi}")

    def or_none(self):
        return Rule(lambda x: x is None or self.test(x), self.what)

    def n_of(self, n, what):
        """A list of n values that each pass this rule."""
        return Rule(lambda x: LIST.test(x) and len(x) == n
                    and all(map(self.test, x)), what)


def one_of(*choices):
    # an unhashable value (a list, a dict, an array) is none of them, even
    # where == would say so elementwise, and cannot reach a dict lookup
    return Rule(lambda x: isinstance(x, Hashable) and x in choices,
                " or ".join(map(repr, choices)))


def require(name, value, rule):
    """PreconditionError naming name and value unless rule.test(value)."""
    if not rule.test(value):
        raise PreconditionError(f"{name} = {value!r} is not {rule.what}")


LIST = Rule(lambda x: isinstance(x, (list, tuple)), "a list")
NONEMPTY_LIST = Rule(lambda x: LIST.test(x) and len(x) > 0,
                     "a list of one or more entries")
DICT = Rule(lambda x: isinstance(x, dict), "a dict")
# every rule rejects a bool: True is a numbers.Integral, not the number 1
INTEGER = Rule(lambda x: isinstance(x, numbers.Integral)
               and not isinstance(x, bool), "an integer")
POSITIVE_INTEGER = Rule(lambda x: INTEGER.test(x) and x >= 1,
                        "a positive integer")
FINITE = Rule(lambda x: isinstance(x, numbers.Real)
              and not isinstance(x, bool) and -math.inf < x < math.inf,
              "a finite number")
POSITIVE_FINITE = Rule(lambda x: FINITE.test(x) and x > 0,
                       "a positive finite number")
FINITE_NONNEGATIVE = FINITE.at_least(0)
ANGLE = Rule(lambda x: FINITE.test(x) and 0 <= x <= 90,
             "an angle in [0, 90] degrees")
