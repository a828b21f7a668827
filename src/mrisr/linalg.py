"""Dense and banded linear solves plus Newton iteration.

Banded matrices use the LAPACK general-band layout: data[mu + i - j, j]
holds entry (i, j) for the in-band positions.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import NewtonFailure, SingularMatrixError

__all__ = ["BandedMatrix", "Factorization", "wrms", "newton_solve"]


@dataclass
class BandedMatrix:
    """Square banded matrix with ml sub- and mu super-diagonals."""

    ml: int
    mu: int
    data: np.ndarray  # shape (ml + mu + 1, n)

    @property
    def n(self):
        return self.data.shape[1]

    def to_dense(self):
        n = self.n
        A = np.zeros((n, n))
        for i in range(n):
            lo = max(0, i - self.ml)
            hi = min(n, i + self.mu + 1)
            for j in range(lo, hi):
                A[i, j] = self.data[self.mu + i - j, j]
        return A


class Factorization:
    """LU factorization reusable across solves (modified Newton)."""

    def __init__(self, A):
        if isinstance(A, BandedMatrix):
            ml, mu, n = A.ml, A.mu, A.n
            ab = np.zeros((2 * ml + mu + 1, n))
            ab[ml:, :] = A.data
            lu, piv, info = lapack.dgbtrf(ab, ml, mu)
            if info > 0:
                raise SingularMatrixError(
                    f"banded factorization: zero pivot at {info}")
            if info < 0:
                raise ValueError(f"dgbtrf illegal argument {-info}")
            self._kind = "banded"
            self._lu, self._piv, self._ml, self._mu = lu, piv, ml, mu
        else:
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("need a square matrix")
            try:
                lu, piv = scipy.linalg.lu_factor(A)
            except scipy.linalg.LinAlgError as e:
                raise SingularMatrixError(str(e)) from None
            if not np.all(np.isfinite(lu)):
                raise SingularMatrixError("non-finite factorization")
            if np.any(np.abs(np.diag(lu)) == 0.0):
                raise SingularMatrixError("zero pivot in dense LU")
            self._kind = "dense"
            self._lu, self._piv = lu, piv

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self._kind == "banded":
            x, info = lapack.dgbtrs(self._lu, self._ml, self._mu, rhs,
                                    self._piv)
            if info != 0:
                raise SingularMatrixError(f"dgbtrs failed, info={info}")
            return x
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs)


def wrms(v, weights):
    """Weighted root-mean-square norm: sqrt(mean((v * weights)^2)).

    The arithmetic of np.mean (one pairwise np.add.reduce, then a division
    by the length) without its Python wrappers, so the value is bitwise
    that of sqrt(np.mean((v * weights) ** 2)).
    """
    d = np.multiply(v, weights)
    return math.sqrt(np.add.reduce(d * d) / d.size)


def newton_solve(residual, jacobian, guess, atol=1e-12, rtol=1e-10,
                 max_iter=10, stats=None):
    """Solve residual(x) = 0 by modified Newton iteration.

    The Jacobian is factored once at the guess and reused. Convergence: the
    WRMS norm of the update, with weights 1/(atol + rtol*|x|) frozen at the
    initial guess, falls to <= 1. Each iteration adds one to
    `stats.newton_iters` and `stats.linear_solves` when a StepStats is
    given, so a solve that fails still counts the iterations it spent.

    Returns (root, iterations).
    """
    x = np.array(guess, dtype=float)
    weights = 1.0 / (atol + rtol * np.abs(x))
    fac = Factorization(jacobian(x))
    for it in range(1, max_iter + 1):
        f = np.asarray(residual(x), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NewtonFailure("non-finite residual during Newton iteration")
        delta = fac.solve(-f)
        x = x + delta
        if stats is not None:
            stats.newton_iters += 1
            stats.linear_solves += 1
        if not np.all(np.isfinite(x)):
            raise NewtonFailure("Newton iteration diverged")
        if wrms(delta, weights) <= 1.0:
            return x, it
    raise NewtonFailure(f"no convergence in {max_iter} Newton iterations")
