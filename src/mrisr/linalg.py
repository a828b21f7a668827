"""Dense and banded LU solves plus modified Newton iteration.

Banded matrices use the LAPACK general-band layout: data[mu + i - j, j]
holds entry (i, j) for the in-band positions.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NewtonFailure, SingularMatrixError

__all__ = ["BandedMatrix", "shifted_jacobian", "Factorization", "wrms",
           "newton_solve"]


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


def shifted_jacobian(J, scale):
    """I - scale * J, in the storage of J (dense ndarray or BandedMatrix)."""
    if isinstance(J, BandedMatrix):
        data = -scale * J.data
        data[J.mu, :] += 1.0
        return BandedMatrix(ml=J.ml, mu=J.mu, data=data)
    J = np.asarray(J, dtype=float)
    return np.eye(J.shape[0]) - scale * J


class Factorization:
    """LU factorization reusable across solves (modified Newton): LAPACK
    dgetrf/dgetrs for a dense matrix, dgbtrf/dgbtrs for a BandedMatrix. A
    zero pivot or a non-finite factor raises SingularMatrixError.
    """

    def __init__(self, A):
        if isinstance(A, BandedMatrix):
            ml, mu = self._band = A.ml, A.mu
            ab = np.zeros((2 * ml + mu + 1, A.n))
            ab[ml:, :] = A.data
            lu, piv, info = lapack.dgbtrf(ab, ml, mu)
        else:
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("need a square matrix")
            lu, piv, info = lapack.dgetrf(A)
            self._band = None
        if info < 0:
            raise ValueError(f"LU factorization: illegal argument {-info}")
        if info > 0:
            raise SingularMatrixError(f"LU factorization: zero pivot {info}")
        if not np.isfinite(lu).all():
            raise SingularMatrixError("LU factorization: non-finite factor")
        self._lu, self._piv = lu, piv

    def solve(self, rhs):
        if self._band is None:
            x, info = lapack.dgetrs(self._lu, self._piv, rhs)
        else:
            x, info = lapack.dgbtrs(self._lu, *self._band, rhs, self._piv)
        if info != 0:
            raise SingularMatrixError(f"LU back-solve failed, info={info}")
        return x


def wrms(v, weights):
    """Weighted root-mean-square norm: sqrt(mean((v * weights)^2)).

    The arithmetic of np.mean (one pairwise np.add.reduce, then a division
    by the length) without its Python wrappers, so the value is bitwise
    that of sqrt(np.mean((v * weights) ** 2)).
    """
    d = np.multiply(v, weights)
    return math.sqrt(np.add.reduce(d * d) / d.size)


def newton_solve(residual, fac, guess, stats, atol=1e-12, rtol=1e-10,
                 max_iter=10):
    """Solve residual(x) = 0 by modified Newton iteration.

    fac is the caller's Factorization of the residual's Jacobian, reused
    for every iteration. Convergence: the WRMS norm of the update, with
    weights 1/(atol + rtol*|x|) frozen at the initial guess, falls to
    <= 1. Each iteration adds one to `stats.newton_iters` and
    `stats.linear_solves`, so a solve that fails still counts the
    iterations it spent. Returns the root.
    """
    x = np.array(guess, dtype=float)
    weights = 1.0 / (atol + rtol * np.abs(x))
    for _ in range(max_iter):
        f = np.asarray(residual(x), dtype=float)
        if not np.isfinite(f).all():
            raise NewtonFailure("non-finite residual during Newton iteration")
        delta = fac.solve(-f)
        x = x + delta
        stats.newton_iters += 1
        stats.linear_solves += 1
        if not np.isfinite(x).all():
            raise NewtonFailure("Newton iteration diverged")
        if wrms(delta, weights) <= 1.0:
            return x
    raise NewtonFailure(f"no convergence in {max_iter} Newton iterations")
