"""Dense and banded LU solves plus modified Newton iteration.

Banded matrices use the LAPACK general-band layout: data[mu + i - j, j]
holds entry (i, j) for the in-band positions. scipy's LAPACK wrappers are
imported at the first factorization, so importing mrisr does not load
scipy.linalg.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Rule, StepFailure, require

__all__ = ["BandedMatrix", "shifted_jacobian", "Factorization",
           "NEWTON_ATOL", "NEWTON_RTOL", "NEWTON_MAX_ITER", "NewtonState",
           "wrms", "newton_solve"]

# the rounding unit (machine epsilon): the floor of the contraction
# estimate a solve starts from
_UROUND = np.finfo(float).eps

# Newton's stopping rule, one for every solve (see newton_solve)
NEWTON_ATOL = 1e-12
NEWTON_RTOL = 1e-10
NEWTON_MAX_ITER = 10


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
    zero pivot or a non-finite factor raises StepFailure.
    """

    def __init__(self, A):
        from scipy.linalg import lapack
        if isinstance(A, BandedMatrix):
            ml, mu = self._band = A.ml, A.mu
            ab = np.zeros((2 * ml + mu + 1, A.n))
            ab[ml:, :] = A.data
            lu, piv, info = lapack.dgbtrf(ab, ml, mu)
            self._trs = lapack.dgbtrs
        else:
            A = np.asarray(A, dtype=float)
            require("A.shape", A.shape, Rule(
                lambda n: len(n) == 2 and n[0] == n[1], "a square shape"))
            lu, piv, info = lapack.dgetrf(A)
            self._band = None
            self._trs = lapack.dgetrs
        if info < 0:
            raise ValueError(f"LU factorization: illegal argument {-info}")
        if info > 0:
            raise StepFailure(f"LU factorization: zero pivot {info}")
        if not np.isfinite(lu).all():
            raise StepFailure("LU factorization: non-finite factor")
        self._lu, self._piv = lu, piv

    def solve(self, rhs):
        if self._band is None:
            x, info = self._trs(self._lu, self._piv, rhs)
        else:
            x, info = self._trs(self._lu, *self._band, rhs, self._piv)
        if info != 0:
            raise StepFailure(f"LU back-solve failed, info={info}")
        return x


class NewtonState:
    """The Newton data one run carries from solve to solve: the last stage
    matrix I - scale*J with its Factorization, and eta, the contraction
    estimate theta/(1 - theta) last measured with that factorization (1
    until one is, as after each new factorization in ARKODE and CVODE).
    """

    def __init__(self):
        self.eta = 1.0
        self._key = None  # (band (ml, mu) or None, shape, scale, bytes of J)
        self._fac = None

    def factor(self, J, scale, stats):
        """Factorization of I - scale*J. It is reused when J has the storage
        and shape of the last one and J and scale are bit-equal to it (J is
        compared by its bytes, so -0.0 differs from 0.0); otherwise the
        matrix is factored, counted in stats.factorizations, and cached,
        and eta is reset to 1.
        """
        band = (J.ml, J.mu) if isinstance(J, BandedMatrix) else None
        data = np.asarray(J.data if band else J, dtype=float)
        key = (band, data.shape, scale, data.tobytes())
        if key != self._key:
            self._fac = Factorization(shifted_jacobian(J, scale))
            stats.factorizations += 1
            self._key, self.eta = key, 1.0
        return self._fac


def wrms(v, weights):
    """Weighted root-mean-square norm: sqrt(mean((v * weights)^2)).

    The arithmetic of np.mean (one pairwise np.add.reduce, then a division
    by the length) without its Python wrappers, so the value is bitwise
    that of sqrt(np.mean((v * weights) ** 2)).
    """
    d = np.multiply(v, weights)
    return math.sqrt(np.add.reduce(d * d) / d.size)


def newton_solve(residual, fac, guess, stats, state=None):
    """Solve residual(x) = 0 by modified Newton iteration.

    fac is the caller's Factorization of the residual's Jacobian, reused
    for every iteration; state is the run's NewtonState, a fresh one when
    None. Updates are measured in the WRMS norm with weights
    1/(NEWTON_ATOL + NEWTON_RTOL*|x|) frozen at the initial guess, and the
    solve stops when |delta| <= 1, within NEWTON_MAX_ITER iterations.
    The first update also stops it when max(state.eta, uround)^0.8 *
    |delta| <= 1 (Hairer & Wanner, Solving ODEs II, IV.8): eta is the
    contraction estimate earlier solves measured with this factorization,
    1 when none has, which leaves |delta| <= 1. Each later update k stores
    theta/(1 - theta) in state.eta, theta = |delta_k|/|delta_(k-1)|; an
    update that grows (theta >= 1, or NaN when both norms overflow) stores
    inf and ends the solve as diverged. Each iteration adds one to
    `stats.newton_iters`, so a solve that fails still counts the iterations
    it spent. Returns the root.
    """
    state = state or NewtonState()
    x = np.array(guess, dtype=float)
    weights = 1.0 / (NEWTON_ATOL + NEWTON_RTOL * np.abs(x))
    eta0 = max(state.eta, _UROUND) ** 0.8
    prev = None
    # a diverging iteration is reported below, so the numpy warnings on
    # the way there (an update norm that overflows) are suppressed
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            f = np.asarray(residual(x), dtype=float)
            if not np.logical_and.reduce(np.isfinite(f)):
                raise StepFailure(
                    "non-finite residual during Newton iteration")
            delta = fac.solve(-f)
            x = x + delta
            stats.newton_iters += 1
            if not np.logical_and.reduce(np.isfinite(x)):
                raise StepFailure("Newton iteration diverged")
            norm = wrms(delta, weights)
            if prev is not None:
                theta = norm / prev
                if not theta < 1.0:
                    state.eta = math.inf
                    raise StepFailure("Newton iteration diverged")
                state.eta = theta / (1.0 - theta)
            elif eta0 * norm <= 1.0:
                return x
            if norm <= 1.0:
                return x
            prev = norm
    raise StepFailure(f"no convergence in {NEWTON_MAX_ITER} Newton iterations")
