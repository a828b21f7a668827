"""Exception hierarchy for the mrisr package."""

__all__ = ["MRISRError", "UnknownMethodError", "DegenerateAbscissaeError",
           "PreconditionError", "DegenerateEmbeddingError",
           "SingularMatrixError", "NewtonFailure", "FastSolveDivergence",
           "StepFailure", "StepSizeUnderflow"]


class MRISRError(Exception):
    """Base class for all package-specific errors."""


class UnknownMethodError(MRISRError, KeyError):
    """Requested method or problem name is not in the registry."""


class DegenerateAbscissaeError(MRISRError):
    """Coincident abscissae appear in a denominator of a generator formula."""


class PreconditionError(MRISRError, ValueError):
    """A documented operation precondition was violated."""


class DegenerateEmbeddingError(MRISRError):
    """Embedding residual vector vanishes where a nonzero norm is required."""


class SingularMatrixError(MRISRError):
    """LU factorization hit an exactly singular matrix."""


class NewtonFailure(MRISRError):
    """Newton iteration exceeded its iteration budget or diverged."""


class FastSolveDivergence(MRISRError):
    """Fast inner integration produced a non-finite state."""


class StepFailure(MRISRError):
    """A slow step could not be completed; the message names the failing
    stage."""


class StepSizeUnderflow(MRISRError):
    """Adaptive controller pushed H below its minimum."""
