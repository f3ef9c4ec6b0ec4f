"""Exception types raised across the package."""

from __future__ import annotations


class PostmixError(Exception):
    """Base class for all package-specific errors."""


class DerivativeError(PostmixError):
    """A finite-difference stencil hit a non-finite density value.

    Attributes
    ----------
    point : ndarray
        The offending evaluation point.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonFiniteDensityError(PostmixError):
    """A target's log-density was NaN or ``+inf`` at ``.point``.

    Only ``-inf`` means out of support; other non-finite values are faults.
    """

    def __init__(self, point):
        super().__init__(f"log-density is NaN or +inf at {point}; only -inf "
                         "means out of support")
        self.point = point


class SingularMatrixError(PostmixError):
    """Cholesky factorization failed even at the maximum jitter level."""


class RejectedStartError(PostmixError):
    """A local search was started at a point with zero posterior density."""


class NoModesFoundError(PostmixError):
    """No multistart run converged; the target yielded no usable modes."""


class DegenerateModeError(PostmixError):
    """The Hessian at a mode could not be regularized into an SPD matrix.

    Attributes
    ----------
    mode : ndarray
        Location of the offending mode.
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


class WeightUnderflowError(PostmixError):
    """Every density evaluation in the weight solve underflowed to zero."""


class GenerationError(PostmixError):
    """A synthetic test posterior could not be constructed as requested."""
