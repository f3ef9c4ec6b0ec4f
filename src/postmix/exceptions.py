"""Exception types raised across the package, and the checks that every
configuration value goes through."""

from __future__ import annotations

import math
import numbers
from typing import Optional


def check_integer(name: str, value, least: Optional[int] = None):
    """Return ``value`` if it is an integer (a bool is not) and at least
    ``least``; otherwise raise ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def check_fields(values: dict, types: dict, prefix: str = "", **least) -> None:
    """Check each ``values[key]`` against its annotation string ``types[key]``.

    ``"int"`` goes through :func:`check_integer` with the bound ``least[key]``;
    ``"float"`` must be a finite real and ``"str"`` a string (a bool is no
    number); ``"Optional[...]"`` also admits None; other annotations pass.
    A failure raises ``ValueError`` naming ``prefix + key``.
    """
    for key, value in values.items():
        name, kind = prefix + key, types[key]
        if kind.startswith("Optional["):
            if value is None:
                continue
            kind = kind[len("Optional["):-1]
        if kind == "int":
            check_integer(name, value, least.get(key))
        elif kind == "float" and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Real)
                                  or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
        elif kind == "str" and not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")


class PostmixError(Exception):
    """Base class for all package-specific errors."""


class DerivativeError(PostmixError):
    """A derivative could not be formed: a finite-difference stencil met
    ``log phi = -inf``, or an analytic gradient or Hessian was NaN or infinite.

    Attributes
    ----------
    point : ndarray
        The offending evaluation point: the stencil point that met ``-inf``,
        or the point whose analytic gradient or Hessian is not finite.
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


class NoModesFoundError(PostmixError):
    """No multistart run converged, or every converged minimum was a saddle;
    the target yielded no usable modes."""


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


class EvidenceOverflowError(PostmixError):
    """The evidence, the sum of the unnormalized weights, overflows a double."""


class GenerationError(PostmixError):
    """A synthetic test posterior could not be constructed as requested."""
