"""Self-contained numerical kernels used throughout the package.

Provides an SPD Cholesky factorization with an escalating jitter ladder,
the Sobol low-discrepancy sequence, the closed-form chi-square survival
function at integer degrees of freedom, and a nonnegative least-squares
solver. (Matrix exponentials come from ``scipy.linalg.expm`` at their one
call site, the shear-frame simulator.) Everything here is a pure function
of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._sobol_data import DIRECTION_NUMBERS
from .exceptions import SingularMatrixError

# Relative jitter ladder tried in order; factors multiply the mean
# diagonal magnitude trace(a)/d so the escalation is scale invariant.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

SOBOL_MAX_DIM = 64
_SOBOL_BITS = 32


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric positive definite matrix with its Cholesky factor.

    Attributes
    ----------
    order : int
        Matrix dimension.
    matrix : ndarray, shape (d, d)
        The symmetrized input (without jitter).
    chol : ndarray, shape (d, d)
        Lower Cholesky factor of ``matrix + jitter_applied * I``.
    jitter_applied : float
        The smallest ladder value that produced a successful factorization.
    """

    order: int
    matrix: NDArray[np.float64]
    chol: NDArray[np.float64]
    jitter_applied: float


def cholesky_spd(a: NDArray) -> SpdMatrix:
    """Factor a symmetric matrix, escalating diagonal jitter until SPD.

    Parameters
    ----------
    a : ndarray, shape (d, d)
        Symmetric matrix; symmetry is required to 1e-10 relative
        tolerance and enforced exactly by averaging with the transpose.

    Returns
    -------
    SpdMatrix
        Factorization of ``a + jitter * I`` for the smallest jitter in
        the ladder ``JITTER_LADDER * trace(a)/d`` that succeeds.

    Raises
    ------
    ValueError
        If ``a`` is not square or not symmetric within tolerance.
    SingularMatrixError
        If factorization fails at the maximum jitter level.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a))
    asym = np.max(np.abs(a - a.T))
    if scale > 0 and asym > 1e-10 * scale:
        raise ValueError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    a = 0.5 * (a + a.T)
    d = a.shape[0]
    diag_scale = max(np.trace(a) / d, np.finfo(float).tiny)
    eye = np.eye(d)
    for factor in JITTER_LADDER:
        jitter = factor * diag_scale
        try:
            chol = np.linalg.cholesky(a + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return SpdMatrix(order=d, matrix=a, chol=chol, jitter_applied=jitter)
    raise SingularMatrixError(
        f"Cholesky failed for {d}x{d} matrix even at jitter "
        f"{JITTER_LADDER[-1] * diag_scale:.3e}"
    )


def _sobol_direction_table(dim: int) -> NDArray[np.uint64]:
    """Direction integers ``V[j, k]``, k = 1.._SOBOL_BITS, for dims 1..dim."""
    v = np.zeros((dim, _SOBOL_BITS + 1), dtype=np.uint64)
    for k in range(1, _SOBOL_BITS + 1):
        v[0, k] = 1 << (_SOBOL_BITS - k)
    for j in range(1, dim):
        poly, m_init = DIRECTION_NUMBERS[j - 1]
        s = poly.bit_length() - 1
        m = list(m_init)
        for k in range(s + 1, _SOBOL_BITS + 1):
            new = m[k - s - 1] ^ (m[k - s - 1] << s)
            for t in range(1, s):
                if (poly >> (s - t)) & 1:
                    new ^= m[k - t - 1] << t
            m.append(new)
        for k in range(1, _SOBOL_BITS + 1):
            v[j, k] = m[k - 1] << (_SOBOL_BITS - k)
    return v


def sobol_points(dim: int, n: int) -> NDArray[np.float64]:
    """Generate ``n`` points of the Sobol sequence in [0, 1)^dim.

    Uses the Joe-Kuo direction numbers with Gray-code ordering, so every
    block of ``2**m`` points of the full sequence is a (0, m)-net. The
    sequence's all-zeros initial point is skipped, because optimizers and
    samplers rarely want an exact corner of the domain: the result is
    points 1 to ``n`` of the sequence.

    Parameters
    ----------
    dim : int
        Dimension, between 1 and ``SOBOL_MAX_DIM``.
    n : int
        Number of points, at least 1.

    Returns
    -------
    ndarray, shape (n, dim)
    """
    if not 1 <= dim <= SOBOL_MAX_DIM:
        raise ValueError(f"dim must be in [1, {SOBOL_MAX_DIM}], got {dim}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    v = _sobol_direction_table(dim)
    points = np.empty((n, dim), dtype=np.uint64)
    x = np.zeros(dim, dtype=np.uint64)
    for i in range(1, n + 1):
        # Gray-code step: flip with direction c, the rightmost zero bit of i-1.
        c = 1
        val = i - 1
        while val & 1:
            val >>= 1
            c += 1
        x = x ^ v[:, c]
        points[i - 1] = x
    return points.astype(float) / 2.0**_SOBOL_BITS


def chi_square_survival(x: float, dof: int) -> float:
    """Survival function P(Q >= x) of a chi-square variable.

    Evaluates the regularized upper incomplete gamma Q(dof/2, x/2) by its
    finite closed form at integer degrees of freedom: for even dof,
    e^{-x/2} sum_{k < dof/2} (x/2)^k / k!; for odd dof,
    erfc(sqrt(x/2)) + e^{-x/2} sum_{k=1}^{(dof-1)/2} (x/2)^{k-1/2} / Gamma(k+1/2).
    The factor e^{-x/2} rides in the first term, so a far tail underflows
    to 0 instead of overflowing the sum.

    Parameters
    ----------
    x : float
        Nonnegative test statistic.
    dof : int
        Degrees of freedom, a positive integer.

    Returns
    -------
    float in [0, 1]
    """
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    half = 0.5 * x
    if dof % 2 == 0:
        head = 0.0
        term = total = math.exp(-half)
        for k in range(1, dof // 2):
            term *= half / k
            total += term
    else:
        root = math.sqrt(half)
        head = math.erfc(root)
        term = 2.0 * root / math.sqrt(math.pi) * math.exp(-half)  # k = 1
        total = 0.0
        for k in range(1, dof // 2 + 1):
            total += term
            term *= half / (k + 0.5)
    return min(1.0, head + total)


def nnls(a: NDArray, b: NDArray) -> tuple[NDArray[np.float64], float]:
    """Solve ``min ||a x - b||_2`` subject to ``x >= 0``.

    Lawson-Hanson active-set iteration: variables enter the passive set by
    largest positive dual, and an inner feasibility loop retracts any
    passive variable a full least-squares step would drive negative. Each
    entry lowers the residual; one that would not, which only rounding
    makes possible, ends the iteration instead of cycling. At termination
    the KKT conditions hold: the gradient of the objective is zero on the
    passive set and nonnegative on the active set.

    Parameters
    ----------
    a : ndarray, shape (m, n)
    b : ndarray, shape (m,)

    Returns
    -------
    x : ndarray, shape (n,)
        The nonnegative solution.
    rnorm : float
        Residual two-norm ``||a x - b||_2``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d design matrix")
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"incompatible shapes: a {a.shape}, b {b.shape}")
    max_iter = max(3 * n, 30)
    # Dual tolerance for entering variables, scaled by the problem data.
    tol = 10 * np.finfo(float).eps * np.linalg.norm(a, 1) * (max(m, n) + 1)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    rnorm = float(np.linalg.norm(b))
    w = a.T @ b  # dual/gradient of -0.5*||ax-b||^2 at x = 0
    for iteration in range(max_iter + 1):
        if passive.all():
            break
        candidates = np.where(~passive)[0]
        j = candidates[np.argmax(w[candidates])]
        if w[j] <= tol:
            break
        if iteration == max_iter:
            raise RuntimeError(f"nnls failed to converge in {max_iter} iterations")
        x_before = x
        passive[j] = True
        while True:
            idx = np.where(passive)[0]
            s = np.zeros(n)
            s[idx], *_ = np.linalg.lstsq(a[:, idx], b, rcond=None)
            if np.all(s[idx] > 0):
                x = s
                break
            # Retract along the segment between x and s to stay feasible; a
            # variable already at zero stops the step at once.
            mask = s[idx] <= 0
            xm, sm = x[idx][mask], s[idx][mask]
            alpha = np.min(np.divide(xm, xm - sm, out=np.zeros_like(xm), where=xm > 0))
            x = x + alpha * (s - x)
            passive[np.abs(x) < 1e-14] = False
            x[~passive] = 0.0
        residual = b - a @ x
        rnorm_after = float(np.linalg.norm(residual))
        if not rnorm_after < rnorm:
            # In exact arithmetic every entry lowers the residual. One that
            # does not was chosen by a dual that is rounding noise, and
            # taking it can cycle until max_iter, so stop before it.
            x = x_before
            break
        rnorm = rnorm_after
        w = a.T @ residual
    return x, rnorm
