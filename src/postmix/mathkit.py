"""Self-contained numerical kernels used throughout the package.

Provides an SPD Cholesky factorization with an escalating jitter ladder,
the Sobol low-discrepancy sequence, the closed-form chi-square survival
function at integer degrees of freedom, and a nonnegative least-squares
solver. (The matrix exponential lives with its one caller, the shear-frame
simulator in ``exemplar``.) Everything here is a pure function of its
inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.typing import NDArray

from ._sobol_data import DIRECTION_NUMBERS
from .exceptions import SingularMatrixError

# Relative jitter ladder tried in order; factors multiply the mean
# diagonal magnitude trace(a)/d so the escalation is scale invariant.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)

SOBOL_MAX_DIM = 64
_SOBOL_BITS = 32

# Past this x/2, e^{-x/2} is subnormal and then 0, so the chi-square
# survival's closed form would first lose digits and then return 0.
_CHI2_SCALE_SWITCH = -math.log(np.finfo(float).tiny)
# A value below e^-746 < 2**-1076 rounds to 0.
_CHI2_ZERO_EXPONENT = 746.0
_CHI2_RESCALE_BITS = 512
_CHI2_RESCALE = 2.0**_CHI2_RESCALE_BITS
# fdlibm's split of log 2: the high part has 32 significant bits.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LN2 = _LN2_HI + _LN2_LO


def cholesky_spd(a: NDArray) -> tuple[NDArray[np.float64], float]:
    """Factor a symmetric matrix, escalating diagonal jitter until SPD.

    Parameters
    ----------
    a : ndarray, shape (d, d)
        Symmetric matrix; symmetry is required to 1e-10 relative
        tolerance and enforced exactly by averaging with the transpose.

    Returns
    -------
    chol : ndarray, shape (d, d)
        Lower Cholesky factor of ``a + jitter * I``.
    jitter : float
        The smallest value of the ladder ``JITTER_LADDER * trace(a)/d``
        whose factorization succeeds.

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
        return chol, jitter
    raise SingularMatrixError(
        f"Cholesky failed for {d}x{d} matrix even at jitter "
        f"{JITTER_LADDER[-1] * diag_scale:.3e}"
    )


@functools.cache
def _sobol_direction_table(dim: int) -> NDArray[np.uint64]:
    """Direction integers ``V[j, k]``, k = 1.._SOBOL_BITS, for dims 1..dim.

    Built once per dimension and shared, so the table is read-only."""
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
    v.flags.writeable = False
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
    # Gray-code step i flips direction c, one past the trailing zeros of i.
    i = np.arange(1, n + 1)
    c = np.log2(i & -i).astype(int) + 1
    points = np.bitwise_xor.accumulate(_sobol_direction_table(dim)[:, c].T, axis=0)
    return points.astype(float) / 2.0**_SOBOL_BITS


def chi_square_survival(x: float, dof: int) -> float:
    """Survival function P(Q >= x) of a chi-square variable.

    Evaluates the regularized upper incomplete gamma Q(dof/2, x/2) by its
    finite closed form at integer degrees of freedom: for even dof,
    e^{-x/2} sum_{k < dof/2} (x/2)^k / k!; for odd dof,
    erfc(sqrt(x/2)) + e^{-x/2} sum_{k=1}^{(dof-1)/2} (x/2)^{k-1/2} / Gamma(k+1/2).
    The factor e^{-x/2} rides in the first term, so a far tail underflows
    to 0 instead of overflowing the sum. Past x/2 = -log(tiny), where
    e^{-x/2} is no longer a normal double, the same sums run on a scaled
    copy of it (:func:`_chi_square_sums`).

    Parameters
    ----------
    x : float
        Nonnegative test statistic; ``inf`` gives 0.
    dof : int
        Degrees of freedom, a positive integer.

    Returns
    -------
    float in [0, 1]
    """
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if not x >= 0:  # NaN fails this too
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == math.inf:  # the sums below would meet 0 * inf
        return 0.0
    half = 0.5 * x
    return _chi_square_sums(half, dof, half > _CHI2_SCALE_SWITCH)


def _chi_square_sums(half: float, dof: int, scaled: bool) -> float:
    """The closed form of :func:`chi_square_survival` at x = 2 half.

    Unscaled, the sums start from ``exp(-half)``. Scaled, they start from
    e^{-half} 2**n, n = round(half / log 2), reduced exactly for half below
    1.4e6 (the product of n and fdlibm's high part of log 2 is exact), and
    carry the power of two apart: a term past 2**512 moves 2**512 into it.
    Rounding is the same at every scale, so the two agree to the ulps
    their starts differ by. The scaled odd head erfc(sqrt(half)) takes its
    asymptotic form e^{-half} / sqrt(pi half) (1 - 1/(2 half) + 3/(2 half)^2
    - ...), summed to its eighth term, for the ninth is below 2e-19 at
    half > 708. A tail whose Chernoff bound e^{a - half} (half / a)^a,
    a = dof/2, underflows is 0.
    """
    shift = 0  # the sums are in units of 2**shift
    if not scaled:
        start = math.exp(-half)
    else:
        a = 0.5 * dof
        if half > a and (half - a) - a * math.log(half / a) > _CHI2_ZERO_EXPONENT:
            return 0.0
        n = round(half / _LN2)
        start, shift = math.exp(n * _LN2_LO - (half - n * _LN2_HI)), -n
    head = total = 0.0
    if dof % 2 == 0:
        offset, term = 0.0, start
    else:
        offset, root = 0.5, math.sqrt(half)
        if scaled:
            series, ratio = 1.0, 1.0
            for m in range(1, 8):
                ratio *= (0.5 - m) / half
                series += ratio
            total = start / (root * math.sqrt(math.pi)) * series
        else:
            head = math.erfc(root)
        term = 2.0 * root / math.sqrt(math.pi) * start if dof > 1 else 0.0  # k = 1
    total += term
    for k in range(1, dof // 2):
        term *= half / (k + offset)
        total += term
        if term > _CHI2_RESCALE:
            term /= _CHI2_RESCALE
            total /= _CHI2_RESCALE
            shift += _CHI2_RESCALE_BITS
    return min(1.0, head + math.ldexp(total, shift))


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
