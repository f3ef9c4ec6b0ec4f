"""Target densities: unnormalized log-posteriors, Gaussian mixtures, and
sinh-arcsinh synthetic posteriors.

All objects are immutable after construction. Sampling always takes an
explicit seed and owns a private generator per call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .exceptions import DerivativeError, NonFiniteDensityError

_LOG_2PI = math.log(2.0 * math.pi)

# Central-difference step: the cube root of machine epsilon balances
# truncation and round-off for a first derivative.
_GRAD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)

# A Gaussian mixture's search box reaches this many marginal standard
# deviations past the outermost means.
_BOX_PADDING = 4.0
# Spacing of the component centers of ``random_sinh_arcsinh_mixture``.
_SINH_SEPARATION = 6.0
# Entries of one (rows, K, d) temporary of a blocked mixture kernel:
# 2**14 doubles (128 KiB) stay under the allocator's threshold for fresh
# memory maps (glibc's default), so a block's temporaries come back from
# the heap call after call instead of being mapped and faulted in anew.
_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True)
class UnnormalizedTarget:
    """An evaluatable unnormalized log-density with optional derivatives.

    Parameters
    ----------
    dim : int
        Dimension of the parameter space.
    log_phi : callable
        Maps a length-``dim`` vector to the unnormalized log-density.
        May return ``-inf`` as an out-of-support sentinel so optimizers
        can reject points without exception handling in hot loops. The
        evaluators check every field's reply (shape, finiteness: ``_reply``).
    search_box : ndarray, shape (dim, 2)
        Per-coordinate [lower, upper] bounds for global search.
    gradient : callable, optional
        Analytic gradient (dim,) of ``log_phi``; finite differences otherwise.
    hessian : callable, optional
        Analytic Hessian (dim, dim) of ``log_phi``; finite differences otherwise.
    log_phi_batch : callable, optional
        Vectorized evaluation mapping an (n, dim) array to an (n,) array;
        used by multistart, samplers, grid scans and the finite-difference
        derivatives, when present.
    gradient_batch : callable, optional
        Vectorized gradient mapping an (n, dim) array to an (n, dim) array;
        multistart uses it when present.
    """

    dim: int
    log_phi: Callable[[NDArray], float]
    search_box: NDArray[np.float64]
    gradient: Optional[Callable[[NDArray], NDArray]] = None
    hessian: Optional[Callable[[NDArray], NDArray]] = None
    log_phi_batch: Optional[Callable[[NDArray], NDArray]] = None
    gradient_batch: Optional[Callable[[NDArray], NDArray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        box = np.asarray(self.search_box, dtype=float)
        if box.shape != (self.dim, 2):
            raise ValueError(
                f"search_box must have shape ({self.dim}, 2), got {box.shape}"
            )
        if not np.all(np.isfinite(box)):
            raise ValueError("search_box bounds must be finite (no NaN or infinity)")
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("search_box requires lower < upper in every coordinate")
        for name in ("log_phi", "gradient", "hessian", "log_phi_batch", "gradient_batch"):
            fn = getattr(self, name)
            if not callable(fn) and (fn is not None or name == "log_phi"):
                raise ValueError(f"{name} must be callable, got {fn!r}")
        object.__setattr__(self, "search_box", box)


def _reply(field: str, out, points: NDArray, shape: tuple) -> NDArray[np.float64]:
    """The reply ``out`` of the target's ``field`` at ``points`` (one point, or
    an (n, dim) batch along its first axis) as a float array of ``shape``,
    else ``ValueError``. A log-density (``log_phi*``) of NaN or ``+inf`` raises
    ``NonFiniteDensityError``, a derivative with a NaN or infinite entry
    ``DerivativeError``, each at the first offending row; ``-inf`` is a value."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{field} replied with shape {out.shape}, expected {shape}")
    density = field.startswith("log_phi")
    ok = out < np.inf if density else np.isfinite(out)
    if ok.all():
        return out
    rows = np.atleast_2d(points)
    bad = rows[np.argmin(ok.reshape(len(rows), -1).all(axis=1))]
    if density:
        raise NonFiniteDensityError(bad)
    raise DerivativeError(f"analytic {field} is NaN or infinite at {bad}", point=bad)


def eval_log_density(target: UnnormalizedTarget, z: NDArray) -> float:
    """Evaluate ``log_phi`` at a single point, validating the dimension."""
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    return float(_reply("log_phi", target.log_phi(z), z, ()))


def eval_log_density_batch(target: UnnormalizedTarget, points: NDArray) -> NDArray:
    """Evaluate ``log_phi`` on an (n, dim) array of points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != target.dim:
        raise ValueError(f"expected an (n, {target.dim}) array, got {points.shape}")
    if target.log_phi_batch is not None:
        return _reply("log_phi_batch", target.log_phi_batch(points), points, points.shape[:1])
    return _reply("log_phi", [target.log_phi(p) for p in points], points, points.shape[:1])


def eval_gradient(target: UnnormalizedTarget, z: NDArray) -> NDArray[np.float64]:
    """Gradient of ``log_phi``, analytic when supplied else central differences
    from the stencil of :func:`gradient_rows`, one ``log_phi`` call per point.

    Raises
    ------
    DerivativeError
        If a stencil point has ``log_phi = -inf`` (``.point`` is the first), or
        the analytic gradient has a NaN or infinite entry (``.point`` is ``z``).
    NonFiniteDensityError
        If a stencil point evaluates to NaN or ``+inf``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    if target.gradient is not None:
        return _reply("gradient", target.gradient(z), z, z.shape)
    stencil, steps = _gradient_stencil(z[np.newaxis])
    values = np.array([[eval_log_density(target, p) for p in stencil[0]]])
    grads, failed = _central_differences(stencil, values, steps)
    if failed:
        bad = failed[0]
        raise DerivativeError(f"non-finite log-density in gradient stencil at {bad}",
                              point=bad)
    return grads[0]


def _gradient_stencil(points: NDArray) -> tuple[NDArray, NDArray]:
    """The (n, 2 dim, dim) central-difference stencil of an (n, dim) array,
    running by row, then coordinate, then ``+h`` before ``-h``, and the
    (n, dim) steps ``h = _GRAD_STEP * max(1, |z_i|)``.

    Each stencil point is a copy of its row with only one coordinate moved,
    so every other coordinate keeps its bits (a ``-0.0`` stays ``-0.0``).
    """
    n, d = points.shape
    steps = _GRAD_STEP * np.maximum(1.0, np.abs(points))
    stencil = np.repeat(points, 2 * d, axis=0).reshape(n, d, 2, d)
    axis = np.arange(d)
    stencil[:, axis, 0, axis] += steps
    stencil[:, axis, 1, axis] -= steps
    return stencil.reshape(n, 2 * d, d), steps


def _central_differences(stencil: NDArray, values: NDArray, steps: NDArray,
                         ) -> tuple[NDArray[np.float64], dict[int, NDArray]]:
    """Gradients from the (n, 2 dim) values at :func:`_gradient_stencil`'s
    points, and ``{row: first -inf point}`` for each row that met one."""
    minus_inf = np.isneginf(values)
    failed = {int(row): stencil[row, np.argmax(minus_inf[row])].copy()
              for row in np.flatnonzero(minus_inf.any(axis=1))}
    with np.errstate(invalid="ignore"):  # -inf - -inf in a failed row
        grads = (values[:, 0::2] - values[:, 1::2]) / (2.0 * steps)
    return grads, failed


def gradient_rows(target: UnnormalizedTarget, points: NDArray,
                  ) -> tuple[NDArray[np.float64], dict[int, NDArray]]:
    """Gradients of ``log_phi`` at the rows of an (n, dim) array, and a dict
    from each row whose finite-difference stencil met ``-inf`` to its first
    such point (that row's gradient is meaningless).

    ``gradient_batch`` answers in one call when the target has one, else
    the analytic ``gradient`` row by row. A target with neither gets
    central differences from the stencils of all rows in one batched
    evaluation, each row bitwise what :func:`eval_gradient` returns for it.
    NaN or ``+inf`` anywhere in the stencil raises ``NonFiniteDensityError``,
    whatever else the row met. An analytic reply goes through :func:`_reply`:
    one with a NaN or infinite entry raises ``DerivativeError`` carrying the
    first such row's point.
    """
    if target.gradient_batch is not None:
        return _reply("gradient_batch", target.gradient_batch(points), points,
                      points.shape), {}
    if target.gradient is not None:
        return _reply("gradient", [target.gradient(p) for p in points], points,
                      points.shape), {}
    stencil, steps = _gradient_stencil(points)
    n, d = points.shape
    values = eval_log_density_batch(target, stencil.reshape(-1, d)).reshape(n, 2 * d)
    return _central_differences(stencil, values, steps)


def eval_hessian(target: UnnormalizedTarget, z: NDArray) -> NDArray[np.float64]:
    """Hessian of ``-log_phi`` (note the sign), symmetrized.

    Analytic when the target carries a Hessian of ``log_phi`` (one with a
    NaN or infinite entry raises ``DerivativeError`` carrying ``z``); otherwise
    central differences of the gradients that one :func:`gradient_rows`
    call returns at the ``2d`` rows of ``z``'s gradient stencil. A
    ``-inf`` in a finite-difference stencil raises ``DerivativeError``
    carrying that point, and so does a non-finite gradient at a stencil row,
    carrying the row; NaN or ``+inf`` raises ``NonFiniteDensityError``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    if target.hessian is not None:
        neg = -_reply("hessian", target.hessian(z), z, (target.dim, target.dim))
        return 0.5 * (neg + neg.T)
    stencil, steps = _gradient_stencil(z[np.newaxis])
    grads, failed = gradient_rows(target, stencil[0])
    bad_rows = np.flatnonzero(~np.isfinite(grads).all(axis=1))
    if bad_rows.size:  # a failed stencil names its -inf point, else the row
        bad = failed.get(int(bad_rows[0]), stencil[0, bad_rows[0]])
        raise DerivativeError(f"non-finite value in Hessian stencil at {bad}", point=bad)
    # row i is minus the derivative of the gradient along coordinate i
    neg = (grads[1::2] - grads[0::2]) / (2.0 * steps[0, :, np.newaxis])
    return 0.5 * (neg + neg.T)


def gaussian_log_pdfs(means: NDArray, chol_invs: NDArray, pts: NDArray):
    """Log-densities of K Gaussians at n points, and the whitened residuals.

    ``means`` is (K, d), ``chol_invs`` the (K, d, d) inverses of the lower
    Cholesky factors of the covariances (a mixture stacks them once, at
    construction) and ``pts`` (n, d). One stacked matmul whitens every
    residual, and the log-determinants come from the inverses' diagonals.
    Returns the (n, K) log-densities and the (K, d, n) residuals
    ``L_k^-1 (z - mu_k)``.
    """
    d = means.shape[1]
    whitened = chol_invs @ (pts - means[:, np.newaxis, :]).transpose(0, 2, 1)
    log_det_inv = np.log(chol_invs.diagonal(0, 1, 2)).sum(axis=1)
    log_n = log_det_inv - 0.5 * (d * _LOG_2PI + (whitened * whitened).sum(axis=1).T)
    return log_n, whitened


def _inverse_lower(chol: NDArray) -> NDArray[np.float64]:
    """Inverse of a lower-triangular factor with a positive diagonal, for one
    (d, d) factor or a (K, d, d) stack; each matrix of a stack is inverted
    on its own, so a stack equals its matrices inverted one by one.

    ``np.linalg.inv`` solves by LU with partial pivoting, which can leave
    rounding noise above the diagonal (hence the ``tril``) and need not meet
    an exact zero pivot on a singular factor, so a zero on the diagonal is
    rejected before the solve.
    """
    if np.any(chol.diagonal(0, -2, -1) == 0.0):
        raise np.linalg.LinAlgError("singular Cholesky factor (zero on the diagonal)")
    return np.tril(np.linalg.inv(chol))


def _as_points(z: NDArray, dim: int):
    """An (n, dim) view of one point (dim,) or a batch (n, dim), and whether
    it was a single point; the density kernels all take a batch."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = z[np.newaxis] if single else z
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {z.shape}")
    return pts, single


def log_sum_exp(stacked: NDArray):
    """Row-wise log-sum-exp of an (n, K) array, and the responsibilities
    ``exp(s - max) / sum(exp(s - max))``, shape (n, K).

    A row of ``-inf`` sums to zero: its log-sum-exp is ``-inf`` and its
    responsibilities are zeros, without a warning.
    """
    peak = stacked.max(axis=1, keepdims=True)
    if peak.min(initial=np.inf) == -np.inf:  # -inf - -inf would be NaN
        summed = peak[:, 0] != -np.inf
        out, resp = np.full(len(stacked), -np.inf), np.zeros_like(stacked)
        out[summed], resp[summed] = log_sum_exp(stacked[summed])
        return out, resp
    scaled = np.exp(stacked - peak)
    total = scaled.sum(axis=1, keepdims=True)
    return (peak + np.log(total))[:, 0], scaled / total


def _block_rows(width: int) -> int:
    """Rows per block for a kernel with ``width = K * d`` entries per row."""
    return max(2, _BLOCK_ENTRIES // width)


def _rows(kernel: Callable[[NDArray], NDArray], points: NDArray, dim: int,
          width: int) -> NDArray | float:
    """What a block ``kernel`` gives at one point (dim,) or a batch (n, dim):
    a log-density kernel's (m,) reply becomes a float or (n,), a gradient
    kernel's (m, dim) reply (dim,) or (n, dim).

    The kernel runs on :func:`_block_rows` rows at a time; rows do not
    interact, so the blocks only bound the size of the temporaries. A block
    never holds a single row unless the batch does: BLAS takes a
    matrix-vector path for one column, which rounds differently, so a lone
    last row joins the block before it.

    A point with a NaN or infinite coordinate has no density: every entry
    of its reply is NaN. A finite point whose squares overflow lies where
    the density is zero, and its log-density is ``-inf``, without a warning.
    """
    pts, single = _as_points(points, dim)
    rows = _block_rows(width)
    cuts = list(range(rows, pts.shape[0] - 1, rows))
    with np.errstate(over="ignore", invalid="ignore"):
        out = (np.concatenate([kernel(block) for block in np.split(pts, cuts)]) if cuts
               else kernel(pts))
    if not np.isfinite(out).all():
        if out.ndim == 1:
            out[np.isnan(out)] = -np.inf
        out[~np.isfinite(pts).all(axis=1)] = np.nan
    if single:
        return float(out[0]) if out.ndim == 1 else out[0]
    return out


def _nearest(log_p: NDArray, resp: NDArray, residuals: NDArray) -> NDArray:
    """``resp`` (n, K), where each row with ``log_p = -inf`` takes its limit:
    all the weight on the component of shortest (n, K, d) ``residuals``,
    compared after scaling the row by its largest |residual| so that the
    squares cannot overflow."""
    far = log_p == -np.inf
    if far.any():
        near = np.nan_to_num(residuals[far])  # an overflowed residual: the largest double
        near /= np.abs(near).max(axis=(1, 2), keepdims=True)
        resp[far] = np.eye(resp.shape[1])[np.argmin((near * near).sum(axis=2), axis=1)]
    return resp


@dataclass(frozen=True, slots=True)
class GaussianComponent:
    """A Gaussian density stored as mean plus lower Cholesky factor.

    A component holds its factor only: a mixture inverts the factors of all
    its components at once, and :meth:`log_pdf` inverts this one per call.

    Attributes
    ----------
    mean : ndarray, shape (d,)
    chol_cov : ndarray, shape (d, d)
        Lower-triangular Cholesky factor of the covariance, with strictly
        positive diagonal.
    """

    mean: NDArray[np.float64]
    chol_cov: NDArray[np.float64]

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        chol = np.asarray(self.chol_cov, dtype=float)
        if mean.ndim != 1 or chol.shape != (mean.size, mean.size):
            raise ValueError(f"inconsistent shapes: mean {mean.shape}, chol {chol.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(chol))):
            raise ValueError("mean and chol_cov must be finite (no NaN or infinity)")
        if np.any(np.triu(chol, 1) != 0.0):
            raise ValueError("chol_cov must be lower triangular")
        if np.any(np.diag(chol) <= 0.0):
            raise ValueError("chol_cov requires a strictly positive diagonal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol_cov", chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> NDArray[np.float64]:
        return self.chol_cov @ self.chol_cov.T

    def log_pdf(self, points: NDArray) -> NDArray | float:
        """Gaussian log-density at one point (d,) or a batch (n, d), by :func:`_rows`."""
        mean, chol_inv = self.mean[np.newaxis], _inverse_lower(self.chol_cov)[np.newaxis]

        def block(pts):
            return gaussian_log_pdfs(mean, chol_inv, pts)[0][:, 0]

        return _rows(block, points, self.dim, self.dim)


@dataclass(frozen=True, slots=True)
class MixtureModel:
    """A weighted list of Gaussian components; the pipeline's central artifact.

    The positive-weight components are stacked once, at construction, for
    the kernels: their means, the inverses of their factors (one
    :func:`_inverse_lower` call on the stack) and their log-weights.
    """

    components: tuple[GaussianComponent, ...]
    weights: NDArray[np.float64]
    _means: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _chol_invs: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _log_weights: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple(self.components)
        weights = np.asarray(self.weights, dtype=float)
        if len(comps) < 1:
            raise ValueError("a mixture requires at least one component")
        if weights.shape != (len(comps),):
            raise ValueError(
                f"{len(comps)} components but {weights.shape} weights"
            )
        if not np.all((weights >= 0.0) & (weights <= 1.0)):  # NaN fails too
            raise ValueError(f"weights must lie in [0, 1], got {weights.tolist()}")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {np.sum(weights)!r}")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)
        active = [c for c, w in zip(comps, weights) if w > 0.0]
        object.__setattr__(self, "_means", np.array([c.mean for c in active]))
        object.__setattr__(self, "_chol_invs",
                           _inverse_lower(np.array([c.chol_cov for c in active])))
        object.__setattr__(self, "_log_weights", np.log(weights[weights > 0.0]))

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def log_pdf(self, points: NDArray) -> NDArray | float:
        """Log-density at one point (d,) or a batch (n, d), via a log-sum-exp
        over the components, in the row blocks of :func:`_rows`, which leave
        every value bitwise the whole batch's.

        Components with zero weight were dropped at construction, so they
        contribute nothing rather than a NaN. Stable far into the tails: the
        result stays finite 40 sigma and beyond from every mean, and is
        ``-inf`` where the squared distance overflows (NaN at a point with a
        NaN or infinite coordinate)."""
        return _rows(self._log_pdf_block, points, self.dim, self._means.size)

    def _log_pdf_block(self, pts: NDArray) -> NDArray[np.float64]:
        log_n, _ = gaussian_log_pdfs(self._means, self._chol_invs, pts)
        return log_sum_exp(log_n + self._log_weights)[0]

    def gradient(self, points: NDArray) -> NDArray[np.float64]:
        """Analytic gradient of the log-density at one point (d,) or a batch
        (n, d), by :func:`_rows`: the responsibility-weighted scores, where
        the density underflows the nearest component's (:func:`_nearest`)."""
        return _rows(self._gradient_block, points, self.dim, self._means.size)

    def _gradient_block(self, pts: NDArray) -> NDArray[np.float64]:
        log_q, resp, whitened, scores = mixture_terms(self._means, self._chol_invs,
                                                      self._log_weights, pts)
        resp = _nearest(log_q, resp, whitened.transpose(2, 0, 1))
        # one (d, K) @ (K,) product per point, the same BLAS call for n = 1
        return (scores.transpose(0, 2, 1) @ resp[:, :, np.newaxis])[:, :, 0]

    def hessian(self, point: NDArray) -> NDArray[np.float64]:
        """Analytic Hessian of the log-density at one point (d,). A batch
        raises ``ValueError``: the rows of a stacked Hessian would round
        apart from the Hessians of their points alone."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"hessian takes one point of dimension {self.dim}, "
                             f"got shape {point.shape}")
        _, resp, _, grads = mixture_terms(self._means, self._chol_invs,
                                          self._log_weights, point[np.newaxis])
        resp, grads = resp[0], grads[0]
        precisions = self._chol_invs.transpose(0, 2, 1) @ self._chol_invs
        mean_grad = grads.T @ resp
        total = (grads.T * resp) @ grads - np.einsum("k,kij->ij", resp, precisions)
        return total - np.outer(mean_grad, mean_grad)

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        """Ancestral sampling: categorical on the weights, then Gaussian draws."""
        return draw_mixture(self.weights, np.array([c.mean for c in self.components]),
                            np.array([c.chol_cov for c in self.components]), n, seed)

    def as_target(self) -> UnnormalizedTarget:
        """Wrap this mixture as an UnnormalizedTarget with analytic derivatives.

        The search box is the bounding box of the component means padded
        by 4 marginal standard deviations per coordinate.
        """
        means = np.array([c.mean for c in self.components])
        sigmas = np.array([np.sqrt(np.diag(c.cov)) for c in self.components])
        lo = np.min(means - _BOX_PADDING * sigmas, axis=0)
        hi = np.max(means + _BOX_PADDING * sigmas, axis=0)
        return UnnormalizedTarget(
            dim=self.dim,
            log_phi=self.log_pdf,
            search_box=np.column_stack([lo, hi]),
            gradient=self.gradient,
            hessian=self.hessian,
            log_phi_batch=self.log_pdf,
            gradient_batch=self.gradient,
        )


def mixture_terms(means: NDArray, chol_invs: NDArray, log_weights: NDArray,
                  pts: NDArray):
    """A Gaussian mixture's log-density ``log_q`` (n,), responsibilities
    (n, K), whitened residuals ``L_k^-1 (z - mu_k)`` (K, d, n) and scores
    ``-L_k^-T L_k^-1 (z - mu_k)`` (n, K, d) at (n, d) points, from (K, d)
    means, inverse Cholesky factors and normalized log-weights (K,): the
    gradient, the Hessian and the VI estimator are all built on them."""
    log_n, whitened = gaussian_log_pdfs(means, chol_invs, pts)
    log_q, resp = log_sum_exp(log_n + log_weights)
    scores = -(chol_invs.transpose(0, 2, 1) @ whitened)
    return log_q, resp, whitened, scores.transpose(2, 0, 1)


def draw_mixture(weights: NDArray, means: NDArray, chols: NDArray, n: int,
                 seed: int) -> NDArray[np.float64]:
    """Ancestral sampling from K weights, (K, d) means and (K, d, d) lower
    Cholesky factors, taken as they are: the caller owns their validity."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    k, d = means.shape
    rng = np.random.default_rng(seed)
    ks = rng.choice(k, size=n, p=weights)
    eps = rng.standard_normal((n, d))
    out = np.empty((n, d))
    for i in range(k):
        mask = ks == i
        if np.any(mask):
            out[mask] = means[i] + eps[mask] @ chols[i].T
    return out


def mixture_to_dict(m: MixtureModel) -> dict:
    """Serialize to the interchange schema.

    The Cholesky factor is packed as the lower triangle in row-major
    order, diagonal included: [L00, L10, L11, L20, L21, L22, ...].
    """
    lower = np.tril_indices(m.dim)
    comps = [{"mean": list(c.mean), "chol_cov_rowmajor_lower": list(c.chol_cov[lower])}
             for c in m.components]
    return {"dim": m.dim, "weights": list(m.weights), "components": comps}


def _write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of raw values as CSV: a float (numpy's
    included) as ``repr(float(v))``, None as an empty field, and ints and
    strings as they are."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            ["" if v is None else repr(float(v)) if isinstance(v, (float, np.floating))
             else v for v in row]
            for row in rows)


def mixture_from_dict(doc: dict) -> MixtureModel:
    """Inverse of :func:`mixture_to_dict`; a malformed document raises ``ValueError``."""
    try:
        d = int(doc["dim"])
        entries = [(np.asarray(entry["mean"], float),
                    list(entry["chol_cov_rowmajor_lower"]))
                   for entry in doc["components"]]
        weights = np.asarray(doc["weights"], float)
    except KeyError as exc:
        raise ValueError(f"mixture JSON has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"malformed mixture JSON: {exc}") from None
    comps = []
    for mean, packed in entries:
        if len(packed) != d * (d + 1) // 2:
            raise ValueError(
                f"packed Cholesky length {len(packed)} does not match dim {d}"
            )
        chol = np.zeros((d, d))
        chol[np.tril_indices(d)] = packed
        comps.append(GaussianComponent(mean, chol))
    return MixtureModel(tuple(comps), weights)


class SinhArcsinhMixture:
    """Mixture of K factorized sinh-arcsinh components with exact sampling.

    Component k maps a standard normal Z to Y = loc[k] + scale[k] *
    sinh((arcsinh(Z) + skew[k]) * tail[k]) coordinate by coordinate (the
    Jones-Pewsey transform); skew 0 and tail 1 reduce a coordinate to a
    location-scale Gaussian. Each component is a product of independent
    1-d densities, so both the log-density and its gradient are available
    in closed form and samples are exact transforms of standard normal
    draws.

    Parameters
    ----------
    weights : ndarray, shape (K,)
        Component weights on the simplex.
    loc, scale, skew, tail : ndarray, shape (K, d)
        Per-component, per-coordinate parameters; ``scale`` and ``tail``
        strictly positive.
    """

    def __init__(self, weights: NDArray, loc: NDArray, scale: NDArray,
                 skew: NDArray, tail: NDArray):
        self.weights, self.loc, self.scale, self.skew, self.tail = (
            np.asarray(a, dtype=float) for a in (weights, loc, scale, skew, tail))
        if self.loc.ndim != 2 or self.loc.shape[0] < 1:
            raise ValueError(f"loc must have shape (K, d), K >= 1, got {self.loc.shape}")
        if self.weights.shape != self.loc.shape[:1]:
            raise ValueError(f"{self.loc.shape[0]} components but "
                             f"{self.weights.shape} weights")
        for name in ("scale", "skew", "tail"):
            if getattr(self, name).shape != self.loc.shape:
                raise ValueError(f"{name} must have shape {self.loc.shape}, "
                                 f"got {getattr(self, name).shape}")
        for name in ("weights", "loc", "scale", "skew", "tail"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite (no NaN or infinity)")
        if np.any(self.weights < 0.0) or abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must be a simplex vector")
        if np.any(self.scale <= 0.0) or np.any(self.tail <= 0.0):
            raise ValueError("scale and tail must be strictly positive")
        self.dim = self.loc.shape[1]
        # folded once for every evaluation: log w_k - sum_d (log tail +
        # log scale) - (d/2) log 2 pi per component, and the reciprocals
        with np.errstate(divide="ignore"):  # a zero weight gives -inf
            self._log_const = (np.log(self.weights)
                               - np.log(self.tail).sum(axis=1)
                               - np.log(self.scale).sum(axis=1)
                               - 0.5 * self.dim * _LOG_2PI)
        self._inv_scale = 1.0 / self.scale
        self._inv_tail = 1.0 / self.tail

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def _component_terms(self, pts: NDArray):
        """The (n, K) weighted component log-densities ``log w_k + log p_k``
        at (n, d) points, and the (n, K, d) coordinates ``x = (y - loc) /
        scale`` and ``z = sinh(u)``, ``u = arcsinh(x) / tail - skew``.

        With ``log cosh u = log1p(z^2) / 2`` a coordinate's log-density is
        ``(log1p(z^2) - z^2 - log1p(x^2)) / 2`` plus the constant folded at
        construction: one arcsinh, one sinh and two log1p, and every pass
        writes in place into one of four (n, K, d) buffers. Where ``z^2``
        overflows, ``inf - inf`` is NaN; the density there is zero, so the
        component gets ``-inf``.
        """
        x = pts[:, np.newaxis, :] - self.loc
        x *= self._inv_scale
        z = np.arcsinh(x)
        z *= self._inv_tail
        z -= self.skew
        np.sinh(z, out=z)
        log1p_x2 = np.square(x)
        np.log1p(log1p_x2, out=log1p_x2)
        terms = np.square(z)
        log1p_x2 += terms
        np.log1p(terms, out=terms)
        terms -= log1p_x2
        comp = terms.sum(axis=2)
        comp *= 0.5
        comp += self._log_const
        return np.fmax(comp, -np.inf, out=comp), x, z

    def log_pdf(self, points: NDArray) -> NDArray | float:
        """Log-density at one point (d,) or a batch (n, d), in the row
        blocks of :func:`_rows`, which leave every value bitwise the whole
        batch's: ``-inf`` where it underflows, NaN at a point with a NaN or
        infinite coordinate."""
        return _rows(self._log_pdf_block, points, self.dim, self.loc.size)

    def _log_pdf_block(self, pts: NDArray) -> NDArray[np.float64]:
        return log_sum_exp(self._component_terms(pts)[0])[0]

    def gradient(self, points: NDArray) -> NDArray[np.float64]:
        """Gradient of the log-density at one point (d,) or a batch (n, d), by
        :func:`_rows`. Per coordinate, ``tanh(u) - z cosh(u) = -z^2 tanh(u)``,
        so the derivative is ``-(z (z / r) tanh(u) / tail + (x / r) / r) /
        scale`` with ``r = hypot(1, x)``: no square is formed. A component of
        zero responsibility contributes 0, and where all underflow the one of
        smallest ``z`` takes all the weight (:func:`_nearest`).
        """
        return _rows(self._gradient_block, points, self.dim, self.loc.size)

    def _gradient_block(self, pts: NDArray) -> NDArray[np.float64]:
        comp, x, z = self._component_terms(pts)
        resp = _nearest(*log_sum_exp(comp), z)
        r = np.hypot(1.0, x)
        dlogp = z / r
        dlogp *= z
        dlogp *= np.tanh(np.arcsinh(z))  # +-1, not NaN, where sinh overflowed
        dlogp *= self._inv_tail
        x /= r
        x /= r
        dlogp += x
        dlogp *= -self._inv_scale
        dlogp[resp == 0.0] = 0.0  # not 0 * inf
        return np.einsum("nk,nkd->nd", resp, dlogp)

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        """``n`` exact draws: ancestral component choice, then the
        transform of standard normal draws, done in place."""
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        rng = np.random.default_rng(seed)
        ks = rng.choice(self.n_components, size=n, p=self.weights)
        out = np.arcsinh(rng.standard_normal((n, self.dim)))
        out += self.skew[ks]
        out *= self.tail[ks]
        np.sinh(out, out=out)
        out *= self.scale[ks]
        out += self.loc[ks]
        return out

    def default_search_box(self) -> NDArray[np.float64]:
        """Bounding box of the +-6 standard-normal quantile images across
        components, padded by a tenth of its width on each side."""
        z = 6.0
        lo_img = self.loc + self.scale * np.sinh((np.arcsinh(-z) + self.skew) * self.tail)
        hi_img = self.loc + self.scale * np.sinh((np.arcsinh(z) + self.skew) * self.tail)
        lo = np.min(np.minimum(lo_img, hi_img), axis=0)
        hi = np.max(np.maximum(lo_img, hi_img), axis=0)
        pad = 0.1 * (hi - lo)
        return np.column_stack([lo - pad, hi + pad])

    def as_target(self) -> UnnormalizedTarget:
        """Wrap this mixture as an UnnormalizedTarget over its default box."""
        return UnnormalizedTarget(
            dim=self.dim,
            log_phi=self.log_pdf,
            search_box=self.default_search_box(),
            gradient=self.gradient,
            log_phi_batch=self.log_pdf,
            gradient_batch=self.gradient,
        )


def random_sinh_arcsinh_mixture(dim: int, n_components: int,
                                seed: int) -> SinhArcsinhMixture:
    """A reproducible non-Gaussian multimodal test density.

    Component centers jitter around points 6 apart along a
    random direction; scales, skews, and tailweights draw from moderate
    ranges so every coordinate stays unimodal within its component.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    offsets = (np.arange(n_components) - (n_components - 1) / 2.0) * _SINH_SEPARATION
    loc, scale, skew, tail = np.empty((4, n_components, dim))
    for k in range(n_components):
        loc[k] = offsets[k] * direction + rng.uniform(-0.5, 0.5, size=dim)
        scale[k] = rng.uniform(0.6, 1.4, size=dim)
        skew[k] = rng.uniform(-1.0, 1.0, size=dim)
        tail[k] = rng.uniform(0.8, 1.3, size=dim)
    raw = rng.uniform(0.5, 1.0, size=n_components)
    return SinhArcsinhMixture(raw / raw.sum(), loc, scale, skew, tail)
