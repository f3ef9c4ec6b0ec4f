"""Target densities: unnormalized log-posteriors, Gaussian mixtures, and
sinh-arcsinh synthetic posteriors.

All objects are immutable after construction. Sampling always takes an
explicit seed and owns a private generator per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dtrtri

from .exceptions import DerivativeError, NonFiniteDensityError

_LOG_2PI = math.log(2.0 * math.pi)

# Central-difference steps: cube root of machine epsilon for first
# derivatives, fourth root for second derivatives (truncation/round-off
# balance for twice- and four-times-differentiable integrands).
_GRAD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
_HESS_STEP = float(np.finfo(float).eps) ** 0.25

# A Gaussian mixture's search box reaches this many marginal standard
# deviations past the outermost means.
_BOX_PADDING = 4.0
# Spacing of the component centers of ``random_sinh_arcsinh_mixture``.
_SINH_SEPARATION = 6.0


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
        can reject points without exception handling in hot loops; the
        evaluators raise ``NonFiniteDensityError`` on NaN or ``+inf``.
    search_box : ndarray, shape (dim, 2)
        Per-coordinate [lower, upper] bounds for global search.
    gradient : callable, optional
        Analytic gradient of ``log_phi``; finite differences otherwise.
    hessian : callable, optional
        Analytic Hessian of ``log_phi``; finite differences otherwise.
    log_phi_batch : callable, optional
        Vectorized evaluation mapping an (n, dim) array to an (n,) array;
        used by samplers, grid scans and finite-difference Hessians when present.
    gradient_batch : callable, optional
        Vectorized gradient mapping an (n, dim) array to an (n, dim) array;
        the pathwise VI estimator uses it when present.
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
        if not np.all(box[:, 0] < box[:, 1]):
            raise ValueError("search_box requires lower < upper in every coordinate")
        object.__setattr__(self, "search_box", box)


def eval_log_density(target: UnnormalizedTarget, z: NDArray) -> float:
    """Evaluate ``log_phi`` at a single point, validating the dimension."""
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    value = float(target.log_phi(z))
    if math.isnan(value) or value == math.inf:
        raise NonFiniteDensityError(z)
    return value


def eval_log_density_batch(target: UnnormalizedTarget, points: NDArray) -> NDArray:
    """Evaluate ``log_phi`` on an (n, dim) array of points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != target.dim:
        raise ValueError(f"expected an (n, {target.dim}) array, got {points.shape}")
    if target.log_phi_batch is not None:
        values = np.asarray(target.log_phi_batch(points), dtype=float)
    else:
        values = np.array([target.log_phi(p) for p in points], dtype=float)
    bad = np.isnan(values) | (values == np.inf)
    if bad.any():
        raise NonFiniteDensityError(points[np.argmax(bad)])
    return values


def eval_gradient(target: UnnormalizedTarget, z: NDArray) -> NDArray[np.float64]:
    """Gradient of ``log_phi``, analytic when supplied else central differences.

    Raises
    ------
    DerivativeError
        If a stencil point has ``log_phi = -inf``; ``.point`` is that point.
    NonFiniteDensityError
        If a stencil point evaluates to NaN or ``+inf``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    if target.gradient is not None:
        return np.asarray(target.gradient(z), dtype=float)
    grad = np.empty(target.dim)
    for i in range(target.dim):
        h = _GRAD_STEP * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fp, fm = eval_log_density(target, zp), eval_log_density(target, zm)
        if fp == -math.inf or fm == -math.inf:
            bad = zp if fp == -math.inf else zm
            raise DerivativeError(
                f"non-finite log-density in gradient stencil at {bad}", point=bad
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def eval_gradient_batch(target: UnnormalizedTarget, points: NDArray) -> NDArray:
    """Gradient of ``log_phi`` on an (n, dim) array of points, shape (n, dim).

    Uses ``gradient_batch`` when the target has one, else
    :func:`eval_gradient` row by row, with its errors.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != target.dim:
        raise ValueError(f"expected an (n, {target.dim}) array, got {points.shape}")
    if target.gradient_batch is not None:
        return np.asarray(target.gradient_batch(points), dtype=float)
    return np.array([eval_gradient(target, p) for p in points]).reshape(points.shape)


def eval_hessian(target: UnnormalizedTarget, z: NDArray) -> NDArray[np.float64]:
    """Hessian of ``-log_phi`` (note the sign), symmetrized.

    Analytic when the target carries a Hessian of ``log_phi``; otherwise
    central second differences of ``log_phi`` over a stencil of
    ``1 + 2d + 2d(d-1)`` points evaluated in one batched call. A stencil
    point at ``-inf`` raises ``DerivativeError`` carrying that point; NaN
    or ``+inf`` raises ``NonFiniteDensityError``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    if target.hessian is not None:
        h_log = np.asarray(target.hessian(z), dtype=float)
        neg = -h_log
        return 0.5 * (neg + neg.T)

    d = target.dim
    steps = _HESS_STEP * np.maximum(1.0, np.abs(z))
    axis = np.diag(steps)
    rows, cols = np.triu_indices(d, 1)
    up, across = axis[rows], axis[cols]
    # centre, the 2d axis points, then the four corner blocks of each i < j
    stencil = np.vstack([z, z + axis, z - axis, z + up + across, z + up - across,
                         z - up + across, z - up - across])
    values = eval_log_density_batch(target, stencil)
    minus_inf = np.isneginf(values)
    if minus_inf.any():
        bad = stencil[np.argmax(minus_inf)]
        raise DerivativeError(
            f"non-finite log-density in Hessian stencil at {bad}", point=bad
        )
    f0, fp, fm = values[0], values[1:d + 1], values[d + 1:2 * d + 1]
    fpp, fpm, fmp, fmm = values[2 * d + 1:].reshape(4, -1)
    hess = np.diag((fp - 2.0 * f0 + fm) / steps ** 2)
    off = (fpp - fpm - fmp + fmm) / (4.0 * steps[rows] * steps[cols])
    hess[rows, cols] = off
    hess[cols, rows] = off
    neg = -hess
    return 0.5 * (neg + neg.T)


def gaussian_log_pdfs(means: NDArray, chol_invs: NDArray, pts: NDArray):
    """Log-densities of K Gaussians at n points, and the whitened residuals.

    ``means`` is (K, d), ``chol_invs`` the (K, d, d) inverses of the lower
    Cholesky factors of the covariances (each component caches its own at
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
    """Inverse of a lower-triangular factor with a positive diagonal."""
    inverse, info = dtrtri(chol, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular Cholesky factor (LAPACK info {info})")
    return inverse


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
    ``exp(s - max) / sum(exp(s - max))``, shape (n, K)."""
    peak = stacked.max(axis=1, keepdims=True)
    scaled = np.exp(stacked - peak)
    total = scaled.sum(axis=1, keepdims=True)
    return (peak + np.log(total))[:, 0], scaled / total


@dataclass(frozen=True)
class GaussianComponent:
    """A Gaussian density stored as mean plus lower Cholesky factor.

    The factor's inverse is computed once, at construction, and every
    evaluation whitens with a matmul by it.

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
        d = mean.shape[0]
        if mean.ndim != 1 or chol.shape != (d, d):
            raise ValueError(f"inconsistent shapes: mean {mean.shape}, chol {chol.shape}")
        if np.any(np.triu(chol, 1) != 0.0):
            raise ValueError("chol_cov must be lower triangular")
        if np.any(np.diag(chol) <= 0.0):
            raise ValueError("chol_cov requires a strictly positive diagonal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "chol_cov", chol)
        object.__setattr__(self, "_chol_inv", _inverse_lower(chol))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> NDArray[np.float64]:
        return self.chol_cov @ self.chol_cov.T

    def log_pdf(self, points: NDArray) -> NDArray | float:
        """Gaussian log-density at one point (d,) or a batch (n, d)."""
        pts, single = _as_points(points, self.dim)
        log_n, _ = gaussian_log_pdfs(self.mean[np.newaxis], self._chol_inv[np.newaxis], pts)
        return float(log_n[0, 0]) if single else log_n[:, 0]

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        rng = np.random.default_rng(seed)
        eps = rng.standard_normal((n, self.dim))
        return self.mean + eps @ self.chol_cov.T


@dataclass(frozen=True)
class MixtureModel:
    """A weighted list of Gaussian components; the pipeline's central artifact."""

    components: tuple[GaussianComponent, ...]
    weights: NDArray[np.float64]

    def __post_init__(self):
        comps = tuple(self.components)
        weights = np.asarray(self.weights, dtype=float)
        if len(comps) < 1:
            raise ValueError("a mixture requires at least one component")
        if weights.shape != (len(comps),):
            raise ValueError(
                f"{len(comps)} components but {weights.shape} weights"
            )
        if np.any(weights < 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {np.sum(weights)!r}")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError(f"components have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)
        # the positive-weight components, stacked once for the kernels
        active = [c for c, w in zip(comps, weights) if w > 0.0]
        object.__setattr__(self, "_means", np.array([c.mean for c in active]))
        object.__setattr__(self, "_chol_invs", np.array([c._chol_inv for c in active]))
        object.__setattr__(self, "_log_weights", np.log(weights[weights > 0.0]))

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    def log_pdf(self, points: NDArray) -> NDArray | float:
        return mixture_log_pdf(self, points)

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        return mixture_sample(self, n, seed)

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
            log_phi=lambda z: float(mixture_log_pdf(self, z)),
            search_box=np.column_stack([lo, hi]),
            gradient=lambda z: mixture_log_pdf_gradient(self, z),
            hessian=lambda z: mixture_log_pdf_hessian(self, z),
            log_phi_batch=lambda pts: mixture_log_pdf(self, pts),
            gradient_batch=lambda pts: mixture_log_pdf_gradient(self, pts),
        )


def mixture_log_pdf(m: MixtureModel, z: NDArray) -> NDArray | float:
    """Log-density of the mixture via a log-sum-exp over the components.

    Components with zero weight were dropped at construction, so they
    contribute nothing rather than a NaN. Stable far into the tails: the
    result stays finite 40 sigma and beyond from every mean.
    """
    pts, single = _as_points(z, m.dim)
    log_n, _ = gaussian_log_pdfs(m._means, m._chol_invs, pts)
    out, _ = log_sum_exp(log_n + m._log_weights)
    return float(out[0]) if single else out


def mixture_log_pdf_gradient(m: MixtureModel, z: NDArray) -> NDArray[np.float64]:
    """Analytic gradient of the mixture log-density at one point (d,) or a
    batch (n, d): the responsibility-weighted score vectors."""
    pts, single = _as_points(z, m.dim)
    resp, scores = _responsibilities_and_grads(m, pts)
    # one (d, K) @ (K,) product per point, the same BLAS call for n = 1
    grads = (scores.transpose(0, 2, 1) @ resp[:, :, np.newaxis])[:, :, 0]
    return grads[0] if single else grads


def mixture_log_pdf_hessian(m: MixtureModel, z: NDArray) -> NDArray[np.float64]:
    """Analytic Hessian of the mixture log-density at a single point."""
    pts, _ = _as_points(z, m.dim)
    resp, grads = _responsibilities_and_grads(m, pts)
    resp, grads = resp[0], grads[0]
    precisions = m._chol_invs.transpose(0, 2, 1) @ m._chol_invs
    mean_grad = grads.T @ resp
    total = (grads.T * resp) @ grads - np.einsum("k,kij->ij", resp, precisions)
    return total - np.outer(mean_grad, mean_grad)


def _responsibilities_and_grads(m: MixtureModel, pts: NDArray):
    """Posterior component responsibilities at (n, d) points, shape (n, K),
    and the per-component score vectors ``-L_k^-T L_k^-1 (z - mu_k)``,
    shape (n, K, d)."""
    log_n, whitened = gaussian_log_pdfs(m._means, m._chol_invs, pts)
    _, resp = log_sum_exp(log_n + m._log_weights)
    scores = -(m._chol_invs.transpose(0, 2, 1) @ whitened)
    return resp, scores.transpose(2, 0, 1)


def mixture_sample(m: MixtureModel, n: int, seed: int) -> NDArray[np.float64]:
    """Ancestral sampling: categorical on the weights, then Gaussian draws."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    ks = rng.choice(m.n_components, size=n, p=m.weights)
    eps = rng.standard_normal((n, m.dim))
    out = np.empty((n, m.dim))
    for k in range(m.n_components):
        mask = ks == k
        if np.any(mask):
            comp = m.components[k]
            out[mask] = comp.mean + eps[mask] @ comp.chol_cov.T
    return out


def mixture_to_dict(m: MixtureModel) -> dict:
    """Serialize to the interchange schema.

    The Cholesky factor is packed as the lower triangle in row-major
    order, diagonal included: [L00, L10, L11, L20, L21, L22, ...].
    """
    comps = []
    for c in m.components:
        d = c.dim
        packed = [c.chol_cov[i, j] for i in range(d) for j in range(i + 1)]
        comps.append({"mean": list(c.mean), "chol_cov_rowmajor_lower": packed})
    return {"dim": m.dim, "weights": list(m.weights), "components": comps}


def mixture_from_dict(doc: dict) -> MixtureModel:
    """Inverse of :func:`mixture_to_dict`."""
    d = int(doc["dim"])
    comps = []
    for entry in doc["components"]:
        packed = entry["chol_cov_rowmajor_lower"]
        if len(packed) != d * (d + 1) // 2:
            raise ValueError(
                f"packed Cholesky length {len(packed)} does not match dim {d}"
            )
        chol = np.zeros((d, d))
        pos = 0
        for i in range(d):
            for j in range(i + 1):
                chol[i, j] = packed[pos]
                pos += 1
        comps.append(GaussianComponent(np.asarray(entry["mean"], float), chol))
    return MixtureModel(tuple(comps), np.asarray(doc["weights"], float))


@dataclass(frozen=True)
class SinhArcsinhSpec:
    """Per-coordinate parameters of one factorized sinh-arcsinh component.

    A standard normal Z maps to Y = loc + scale * sinh((arcsinh(Z) + skew)
    * tailweight) coordinate by coordinate (the Jones-Pewsey transform).
    skew = 0 and tailweight = 1 reduce each coordinate to a location-scale
    Gaussian.
    """

    loc: NDArray[np.float64]
    scale: NDArray[np.float64]
    skew: NDArray[np.float64]
    tailweight: NDArray[np.float64]

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.loc, dtype=float))
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        skew = np.atleast_1d(np.asarray(self.skew, dtype=float))
        tail = np.atleast_1d(np.asarray(self.tailweight, dtype=float))
        d = loc.shape[0]
        for name, arr in (("scale", scale), ("skew", skew), ("tailweight", tail)):
            if arr.shape != (d,):
                raise ValueError(f"{name} must have shape ({d},), got {arr.shape}")
        if np.any(scale <= 0.0):
            raise ValueError("scale must be strictly positive")
        if np.any(tail <= 0.0):
            raise ValueError("tailweight must be strictly positive")
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "skew", skew)
        object.__setattr__(self, "tailweight", tail)

    @property
    def dim(self) -> int:
        return self.loc.shape[0]


class SinhArcsinhMixture:
    """Mixture of factorized sinh-arcsinh components with exact sampling.

    Each component is a product of independent 1-d sinh-arcsinh densities,
    so both the log-density and its gradient are available in closed form
    and samples are exact transforms of standard normal draws.
    """

    def __init__(self, specs: list[SinhArcsinhSpec], weights: NDArray):
        if len(specs) < 1:
            raise ValueError("need at least one component spec")
        dims = {s.dim for s in specs}
        if len(dims) != 1:
            raise ValueError(f"specs have mixed dimensions {sorted(dims)}")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(specs),):
            raise ValueError(f"{len(specs)} specs but {weights.shape} weights")
        if np.any(weights < 0.0) or abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValueError("weights must be a simplex vector")
        self.dim = specs[0].dim
        self.weights = weights
        self.loc = np.array([s.loc for s in specs])          # (K, d)
        self.scale = np.array([s.scale for s in specs])
        self.skew = np.array([s.skew for s in specs])
        self.tail = np.array([s.tailweight for s in specs])

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def _coordinate_terms(self, pts: NDArray):
        """Per-coordinate x, u, z arrays of shape (n, K, d)."""
        x = (pts[:, np.newaxis, :] - self.loc) / self.scale
        u = np.arcsinh(x) / self.tail - self.skew
        z = np.sinh(u)
        return x, u, z

    def _component_log_pdfs(self, pts: NDArray) -> NDArray:
        """Summed per-coordinate log densities, shape (n, K)."""
        x, u, z = self._coordinate_terms(pts)
        logp = (
            -0.5 * (_LOG_2PI + z * z)
            + np.log(np.cosh(u))
            - np.log(self.tail)
            - 0.5 * np.log1p(x * x)
            - np.log(self.scale)
        )
        return np.sum(logp, axis=2)

    def log_pdf(self, points: NDArray) -> NDArray | float:
        pts, single = _as_points(points, self.dim)
        out, _ = log_sum_exp(self._component_log_pdfs(pts) + np.log(self.weights))
        return float(out[0]) if single else out

    def gradient(self, points: NDArray) -> NDArray[np.float64]:
        """Gradient of the log-density at one point (d,) or a batch (n, d)."""
        pts, single = _as_points(points, self.dim)
        x, u, zz = self._coordinate_terms(pts)
        _, resp = log_sum_exp(self._component_log_pdfs(pts) + np.log(self.weights))
        w = 1.0 / (self.tail * self.scale * np.sqrt(1.0 + x * x))
        dlogp = w * (np.tanh(u) - zz * np.cosh(u)) - x / (self.scale * (1.0 + x * x))
        grads = np.einsum("nk,nkd->nd", resp, dlogp)
        return grads[0] if single else grads

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        rng = np.random.default_rng(seed)
        ks = rng.choice(self.n_components, size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        loc, scale = self.loc[ks], self.scale[ks]
        skew, tail = self.skew[ks], self.tail[ks]
        return loc + scale * np.sinh((np.arcsinh(eps) + skew) * tail)

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
            log_phi=lambda z: float(self.log_pdf(z)),
            search_box=self.default_search_box(),
            gradient=self.gradient,
            log_phi_batch=self.log_pdf,
            gradient_batch=self.gradient,
        )


def make_sinh_arcsinh_mixture(specs: list[SinhArcsinhSpec],
                              weights: NDArray) -> UnnormalizedTarget:
    """Build an unnormalized target from factorized sinh-arcsinh components.

    The returned target's ``log_phi`` is the exact (normalized) mixture
    log-density with an analytic gradient assembled per coordinate by the
    chain rule.
    """
    return SinhArcsinhMixture(specs, weights).as_target()


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
    specs = []
    for k in range(n_components):
        loc = offsets[k] * direction + rng.uniform(-0.5, 0.5, size=dim)
        scale = rng.uniform(0.6, 1.4, size=dim)
        skew = rng.uniform(-1.0, 1.0, size=dim)
        tail = rng.uniform(0.8, 1.3, size=dim)
        specs.append(SinhArcsinhSpec(loc, scale, skew, tail))
    raw = rng.uniform(0.5, 1.0, size=n_components)
    return SinhArcsinhMixture(specs, raw / raw.sum())
