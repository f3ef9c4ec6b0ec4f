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
from scipy.linalg import solve_triangular

from .exceptions import DerivativeError, NonFiniteDensityError

_LOG_2PI = math.log(2.0 * math.pi)

# Central-difference steps: cube root of machine epsilon for first
# derivatives, fourth root for second derivatives (truncation/round-off
# balance for twice- and four-times-differentiable integrands).
_GRAD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
_HESS_STEP = float(np.finfo(float).eps) ** 0.25


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
        used by samplers and grid scans when present.
    """

    dim: int
    log_phi: Callable[[NDArray], float]
    search_box: NDArray[np.float64]
    gradient: Optional[Callable[[NDArray], NDArray]] = None
    hessian: Optional[Callable[[NDArray], NDArray]] = None
    log_phi_batch: Optional[Callable[[NDArray], NDArray]] = None

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
        If any stencil point evaluates to a non-finite log-density.
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
        fp, fm = target.log_phi(zp), target.log_phi(zm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            bad = zp if not np.isfinite(fp) else zm
            raise DerivativeError(
                f"non-finite log-density in gradient stencil at {bad}", point=bad
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def eval_hessian(target: UnnormalizedTarget, z: NDArray) -> NDArray[np.float64]:
    """Hessian of ``-log_phi`` (note the sign), symmetrized.

    Analytic when the target carries a Hessian of ``log_phi``; otherwise
    central second differences of ``log_phi``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (target.dim,):
        raise ValueError(f"expected a length-{target.dim} vector, got shape {z.shape}")
    if target.hessian is not None:
        h_log = np.asarray(target.hessian(z), dtype=float)
        neg = -h_log
        return 0.5 * (neg + neg.T)

    d = target.dim
    steps = np.array([_HESS_STEP * max(1.0, abs(z[i])) for i in range(d)])

    def f(point):
        val = target.log_phi(point)
        if not np.isfinite(val):
            raise DerivativeError(
                f"non-finite log-density in Hessian stencil at {point}", point=point
            )
        return val

    f0 = f(z)
    hess = np.empty((d, d))
    for i in range(d):
        zp, zm = z.copy(), z.copy()
        zp[i] += steps[i]
        zm[i] -= steps[i]
        hess[i, i] = (f(zp) - 2.0 * f0 + f(zm)) / steps[i] ** 2
        for j in range(i + 1, d):
            zpp, zpm, zmp, zmm = z.copy(), z.copy(), z.copy(), z.copy()
            zpp[[i, j]] += [steps[i], steps[j]]
            zpm[i] += steps[i]
            zpm[j] -= steps[j]
            zmp[i] -= steps[i]
            zmp[j] += steps[j]
            zmm[[i, j]] -= [steps[i], steps[j]]
            val = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (4.0 * steps[i] * steps[j])
            hess[i, j] = val
            hess[j, i] = val
    neg = -hess
    return 0.5 * (neg + neg.T)


def gaussian_log_pdfs(means: NDArray, chols: NDArray, pts: NDArray):
    """Log-densities of K Gaussians at n points, and the whitened residuals.

    ``means`` is (K, d), ``chols`` the (K, d, d) lower Cholesky factors of
    the covariances and ``pts`` (n, d). Returns the (n, K) log-densities
    and the (K, d, n) residuals ``L_k^-1 (z - mu_k)``.
    """
    k, d = means.shape
    log_n = np.empty((pts.shape[0], k))
    whitened = np.empty((k, d, pts.shape[0]))
    for i in range(k):
        y = solve_triangular(chols[i], (pts - means[i]).T, lower=True)
        whitened[i] = y
        log_det = np.sum(np.log(np.diag(chols[i])))
        log_n[:, i] = -0.5 * (d * _LOG_2PI + np.sum(y * y, axis=0)) - log_det
    return log_n, whitened


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

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> NDArray[np.float64]:
        return self.chol_cov @ self.chol_cov.T

    def log_pdf(self, points: NDArray) -> NDArray | float:
        """Gaussian log-density at one point (d,) or a batch (n, d)."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = points[np.newaxis] if single else points
        log_n, _ = gaussian_log_pdfs(self.mean[np.newaxis], self.chol_cov[np.newaxis], pts)
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
        object.__setattr__(self, "_chols", np.array([c.chol_cov for c in active]))
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

    def as_target(self, search_box: NDArray | None = None,
                  padding: float = 4.0) -> UnnormalizedTarget:
        """Wrap this mixture as an UnnormalizedTarget with analytic derivatives.

        The default search box is the bounding box of the component means
        padded by ``padding`` marginal standard deviations per coordinate.
        """
        if search_box is None:
            means = np.array([c.mean for c in self.components])
            sigmas = np.array([np.sqrt(np.diag(c.cov)) for c in self.components])
            lo = np.min(means - padding * sigmas, axis=0)
            hi = np.max(means + padding * sigmas, axis=0)
            search_box = np.column_stack([lo, hi])
        return UnnormalizedTarget(
            dim=self.dim,
            log_phi=lambda z: float(mixture_log_pdf(self, z)),
            search_box=np.asarray(search_box, dtype=float),
            gradient=lambda z: mixture_log_pdf_gradient(self, z),
            hessian=lambda z: mixture_log_pdf_hessian(self, z),
            log_phi_batch=lambda pts: mixture_log_pdf(self, pts),
        )


def mixture_log_pdf(m: MixtureModel, z: NDArray) -> NDArray | float:
    """Log-density of the mixture via a log-sum-exp over the components.

    Components with zero weight were dropped at construction, so they
    contribute nothing rather than a NaN. Stable far into the tails: the
    result stays finite 40 sigma and beyond from every mean.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = z[np.newaxis] if single else z
    if pts.shape[1] != m.dim:
        raise ValueError(f"expected points of dimension {m.dim}, got {pts.shape[1]}")
    log_n, _ = gaussian_log_pdfs(m._means, m._chols, pts)
    out, _ = log_sum_exp(log_n + m._log_weights)
    return float(out[0]) if single else out


def mixture_log_pdf_gradient(m: MixtureModel, z: NDArray) -> NDArray[np.float64]:
    """Analytic gradient of the mixture log-density at a single point."""
    z = np.asarray(z, dtype=float)
    resp, grads = _responsibilities_and_grads(m, z)
    return grads.T @ resp


def mixture_log_pdf_hessian(m: MixtureModel, z: NDArray) -> NDArray[np.float64]:
    """Analytic Hessian of the mixture log-density at a single point."""
    z = np.asarray(z, dtype=float)
    resp, grads = _responsibilities_and_grads(m, z)
    d = m.dim
    eye = np.eye(d)
    total = np.zeros((d, d))
    mean_grad = grads.T @ resp
    for r, chol, g in zip(resp, m._chols, grads):
        prec = solve_triangular(chol.T, solve_triangular(chol, eye, lower=True),
                                lower=False)
        total += r * (-prec + np.outer(g, g))
    return total - np.outer(mean_grad, mean_grad)


def _responsibilities_and_grads(m: MixtureModel, z: NDArray):
    """Posterior component responsibilities and per-component score vectors."""
    log_n, whitened = gaussian_log_pdfs(m._means, m._chols, z[np.newaxis])
    _, resp = log_sum_exp(log_n + m._log_weights)
    grads = np.array([-solve_triangular(chol.T, y[:, 0], lower=False)
                      for chol, y in zip(m._chols, whitened)])
    return resp[0], grads


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
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = points[np.newaxis] if single else points
        out, _ = log_sum_exp(self._component_log_pdfs(pts) + np.log(self.weights))
        return float(out[0]) if single else out

    def gradient(self, z: NDArray) -> NDArray[np.float64]:
        z = np.asarray(z, dtype=float)
        pts = z[np.newaxis]
        x, u, zz = self._coordinate_terms(pts)
        _, resp = log_sum_exp(self._component_log_pdfs(pts) + np.log(self.weights))
        w = 1.0 / (self.tail * self.scale * np.sqrt(1.0 + x * x))
        dlogp = w * (np.tanh(u) - zz * np.cosh(u)) - x / (self.scale * (1.0 + x * x))
        return np.einsum("nk,nkd->nd", resp, dlogp)[0]

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

    def as_target(self, search_box: NDArray | None = None) -> UnnormalizedTarget:
        if search_box is None:
            search_box = self.default_search_box()
        return UnnormalizedTarget(
            dim=self.dim,
            log_phi=lambda z: float(self.log_pdf(z)),
            search_box=np.asarray(search_box, dtype=float),
            gradient=self.gradient,
            log_phi_batch=self.log_pdf,
        )


def make_sinh_arcsinh_mixture(specs: list[SinhArcsinhSpec], weights: NDArray,
                              search_box: NDArray | None = None) -> UnnormalizedTarget:
    """Build an unnormalized target from factorized sinh-arcsinh components.

    The returned target's ``log_phi`` is the exact (normalized) mixture
    log-density with an analytic gradient assembled per coordinate by the
    chain rule.
    """
    return SinhArcsinhMixture(specs, weights).as_target(search_box)


def random_sinh_arcsinh_mixture(dim: int, n_components: int, seed: int,
                                separation: float = 6.0) -> SinhArcsinhMixture:
    """A reproducible non-Gaussian multimodal test density.

    Component centers jitter around points ``separation`` apart along a
    random direction; scales, skews, and tailweights draw from moderate
    ranges so every coordinate stays unimodal within its component.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    offsets = (np.arange(n_components) - (n_components - 1) / 2.0) * separation
    specs = []
    for k in range(n_components):
        loc = offsets[k] * direction + rng.uniform(-0.5, 0.5, size=dim)
        scale = rng.uniform(0.6, 1.4, size=dim)
        skew = rng.uniform(-1.0, 1.0, size=dim)
        tail = rng.uniform(0.8, 1.3, size=dim)
        specs.append(SinhArcsinhSpec(loc, scale, skew, tail))
    raw = rng.uniform(0.5, 1.0, size=n_components)
    return SinhArcsinhMixture(specs, raw / raw.sum())
