"""Divergence and overlap measures between probability densities.

Densities are duck-typed: anything with ``log_pdf(points)`` over an
(n, d) batch works as a second argument, and the sampled side also needs
``sample(n, seed)``. All estimates carry a Monte Carlo standard error, so
they take at least 2 samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import (
    GaussianComponent,
    UnnormalizedTarget,
    _as_points,
    eval_log_density_batch,
    log_sum_exp,
)
from .exceptions import check_integer
from .mathkit import cholesky_spd

# Log-ratio clamp just below the IEEE double overflow threshold for exp.
_LOG_RATIO_CLAMP = 700.0


@dataclass(frozen=True)
class DivergenceEstimate:
    """A Monte Carlo divergence estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int
    n_support_violations: int = 0


def kl_mc(p, q, n: int, seed: int) -> DivergenceEstimate:
    """Monte Carlo Kullback-Leibler divergence KL(p || q).

    Both densities must be normalized; ``p`` is sampled. Points where
    ``q`` has zero density contribute a clamped log-ratio of 700 and are
    counted as support violations.
    """
    check_integer("n", n, 2)
    points = p.sample(n, seed)
    ratios = np.asarray(p.log_pdf(points)) - np.asarray(q.log_pdf(points))
    violations = int(np.sum(~(ratios <= _LOG_RATIO_CLAMP)))
    ratios = np.where(np.isnan(ratios), _LOG_RATIO_CLAMP,
                      np.minimum(ratios, _LOG_RATIO_CLAMP))
    value = float(np.mean(ratios))
    std_error = float(np.std(ratios, ddof=1) / np.sqrt(n))
    return DivergenceEstimate(value, std_error, n, violations)


def jsd_normalized(p, q, n: int, seed: int) -> DivergenceEstimate:
    """Jensen-Shannon divergence rescaled to [0, 1].

    Estimates ``0.5 KL(p||m) + 0.5 KL(q||m)`` with ``m = (p+q)/2``, each
    term from samples of its own first argument, then divides by log 2.
    The integrands are bounded by log 2, so no clamping is needed.
    """
    check_integer("n", n, 2)
    seeds = np.random.SeedSequence(seed).generate_state(2)
    zp = p.sample(n, int(seeds[0]))
    zq = q.sample(n, int(seeds[1]))

    def terms(points, first, other):
        lf = np.asarray(first.log_pdf(points), dtype=float)
        lo = np.asarray(other.log_pdf(points), dtype=float)
        log_m = np.logaddexp(lf, lo) - math.log(2.0)
        return lf - log_m

    tp = terms(zp, p, q)
    tq = terms(zq, q, p)
    value = 0.5 * (float(np.mean(tp)) + float(np.mean(tq))) / math.log(2.0)
    var = (np.var(tp, ddof=1) + np.var(tq, ddof=1)) / n
    std_error = 0.5 * math.sqrt(var) / math.log(2.0)
    return DivergenceEstimate(value, std_error, n)


def _log_gaussian_at_zero(delta: NDArray, cov: NDArray) -> float:
    """log N(delta; 0, cov) evaluated through a Cholesky factorization."""
    return GaussianComponent(np.zeros_like(delta), cholesky_spd(cov)[0]).log_pdf(delta)


def dice_overlap(p1: GaussianComponent, p2: GaussianComponent) -> float:
    """Closed-form Dice overlap of two Gaussians, in [0, 1].

    Uses the identities  int N1 N2 dx = N(mu1 - mu2; 0, S1 + S2)  and
    int N^2 dx = N(0; 0, 2S); the result is symmetric in its arguments
    and equals 1 exactly when the parameters coincide.
    """
    if p1.dim != p2.dim:
        raise ValueError(f"dimension mismatch: {p1.dim} vs {p2.dim}")
    log_cross = _log_gaussian_at_zero(p1.mean - p2.mean, p1.cov + p2.cov)
    log_self1 = _log_gaussian_at_zero(np.zeros(p1.dim), 2.0 * p1.cov)
    log_self2 = _log_gaussian_at_zero(np.zeros(p2.dim), 2.0 * p2.cov)
    peak = max(log_cross, log_self1, log_self2)
    num = 2.0 * math.exp(log_cross - peak)
    den = math.exp(log_self1 - peak) + math.exp(log_self2 - peak)
    return num / den


class GridDensity2D:
    """A 2-d unnormalized target normalized on a fine rectangular grid.

    The normalizing constant comes from trapezoid quadrature over the
    target's search box, so ``log_pdf`` is exact up to quadrature error.
    Sampling draws a grid cell from the node masses and jitters uniformly
    within it, which is adequate for Monte Carlo divergence estimates at
    fine resolutions.
    """

    def __init__(self, target: UnnormalizedTarget, n_grid: int = 512):
        if target.dim != 2:
            raise ValueError("grid normalization is implemented for d = 2 only")
        self.target = target
        self.n_grid = check_integer("n_grid", n_grid, 2)
        (x_lo, x_hi), (y_lo, y_hi) = target.search_box
        self.x = np.linspace(x_lo, x_hi, n_grid)
        self.y = np.linspace(y_lo, y_hi, n_grid)
        self.dx = self.x[1] - self.x[0]
        self.dy = self.y[1] - self.y[0]
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        log_phi = eval_log_density_batch(target, pts).reshape(n_grid, n_grid)
        wx = np.full(n_grid, 1.0)
        wx[[0, -1]] = 0.5
        wy = wx.copy()
        weighted = log_phi + np.log(wx)[:, None] + np.log(wy)[None, :]
        log_sum, _ = log_sum_exp(weighted.reshape(1, -1))
        self.log_z = float(log_sum[0]) + math.log(self.dx * self.dy)
        self._cell_probs = log_sum_exp(log_phi.reshape(1, -1))[1][0]

    def log_pdf(self, points: NDArray) -> NDArray | float:
        pts, single = _as_points(points, 2)
        out = eval_log_density_batch(self.target, pts) - self.log_z
        return float(out[0]) if single else out

    def sample(self, n: int, seed: int) -> NDArray[np.float64]:
        rng = np.random.default_rng(seed)
        flat = rng.choice(self._cell_probs.size, size=n, p=self._cell_probs)
        ix, iy = np.unravel_index(flat, (self.n_grid, self.n_grid))
        jitter = rng.uniform(-0.5, 0.5, size=(n, 2))
        out = np.column_stack([
            self.x[ix] + jitter[:, 0] * self.dx,
            self.y[iy] + jitter[:, 1] * self.dy,
        ])
        box = self.target.search_box
        return np.clip(out, box[:, 0], box[:, 1])
