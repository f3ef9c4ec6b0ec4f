"""Gaussian-mixture posterior construction by global optimization and
local Laplace approximations.

The pipeline minimizes ``-log phi`` from many Sobol-distributed starts,
keeps the distinct converged minima (greedy Mahalanobis test), builds a
local Gaussian at each survivor from the regularized Hessian, fits the
component weights by nonnegative least squares against ``phi``, and
normalizes. The sum of the unnormalized weights is an estimate of the
normalizing constant of ``phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .density import (
    GaussianComponent,
    MixtureModel,
    UnnormalizedTarget,
    _inverse_lower,
    eval_gradient,
    eval_hessian,
    eval_log_density,
    eval_log_density_batch,
    gaussian_log_pdfs,
    mixture_sample,
    mixture_to_dict,
)
from .exceptions import (
    DegenerateModeError,
    DerivativeError,
    NoModesFoundError,
    RejectedStartError,
    SingularMatrixError,
    WeightUnderflowError,
)
from .mathkit import chi_square_survival, cholesky_spd, nnls, sobol_points

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_MAX_LOCAL_ITERS = 500
# A candidate is a duplicate when its chi-square survival under an
# accepted component is at least this.
_DEDUP_THRESHOLD = 0.01
# Points drawn per component for the weight fit.
_WEIGHT_SAMPLES_PER_COMPONENT = 1024


@dataclass(frozen=True)
class GolaConfig:
    """Tuning knobs for the pipeline.

    ``n_starts`` defaults to ``32 * dim`` when left as None. The weight fit
    always draws ``1024 * K`` points for K components.
    """

    n_starts: Optional[int] = None
    gradient_tol: float = 1e-8
    master_seed: int = 0

    def __post_init__(self):
        if self.n_starts is not None and self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.gradient_tol <= 0.0:
            raise ValueError("gradient_tol must be positive")


@dataclass(frozen=True)
class LocalMinimum:
    """One converged (or abandoned) local search."""

    location: NDArray[np.float64]
    objective: float
    gradient_norm: float
    converged: bool
    start_index: int


@dataclass(frozen=True)
class DedupDecision:
    """Outcome of the distinctness test for one candidate minimum.

    ``survival`` is the largest chi-square survival probability of the
    squared Mahalanobis distance to any already-accepted component; the
    candidate is a duplicate when it is this typical under some existing
    component, i.e. when survival >= 0.01. ``note`` records why a
    candidate was turned away ("duplicate" or "saddle").
    """

    candidate_index: int
    survival: float
    accepted: bool
    note: str = ""


@dataclass(frozen=True)
class GolaReport:
    """Fitted mixture plus evidence estimate and per-stage diagnostics."""

    mixture: MixtureModel
    evidence: float
    raw_minima: tuple[LocalMinimum, ...]
    dedup_log: tuple[DedupDecision, ...]
    weight_residual: float

    def to_dict(self) -> dict:
        return {
            "mixture": mixture_to_dict(self.mixture),
            "evidence": self.evidence,
            "weight_residual": self.weight_residual,
            "dedup_rule": "duplicate when chi-square survival of squared "
                          f"Mahalanobis distance >= {_DEDUP_THRESHOLD}",
            "dedup_log": [
                {"candidate": d.candidate_index, "survival": d.survival,
                 "accepted": d.accepted, "note": d.note}
                for d in self.dedup_log
            ],
            "raw_minima": [
                {"location": list(m.location), "objective": m.objective,
                 "gradient_norm": m.gradient_norm, "converged": m.converged,
                 "start_index": m.start_index}
                for m in self.raw_minima
            ],
        }


def _projected_gradient_norm(z, grad, lo, hi):
    """Norm of the box-projected gradient step; zero exactly at a KKT point."""
    return float(np.linalg.norm(z - np.clip(z - grad, lo, hi)))


def local_minimize(target: UnnormalizedTarget, start: NDArray,
                   cfg: GolaConfig, start_index: int = 0) -> LocalMinimum:
    """Descend ``-log phi`` from one start with a backtracking line search.

    Iterates stay clamped to the search box and the objective never
    increases across accepted steps. Steps go along the negative gradient,
    with trial step sizes from a safeguarded Barzilai-Borwein estimate.

    Raises
    ------
    RejectedStartError
        If the density is zero (log_phi = -inf) at the start point.
    """
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]
    z = np.clip(np.asarray(start, dtype=float), lo, hi)
    f = -eval_log_density(target, z)
    if not np.isfinite(f):
        raise RejectedStartError(f"zero density at start point {z}")
    grad = -eval_gradient(target, z)

    step = 1.0
    for _ in range(_MAX_LOCAL_ITERS):
        pg_norm = _projected_gradient_norm(z, grad, lo, hi)
        if pg_norm <= cfg.gradient_tol:
            return LocalMinimum(z, f, pg_norm, True, start_index)

        alpha = step
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            z_new = np.clip(z - alpha * grad, lo, hi)
            decrease = float(grad @ (z - z_new))
            if decrease <= 0.0:
                alpha *= _BACKTRACK
                continue
            f_new = -eval_log_density(target, z_new)
            if np.isfinite(f_new) and f_new <= f - _ARMIJO_C1 * decrease:
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            # Line search stalled: report the point with its current status.
            return LocalMinimum(z, f, pg_norm, pg_norm <= cfg.gradient_tol,
                                start_index)

        grad_new = -eval_gradient(target, z_new)
        s = z_new - z
        y = grad_new - grad
        # Barzilai-Borwein trial step for the next iteration.
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-16 else min(1.0, 2.0 * alpha)
        step = float(np.clip(step, 1e-12, 1e6))
        z, f, grad = z_new, f_new, grad_new

    pg_norm = _projected_gradient_norm(z, grad, lo, hi)
    return LocalMinimum(z, f, pg_norm, pg_norm <= cfg.gradient_tol, start_index)


def multistart_minimize(target: UnnormalizedTarget,
                        cfg: GolaConfig) -> list[LocalMinimum]:
    """Run local searches from Sobol points spread over the search box.

    Returns the converged minima sorted by objective (ties broken
    lexicographically by location), which makes the result independent of
    the order of the starts. Starts that land on zero density or break the
    derivative stencils are skipped.
    """
    n_starts = cfg.n_starts if cfg.n_starts is not None else 32 * target.dim
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]
    starts = lo + sobol_points(target.dim, n_starts) * (hi - lo)

    def attempt(idx, start):
        try:
            return local_minimize(target, start, cfg, start_index=idx)
        except (RejectedStartError, DerivativeError):
            return None

    results = [attempt(idx, start) for idx, start in enumerate(starts)]

    converged = [r for r in results if r is not None and r.converged]
    if not converged:
        raise NoModesFoundError(
            f"no converged minima from {n_starts} starts; "
            "widen the search box or add starts (gola.n_starts)"
        )
    converged.sort(key=lambda m: (m.objective, tuple(m.location)))
    return converged


def _component_from_hessian(mode: NDArray, hess: NDArray) -> GaussianComponent:
    """Covariance = inverse of the (regularized) Hessian, as L^-T L^-1."""
    try:
        spd = cholesky_spd(hess)
    except SingularMatrixError as exc:
        raise DegenerateModeError(
            f"singular Hessian at mode {mode}", mode=mode
        ) from exc
    inv = _inverse_lower(spd.chol)
    sigma = inv.T @ inv
    sigma = 0.5 * (sigma + sigma.T)
    try:
        chol_sigma = cholesky_spd(sigma)
    except SingularMatrixError as exc:
        raise DegenerateModeError(
            f"non-positive covariance at mode {mode}", mode=mode
        ) from exc
    return GaussianComponent(mean=mode, chol_cov=chol_sigma.chol)


def laplace_at_mode(target: UnnormalizedTarget,
                    mode: NDArray) -> GaussianComponent:
    """Local Gaussian at a mode: covariance = inverse Hessian of -log phi.

    The caller must supply a converged local minimum; the Hessian is
    regularized through the jitter ladder and inverted through the inverse
    of its Cholesky factor, never a general matrix inverse.

    Raises
    ------
    DegenerateModeError
        If the Hessian cannot be regularized into an SPD matrix.
    """
    mode = np.asarray(mode, dtype=float)
    return _component_from_hessian(mode, eval_hessian(target, mode))


def _is_indefinite(hess: NDArray) -> bool:
    """Negative curvature beyond rounding noise marks a saddle, not a mode."""
    eigenvalues = np.linalg.eigvalsh(hess)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    return float(eigenvalues[0]) < -1e-8 * scale


def dedup_modes(candidates: list[LocalMinimum], target: UnnormalizedTarget,
                ) -> tuple[list[GaussianComponent], list[DedupDecision]]:
    """Reduce candidate minima to distinct modes by a greedy Mahalanobis test.

    Candidates must arrive sorted by objective ascending so the deepest
    modes anchor the accepted set. Each candidate is whitened against all
    accepted components at once, and its smallest squared Mahalanobis
    distance is referred to a chi-square with ``dim`` degrees of freedom; a
    candidate typical under the nearest component (survival >= 0.01)
    is a duplicate, and one improbably far from all of them is a new mode.

    Descent can legitimately stop on a saddle (any stationary start point
    converges in place), so distinct candidates whose Hessian shows
    negative curvature are turned away and logged rather than forwarded to
    the Laplace stage, whose contract requires a true minimum.
    """
    accepted: list[GaussianComponent] = []
    decisions: list[DedupDecision] = []
    for idx, cand in enumerate(candidates):
        survival = 0.0
        if accepted:
            _, whitened = gaussian_log_pdfs(
                np.array([c.mean for c in accepted]),
                np.array([c._chol_inv for c in accepted]),
                cand.location[np.newaxis])
            nearest = float((whitened * whitened).sum(axis=1).min())
            survival = chi_square_survival(nearest, target.dim)
        if survival >= _DEDUP_THRESHOLD:
            decisions.append(DedupDecision(idx, survival, False, "duplicate"))
            continue
        hess = eval_hessian(target, cand.location)
        if _is_indefinite(hess):
            decisions.append(DedupDecision(idx, survival, False, "saddle"))
            continue
        accepted.append(_component_from_hessian(cand.location, hess))
        decisions.append(DedupDecision(idx, survival, True))
    return accepted, decisions


def solve_weights(target: UnnormalizedTarget,
                  components: list[GaussianComponent], n: int,
                  seed: int) -> tuple[NDArray[np.float64], float]:
    """Fit unnormalized component weights by nonnegative least squares.

    Draws ``n`` points from the equal-weight mixture over the components,
    evaluates ``phi`` there (shifted by its maximum log value so sharply
    peaked posteriors cannot underflow; the shift is undone on the returned
    weights), and solves ``min ||phi - M w||^2, w >= 0`` against the matrix
    of component densities.

    Returns
    -------
    pi_tilde : ndarray, shape (K,)
        Unnormalized weights; their sum estimates the integral of phi.
    rms_residual : float
        Root-mean-square fit residual, in units of max(phi) = 1.
    """
    k = len(components)
    if k < 1:
        raise ValueError("need at least one component")
    if n < k:
        raise ValueError(f"need at least K={k} samples, got {n}")
    sampler = MixtureModel(tuple(components), np.full(k, 1.0 / k))
    points = mixture_sample(sampler, n, seed)
    log_phi = eval_log_density_batch(target, points)
    offset = float(np.max(log_phi))
    if not np.isfinite(offset):
        raise WeightUnderflowError(
            "phi evaluated to zero at every sampled point; the components "
            "do not cover the target's support (log-offset recalibration "
            "would not help)"
        )
    y = np.exp(log_phi - offset)
    design = np.exp(gaussian_log_pdfs(sampler._means, sampler._chol_invs, points)[0])
    x, rnorm = nnls(design, y)
    pi_tilde = np.where(x > 0.0, np.exp(np.log(np.where(x > 0.0, x, 1.0)) + offset), 0.0)
    return pi_tilde, rnorm / np.sqrt(n)


def run_gola(target: UnnormalizedTarget, cfg: GolaConfig) -> GolaReport:
    """Run the full pipeline and assemble the report.

    Components whose normalized weight is tiny (below 1e-12) are retained
    rather than pruned, so the report reflects every distinct mode found.
    """
    minima = multistart_minimize(target, cfg)
    components, decisions = dedup_modes(minima, target)
    n_weight = _WEIGHT_SAMPLES_PER_COMPONENT * len(components)
    seed = int(np.random.SeedSequence(cfg.master_seed).generate_state(1)[0])
    pi_tilde, residual = solve_weights(target, components, n_weight, seed)
    evidence = float(np.sum(pi_tilde))
    if evidence <= 0.0:
        raise WeightUnderflowError(
            "all fitted weights are zero; phi is negligible at every "
            "sampled point"
        )
    mixture = MixtureModel(tuple(components), pi_tilde / evidence)
    return GolaReport(
        mixture=mixture,
        evidence=evidence,
        raw_minima=tuple(minima),
        dedup_log=tuple(decisions),
        weight_residual=residual,
    )
