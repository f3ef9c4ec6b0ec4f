"""Variational refinement of a Gaussian-mixture surrogate.

Minimizes a Monte Carlo estimate of E_q[log q(z) - log phi(z)] over an
unconstrained parameterization of the mixture (weight logits, means, and
log-diagonal Cholesky factors) with Adam-style first-order updates. The
gradient comes from the score-function estimator with a leave-one-out
baseline; a pathwise estimator is provided for single-Gaussian surrogates
as a lower-variance validation path.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .density import (
    GaussianComponent,
    MixtureModel,
    UnnormalizedTarget,
    _inverse_lower,
    eval_gradient_batch,
    eval_log_density_batch,
    gaussian_log_pdfs,
    log_sum_exp,
    mixture_sample,
)

# Finite stand-in for the infinite penalty of a zero-density sample.
_SUPPORT_PENALTY = 1e6

# Adam's decay rates for the first and second moment estimates.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999


@dataclass(frozen=True)
class VariationalParams:
    """Mixture parameters in unconstrained coordinates.

    ``chol_params`` stores each component's lower Cholesky factor with the
    diagonal in log-space, so every parameter vector maps to a valid
    mixture: softmax keeps the weights on the simplex and exponentiation
    keeps the Cholesky diagonals positive.
    """

    logits: NDArray[np.float64]       # (K,)
    means: NDArray[np.float64]        # (K, d)
    chol_params: NDArray[np.float64]  # (K, d, d), lower, log diagonal

    @property
    def n_components(self) -> int:
        return self.logits.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def weights(self) -> NDArray[np.float64]:
        return log_sum_exp(self.logits[np.newaxis])[1][0]

    def chol_factors(self) -> NDArray[np.float64]:
        chol = np.tril(self.chol_params, -1)
        idx = np.arange(self.dim)
        chol[:, idx, idx] = np.exp(self.chol_params[:, idx, idx])
        return chol


def from_mixture(mixture: MixtureModel) -> VariationalParams:
    """Map a mixture to unconstrained coordinates.

    Zero weights are clamped to the smallest positive double before the
    log, so they survive the round trip as numerically-zero weights.
    """
    tiny = np.finfo(float).tiny
    logits = np.log(np.maximum(mixture.weights, tiny))
    means = np.array([c.mean for c in mixture.components])
    k, d = means.shape
    chol_params = np.zeros((k, d, d))
    for i, c in enumerate(mixture.components):
        chol_params[i] = np.tril(c.chol_cov, -1)
        chol_params[i, np.arange(d), np.arange(d)] = np.log(np.diag(c.chol_cov))
    return VariationalParams(logits, means, chol_params)


def to_mixture(params: VariationalParams) -> MixtureModel:
    """Map unconstrained coordinates back to a valid mixture."""
    chol = params.chol_factors()
    comps = tuple(
        GaussianComponent(params.means[k], chol[k])
        for k in range(params.n_components)
    )
    return MixtureModel(comps, params.weights())


def _pack(p: VariationalParams) -> NDArray[np.float64]:
    return np.concatenate([p.logits, p.means.ravel(), p.chol_params.ravel()])


def _unpack(vec: NDArray, k: int, d: int) -> VariationalParams:
    logits = vec[:k]
    means = vec[k:k + k * d].reshape(k, d)
    chol = vec[k + k * d:].reshape(k, d, d)
    return VariationalParams(logits.copy(), means.copy(), chol.copy())


def _mixture_internals(params: VariationalParams, points: NDArray):
    """Responsibilities and whitened/precision-weighted residuals.

    Returns ``log_q`` (n,), ``resp`` (n, K), and per-component arrays
    ``v[k] = L_k^-1 (z - mu_k)`` and ``w[k] = Sigma_k^-1 (z - mu_k)``,
    each of shape (d, n).
    """
    chol = params.chol_factors()
    chol_inv = np.array([_inverse_lower(c) for c in chol])
    log_n, v_all = gaussian_log_pdfs(params.means, chol_inv, points)
    log_w = params.logits - log_sum_exp(params.logits[np.newaxis])[0]
    log_q, resp = log_sum_exp(log_n + log_w)
    w_all = chol_inv.transpose(0, 2, 1) @ v_all
    return log_q, resp, v_all, w_all, chol


def _f_values(target: UnnormalizedTarget, points: NDArray, log_q: NDArray):
    """Per-sample integrand f = log q - log phi with finite penalties."""
    log_phi = eval_log_density_batch(target, points)
    in_support = np.isfinite(log_phi)
    f = np.where(in_support, log_q - log_phi, _SUPPORT_PENALTY)
    return f, int(np.sum(~in_support))


def negative_elbo_estimate(params: VariationalParams,
                           target: UnnormalizedTarget, n: int,
                           seed: int) -> float:
    """Monte Carlo estimate of E_q[log q(z) - log phi(z)].

    Samples falling outside the target's support contribute a large finite
    penalty instead of infinity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    points = mixture_sample(to_mixture(params), n, seed)
    log_q, *_ = _mixture_internals(params, points)
    f, _ = _f_values(target, points, log_q)
    return float(np.mean(f))


def _score_gradient_raw(params: VariationalParams, target: UnnormalizedTarget,
                        n: int, seed: int):
    """Score-function gradient plus the per-sample f statistics."""
    if n < 2:
        raise ValueError("the leave-one-out baseline requires n >= 2")
    points = mixture_sample(to_mixture(params), n, seed)
    log_q, resp, v_all, w_all, chol = _mixture_internals(params, points)
    f, violations = _f_values(target, points, log_q)
    coeff = (n * f - np.sum(f)) / (n - 1)

    k, d = params.means.shape
    pi = params.weights()
    g_logits = np.mean(coeff[:, None] * (resp - pi), axis=0)
    g_means = np.empty((k, d))
    g_chol = np.zeros((k, d, d))
    inv_diag = 1.0 / np.einsum("kii->ki", chol)
    for i in range(k):
        s = coeff * resp[:, i]
        g_means[i] = (w_all[i] @ s) / n
        g_l = (w_all[i] * s) @ v_all[i].T / n
        g_l -= np.mean(s) * np.diag(inv_diag[i])
        g_l = np.tril(g_l)
        g_l[np.arange(d), np.arange(d)] *= np.diag(chol[i])
        g_chol[i] = g_l
    grad = VariationalParams(g_logits, g_means, g_chol)
    return grad, float(np.mean(f)), violations


def score_function_gradient(params: VariationalParams,
                            target: UnnormalizedTarget, n: int,
                            seed: int) -> VariationalParams:
    """Score-function estimator of the negative-ELBO gradient.

    Computes ``(1/n) sum_i f(z_i) grad_theta log q_theta(z_i)`` with
    ``f = log q - log phi`` less a leave-one-out mean baseline, so ``n``
    must be at least 2. The log-density gradient is exact through the
    unconstrained parameterization. The returned object holds the gradient
    in the same container shape as the parameters.
    """
    grad, _, _ = _score_gradient_raw(params, target, n, seed)
    return grad


def reparam_gradient_single_gaussian(params: VariationalParams,
                                     target: UnnormalizedTarget, n: int,
                                     seed: int) -> VariationalParams:
    """Pathwise gradient estimator for a single-Gaussian surrogate.

    Draws ``z = mu + L eps`` and differentiates through the transform,
    with the target gradient at all ``n`` samples from one
    :func:`eval_gradient_batch` call (analytic or finite differences).
    Only valid for exactly one component.
    """
    if params.n_components != 1:
        raise ValueError(
            "the pathwise estimator supports exactly one component; "
            f"got {params.n_components}"
        )
    d = params.dim
    chol = params.chol_factors()[0]
    mean = params.means[0]
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, d))
    points = mean + eps @ chol.T

    score_phi = eval_gradient_batch(target, points)
    g_mean = -score_phi.mean(axis=0)
    g_l = np.tril(-(score_phi.T @ eps) / n - np.diag(1.0 / np.diag(chol)))
    g_l[np.arange(d), np.arange(d)] *= np.diag(chol)
    return VariationalParams(np.zeros(1), g_mean[np.newaxis], g_l[np.newaxis])


@dataclass(frozen=True)
class ViConfig:
    """Optimizer settings for the refinement loop."""

    n_mc_samples: int = 128
    step_size: float = 1e-2
    max_epochs: int = 200
    report_interval: int = 10
    seed: int = 0
    jsd_samples: int = 4096

    def __post_init__(self):
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.n_mc_samples < 2:
            raise ValueError("n_mc_samples must be at least 2 for the "
                             "leave-one-out baseline")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.report_interval < 1:
            raise ValueError("report_interval must be at least 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    elapsed_seconds: float
    neg_elbo: float
    jsd: Optional[float] = None


@dataclass
class ViTrace:
    """Per-epoch optimization history."""

    records: list[EpochRecord] = field(default_factory=list)
    diverged: bool = False
    support_violations: int = 0
    best_epoch: int = 0

    def best_neg_elbo(self) -> float:
        return min(r.neg_elbo for r in self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "elapsed_seconds", "neg_elbo", "jsd"])
            for r in self.records:
                jsd = "" if r.jsd is None else repr(r.jsd)
                writer.writerow([r.epoch, repr(r.elapsed_seconds),
                                 repr(r.neg_elbo), jsd])


def refine(init: MixtureModel, target: UnnormalizedTarget, cfg: ViConfig,
           reference=None) -> tuple[MixtureModel, ViTrace]:
    """Run Adam-style updates on the variational parameters from ``init``.

    The component count stays fixed throughout. When ``reference`` (any
    density with ``log_pdf`` and ``sample``) is given, the normalized
    Jensen-Shannon divergence against it is logged every
    ``report_interval`` epochs. Returns the iterate with the best
    negative-ELBO estimate, not the last one.
    """
    from .metrics import jsd_normalized

    params = from_mixture(init)
    k, d = params.means.shape
    theta = _pack(params)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    trace = ViTrace()
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.max_epochs)

    best = (math.inf, theta.copy(), 0)
    divergence_limit = None
    start = time.perf_counter()
    for epoch in range(cfg.max_epochs):
        params = _unpack(theta, k, d)
        diag = params.chol_params[:, np.arange(d), np.arange(d)]
        if not np.all(np.isfinite(theta)) or np.max(np.abs(diag)) > 300.0:
            trace.diverged = True
            break
        grad, neg_elbo, violations = _score_gradient_raw(
            params, target, cfg.n_mc_samples, int(seeds[2 * epoch]))
        if not np.isfinite(neg_elbo):
            trace.diverged = True
            break
        trace.support_violations += violations
        if divergence_limit is None:
            divergence_limit = _SUPPORT_PENALTY * max(1.0, abs(neg_elbo))
        if neg_elbo < best[0]:
            best = (neg_elbo, theta.copy(), epoch)

        jsd_value = None
        if reference is not None and epoch % cfg.report_interval == 0:
            jsd_value = jsd_normalized(
                to_mixture(params), reference, cfg.jsd_samples,
                int(seeds[2 * epoch + 1]),
            ).value
        trace.records.append(EpochRecord(
            epoch, time.perf_counter() - start, neg_elbo, jsd_value,
        ))
        if neg_elbo > divergence_limit:
            trace.diverged = True
            break

        g = _pack(grad)
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * g * g
        m_hat = m / (1.0 - _ADAM_BETA1 ** (epoch + 1))
        v_hat = v / (1.0 - _ADAM_BETA2 ** (epoch + 1))
        theta = theta - cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)

    trace.best_epoch = best[2]
    return to_mixture(_unpack(best[1], k, d)), trace


def random_cold_start(dim: int, n_components: int, search_box: NDArray,
                      seed: int) -> MixtureModel:
    """Random initialization: uniform means, tenth-of-box-width deviations."""
    if n_components < 1:
        raise ValueError("n_components must be at least 1")
    box = np.asarray(search_box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    rng = np.random.default_rng(seed)
    means = lo + rng.uniform(size=(n_components, dim)) * (hi - lo)
    scales = (hi - lo) / 10.0
    comps = tuple(
        GaussianComponent(means[i], np.diag(scales))
        for i in range(n_components)
    )
    return MixtureModel(comps, np.full(n_components, 1.0 / n_components))
