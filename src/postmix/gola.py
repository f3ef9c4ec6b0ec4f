"""Gaussian-mixture posterior construction by global optimization and
local Laplace approximations.

The pipeline minimizes ``-log phi`` from many Sobol-distributed starts,
keeps the distinct converged minima (greedy Mahalanobis test with a
hill-valley check), builds a local Gaussian at each survivor from the
regularized Hessian, fits the component weights by nonnegative least
squares against ``phi``, and normalizes. The sum of the unnormalized
weights is an estimate of the normalizing constant of ``phi``.
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
    draw_mixture,
    eval_hessian,
    eval_log_density_and_gradient,
    eval_log_density_batch,
    gaussian_log_pdfs,
    gradient_rows,
    mixture_to_dict,
)
from .exceptions import (
    DegenerateModeError,
    EvidenceOverflowError,
    NoModesFoundError,
    SingularMatrixError,
    WeightUnderflowError,
    check_fields,
)
from .mathkit import chi_square_survival, cholesky_spd, nnls, sobol_points

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
_MAX_LOCAL_ITERS = 500
# A search ends, not converged, after this many trials in a row at the
# rounding floor that do not lower the objective. A trial is at the floor
# when its Armijo decrease is below half an ulp of f, so the test reads
# f_new <= f: it accepts a step that rounds to f and rejects one that rounds
# an ulp above, and neither moves the search. A step that lowers f resets
# the count; a rejected trial off the floor leaves it alone.
_MAX_FLAT_STEPS = 11
# A candidate is a duplicate when its chi-square survival under an
# accepted component is at least this, and no valley separates the two.
_DEDUP_THRESHOLD = 0.01
# The valley test runs only for a candidate more than this many whitened
# units from its nearest accepted component; nearer ones share its mode.
_VALLEY_GATE = 1e-3
# Fractions of the way from that component's mean to the candidate where
# the valley test evaluates log phi.
_VALLEY_POINTS = np.arange(1, 6) / 6.0
# A valley is log phi this far below the lower end of the segment.
_VALLEY_DEPTH = 1e-9
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
        check_fields(vars(self), self.__annotations__, n_starts=1, master_seed=0)
        if self.gradient_tol <= 0.0:
            raise ValueError("gradient_tol must be positive")


@dataclass(frozen=True)
class LocalMinimum:
    """One converged (or abandoned) local search.

    ``converged`` holds when the projected gradient norm is at most
    ``gradient_tol``. An abandoned search ended at the iteration cap, after
    ``_MAX_BACKTRACKS`` rejected trials in a row, at a trial step with no
    first-order decrease, or after ``_MAX_FLAT_STEPS`` trials in a row at
    the rounding floor, accepted or rejected, that left the objective where
    it was.
    """

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
    component, i.e. when survival >= 0.01, unless a valley in ``log phi``
    separates it from that component. ``note`` records why a candidate was
    turned away ("duplicate" or "saddle"), or "valley" for one accepted
    across a valley.
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
                          f"Mahalanobis distance >= {_DEDUP_THRESHOLD}, unless, "
                          f"beyond whitened distance {_VALLEY_GATE}, log phi at "
                          "t = 1/6..5/6 of the segment from the nearest accepted "
                          "mean dips below its lower end by more than "
                          f"{_VALLEY_DEPTH}",
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


def _clamp(z, lo, hi):
    """``np.clip`` to the box, as the two ufuncs it is made of, without its
    per-call dispatch."""
    return np.minimum(np.maximum(z, lo), hi)


def _row_dots(a, b):
    """Row-wise dot products of two (n, d) arrays, each bitwise the 1-D
    ``a[i].dot(b[i])``: a stacked (1, d) @ (d, 1) matmul takes numpy's
    vector-vector path, the same BLAS dot."""
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0, 0]


def local_minimize(target: UnnormalizedTarget, start: NDArray) -> NDArray[np.float64]:
    """The first iterate of the local search from ``start``: the start
    clamped to the search box.

    :func:`run_lockstep` calls it once per start and then moves every
    start's descent forward as a row of one (S, d) state. It stays a
    function of its own because the benchmark harness counts its calls as
    the local searches; ROADMAP item 3 moves that count to the starts.
    """
    return _clamp(np.asarray(start, dtype=float),
                  target.search_box[:, 0], target.search_box[:, 1])


def run_lockstep(target: UnnormalizedTarget, starts: NDArray,
                 cfg: GolaConfig) -> list[Optional[LocalMinimum]]:
    """Descend ``-log phi`` from each row of the (S, d) ``starts`` with a
    backtracking line search, all in lockstep; each start's
    :class:`LocalMinimum`, or None where the start has zero density or a
    derivative stencil failed.

    Each start is a row of one state: iterate, objective, gradient, trial
    step size alpha, and flat-step, iteration and backtrack counts. A round
    asks for ``log phi`` at every row's trial ``clamp(z + alpha g)`` in one
    :func:`eval_log_density_and_gradient` call. A target with
    ``log_phi_and_gradient_batch`` replies with the gradient too; else one
    :func:`gradient_rows` call gives it at the accepted trials: the
    analytic ``gradient`` row by row, or central differences from one
    batched stencil, which drops a row whose stencil met ``-inf``. The
    first round asks the same at the starts, and keeps the gradient of each
    start of positive density. An accepted trial sets the row's next alpha
    to the Barzilai-Borwein step, clamped to [1e-12, 1e6]; a rejected one
    halves it. A row leaves the state when its search ends. Rows stay in
    start order, so a rerun is bitwise the same, and where the target
    evaluates each row on its own, a row gets the values its start would
    get alone. ``NonFiniteDensityError`` aborts the whole run, and so does
    the ``DerivativeError`` of an analytic gradient that is not finite (a
    fused reply's at any trial of positive density).

    A row ends converged at its start or an accepted trial where its
    projected gradient norm is at most ``gradient_tol``. It ends not
    converged at the iteration cap, after ``_MAX_BACKTRACKS`` rejected
    trials in a row, or at any round on a trial with no first-order
    decrease: ``g . dz`` rounds to 0, and no smaller alpha does better,
    since each coordinate of a box-projected step moves toward ``z`` with
    the sign of ``g`` as alpha shrinks (Calamai and More, Math. Prog. 39,
    1987). It also ends after ``_MAX_FLAT_STEPS`` trials in a row at the
    rounding floor that do not lower the objective: trials whose Armijo
    bound ``f - c1 * decrease`` rounds to ``f``, whether the step is
    accepted with ``f_new == f`` or rejected. A step that lowers ``f``
    resets that count, and a rejected trial off the floor leaves it alone.

    Iterates stay clamped to the search box and the objective never
    increases across accepted steps. Steps go along the gradient ``g`` of
    ``log phi``, kept as replied, never negated: IEEE rounding is
    sign-symmetric, so the Armijo decrease ``-(g . dz)`` with
    ``dz = z - z_new``, and the Barzilai-Borwein terms ``dz . dz`` and
    ``dz . (g_new - g)``, are bitwise what the objective's gradient ``-g``
    and ``s = -dz`` would give. The products are :func:`_row_dots` and all
    else is elementwise, so each row is bitwise a start descending alone.
    """
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]
    tol = cfg.gradient_tol
    z = np.array([local_minimize(target, start) for start in starts])
    results: list[Optional[LocalMinimum]] = [None] * len(z)

    def gradients(points, replied, keep, fallback):
        """The gradient at each row of ``points`` where ``keep`` holds, else
        that row of ``fallback``, and a mask of the rows whose stencil
        failed (None if none did); such a row keeps its ``fallback`` row,
        so that it computes harmlessly until it leaves the state. The rows
        come from the fused reply ``replied``, or from one
        :func:`gradient_rows` call at the kept rows."""
        if replied is not None:
            return np.where(keep[:, np.newaxis], replied, fallback), None
        grads = fallback.copy()
        rows = keep.nonzero()[0]
        if not rows.size:
            return grads, None
        grads[rows], failed = gradient_rows(target, points[rows])
        if not failed:
            return grads, None
        bad = rows[list(failed)]
        grads[bad] = fallback[bad]
        lost = np.zeros(len(points), dtype=bool)
        lost[bad] = True
        return grads, lost

    # The first round: log phi at every start, and the gradient at each
    # start of positive density.
    log_phi, replied = eval_log_density_and_gradient(target, z)
    index = np.flatnonzero(np.isfinite(log_phi))
    if not index.size:
        return results
    z, f = z[index], -log_phi[index]
    replied = None if replied is None else replied[index]
    g, lost = gradients(z, replied, np.ones(len(index), dtype=bool), np.zeros_like(z))
    alpha = np.ones(len(index))
    flat, iters, backtracks = (np.zeros(len(index), dtype=int) for _ in range(3))
    while True:
        # A row stops when converged or out of iterations (never first at a
        # rejected trial, which keeps z, g and iters), after _MAX_BACKTRACKS
        # rejected trials or _MAX_FLAT_STEPS flat ones in a row, or when its
        # trial has no first-order decrease.
        r = z - _clamp(z + g, lo, hi)
        pg = np.sqrt(_row_dots(r, r))
        trial = _clamp(z + alpha[:, np.newaxis] * g, lo, hi)
        dz = z - trial
        decrease = -_row_dots(g, dz)
        done = ((pg <= tol) | (iters == _MAX_LOCAL_ITERS) | (flat >= _MAX_FLAT_STEPS)
                | (backtracks == _MAX_BACKTRACKS) | (decrease <= 0.0))
        if lost is not None:  # rows whose gradient stencil failed leave too
            done |= lost
        if done.any():
            for i in done.nonzero()[0].tolist():
                if lost is None or not lost[i]:
                    norm = float(pg[i])
                    results[index[i]] = LocalMinimum(z[i].copy(), float(f[i]), norm,
                                                     norm <= tol, int(index[i]))
            go = ~done
            index, z, f, g, alpha, flat, iters, backtracks, trial, dz, decrease = (
                a[go] for a in (index, z, f, g, alpha, flat, iters, backtracks,
                                trial, dz, decrease))
            if not len(index):
                return results

        # The round: log phi at every trial, and the gradient at each
        # accepted one. phi = 0 gives f_new = +inf, which fails the test.
        log_phi, replied = eval_log_density_and_gradient(target, trial)
        f_new = -log_phi
        armijo = f - _ARMIJO_C1 * decrease
        ok = f_new <= armijo
        floor = armijo == f  # a trial at the rounding floor
        g_new, lost = gradients(trial, replied, ok, g)
        # An accepted row's next trial takes the Barzilai-Borwein step.
        sy = _row_dots(dz, g_new - g)
        curved = sy > 1e-16
        bb = np.minimum(1.0, 2.0 * alpha)
        np.divide(_row_dots(dz, dz), sy, out=bb, where=curved)
        flat = np.where(ok, np.where(f_new == f, flat + 1, 0), np.where(floor, flat + 1, flat))
        iters = iters + ok
        z = np.where(ok[:, np.newaxis], trial, z)
        f = np.where(ok, f_new, f)
        g = g_new
        alpha = np.where(ok, _clamp(bb, 1e-12, 1e6), alpha * _BACKTRACK)
        backtracks = np.where(ok, 0, backtracks + 1)


def multistart_minimize(target: UnnormalizedTarget,
                        cfg: GolaConfig) -> list[LocalMinimum]:
    """Run local searches from Sobol points spread over the search box, all
    in lockstep (:func:`run_lockstep`).

    Returns the converged minima sorted by objective (ties broken
    lexicographically by location), which makes the result independent of
    the order of the starts. Starts that land on zero density or break the
    derivative stencils are skipped.
    """
    n_starts = cfg.n_starts if cfg.n_starts is not None else 32 * target.dim
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]
    starts = lo + sobol_points(target.dim, n_starts) * (hi - lo)
    results = run_lockstep(target, starts, cfg)

    converged = [r for r in results if r is not None and r.converged]
    if not converged:
        raise NoModesFoundError(
            f"no converged minima from {n_starts} starts; "
            "widen the search box or add starts (gola.n_starts)"
        )
    return _sort_minima(converged)


def _sort_minima(minima: list[LocalMinimum]) -> list[LocalMinimum]:
    """``minima`` sorted by objective, ties broken lexicographically by
    location, as a sort by ``(objective, tuple(location))`` would: one stable
    ``np.lexsort``, whose last key sorts first and which takes ``-0.0`` and
    ``0.0`` as equal."""
    locations = np.array([m.location for m in minima])
    keys = np.vstack([locations.T[::-1], [m.objective for m in minima]])
    return [minima[i] for i in np.lexsort(keys)]


def _component_from_hessian(mode: NDArray, hess: NDArray) -> GaussianComponent:
    """The Gaussian at ``mode`` whose covariance is the inverse of the
    (regularized) Hessian, from one Cholesky factorization.

    With J the index reversal, ``J H J = M M^T`` makes ``H = U U^T`` with
    ``U = J M J`` upper triangular, so the covariance ``U^-T U^-1`` has the
    lower factor ``U^-T = J M^-T J``, stored as an array of its own rather
    than a view that would keep the inverse alive.
    """
    try:
        chol, _ = cholesky_spd(hess[::-1, ::-1])
    except SingularMatrixError as exc:
        raise DegenerateModeError(
            f"singular Hessian at mode {mode}", mode=mode
        ) from exc
    return GaussianComponent(mean=mode, chol_cov=_inverse_lower(chol).T[::-1, ::-1].copy())


def _is_indefinite(hess: NDArray) -> bool:
    """Negative curvature beyond rounding noise marks a saddle, not a mode."""
    eigenvalues = np.linalg.eigvalsh(hess)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    return float(eigenvalues[0]) < -1e-8 * scale


def _valley_between(target: UnnormalizedTarget, mean: NDArray,
                    cand: LocalMinimum) -> bool:
    """Whether ``log phi`` on the segment from an accepted ``mean`` to a
    candidate dips below both ends, by ``_VALLEY_DEPTH``. Candidates come
    sorted by objective, so the candidate's end is the lower one."""
    points = mean + _VALLEY_POINTS[:, np.newaxis] * (cand.location - mean)
    return bool(eval_log_density_batch(target, points).min() < -cand.objective - _VALLEY_DEPTH)


def dedup_modes(candidates: list[LocalMinimum], target: UnnormalizedTarget,
                ) -> tuple[list[GaussianComponent], list[DedupDecision]]:
    """Reduce candidate minima to distinct modes by a greedy Mahalanobis test
    with a hill-valley check.

    Candidates must arrive sorted by objective ascending, so that the
    deepest modes anchor the accepted set and a candidate is the lower end
    of the segment its valley test walks. Each accepted component whitens
    every later candidate in one call, so each candidate holds its smallest
    squared Mahalanobis distance to the components accepted before it (the
    first one on a tie). That distance is referred to a chi-square with
    ``dim`` degrees of freedom; a candidate typical under the nearest
    component (survival >= 0.01) is a duplicate, and one improbably far
    from all of them is a new mode.
    In high dimension the chi-square rule calls far candidates typical, so
    a typical one more than ``_VALLEY_GATE`` whitened units from the
    nearest component is still a new mode when ``log phi`` dips between
    them (Ursem, CEC 1999; Maree et al., GECCO 2018).

    Descent can legitimately stop on a saddle (any stationary start point
    converges in place), so distinct candidates whose Hessian shows
    negative curvature are turned away and logged rather than forwarded to
    the Laplace stage, whose contract requires a true minimum.
    """
    accepted: list[GaussianComponent] = []
    decisions: list[DedupDecision] = []
    locations = np.array([c.location for c in candidates])
    # Each candidate's smallest squared whitened distance to the accepted
    # set (inf, of survival 0, while the set is empty), and where it is
    # reached (the first such component on a tie).
    best = np.full(len(candidates), np.inf)
    nearest = np.zeros(len(candidates), dtype=int)
    for idx, cand in enumerate(candidates):
        survival, note = chi_square_survival(float(best[idx]), target.dim), ""
        if survival >= _DEDUP_THRESHOLD:
            if (best[idx] <= _VALLEY_GATE ** 2 or not _valley_between(
                    target, accepted[nearest[idx]].mean, cand)):
                decisions.append(DedupDecision(idx, survival, False, "duplicate"))
                continue
            note = "valley"
        hess = eval_hessian(target, cand.location)
        if _is_indefinite(hess):
            decisions.append(DedupDecision(idx, survival, False, "saddle"))
            continue
        comp = _component_from_hessian(cand.location, hess)
        with np.errstate(over="ignore"):  # an overflowed distance is far
            _, whitened = gaussian_log_pdfs(comp.mean[np.newaxis],
                                            _inverse_lower(comp.chol_cov)[np.newaxis],
                                            locations[idx + 1:])
            dist2 = (whitened[0] * whitened[0]).sum(axis=0)
        closer = dist2 < best[idx + 1:]
        best[idx + 1:][closer] = dist2[closer]
        nearest[idx + 1:][closer] = len(accepted)
        accepted.append(comp)
        decisions.append(DedupDecision(idx, survival, True, note))
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
        Root-mean-square fit residual, in units of max(phi) = 1. A sum of
        the weights past the largest double raises ``EvidenceOverflowError``.
    """
    k = len(components)
    if k < 1:
        raise ValueError("need at least one component")
    if n < k:
        raise ValueError(f"need at least K={k} samples, got {n}")
    means = np.array([c.mean for c in components])
    chols = np.array([c.chol_cov for c in components])
    points = draw_mixture(np.full(k, 1.0 / k), means, chols, n, seed)
    log_phi = eval_log_density_batch(target, points)
    offset = float(np.max(log_phi))
    if not np.isfinite(offset):
        raise WeightUnderflowError(
            "phi evaluated to zero at every sampled point; the components "
            "do not cover the target's support (log-offset recalibration "
            "would not help)"
        )
    y = np.exp(log_phi - offset)
    design = np.exp(gaussian_log_pdfs(means, _inverse_lower(chols), points)[0])
    x, rnorm = nnls(design, y)
    with np.errstate(over="ignore"):  # an overflow raises below
        pi_tilde = np.where(x > 0.0, np.exp(np.log(np.where(x > 0.0, x, 1.0)) + offset), 0.0)
        evidence = np.sum(pi_tilde)
    if evidence == np.inf:
        raise EvidenceOverflowError(f"the evidence overflows a double: log phi peaks at "
                                    f"{offset!r} at the weight samples; subtract a "
                                    "constant from log phi")
    return pi_tilde, rnorm / np.sqrt(n)


def run_gola(target: UnnormalizedTarget, cfg: GolaConfig) -> GolaReport:
    """Run the full pipeline and assemble the report.

    Components whose normalized weight is tiny (below 1e-12) are retained
    rather than pruned, so the report reflects every distinct mode found.
    """
    minima = multistart_minimize(target, cfg)
    components, decisions = dedup_modes(minima, target)
    if not components:
        # the first candidate is always distinct, so every one was a saddle
        saddles = np.unique([m.location for m in minima], axis=0).tolist()
        raise NoModesFoundError(
            f"all {len(minima)} converged minima are saddles, not modes, at {saddles}; "
            "widen the search box or add starts (gola.n_starts)"
        )
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
