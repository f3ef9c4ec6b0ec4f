"""Robustness benchmarking: seeded synthetic GMM posteriors, variance-based
sensitivity indices with bootstrap intervals, and the end-to-end driver
scoring pipeline accuracy over an ensemble of generated test problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .density import GaussianComponent, MixtureModel, _inverse_lower, _write_csv
from .exceptions import GenerationError, PostmixError, check_integer
from .gola import GolaConfig, run_gola
from .mathkit import sobol_points
# The benchmark's traced run wraps this name; keep it until it stops doing so.
from .metrics import dice_overlap  # noqa: F401
from .metrics import jsd_normalized


# Coverage of the percentile bootstrap intervals.
_CI_LEVEL = 0.95
# A robustness case is accurate when its score Y is at most this.
ACCURACY_THRESHOLD = 0.05
# The fewest bootstrap replicates an interval is drawn from.
MIN_REPLICATES = 100


@dataclass(frozen=True)
class Factor:
    """One input factor with a uniform (discrete or continuous) distribution."""

    name: str
    lo: float
    hi: float
    discrete: bool = False

    def from_uniform(self, u: NDArray) -> NDArray:
        """Map uniforms on [0, 1) into a continuous factor's range."""
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)


@dataclass(frozen=True)
class ProblemFactors:
    """A sampled point in the five-factor test-problem space."""

    d: int
    n_components: int
    weight_decay: float
    correlation: float
    max_overlap: float


@dataclass(frozen=True)
class FactorSpec:
    """Distributions of the five factors defining a synthetic test posterior.

    ``d_range`` and ``m_range`` are inclusive integer ranges (discrete
    uniform) whose ends must be whole numbers; the remaining factors are
    continuous uniform intervals.
    """

    d_range: tuple[int, int] = (2, 10)
    m_range: tuple[int, int] = (2, 4)
    omega_range: tuple[float, float] = (1.0, 2.0)
    corr_range: tuple[float, float] = (0.0, 0.7)
    overlap_range: tuple[float, float] = (1e-4, 1e-2)

    def __post_init__(self):
        for name, (lo, hi) in (("d_range", self.d_range), ("m_range", self.m_range)):
            if not (float(lo).is_integer() and float(hi).is_integer()):
                raise ValueError(f"{name} must have whole-number ends, got {(lo, hi)}")
            if lo > hi or lo < 1:
                raise ValueError(f"{name} must be a nonempty positive range")
        if not (0.0 < self.omega_range[0] <= self.omega_range[1]):
            raise ValueError("omega interval must be a nonempty range of "
                             "positive decay factors")
        if not (0.0 <= self.corr_range[0] <= self.corr_range[1] < 1.0):
            raise ValueError("correlation interval must lie inside [0, 1)")
        if not (0.0 < self.overlap_range[0] <= self.overlap_range[1] < 1.0):
            raise ValueError("overlap interval must lie inside (0, 1)")

    @classmethod
    def hard(cls) -> "FactorSpec":
        """Refined distributions that favor more complex posteriors."""
        return cls(d_range=(8, 10), m_range=(3, 4), omega_range=(1.3, 2.0),
                   corr_range=(0.1, 0.7), overlap_range=(1e-4, 1e-2))

    def factors(self) -> list[Factor]:
        return [
            Factor("d", *self.d_range, discrete=True),
            Factor("M", *self.m_range, discrete=True),
            Factor("omega", *self.omega_range),
            Factor("c", *self.corr_range),
            Factor("lambda", *self.overlap_range),
        ]

    def sample(self, rng: np.random.Generator) -> ProblemFactors:
        return ProblemFactors(
            d=int(rng.integers(self.d_range[0], self.d_range[1] + 1)),
            n_components=int(rng.integers(self.m_range[0], self.m_range[1] + 1)),
            weight_decay=float(rng.uniform(*self.omega_range)),
            correlation=float(rng.uniform(*self.corr_range)),
            max_overlap=float(rng.uniform(*self.overlap_range)),
        )


def _simplex_directions(m: int, d: int) -> NDArray[np.float64]:
    """Unit-norm placement directions for ``m >= 2`` component means in
    ``d`` dims.

    Vertices of a regular (m-1)-simplex when it fits (m <= d + 1), else a
    regular m-gon in the first two coordinates, so d = 1 admits at most
    two means.
    """
    if d == 1 and m > 2:
        raise GenerationError(f"cannot place {m} component means on a line (d = 1)")
    if m <= d + 1:
        centered = np.eye(m) - 1.0 / m
        _, _, vt = np.linalg.svd(centered)
        coords = centered @ vt[: m - 1].T  # (m, m-1)
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        out = np.zeros((m, d))
        out[:, : m - 1] = coords
        return out
    angles = 2.0 * np.pi * np.arange(m) / m
    out = np.zeros((m, d))
    out[:, 0] = np.cos(angles)
    out[:, 1] = np.sin(angles)
    return out


def generate_test_gmm(factors: ProblemFactors, seed: int) -> MixtureModel:
    """Build a synthetic GMM posterior with prescribed difficulty factors.

    Weights decay geometrically by the requested factor, every covariance
    has unit diagonal and constant off-diagonal correlation, and the means
    sit on randomly rotated simplex directions whose common scale is set in
    closed form so the largest pairwise Dice overlap is exactly the target
    (one pair attains it, none exceeds it).

    Raises
    ------
    GenerationError
        If the target overlap is not in (0, 1), or if d = 1 and M > 2 (no
        third direction on a line).
    """
    d, m = factors.d, factors.n_components
    c = factors.correlation
    target = factors.max_overlap
    if not 0.0 < target < 1.0:
        raise GenerationError(
            f"overlap target lambda must be in (0, 1), got {float(target)!r}"
        )
    raw = factors.weight_decay ** -np.arange(m)
    weights = raw / raw.sum()
    cov = (1.0 - c) * np.eye(d) + c * np.ones((d, d))
    chol = np.linalg.cholesky(cov)
    if m == 1:
        return MixtureModel((GaussianComponent(np.zeros(d), chol),), np.ones(1))

    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    directions = _simplex_directions(m, d) @ rotation.T

    # All components share cov = L L^T, so the Dice overlap of the means
    # s u_i and s u_j is exp(-s^2 |L^-1 (u_i - u_j)|^2 / 4), and the pair of
    # directions closest after whitening attains the largest overlap; setting
    # it to the target and solving for s gives the scale.
    whitened = directions @ _inverse_lower(chol).T
    first, second = np.triu_indices(m, 1)
    gaps = whitened[first] - whitened[second]
    closest = float(np.min(np.sum(gaps * gaps, axis=1)))
    scale = 2.0 * math.sqrt(-math.log(target) / closest)
    comps = tuple(GaussianComponent(scale * directions[i], chol) for i in range(m))
    return MixtureModel(comps, weights)


@dataclass(frozen=True)
class SobolDesign:
    """Saltelli-style sampling matrices with their model evaluations.

    ``ab[i]`` equals ``a`` except in column ``i``, which comes from ``b``;
    filling all outputs costs ``n * (k + 2)`` model evaluations.
    """

    factor_names: tuple[str, ...]
    a: NDArray[np.float64]          # (n, k)
    b: NDArray[np.float64]          # (n, k)
    ab: NDArray[np.float64]         # (k, n, k)
    f_a: NDArray[np.float64]        # (n,)
    f_b: NDArray[np.float64]        # (n,)
    f_ab: NDArray[np.float64]       # (k, n)


def sobol_design(factors: Sequence[Factor], n: int, seed: int,
                 model: Callable[[NDArray], float]) -> SobolDesign:
    """Build the two sampling matrices plus the column-swapped set and
    evaluate the model row-wise over all of them.

    Continuous factors take quasi-random draws (matrix-specific halves of a
    2k-dimensional Sobol block, offset deterministically by the seed so
    repeated studies see fresh segments); discrete factors take seeded
    uniform integers. The first model failure propagates and abandons the
    design.
    """
    k = len(factors)
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    offset = int(np.random.SeedSequence(seed).generate_state(1)[0] % 64) * n
    block = sobol_points(2 * k, offset + n)[offset:]
    a = np.empty((n, k))
    b = np.empty((n, k))
    for j, factor in enumerate(factors):
        if factor.discrete:
            a[:, j] = rng.integers(int(factor.lo), int(factor.hi) + 1, size=n)
            b[:, j] = rng.integers(int(factor.lo), int(factor.hi) + 1, size=n)
        else:
            a[:, j] = factor.from_uniform(block[:, j])
            b[:, j] = factor.from_uniform(block[:, k + j])
    ab = np.empty((k, n, k))
    for i in range(k):
        ab[i] = a
        ab[i][:, i] = b[:, i]

    def evaluate(rows: NDArray) -> NDArray:
        return np.array([float(model(row)) for row in rows])

    f_a = evaluate(a)
    f_b = evaluate(b)
    f_ab = np.array([evaluate(ab[i]) for i in range(k)])
    return SobolDesign(
        factor_names=tuple(f.name for f in factors),
        a=a, b=b, ab=ab, f_a=f_a, f_b=f_b, f_ab=f_ab,
    )


@dataclass(frozen=True)
class SensitivityResult:
    """First and total-order sensitivity indices, optionally with intervals."""

    factor_names: tuple[str, ...]
    first_order: NDArray[np.float64]
    total_order: NDArray[np.float64]
    first_ci: Optional[NDArray[np.float64]] = None   # (k, 2)
    total_ci: Optional[NDArray[np.float64]] = None   # (k, 2)
    n_samples: int = 0
    n_replicates: int = 0
    skipped_replicates: int = 0

    def to_csv(self, path) -> None:
        no_ci = [(None, None)] * len(self.factor_names)
        first_ci = no_ci if self.first_ci is None else self.first_ci
        total_ci = no_ci if self.total_ci is None else self.total_ci
        _write_csv(path, ["factor", "S", "S_lo", "S_hi", "ST", "ST_lo", "ST_hi"],
                   ([name, self.first_order[i], *first_ci[i],
                     self.total_order[i], *total_ci[i]]
                    for i, name in enumerate(self.factor_names)))


def _indices_from_outputs(f_a: NDArray, f_b: NDArray, f_ab: NDArray):
    """First/total-order estimators from the stacked design outputs."""
    f0 = np.mean(f_a, axis=-1, keepdims=True)
    variance = np.mean((f_a - f0) ** 2, axis=-1)
    first = np.mean(f_b[..., None, :] * (f_ab - f_a[..., None, :]), axis=-1) / variance[..., None]
    total = 0.5 * np.mean((f_a[..., None, :] - f_ab) ** 2, axis=-1) / variance[..., None]
    return first, total, variance


def estimate_indices(design: SobolDesign) -> SensitivityResult:
    """Point estimates of the first and total-order indices.

    The first-order estimator averages ``f(B) (f(AB_i) - f(A))`` and the
    total-order estimator averages ``(f(A) - f(AB_i))^2 / 2``, both scaled
    by the sample variance of ``f(A)``. Values are reported exactly as
    estimated, without clipping into [0, 1].
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        first, total, variance = _indices_from_outputs(design.f_a, design.f_b, design.f_ab)
    if variance <= 0.0:
        raise ValueError("the model output has zero variance over the design")
    return SensitivityResult(
        factor_names=design.factor_names,
        first_order=first, total_order=total,
        n_samples=design.f_a.shape[0],
    )


def bootstrap_ci(design: SobolDesign, replicates: int,
                 seed: int = 0) -> SensitivityResult:
    """Percentile bootstrap intervals (95%) for both index families.

    Rows are resampled with replacement jointly across ``f(A)``, ``f(B)``,
    and every ``f(AB_i)``, preserving their coupling; zero-variance
    resamples are skipped and counted.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"use at least {MIN_REPLICATES} bootstrap replicates")
    point = estimate_indices(design)
    n = design.f_a.shape[0]
    k = len(design.factor_names)
    rng = np.random.default_rng(seed)
    first_reps, total_reps = [], []
    skipped = 0
    chunk = max(1, min(replicates, 131072 // max(n // 128, 1)))
    done = 0
    while done < replicates:
        size = min(chunk, replicates - done)
        idx = rng.integers(0, n, size=(size, n))
        fa = design.f_a[idx]
        fb = design.f_b[idx]
        fab = np.stack([design.f_ab[i][idx] for i in range(k)], axis=1)  # (size, k, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            first, total, variance = _indices_from_outputs(fa, fb, fab)
        ok = variance > 0.0
        skipped += int(np.sum(~ok))
        first_reps.append(first[ok])
        total_reps.append(total[ok])
        done += size
    first_all = np.concatenate(first_reps)
    total_all = np.concatenate(total_reps)
    tail = 100.0 * (1.0 - _CI_LEVEL) / 2.0
    first_ci = np.percentile(first_all, [tail, 100.0 - tail], axis=0).T
    total_ci = np.percentile(total_all, [tail, 100.0 - tail], axis=0).T
    return SensitivityResult(
        factor_names=design.factor_names,
        first_order=point.first_order, total_order=point.total_order,
        first_ci=first_ci, total_ci=total_ci,
        n_samples=n, n_replicates=replicates - skipped,
        skipped_replicates=skipped,
    )


@dataclass(frozen=True)
class RobustnessCase:
    index: int
    factors: ProblemFactors
    score: float
    status: str


@dataclass(frozen=True)
class RobustnessTable:
    """Per-case accuracy scores over an ensemble of generated posteriors."""

    cases: tuple[RobustnessCase, ...]

    def fraction_below(self) -> float:
        """Share of the cases with score at most ``ACCURACY_THRESHOLD``."""
        return float(np.mean([c.score <= ACCURACY_THRESHOLD for c in self.cases]))

    def mean_score(self) -> float:
        return float(np.mean([c.score for c in self.cases]))

    def to_csv(self, path) -> None:
        _write_csv(path, ["case", "d", "M", "omega", "c", "lambda", "Y", "status"],
                   ([c.index, c.factors.d, c.factors.n_components, c.factors.weight_decay,
                     c.factors.correlation, c.factors.max_overlap, c.score, c.status]
                    for c in self.cases))


def evaluate_case(factors: ProblemFactors, gola_cfg: GolaConfig,
                  jsd_samples: int, seed: int) -> tuple[float, str]:
    """Score one synthetic case: normalized JSD between truth and the fit.

    The case seed gives four seeds: the truth takes the first, the fit the
    third and the score the fourth. The truth is generated once, because
    generation fails only for factors that no seed can satisfy.

    Pipeline failures (a ``PostmixError`` or ``LinAlgError``) score 1, the
    worst value, with the exception's name as the status rather than being
    dropped, so ensemble statistics keep their full design size. Any other
    exception is a fault in the program and propagates.
    """
    seeds = np.random.SeedSequence(seed).generate_state(4)
    try:
        truth = generate_test_gmm(factors, int(seeds[0]))
        target = truth.as_target()
        cfg = replace(gola_cfg, master_seed=int(seeds[2]))
        fit = run_gola(target, cfg).mixture
        score = jsd_normalized(truth, fit, jsd_samples, int(seeds[3])).value
        return float(score), "ok"
    except (PostmixError, np.linalg.LinAlgError) as exc:
        return 1.0, type(exc).__name__


def robustness_study(spec: FactorSpec, n_cases: int, gola_cfg: GolaConfig,
                     jsd_samples: int = 4096, seed: int = 0) -> RobustnessTable:
    """Sample factor settings, fit each generated posterior, score the fits.

    Returns the full per-case table; ``fraction_below`` summarizes how many
    cases reached the accuracy threshold.
    """
    check_integer("n_cases", n_cases, 1)
    check_integer("jsd_samples", jsd_samples, 2)
    case_seeds = np.random.SeedSequence(seed).generate_state(2 * n_cases)
    cases = []
    for i in range(n_cases):
        rng = np.random.default_rng(int(case_seeds[2 * i]))
        factors = spec.sample(rng)
        score, status = evaluate_case(
            factors, gola_cfg, jsd_samples, int(case_seeds[2 * i + 1])
        )
        cases.append(RobustnessCase(i, factors, score, status))
    return RobustnessTable(tuple(cases))
