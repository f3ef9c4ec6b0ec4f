import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from postmix.density import (
    GaussianComponent,
    MixtureModel,
    UnnormalizedTarget,
    eval_log_density,
    mixture_sample,
)
from postmix.exceptions import (
    NoModesFoundError,
    NonFiniteDensityError,
    RejectedStartError,
    WeightUnderflowError,
)
from postmix.gola import (
    _DEDUP_THRESHOLD,
    GolaConfig,
    LocalMinimum,
    dedup_modes,
    laplace_at_mode,
    local_minimize,
    multistart_minimize,
    run_gola,
    solve_weights,
)
from postmix.mathkit import chi_square_survival
from postmix.metrics import jsd_normalized
from postmix.sensibench import ProblemFactors, generate_test_gmm


def _box(dim, lo=-5.0, hi=5.0):
    return np.tile([lo, hi], (dim, 1))


def _quadratic_target(dim=2):
    return UnnormalizedTarget(
        dim=dim,
        log_phi=lambda z: -0.5 * float(z @ z),
        search_box=_box(dim),
        gradient=lambda z: -z,
    )


def _double_well_target():
    # -log phi = (z^2 - 1)^2: minima at +-1, local max at 0
    return UnnormalizedTarget(
        dim=1,
        log_phi=lambda z: -((float(z[0]) ** 2 - 1.0) ** 2),
        search_box=_box(1, -2.0, 2.0),
        gradient=lambda z: np.array([-4.0 * z[0] * (z[0] ** 2 - 1.0)]),
    )


def _gaussian_mixture_target(means, covs, weights):
    comps = tuple(
        GaussianComponent(np.asarray(m, float), np.linalg.cholesky(np.asarray(c, float)))
        for m, c in zip(means, covs)
    )
    mix = MixtureModel(comps, np.asarray(weights, float))
    return mix, mix.as_target()


class TestLocalMinimize:
    def test_quadratic_converges_to_origin(self):
        cfg = GolaConfig(gradient_tol=1e-9)
        for start in ([3.0, -4.0], [0.1, 0.1], [-4.9, 4.9]):
            result = local_minimize(_quadratic_target(), np.array(start), cfg)
            assert result.converged
            assert np.linalg.norm(result.location) <= 1e-8

    def test_double_well_basin(self):
        # gradient of (z^2-1)^2 is negative on (0, 1): descent from 0.4 ends at +1
        result = local_minimize(_double_well_target(), np.array([0.4]),
                                GolaConfig(gradient_tol=1e-10))
        assert result.converged
        assert result.location[0] == pytest.approx(1.0, abs=1e-6)

    def test_stationary_start_returns_immediately(self):
        result = local_minimize(_quadratic_target(), np.zeros(2), GolaConfig())
        assert result.converged
        assert result.gradient_norm == 0.0
        assert result.objective == 0.0

    def test_rejected_start(self):
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -np.inf if abs(z[0]) > 0.5 else 0.0,
            search_box=_box(1),
        )
        with pytest.raises(RejectedStartError):
            local_minimize(target, np.array([2.0]), GolaConfig())

    def test_methods_reach_a_minimum_from_far_start(self):
        # large early steps may hop basins; the descent must still land on
        # one of the two true minima
        cfg = GolaConfig(gradient_tol=1e-9)
        result = local_minimize(_double_well_target(), np.array([1.9]), cfg)
        assert result.converged
        assert abs(result.location[0]) == pytest.approx(1.0, abs=1e-6)


class TestMultistart:
    def test_double_well_finds_both_minima(self):
        cfg = GolaConfig(n_starts=16, gradient_tol=1e-9)
        minima = multistart_minimize(_double_well_target(), cfg)
        locs = np.array([m.location[0] for m in minima])
        assert np.any(np.abs(locs - 1.0) < 1e-6)
        assert np.any(np.abs(locs + 1.0) < 1e-6)

    def test_unimodal_all_agree(self):
        _, target = _gaussian_mixture_target(
            [[0.5, -0.5]], [np.eye(2)], [1.0]
        )
        minima = multistart_minimize(target, GolaConfig(n_starts=12, gradient_tol=1e-9))
        locs = np.array([m.location for m in minima])
        assert np.max(np.abs(locs - locs[0])) <= 1e-6

    def test_sorted_by_objective(self):
        minima = multistart_minimize(_double_well_target(),
                                     GolaConfig(n_starts=16, gradient_tol=1e-9))
        objs = [m.objective for m in minima]
        assert objs == sorted(objs)

    def test_three_mode_gmm_census(self):
        factors = ProblemFactors(d=2, n_components=3, weight_decay=1.0,
                                     correlation=0.0, max_overlap=1e-2)
        truth = generate_test_gmm(factors, seed=3)
        target = truth.as_target()
        minima = multistart_minimize(target, GolaConfig(n_starts=64, gradient_tol=1e-8))
        # dense-grid census oracle: cluster converged minima, expect >= 3
        locs = np.array([m.location for m in minima])
        clusters = []
        for loc in locs:
            if not any(np.linalg.norm(loc - c) < 0.5 for c in clusters):
                clusters.append(loc)
        assert len(clusters) >= 3

    def test_no_modes_error(self):
        # zero density everywhere: every start is rejected, nothing converges
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -np.inf,
            search_box=_box(1),
        )
        with pytest.raises(NoModesFoundError):
            multistart_minimize(target, GolaConfig(n_starts=4))

    def test_box_corner_is_a_constrained_stationary_point(self):
        # a monotone density has its box-constrained mode at the corner,
        # where the projected gradient vanishes
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: float(z[0]),
            search_box=_box(1),
            gradient=lambda z: np.ones(1),
        )
        minima = multistart_minimize(target, GolaConfig(n_starts=4))
        assert all(m.location[0] == 5.0 for m in minima)

    def test_nan_density_raises_with_point(self):
        # NaN is a fault in the target, not a rejected start
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.nan if z[0] > 0.0 else -0.5 * float(z @ z),
            search_box=_box(1),
            gradient=lambda z: -z,
        )
        with pytest.raises(NonFiniteDensityError) as exc:
            multistart_minimize(target, GolaConfig(n_starts=8))
        assert exc.value.point[0] > 0.0

    def test_nan_past_the_box_edge_raises_with_point(self):
        # descent ends on the upper edge, where the finite-difference
        # gradient steps outside the box onto NaN: a fault in the target,
        # not a start to drop without a trace
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.nan if z[0] > 5.0 else float(z[0]),
            search_box=_box(1),
        )
        with pytest.raises(NonFiniteDensityError) as exc:
            multistart_minimize(target, GolaConfig(n_starts=4))
        assert exc.value.point[0] > 5.0


class TestLaplace:
    def test_exact_on_gaussian(self):
        mean = np.array([1.0, -2.0, 0.5])
        m = np.array([[1.2, 0.3, 0.0], [0.3, 0.8, -0.2], [0.0, -0.2, 1.5]])
        mix, target = _gaussian_mixture_target([mean], [m], [1.0])
        comp = laplace_at_mode(target, mean)
        np.testing.assert_allclose(comp.mean, mean)
        np.testing.assert_allclose(comp.cov, m, rtol=1e-8, atol=1e-10)

    def test_double_well_variance(self):
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -((float(z[0]) ** 2 - 1.0) ** 2),
            search_box=_box(1, -2.0, 2.0),
        )
        comp = laplace_at_mode(target, np.array([1.0]))
        # curvature 8 from the symbolic oracle, so variance 1/8
        assert comp.cov[0, 0] == pytest.approx(1.0 / 8.0, rel=1e-4)

    def test_correlated_2d(self):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        _, target = _gaussian_mixture_target([[0.0, 0.0]], [cov], [1.0])
        comp = laplace_at_mode(target, np.zeros(2))
        # analytic inverse of the 2x2 precision recovers the covariance
        assert comp.cov[0, 1] == pytest.approx(0.7, abs=1e-6)

    def test_random_gaussians_recovered(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            d = int(rng.integers(1, 11))
            m = rng.standard_normal((d, d))
            cov = m @ m.T + 0.5 * np.eye(d)
            mean = rng.standard_normal(d)
            _, target = _gaussian_mixture_target([mean], [cov], [1.0])
            finite_difference = dataclasses.replace(target, gradient=None, hessian=None)
            # analytic Hessians, then the finite-difference stencil
            for fit_target, tol in ((target, 1e-6), (finite_difference, 1e-4)):
                comp = laplace_at_mode(fit_target, mean)
                err = np.linalg.norm(comp.cov - cov, "fro") / np.linalg.norm(cov, "fro")
                assert err <= tol


@st.composite
def _single_gaussians(draw):
    """Mean and covariance of a Gaussian in d = 1..6 whose covariance has
    eigenvalues between 1/e and e."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (q * np.exp(rng.uniform(-1.0, 1.0, d))) @ q.T
    return rng.uniform(-3.0, 3.0, d), 0.5 * (cov + cov.T)


class TestLaplaceProperties:
    @given(_single_gaussians())
    def test_exact_at_the_mean_of_a_gaussian(self, gaussian):
        mean, cov = gaussian
        _, target = _gaussian_mixture_target([mean], [cov], [1.0])
        finite_difference = dataclasses.replace(target, gradient=None, hessian=None)
        for fit_target, rtol in ((target, 1e-10), (finite_difference, 1e-6)):
            comp = laplace_at_mode(fit_target, mean)
            np.testing.assert_array_equal(comp.mean, mean)
            err = np.linalg.norm(comp.cov - cov, "fro") / np.linalg.norm(cov, "fro")
            assert err <= rtol


@st.composite
def _dedup_cases(draw):
    """A Gaussian-mixture target in d = 1..5 and candidates scattered around
    its means, some on them, sorted by objective as multistart returns them."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = 3.0 * rng.standard_normal((k, d))
    covs = []
    for _ in range(k):
        chol = np.tril(0.3 * rng.standard_normal((d, d)), -1)
        chol[np.diag_indices(d)] = np.exp(rng.uniform(-0.5, 0.5, d))
        covs.append(chol @ chol.T)
    _, target = _gaussian_mixture_target(means, covs, np.full(k, 1.0 / k))
    n = draw(st.integers(1, 12))
    spread = draw(st.sampled_from([0.0, 0.1, 1.0]))
    locations = means[rng.integers(0, k, n)] + spread * rng.standard_normal((n, d))
    candidates = [LocalMinimum(loc, -eval_log_density(target, loc), 0.0, True, i)
                  for i, loc in enumerate(locations)]
    candidates.sort(key=lambda m: (m.objective, tuple(m.location)))
    return target, candidates


class TestDedup:
    def _minima(self, locations, objectives):
        return [
            LocalMinimum(np.asarray(loc, float), obj, 0.0, True, i)
            for i, (loc, obj) in enumerate(zip(locations, objectives))
        ]

    def test_exact_duplicate_rejected(self):
        _, target = _gaussian_mixture_target([[0.0, 0.0]], [np.eye(2)], [1.0])
        cands = self._minima([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        comps, log = dedup_modes(cands, target)
        assert len(comps) == 1
        assert log[0].accepted and not log[1].accepted
        assert log[1].survival == 1.0  # zero distance is maximally typical

    def test_far_candidate_accepted(self):
        mix, target = _gaussian_mixture_target(
            [[0.0, 0.0], [10.0, 0.0]], [np.eye(2), np.eye(2)], [0.5, 0.5]
        )
        cands = self._minima([[0.0, 0.0], [10.0, 0.0]], [0.0, 0.1])
        comps, log = dedup_modes(cands, target)
        assert len(comps) == 2
        # survival of D^2 = 100 with 2 dof is exp(-50)
        assert log[1].survival == pytest.approx(math.exp(-50.0), rel=1e-9)

    def test_single_candidate_accepted(self):
        _, target = _gaussian_mixture_target([[1.0, 1.0]], [np.eye(2)], [1.0])
        comps, log = dedup_modes(self._minima([[1.0, 1.0]], [0.0]), target)
        assert len(comps) == 1 and log[0].accepted
        assert log[0].survival == 0.0

    def test_idempotent_on_accepted_output(self):
        mix, target = _gaussian_mixture_target(
            [[-3.0, 0.0], [3.0, 0.0]], [0.5 * np.eye(2), 0.5 * np.eye(2)], [0.5, 0.5]
        )
        cands = self._minima([[-3.0, 0.0], [3.0, 0.0], [-3.0, 1e-9]], [0.0, 0.1, 0.2])
        comps, _ = dedup_modes(cands, target)
        again = self._minima([list(c.mean) for c in comps],
                             list(range(len(comps))))
        comps2, _ = dedup_modes(again, target)
        assert len(comps2) == len(comps)
        for a, b in zip(comps, comps2):
            np.testing.assert_array_equal(a.mean, b.mean)

    def test_empty_input(self):
        _, target = _gaussian_mixture_target([[0.0]], [np.eye(1)], [1.0])
        comps, log = dedup_modes([], target)
        assert comps == [] and log == []

    @given(_dedup_cases())
    def test_survival_at_the_nearest_component(self, case):
        target, candidates = case
        comps, log = dedup_modes(candidates, target)
        accepted = []
        for cand, decision in zip(candidates, log):
            # per-component triangular solves against the Cholesky factors
            # of the components accepted so far
            reference = max(
                (chi_square_survival(float(y @ y), target.dim) for y in (
                    solve_triangular(c.chol_cov, cand.location - c.mean, lower=True)
                    for c in accepted)),
                default=0.0)
            np.testing.assert_allclose(decision.survival, reference, rtol=1e-12)
            assert (decision.note == "duplicate") == (reference >= _DEDUP_THRESHOLD)
            if decision.accepted:
                accepted.append(comps[len(accepted)])
        assert len(accepted) == len(comps)


class TestSolveWeights:
    def test_scaled_single_component(self):
        mean = np.array([0.5])
        cov = np.array([[0.8]])
        comp = GaussianComponent(mean, np.linalg.cholesky(cov))
        mix = MixtureModel((comp,), np.ones(1))
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.log(2.0) + float(mix.log_pdf(z)),
            search_box=_box(1),
            log_phi_batch=lambda pts: math.log(2.0) + mix.log_pdf(pts),
        )
        weights, residual = solve_weights(target, [comp], 512, seed=0)
        assert weights[0] == pytest.approx(2.0, abs=1e-8)
        assert residual <= 1e-8

    def test_two_component_recovery(self):
        mix, target = _gaussian_mixture_target(
            [[-2.0], [2.0]], [np.eye(1), np.eye(1)], [0.3, 0.7]
        )
        weights, _ = solve_weights(target, list(mix.components), 4096, seed=1)
        normalized = weights / weights.sum()
        np.testing.assert_allclose(normalized, [0.3, 0.7], atol=1e-3)

    def test_spurious_component_gets_zero_weight(self):
        mix, target = _gaussian_mixture_target(
            [[-2.0], [2.0]], [np.eye(1), np.eye(1)], [0.3, 0.7]
        )
        far = GaussianComponent(np.array([40.0]), np.eye(1))
        weights, _ = solve_weights(target, list(mix.components) + [far], 4096, seed=2)
        assert weights[2] <= 1e-6

    def test_kkt_at_solution(self):
        mix, target = _gaussian_mixture_target(
            [[-1.0], [1.5]], [0.5 * np.eye(1), 0.7 * np.eye(1)], [0.5, 0.5]
        )
        comps = list(mix.components)
        n = 1024
        pts = mixture_sample(MixtureModel(tuple(comps), np.full(2, 0.5)), n, seed=3)
        weights, _ = solve_weights(target, comps, n, seed=3)
        design = np.column_stack([np.exp(c.log_pdf(pts)) for c in comps])
        y = np.exp(mix.log_pdf(pts))
        grad = design.T @ (design @ weights - y)
        assert np.all(np.abs(grad[weights > 0]) <= 1e-8 * np.linalg.norm(design, 2))
        assert np.all(grad[weights == 0] >= -1e-8 * np.linalg.norm(design, 2))

    def test_all_underflow_raises(self):
        comp = GaussianComponent(np.zeros(1), np.eye(1))
        target = UnnormalizedTarget(
            dim=1, log_phi=lambda z: -np.inf, search_box=_box(1),
            log_phi_batch=lambda pts: np.full(pts.shape[0], -np.inf),
        )
        with pytest.raises(WeightUnderflowError):
            solve_weights(target, [comp], 128, seed=4)

    def test_nan_at_one_point_is_not_underflow(self):
        comp = GaussianComponent(np.zeros(1), np.eye(1))

        def log_phi_batch(pts):
            out = comp.log_pdf(pts)
            out[5] = math.nan
            return out

        target = UnnormalizedTarget(dim=1, log_phi=lambda z: float(comp.log_pdf(z)),
                                    search_box=_box(1), log_phi_batch=log_phi_batch)
        with pytest.raises(NonFiniteDensityError) as exc:
            solve_weights(target, [comp], 128, seed=4)
        points = mixture_sample(MixtureModel((comp,), np.ones(1)), 128, 4)
        np.testing.assert_array_equal(exc.value.point, points[5])


class TestRunGola:
    def test_unimodal_exact_recovery_and_evidence(self):
        mean = np.array([1.0, -0.5])
        cov = np.array([[1.5, 0.4], [0.4, 0.8]])
        scale = 3.7  # unnormalized: phi = scale * N(mean, cov)
        comp = GaussianComponent(mean, np.linalg.cholesky(cov))
        mix = MixtureModel((comp,), np.ones(1))
        target = UnnormalizedTarget(
            dim=2,
            log_phi=lambda z: math.log(scale) + float(mix.log_pdf(z)),
            search_box=mix.as_target().search_box,
            gradient=mix.as_target().gradient,
            hessian=mix.as_target().hessian,
            log_phi_batch=lambda pts: math.log(scale) + mix.log_pdf(pts),
        )
        report = run_gola(target, GolaConfig(n_starts=8, master_seed=0))
        assert report.mixture.n_components == 1
        np.testing.assert_allclose(report.mixture.components[0].mean, mean, atol=1e-6)
        np.testing.assert_allclose(report.mixture.components[0].cov, cov,
                                   rtol=1e-6, atol=1e-8)
        assert report.evidence == pytest.approx(scale, rel=0.01)

    def test_two_mode_target_low_jsd(self):
        mix, target = _gaussian_mixture_target(
            [[-2.5, 0.0], [2.5, 1.0]],
            [np.array([[0.5, 0.1], [0.1, 0.3]]), np.array([[0.4, -0.1], [-0.1, 0.6]])],
            [0.4, 0.6],
        )
        report = run_gola(target, GolaConfig(master_seed=1))
        assert report.mixture.n_components == 2
        jsd = jsd_normalized(mix, report.mixture, 8192, seed=0)
        assert jsd.value <= 0.05

    def test_mode_outside_box_excluded(self):
        mix, _ = _gaussian_mixture_target(
            [[-3.0], [20.0]], [0.5 * np.eye(1), 0.5 * np.eye(1)], [0.5, 0.5]
        )
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: float(mix.log_pdf(z)),
            search_box=np.array([[-6.0, 3.0]]),  # excludes the mode at 20
            gradient=lambda z: mix.as_target().gradient(z),
            log_phi_batch=mix.log_pdf,
        )
        report = run_gola(target, GolaConfig(n_starts=32, master_seed=2))
        for comp in report.mixture.components:
            assert comp.mean[0] == pytest.approx(-3.0, abs=1e-4)
        assert report.mixture.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bitwise_determinism_across_runs(self):
        mix, target = _gaussian_mixture_target(
            [[-2.0, 0.5], [2.0, -0.5]], [0.4 * np.eye(2), 0.6 * np.eye(2)], [0.45, 0.55]
        )
        cfg = GolaConfig(n_starts=32, master_seed=5)
        assert run_gola(target, cfg).to_dict() == run_gola(target, cfg).to_dict()

    def test_evidence_consistency_many_seeds(self):
        mean = np.array([0.3])
        cov = np.array([[0.9]])
        scale = 2.2
        comp = GaussianComponent(mean, np.linalg.cholesky(cov))
        mix = MixtureModel((comp,), np.ones(1))
        base = mix.as_target()
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.log(scale) + float(mix.log_pdf(z)),
            search_box=base.search_box,
            gradient=base.gradient,
            hessian=base.hessian,
            log_phi_batch=lambda pts: math.log(scale) + mix.log_pdf(pts),
        )
        for seed in range(20):
            cfg = GolaConfig(n_starts=8, master_seed=seed)
            report = run_gola(target, cfg)
            assert report.evidence == pytest.approx(scale, rel=0.02)

    def test_report_serialization_schema(self):
        mix, target = _gaussian_mixture_target([[0.0]], [np.eye(1)], [1.0])
        report = run_gola(target, GolaConfig(n_starts=4, master_seed=0))
        doc = report.to_dict()
        assert set(doc) == {"mixture", "evidence", "weight_residual",
                            "dedup_rule", "dedup_log", "raw_minima"}
        assert doc["mixture"]["dim"] == 1
        assert all({"candidate", "survival", "accepted", "note"} == set(e)
                   for e in doc["dedup_log"])
