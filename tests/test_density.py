import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal, skew

from postmix import vi
from postmix.density import (
    GaussianComponent,
    MixtureModel,
    SinhArcsinhMixture,
    SinhArcsinhSpec,
    UnnormalizedTarget,
    _inverse_lower,
    _responsibilities_and_grads,
    eval_gradient,
    eval_gradient_batch,
    eval_hessian,
    eval_log_density,
    eval_log_density_batch,
    gaussian_log_pdfs,
    log_sum_exp,
    make_sinh_arcsinh_mixture,
    mixture_from_dict,
    mixture_log_pdf,
    mixture_log_pdf_gradient,
    mixture_log_pdf_hessian,
    mixture_sample,
    mixture_to_dict,
    random_sinh_arcsinh_mixture,
)
from postmix.exceptions import DerivativeError, NonFiniteDensityError

LOG_2PI = math.log(2.0 * math.pi)


def _gaussian_target(mean, cov):
    comp = GaussianComponent(np.asarray(mean, float),
                             np.linalg.cholesky(np.asarray(cov, float)))
    return MixtureModel((comp,), np.ones(1)).as_target()


def _simple_target(dim, log_phi, box=None, **kwargs):
    if box is None:
        box = np.tile([-10.0, 10.0], (dim, 1))
    return UnnormalizedTarget(dim=dim, log_phi=log_phi, search_box=box, **kwargs)


class TestEvalLogDensity:
    def test_standard_gaussian_at_origin(self):
        for d in (1, 2, 5):
            target = _gaussian_target(np.zeros(d), np.eye(d))
            assert eval_log_density(target, np.zeros(d)) == pytest.approx(
                -0.5 * d * LOG_2PI, rel=1e-14
            )

    def test_exp_minus_z_squared(self):
        target = _simple_target(1, lambda z: -float(z[0]) ** 2)
        assert eval_log_density(target, np.array([2.0])) == -4.0

    def test_two_component_gmm_matches_two_term_sum(self):
        comps = (
            GaussianComponent(np.array([-1.0]), np.eye(1)),
            GaussianComponent(np.array([1.0]), np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([0.5, 0.5]))
        # direct two-term summation oracle
        direct = math.log(
            0.5 * math.exp(-0.5 * LOG_2PI - 0.5)
            + 0.5 * math.exp(-0.5 * LOG_2PI - 0.5)
        )
        assert mixture_log_pdf(mix, np.array([0.0])) == pytest.approx(direct, rel=1e-14)

    def test_dimension_mismatch(self):
        target = _gaussian_target(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            eval_log_density(target, np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_raises_with_point(self, bad):
        target = _simple_target(1, lambda z: bad if z[0] > 1.0 else -math.inf)
        assert eval_log_density(target, np.array([0.0])) == -math.inf
        with pytest.raises(NonFiniteDensityError) as exc:
            eval_log_density(target, np.array([2.0]))
        assert exc.value.point[0] == 2.0
        points = np.array([[0.0], [3.0], [4.0]])
        for batched in (target, _simple_target(
                1, target.log_phi,
                log_phi_batch=lambda pts: np.where(pts[:, 0] > 1.0, bad, -math.inf))):
            with pytest.raises(NonFiniteDensityError) as exc:
                eval_log_density_batch(batched, points)
            assert exc.value.point[0] == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_of_mixture_raises_with_point(self, bad):
        comp = GaussianComponent(np.zeros(2), np.array([[1.0, 0.0], [0.5, 2.0]]))
        target = MixtureModel((comp,), np.ones(1)).as_target()
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteDensityError) as exc:
                eval_log_density(target, np.array([bad, 0.0]))
            np.testing.assert_array_equal(exc.value.point, [bad, 0.0])
            with pytest.raises(NonFiniteDensityError) as exc:
                eval_log_density_batch(target, np.array([[0.0, 0.0], [bad, 1.0]]))
            np.testing.assert_array_equal(exc.value.point, [bad, 1.0])


class TestEvalGradient:
    def test_quadratic_log_density(self):
        target = _simple_target(1, lambda z: -0.5 * float(z[0]) ** 2)
        grad = eval_gradient(target, np.array([1.5]))
        assert grad[0] == pytest.approx(-1.5, abs=1e-9)

    def test_vanishes_at_maximum(self):
        target = _simple_target(2, lambda z: -float(z @ z))
        grad = eval_gradient(target, np.zeros(2))
        assert np.linalg.norm(grad) <= 1e-6

    def test_sinh_arcsinh_matches_five_point_stencil(self):
        spec = SinhArcsinhSpec(np.array([0.2]), np.array([0.9]),
                               np.array([0.7]), np.array([1.2]))
        mix = SinhArcsinhMixture([spec], np.ones(1))
        target = mix.as_target()
        z = 0.3
        h = 1e-3
        f = lambda y: float(mix.log_pdf(np.array([y])))
        five_point = (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)
        fd = eval_gradient(
            _simple_target(1, target.log_phi), np.array([z])
        )
        assert fd[0] == pytest.approx(five_point, abs=1e-6)

    def test_analytic_matches_finite_difference_at_random_points(self):
        rng = np.random.default_rng(11)
        mix = random_sinh_arcsinh_mixture(3, 2, seed=4)
        target = mix.as_target()
        fd_target = _simple_target(3, target.log_phi, box=target.search_box)
        for _ in range(100):
            z = rng.uniform(-2.0, 2.0, size=3)
            analytic = eval_gradient(target, z)
            fd = eval_gradient(fd_target, z)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_error_carries_offending_point(self):
        def log_phi(z):
            return -np.inf if z[0] > 1.0 else 0.0

        target = _simple_target(1, log_phi)
        with pytest.raises(DerivativeError) as err:
            eval_gradient(target, np.array([1.0]))
        assert err.value.point is not None
        assert err.value.point[0] > 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_in_stencil_raises_non_finite(self, bad):
        # a fault in the target, not a broken stencil
        target = _simple_target(1, lambda z: bad if z[0] > 1.0 else -float(z[0]) ** 2)
        with pytest.raises(NonFiniteDensityError) as exc:
            eval_gradient(target, np.array([1.0]))
        assert exc.value.point[0] > 1.0


class TestEvalGradientBatch:
    def test_finite_differences_equal_per_row_bitwise(self):
        mix = random_sinh_arcsinh_mixture(3, 2, seed=4)
        target = _simple_target(3, mix.as_target().log_phi)
        pts = mix.sample(12, seed=2)
        batch = eval_gradient_batch(target, pts)
        assert batch.shape == (12, 3)
        assert np.array_equal(batch, np.array([eval_gradient(target, z) for z in pts]))
        assert eval_gradient_batch(target, np.empty((0, 3))).shape == (0, 3)

    def test_uses_the_batch_callable_once(self):
        mix = random_sinh_arcsinh_mixture(2, 2, seed=1)
        rows = []

        def gradient_batch(points):
            rows.append(len(points))
            return mix.gradient(points)

        target = _simple_target(2, mix.as_target().log_phi,
                                gradient=lambda z: pytest.fail("scalar call"),
                                gradient_batch=gradient_batch)
        pts = mix.sample(9, seed=3)
        assert np.array_equal(eval_gradient_batch(target, pts), mix.gradient(pts))
        assert rows == [9]

    def test_minus_inf_in_stencil_carries_the_point(self):
        target = _simple_target(1, lambda z: -math.inf if z[0] > 1.0 else 0.0)
        with pytest.raises(DerivativeError) as err:
            eval_gradient_batch(target, np.array([[0.0], [1.0]]))
        assert err.value.point[0] > 1.0

    @pytest.mark.parametrize("shape", [(2,), (4, 3), (1, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        target = _gaussian_target(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            eval_gradient_batch(target, np.zeros(shape))


def _hessian_stencil_size(d):
    return 1 + 2 * d + 2 * d * (d - 1)


@st.composite
def _sinh_arcsinh_points(draw):
    """Sinh-arcsinh mixtures in d = 1..6 with K = 1..3, and a sampled point."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    mix = random_sinh_arcsinh_mixture(d, k, seed=seed)
    return mix, mix.sample(1, seed)[0]


class TestEvalHessian:
    @given(_sinh_arcsinh_points())
    def test_stencil_is_one_batched_call_equal_to_per_point(self, case):
        mix, z = case
        calls = {"log_phi": 0, "batch_rows": []}

        def log_phi(point):
            calls["log_phi"] += 1
            return float(mix.log_pdf(point))

        def log_phi_batch(points):
            calls["batch_rows"].append(len(points))
            return mix.log_pdf(points)

        target = _simple_target(mix.dim, log_phi, log_phi_batch=log_phi_batch)
        hess = eval_hessian(target, z)
        assert calls == {"log_phi": 0, "batch_rows": [_hessian_stencil_size(mix.dim)]}
        per_point = eval_hessian(dataclasses.replace(target, log_phi_batch=None), z)
        assert calls["log_phi"] == _hessian_stencil_size(mix.dim)
        assert np.array_equal(hess, per_point)

    @pytest.mark.parametrize("batched", [False, True])
    def test_minus_inf_in_stencil_carries_the_point(self, batched):
        def log_phi(z):
            return -math.inf if z[0] + z[1] > 1.0 else -float(z @ z)

        batch = (lambda pts: np.array([log_phi(p) for p in pts])) if batched else None
        target = _simple_target(2, log_phi, log_phi_batch=batch)
        with pytest.raises(DerivativeError) as err:
            eval_hessian(target, np.array([0.5, 0.5]))
        assert log_phi(err.value.point) == -math.inf
        offsets = err.value.point - 0.5
        step = np.abs(offsets).max()
        assert step > 0.0 and np.all(np.isin(offsets, [-step, 0.0, step]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_in_stencil_raises_non_finite(self, bad):
        target = _simple_target(2, lambda z: bad if z[1] < 0.0 else -float(z @ z))
        with pytest.raises(NonFiniteDensityError) as exc:
            eval_hessian(target, np.array([0.3, 0.0]))
        assert exc.value.point[1] < 0.0

    def test_gaussian_gives_precision_everywhere(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        target = _gaussian_target(np.array([0.5, -0.5]), cov)
        precision = np.linalg.inv(cov)
        for z in (np.zeros(2), np.array([2.0, 1.0])):
            np.testing.assert_allclose(eval_hessian(target, z), precision,
                                       rtol=1e-7, atol=1e-8)

    def test_separable_quadratic(self):
        target = _simple_target(
            2, lambda z: -0.5 * (float(z[0]) ** 2 + 4.0 * float(z[1]) ** 2)
        )
        np.testing.assert_allclose(eval_hessian(target, np.zeros(2)),
                                   np.diag([1.0, 4.0]), rtol=1e-6, atol=1e-7)

    def test_double_well_curvature(self):
        # -log phi = (z^2 - 1)^2 has second derivative 12 z^2 - 4, so 8 at z = 1
        target = _simple_target(1, lambda z: -(float(z[0]) ** 2 - 1.0) ** 2)
        assert eval_hessian(target, np.array([1.0]))[0, 0] == pytest.approx(8.0, rel=1e-5)

    def test_bitwise_symmetry(self):
        mix = random_sinh_arcsinh_mixture(4, 2, seed=5)
        target = _simple_target(4, mix.as_target().log_phi)
        hess = eval_hessian(target, np.array([0.1, -0.2, 0.4, 0.0]))
        assert np.array_equal(hess, hess.T)

    def test_matches_finite_difference_of_gradient(self):
        mix = random_sinh_arcsinh_mixture(2, 1, seed=6)
        target = mix.as_target()
        z = np.array([0.3, -0.4])
        hess = eval_hessian(_simple_target(2, target.log_phi), z)
        h = 1e-5
        fd = np.zeros((2, 2))
        for i in range(2):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[:, i] = -(mix.gradient(zp) - mix.gradient(zm)) / (2 * h)
        fd = 0.5 * (fd + fd.T)
        np.testing.assert_allclose(hess, fd, rtol=1e-4, atol=1e-6)


class TestMixtureLogPdf:
    def test_single_component_exact(self):
        mean = np.array([0.4, -1.2])
        cov = np.array([[1.2, 0.3], [0.3, 0.9]])
        mix = MixtureModel(
            (GaussianComponent(mean, np.linalg.cholesky(cov)),), np.ones(1)
        )
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((50, 2))
        ref = multivariate_normal(mean, cov).logpdf(pts)
        np.testing.assert_allclose(mixture_log_pdf(mix, pts), ref, rtol=1e-12)

    def test_symmetric_midpoint(self):
        comps = (
            GaussianComponent(np.array([-1.0]), np.eye(1)),
            GaussianComponent(np.array([1.0]), np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([0.5, 0.5]))
        component_term = math.log(0.5) + comps[0].log_pdf(np.array([0.0]))
        assert mixture_log_pdf(mix, np.array([0.0])) == pytest.approx(
            math.log(2.0) + component_term, rel=1e-14
        )

    def test_far_tail_stays_finite(self):
        mix = MixtureModel(
            (
                GaussianComponent(np.array([0.0]), np.eye(1)),
                GaussianComponent(np.array([3.0]), np.eye(1)),
            ),
            np.array([0.5, 0.5]),
        )
        z = np.array([50.0])  # 50 sigma past the closest mean
        val = mixture_log_pdf(mix, z)
        # extended-precision oracle: the nearer component dominates, and its
        # exact log term is analytic
        exact_near = math.log(0.5) - 0.5 * LOG_2PI - 0.5 * 47.0**2
        assert np.isfinite(val)
        assert val == pytest.approx(exact_near, rel=1e-12)

    def test_zero_weight_component_dropped(self):
        comps = (
            GaussianComponent(np.array([0.0]), np.eye(1)),
            GaussianComponent(np.array([100.0]), np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([1.0, 0.0]))
        assert mixture_log_pdf(mix, np.array([0.0])) == pytest.approx(
            -0.5 * LOG_2PI, rel=1e-14
        )

    def test_integrates_to_one_2d(self):
        comps = (
            GaussianComponent(np.array([-0.8, 0.2]),
                              np.linalg.cholesky(np.array([[0.5, 0.1], [0.1, 0.4]]))),
            GaussianComponent(np.array([1.0, -0.5]),
                              np.linalg.cholesky(np.array([[0.7, -0.2], [-0.2, 0.6]]))),
        )
        mix = MixtureModel(comps, np.array([0.35, 0.65]))
        total, _ = dblquad(
            lambda y, x: math.exp(mixture_log_pdf(mix, np.array([x, y]))),
            -8.0, 8.0, -8.0, 8.0, epsabs=1e-6,
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_kernels_match_scipy(self):
        rng = np.random.default_rng(15)
        means = rng.standard_normal((3, 4))
        chols = np.array([np.linalg.cholesky(a @ a.T + np.eye(4))
                          for a in rng.standard_normal((3, 4, 4))])
        pts = rng.standard_normal((20, 4))
        chol_invs = np.array([solve_triangular(c, np.eye(4), lower=True) for c in chols])
        log_n, whitened = gaussian_log_pdfs(means, chol_invs, pts)
        for k in range(3):
            ref = multivariate_normal(means[k], chols[k] @ chols[k].T).logpdf(pts)
            np.testing.assert_allclose(log_n[:, k], ref, rtol=1e-12)
            np.testing.assert_allclose(chols[k] @ whitened[k], (pts - means[k]).T,
                                       atol=1e-12)
        total, resp = log_sum_exp(log_n)
        np.testing.assert_allclose(total, np.logaddexp.reduce(log_n, axis=1), rtol=1e-13)
        np.testing.assert_allclose(resp, np.exp(log_n - total[:, None]), rtol=1e-12)

    def test_cached_inverse_whitens_ill_conditioned_covariance(self):
        # cond(Sigma) = 1e6: multiplying by the cached inverse factor must
        # keep the squared Mahalanobis terms of a triangular solve
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cov = (q * np.logspace(0.0, -6.0, 5)) @ q.T
        chol = np.linalg.cholesky(cov)
        assert np.linalg.cond(cov) == pytest.approx(1e6, rel=1e-6)
        comp = GaussianComponent(rng.standard_normal(5), chol)
        pts = comp.mean + rng.standard_normal((50, 5))
        _, whitened = gaussian_log_pdfs(comp.mean[None], comp._chol_inv[None], pts)
        ref = solve_triangular(chol, (pts - comp.mean).T, lower=True)
        np.testing.assert_allclose(np.sum(whitened[0] ** 2, axis=0),
                                   np.sum(ref ** 2, axis=0), rtol=1e-12)


@st.composite
def _mixtures(draw):
    """Random mixtures in d = 1..10 with K = 1..5, sometimes with a zero weight."""
    d = draw(st.integers(1, 10))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for _ in range(k):
        chol = np.tril(0.5 * rng.standard_normal((d, d)), -1)
        chol[np.diag_indices(d)] = np.exp(rng.uniform(-1.0, 1.0, d))
        comps.append(GaussianComponent(3.0 * rng.standard_normal(d), chol))
    weights = rng.uniform(0.1, 1.0, k)
    if k > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, k - 1))] = 0.0
    mixture = MixtureModel(tuple(comps), weights / weights.sum())
    points = 4.0 * rng.standard_normal((draw(st.integers(1, 16)), d))
    return mixture, points


def _solve_triangular_derivatives(mixture, z):
    """Gradient and Hessian of the mixture log-density from per-component
    triangular solves: a reference that does not use the cached inverse
    factors."""
    d = mixture.dim
    log_terms, scores, precisions = [], [], []
    for comp, weight in zip(mixture.components, mixture.weights):
        if weight == 0.0:
            continue
        y = solve_triangular(comp.chol_cov, z - comp.mean, lower=True)
        log_terms.append(math.log(weight) - 0.5 * (d * LOG_2PI + y @ y)
                         - np.sum(np.log(np.diag(comp.chol_cov))))
        scores.append(-solve_triangular(comp.chol_cov.T, y, lower=False))
        half = solve_triangular(comp.chol_cov, np.eye(d), lower=True)
        precisions.append(solve_triangular(comp.chol_cov.T, half, lower=False))
    resp = np.exp(np.array(log_terms) - np.logaddexp.reduce(log_terms))
    grad = sum(r * g for r, g in zip(resp, scores))
    hess = sum(r * (-p + np.outer(g, g)) for r, g, p in zip(resp, scores, precisions))
    # the largest summand of each result: an entry that cancels to near
    # zero still carries rounding of this size
    g_scale = max(np.abs(g).max() for g in scores)
    h_scale = max(np.abs(p).max() for p in precisions) + g_scale ** 2
    return grad, hess - np.outer(grad, grad), g_scale, h_scale


class TestMixtureKernelProperties:
    @given(_mixtures())
    def test_derivatives_equal_triangular_solves(self, case):
        mixture, points = case
        for z in points:
            grad, hess, g_scale, h_scale = _solve_triangular_derivatives(mixture, z)
            np.testing.assert_allclose(mixture_log_pdf_gradient(mixture, z), grad,
                                       rtol=1e-10, atol=1e-10 * g_scale)
            np.testing.assert_allclose(mixture_log_pdf_hessian(mixture, z), hess,
                                       rtol=1e-10, atol=1e-10 * h_scale)

    @given(_mixtures())
    def test_batched_log_pdf_equals_per_point(self, case):
        mixture, points = case
        per_point = np.array([mixture_log_pdf(mixture, z) for z in points])
        np.testing.assert_allclose(mixture_log_pdf(mixture, points), per_point,
                                   rtol=1e-13, atol=1e-13)

    @given(_mixtures())
    def test_vi_log_q_equals_mixture_log_pdf(self, case):
        mixture, points = case
        # logits are defined up to a constant; shift them off the normalized ones
        params = vi.from_mixture(mixture)
        params = dataclasses.replace(params, logits=params.logits + 3.0)
        log_q = vi._mixture_internals(params, points)[0]
        np.testing.assert_allclose(log_q, vi.to_mixture(params).log_pdf(points),
                                   rtol=1e-13, atol=1e-13)

    @given(_mixtures())
    def test_batched_gradient_equals_per_point(self, case):
        mixture, points = case
        per_point = np.array([mixture_log_pdf_gradient(mixture, z) for z in points])
        # an entry that cancels to near zero keeps the largest score's rounding
        scale = np.abs(_responsibilities_and_grads(mixture, points)[1]).max()
        np.testing.assert_allclose(mixture_log_pdf_gradient(mixture, points), per_point,
                                   rtol=1e-13, atol=1e-13 * scale)
        for z, grad in zip(points, per_point):
            # one point takes the single (d, K) @ (K,) contraction, bit for bit
            resp, scores = _responsibilities_and_grads(mixture, z[np.newaxis])
            assert np.array_equal(grad, scores[0].T @ resp[0])
        target = mixture.as_target()
        assert target.gradient_batch is not None
        np.testing.assert_array_equal(eval_gradient_batch(target, points),
                                      mixture_log_pdf_gradient(mixture, points))

    @given(_mixtures())
    def test_responsibilities_sum_to_one(self, case):
        mixture, points = case
        resp = vi._mixture_internals(vi.from_mixture(mixture), points)[1]
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-14)
        resp, scores = _responsibilities_and_grads(mixture, points)
        assert scores.shape == (len(points), np.count_nonzero(mixture.weights), mixture.dim)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-14)

    @given(_mixtures())
    def test_dict_round_trip_bitwise(self, case):
        mixture, _ = case
        back = mixture_from_dict(mixture_to_dict(mixture))
        np.testing.assert_array_equal(back.weights, mixture.weights)
        for a, b in zip(back.components, mixture.components):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.chol_cov, b.chol_cov)


class TestMixtureSample:
    def test_single_component_mean(self):
        mix = MixtureModel((GaussianComponent(np.zeros(3), np.eye(3)),), np.ones(1))
        n = 10**5
        draws = mixture_sample(mix, n, seed=0)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 / math.sqrt(n))

    def test_degenerate_weights(self):
        comps = (
            GaussianComponent(np.array([0.0]), 0.01 * np.eye(1)),
            GaussianComponent(np.array([100.0]), 0.01 * np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([1.0, 0.0]))
        draws = mixture_sample(mix, 1000, seed=1)
        assert np.all(np.abs(draws) < 1.0)

    def test_component_frequencies(self):
        comps = (
            GaussianComponent(np.array([0.0]), 0.01 * np.eye(1)),
            GaussianComponent(np.array([100.0]), 0.01 * np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([0.25, 0.75]))
        draws = mixture_sample(mix, 10**5, seed=2)
        freq = float(np.mean(draws > 50.0))
        assert abs(freq - 0.75) <= 0.01  # binomial sd ~ 0.0014

    def test_moments_single_component(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.5, 0.4], [0.4, 0.7]])
        mix = MixtureModel((GaussianComponent(mean, np.linalg.cholesky(cov)),),
                           np.ones(1))
        n = 10**6
        draws = mixture_sample(mix, n, seed=3)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5.0 * se_mean)
        emp_cov = np.cov(draws.T)
        # moment standard errors for Gaussian covariance entries
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
        )
        assert np.all(np.abs(emp_cov - cov) <= 5.0 * se_cov)

    def test_deterministic(self):
        mix = MixtureModel((GaussianComponent(np.zeros(2), np.eye(2)),), np.ones(1))
        np.testing.assert_array_equal(mixture_sample(mix, 64, 9),
                                      mixture_sample(mix, 64, 9))


class TestValidation:
    @pytest.mark.parametrize("kernel", ["component", "mixture", "sinh", "sinh_gradient"])
    def test_points_of_the_wrong_dimension_rejected(self, kernel):
        # (4, 1) points used to broadcast against 3-d parameters silently
        comp = GaussianComponent(np.zeros(3), np.eye(3))
        sinh = random_sinh_arcsinh_mixture(3, 2, seed=0)
        evaluate = {"component": comp.log_pdf,
                    "mixture": MixtureModel((comp,), np.ones(1)).log_pdf,
                    "sinh": sinh.log_pdf, "sinh_gradient": sinh.gradient}[kernel]
        with pytest.raises(ValueError, match="dimension 3"):
            evaluate(np.zeros((4, 1)))

    def test_weights_must_sum_to_one(self):
        comp = GaussianComponent(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            MixtureModel((comp, comp), np.array([0.5, 0.6]))

    def test_weight_component_count_mismatch(self):
        comp = GaussianComponent(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            MixtureModel((comp,), np.array([0.5, 0.5]))

    def test_chol_must_be_lower_with_positive_diagonal(self):
        with pytest.raises(ValueError):
            GaussianComponent(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GaussianComponent(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_singular_factor_has_no_inverse(self):
        with pytest.raises(np.linalg.LinAlgError):
            _inverse_lower(np.array([[1.0, 0.0], [0.3, 0.0]]))

    def test_chol_roundtrip_tight(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            m = rng.standard_normal((d, d))
            chol = np.linalg.cholesky(m @ m.T + d * np.eye(d))
            comp = GaussianComponent(rng.standard_normal(d), chol)
            refactored = np.linalg.cholesky(comp.cov)
            err = np.linalg.norm(refactored - chol, "fro")
            assert err <= 1e-12 * np.linalg.norm(chol, "fro")

    def test_search_box_validation(self):
        with pytest.raises(ValueError):
            UnnormalizedTarget(dim=1, log_phi=lambda z: 0.0,
                               search_box=np.array([[1.0, -1.0]]))


class TestSerialization:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(14)
        comps = []
        for _ in range(3):
            m = rng.standard_normal((3, 3))
            comps.append(GaussianComponent(rng.standard_normal(3),
                                           np.linalg.cholesky(m @ m.T + np.eye(3))))
        w = np.array([0.2, 0.5, 0.3])
        mix = MixtureModel(tuple(comps), w)
        doc = json.loads(json.dumps(mixture_to_dict(mix)))
        back = mixture_from_dict(doc)
        np.testing.assert_array_equal(back.weights, mix.weights)
        for a, b in zip(back.components, mix.components):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.chol_cov, b.chol_cov)

    def test_packed_length_validated(self):
        doc = {"dim": 2, "weights": [1.0],
               "components": [{"mean": [0.0, 0.0],
                               "chol_cov_rowmajor_lower": [1.0, 0.0]}]}
        with pytest.raises(ValueError):
            mixture_from_dict(doc)


@st.composite
def _sinh_arcsinh_batches(draw):
    """Sinh-arcsinh mixtures in d = 1..15 with K = 1..3, and 1..16 points."""
    d = draw(st.integers(1, 15))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    mix = random_sinh_arcsinh_mixture(d, k, seed=seed)
    return mix, mix.sample(draw(st.integers(1, 16)), seed)


class TestSinhArcsinh:
    @given(_sinh_arcsinh_batches())
    def test_batched_gradient_equals_per_point_bitwise(self, case):
        mix, points = case
        batch = mix.gradient(points)
        assert batch.shape == points.shape
        assert np.array_equal(batch, np.array([mix.gradient(z) for z in points]))
        assert mix.as_target().gradient_batch == mix.gradient

    def test_gaussian_case_matches_mixture_model(self):
        # skew 0, tailweight 1 reduces to a location-scale Gaussian mixture
        specs = [
            SinhArcsinhSpec(np.array([-1.0, 0.5]), np.array([0.8, 1.2]),
                            np.zeros(2), np.ones(2)),
            SinhArcsinhSpec(np.array([2.0, -0.5]), np.array([1.1, 0.6]),
                            np.zeros(2), np.ones(2)),
        ]
        weights = np.array([0.4, 0.6])
        sinh_mix = SinhArcsinhMixture(specs, weights)
        comps = tuple(
            GaussianComponent(s.loc, np.diag(s.scale)) for s in specs
        )
        gauss = MixtureModel(comps, weights)
        rng = np.random.default_rng(15)
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        ratio = sinh_mix.log_pdf(pts) - gauss.log_pdf(pts)
        assert np.max(np.abs(ratio)) <= 1e-10  # KL is 0 to this accuracy

    def test_positive_skew_parameter_gives_positive_sample_skew(self):
        spec = SinhArcsinhSpec(np.zeros(1), np.ones(1), np.ones(1), np.ones(1))
        mix = SinhArcsinhMixture([spec], np.ones(1))
        draws = mix.sample(10**5, seed=7).ravel()
        assert skew(draws) > 0.0

    def test_two_separated_components_have_two_maxima(self):
        target = make_sinh_arcsinh_mixture(
            [
                SinhArcsinhSpec(np.array([-4.0]), np.array([0.7]),
                                np.array([0.3]), np.array([1.0])),
                SinhArcsinhSpec(np.array([4.0]), np.array([0.9]),
                                np.array([-0.2]), np.array([1.1])),
            ],
            np.array([0.5, 0.5]),
        )
        # dense grid-search oracle
        grid = np.linspace(-8.0, 8.0, 4001)
        vals = eval_log_density_batch(target, grid[:, np.newaxis])
        is_max = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        assert int(np.sum(is_max)) == 2

    def test_each_coordinate_integrates_to_one(self):
        spec = SinhArcsinhSpec(np.array([0.5, -1.0]), np.array([1.2, 0.7]),
                               np.array([0.8, -0.5]), np.array([1.5, 0.8]))
        mix = SinhArcsinhMixture([spec], np.ones(1))
        for i in range(2):
            # integrate over the image of z in [-10, 10]
            zs = np.array([-10.0, 10.0])
            bounds = spec.loc[i] + spec.scale[i] * np.sinh(
                (np.arcsinh(zs) + spec.skew[i]) * spec.tailweight[i]
            )
            one_d = SinhArcsinhMixture(
                [SinhArcsinhSpec(spec.loc[i:i+1], spec.scale[i:i+1],
                                 spec.skew[i:i+1], spec.tailweight[i:i+1])],
                np.ones(1),
            )
            total, _ = quad(lambda y: math.exp(one_d.log_pdf(np.array([y]))),
                            min(bounds), max(bounds), limit=400)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SinhArcsinhSpec(np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            SinhArcsinhSpec(np.zeros(1), np.ones(1), np.zeros(1), np.array([-1.0]))

    def test_sampling_matches_density_moments(self):
        mix = random_sinh_arcsinh_mixture(2, 2, seed=8)
        draws = mix.sample(200000, seed=9)
        # compare sample mean against quadrature mean per coordinate
        target_mean = np.zeros(2)
        for i in range(2):
            marginal = SinhArcsinhMixture(
                [SinhArcsinhSpec(mix.loc[k, i:i+1], mix.scale[k, i:i+1],
                                 mix.skew[k, i:i+1], mix.tail[k, i:i+1])
                 for k in range(2)],
                mix.weights,
            )
            lo = mix.loc[:, i].min() - 30 * mix.scale[:, i].max()
            hi = mix.loc[:, i].max() + 30 * mix.scale[:, i].max()
            target_mean[i], _ = quad(
                lambda y: y * math.exp(marginal.log_pdf(np.array([y]))),
                lo, hi, limit=500,
            )
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) <= 5 * se)
