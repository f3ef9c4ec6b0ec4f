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
    UnnormalizedTarget,
    _block_rows,
    _inverse_lower,
    draw_mixture,
    eval_gradient,
    eval_hessian,
    eval_log_density,
    eval_log_density_batch,
    gaussian_log_pdfs,
    gradient_rows,
    log_sum_exp,
    mixture_from_dict,
    mixture_terms,
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
        assert mix.log_pdf(np.array([0.0])) == pytest.approx(direct, rel=1e-14)

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
        mix = SinhArcsinhMixture(np.ones(1), [[0.2]], [[0.9]], [[0.7]], [[1.2]])
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_or_plus_inf_after_minus_inf_raises_non_finite(self, bad):
        # the whole stencil is evaluated before a -inf is reported: the first
        # coordinate's +h point is -inf, the second's `bad`, a target fault
        def log_phi(z):
            if z[0] > 1.0:
                return -math.inf
            return bad if z[1] > 1.0 else -float(z @ z)

        with pytest.raises(NonFiniteDensityError) as exc:
            eval_gradient(_simple_target(2, log_phi), np.array([1.0, 1.0]))
        assert exc.value.point[0] == 1.0 < exc.value.point[1]


def _signed_log_phi(z):
    """A log-density that reads the sign of every zero coordinate, so a
    stencil that turned a ``-0.0`` into ``0.0`` would change its values;
    ``-inf`` once any coordinate passes 1."""
    if max(z) > 1.0:
        return -math.inf
    return -0.5 * float(z @ z) + sum(math.copysign(0.25, x) for x in z)


@st.composite
def _stencil_points(draw):
    """(n, d) points for d = 1..6 and n = 0..8, with signed zeros and
    coordinates on or just below 1, where the stencil of
    :func:`_signed_log_phi` steps onto ``-inf``."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, 8))
    coordinate = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 1.0 - 1e-9]),
                           st.floats(-2.0, 1.0))
    rows = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=float).reshape(n, d)


class TestEvalGradientBatch:
    """Gradients of a batch of points, from :func:`gradient_rows`."""

    def test_finite_differences_equal_per_row_bitwise(self):
        mix = random_sinh_arcsinh_mixture(3, 2, seed=4)
        target = _simple_target(3, mix.as_target().log_phi)
        pts = mix.sample(12, seed=2)
        grads, failed = gradient_rows(target, pts)
        assert grads.shape == (12, 3) and failed == {}
        assert np.array_equal(grads, np.array([eval_gradient(target, z) for z in pts]))
        assert gradient_rows(target, np.empty((0, 3)))[0].shape == (0, 3)

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
        grads, failed = gradient_rows(target, pts)
        assert np.array_equal(grads, mix.gradient(pts)) and failed == {}
        assert rows == [9]

    def test_minus_inf_in_stencil_carries_the_point(self):
        target = _simple_target(1, lambda z: -math.inf if z[0] > 1.0 else 0.0)
        _, failed = gradient_rows(target, np.array([[0.0], [1.0]]))
        assert list(failed) == [1]
        assert failed[1][0] > 1.0

    @given(_stencil_points())
    def test_stencil_rows_are_eval_gradient_bitwise(self, rows):
        target = _simple_target(rows.shape[1], _signed_log_phi)
        grads, failed = gradient_rows(target, rows)
        want, errors = [], []
        for i, z in enumerate(rows):
            try:
                want.append(eval_gradient(target, z))
            except DerivativeError as err:
                errors.append(err)
                assert failed[i].tobytes() == err.point.tobytes()
            else:
                assert i not in failed
                assert grads[i].tobytes() == want[-1].tobytes()
        assert len(failed) == len(errors)
        if not errors:
            assert grads.tobytes() == np.array(want).reshape(rows.shape).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("rows", [[[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    def test_nan_or_plus_inf_after_minus_inf_raises_non_finite(self, bad, rows):
        # the first row's stencil meets -inf at its first coordinate, then
        # `bad` at its second or in the next row: still a fault in the target
        def log_phi(z):
            if z[0] > 1.0:
                return -math.inf
            return bad if z[1] > 1.0 else -float(z @ z)

        with pytest.raises(NonFiniteDensityError) as exc:
            gradient_rows(_simple_target(2, log_phi), np.array(rows))
        assert exc.value.point[0] <= 1.0 < exc.value.point[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gradient", "gradient_batch"])
    def test_non_finite_analytic_gradient_raises_with_its_row(self, field, bad):
        # the analytic gradient is the fault, not the log-density: the error
        # names the row it was evaluated at, not a point a step made from it
        def gradient(z):
            return np.where(z[..., :1] > 2.0, bad, -z)

        target = _simple_target(2, lambda z: -0.5 * float(z @ z), **{field: gradient})
        rows = np.array([[0.0, 1.0], [3.0, -1.0], [4.0, 0.5]])
        with pytest.raises(DerivativeError, match="analytic gradient") as exc:
            gradient_rows(target, rows)
        np.testing.assert_array_equal(exc.value.point, rows[1])


def _hessian_stencil_size(d):
    """Log-density points of a finite-difference Hessian: the gradient
    stencil of each of the 2d rows of the point's own gradient stencil."""
    return (2 * d) ** 2


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

    def test_sinh_arcsinh_d15_matches_richardson_jacobian(self):
        # the warm-start target: analytic gradient, no analytic Hessian
        mix = random_sinh_arcsinh_mixture(15, 2, seed=42)
        target = mix.as_target()

        def jacobian(z, h):
            return np.array([(mix.gradient(z + e) - mix.gradient(z - e)) / (2.0 * h)
                             for e in h * np.eye(15)])

        for z in (*mix.loc, *mix.sample(2, seed=1)):
            # Richardson extrapolation cancels the h^2 term: error O(h^4)
            ref = -(4.0 * jacobian(z, 5e-4) - jacobian(z, 1e-3)) / 3.0
            ref = 0.5 * (ref + ref.T)
            err = np.linalg.norm(eval_hessian(target, z) - ref) / np.linalg.norm(ref)
            assert err <= 1e-9

    @pytest.mark.parametrize("field", ["gradient", "gradient_batch"])
    def test_non_finite_analytic_gradient_names_its_stencil_row(self, field):
        def gradient(z):
            return np.where(z[..., :1] > 0.5, math.nan, -z)

        target = _simple_target(2, lambda z: -0.5 * float(z @ z), **{field: gradient})
        z = np.array([0.5, 0.5])
        with pytest.raises(DerivativeError) as err:
            eval_hessian(target, z)
        # the row z + h e_0, the only one past z[0] = 0.5
        offsets = err.value.point - z
        assert offsets[0] > 0.0 and offsets[1] == 0.0


class TestTargetReplies:
    """Every reply from a target callable is checked once, on its way in:
    a wrong shape names the field, a non-finite derivative its row."""

    def test_nan_analytic_gradient_raises_with_its_point(self):
        target = _simple_target(2, lambda z: -0.5 * float(z @ z),
                                gradient=lambda z: np.full(2, math.nan))
        z = np.array([0.5, -1.0])
        with pytest.raises(DerivativeError, match="analytic gradient") as err:
            eval_gradient(target, z)
        np.testing.assert_array_equal(err.value.point, z)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_analytic_hessian_raises_with_its_point(self, bad):
        target = _simple_target(2, lambda z: -0.5 * float(z @ z),
                                hessian=lambda z: np.array([[-1.0, 0.0], [0.0, bad]]))
        z = np.array([0.5, -1.0])
        with pytest.raises(DerivativeError, match="analytic hessian") as err:
            eval_hessian(target, z)
        np.testing.assert_array_equal(err.value.point, z)

    @pytest.mark.parametrize("reply", [lambda pts: -np.ones((len(pts), 1)),
                                       lambda pts: -np.ones(1)], ids=["column", "one"])
    def test_log_phi_batch_of_the_wrong_shape_names_the_field(self, reply):
        target = _simple_target(2, lambda z: -0.5 * float(z @ z), log_phi_batch=reply)
        with pytest.raises(ValueError, match=r"log_phi_batch .*expected \(3,\)"):
            eval_log_density_batch(target, np.zeros((3, 2)))

    def test_scalar_log_phi_of_the_wrong_shape_names_the_field(self):
        target = _simple_target(2, lambda z: -0.5 * z * z)
        with pytest.raises(ValueError, match=r"log_phi replied with shape \(2,\)"):
            eval_log_density(target, np.zeros(2))

    @pytest.mark.parametrize("field,reply", [
        ("gradient_batch", lambda pts: -pts[:, :1]),
        ("gradient", lambda z: -np.append(z, 0.0)),
        ("hessian", lambda z: -np.eye(3)),
    ], ids=["gradient_batch", "gradient", "hessian"])
    def test_derivative_of_the_wrong_shape_names_the_field(self, field, reply):
        target = _simple_target(2, lambda z: -0.5 * float(z @ z), **{field: reply})
        with pytest.raises(ValueError, match=rf"{field} replied with shape"):
            if field == "hessian":
                eval_hessian(target, np.zeros(2))
            else:
                gradient_rows(target, np.zeros((3, 2)))


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
        np.testing.assert_allclose(mix.log_pdf(pts), ref, rtol=1e-12)

    def test_symmetric_midpoint(self):
        comps = (
            GaussianComponent(np.array([-1.0]), np.eye(1)),
            GaussianComponent(np.array([1.0]), np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([0.5, 0.5]))
        component_term = math.log(0.5) + comps[0].log_pdf(np.array([0.0]))
        assert mix.log_pdf(np.array([0.0])) == pytest.approx(
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
        val = mix.log_pdf(z)
        # extended-precision oracle: the nearer component dominates, and its
        # exact log term is analytic
        exact_near = math.log(0.5) - 0.5 * LOG_2PI - 0.5 * 47.0**2
        assert np.isfinite(val)
        assert val == pytest.approx(exact_near, rel=1e-12)

    def test_overflowing_distance_is_minus_inf_without_a_warning(self):
        # the squared distance overflows: the density there is zero, not NaN
        # (a RuntimeWarning fails the suite)
        mix = MixtureModel((GaussianComponent(np.zeros(2), np.eye(2)),), np.ones(1))
        assert mix.log_pdf(np.array([1e200, 0.0])) == -math.inf
        np.testing.assert_array_equal(
            mix.log_pdf(np.array([[0.0, 0.0], [1e200, 0.0]])), [-LOG_2PI, -math.inf])
        assert eval_log_density(mix.as_target(), np.array([0.0, -1e200])) == -math.inf

    @pytest.mark.parametrize("point, want", [([1e200, 0.0], [-1e200, 0.0]),
                                             ([0.0, -1e250], [0.0, 1e250])])
    def test_far_gradient_points_back_without_a_warning(self, point, want):
        # the density underflows at both components: the softmax's limit
        # gives the nearer one all the weight, where zero responsibilities
        # would read as a stationary point
        mix = MixtureModel((GaussianComponent(np.zeros(2), np.eye(2)),
                            GaussianComponent(np.ones(2), np.eye(2))), np.array([0.5, 0.5]))
        np.testing.assert_array_equal(mix.gradient(np.array(point)), want)
        np.testing.assert_array_equal(mix.gradient(np.array([point, [0.5, 0.5]]))[0], want)

    def test_hessian_of_a_batch_raises(self):
        mix = MixtureModel((GaussianComponent(np.zeros(2), np.eye(2)),), np.ones(1))
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            mix.hessian(np.array([[0.0, 0.0], [5.0, 5.0]]))

    def test_row_of_minus_inf_sums_to_zero_without_a_warning(self):
        stacked = np.array([[-math.inf, -math.inf], [0.0, -math.inf], [-math.inf, 1.0]])
        total, resp = log_sum_exp(stacked)
        np.testing.assert_array_equal(total, [-math.inf, 0.0, 1.0])
        np.testing.assert_array_equal(resp, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_zero_weight_component_dropped(self):
        comps = (
            GaussianComponent(np.array([0.0]), np.eye(1)),
            GaussianComponent(np.array([100.0]), np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([1.0, 0.0]))
        assert mix.log_pdf(np.array([0.0])) == pytest.approx(
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
            lambda y, x: math.exp(mix.log_pdf(np.array([x, y]))),
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
        # cond(Sigma) = 1e6: multiplying by the inverse factor must keep the
        # squared Mahalanobis terms of a triangular solve
        rng = np.random.default_rng(16)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        cov = (q * np.logspace(0.0, -6.0, 5)) @ q.T
        chol = np.linalg.cholesky(cov)
        assert np.linalg.cond(cov) == pytest.approx(1e6, rel=1e-6)
        comp = GaussianComponent(rng.standard_normal(5), chol)
        pts = comp.mean + rng.standard_normal((50, 5))
        _, whitened = gaussian_log_pdfs(comp.mean[None], _inverse_lower(comp.chol_cov)[None],
                                        pts)
        ref = solve_triangular(chol, (pts - comp.mean).T, lower=True)
        np.testing.assert_allclose(np.sum(whitened[0] ** 2, axis=0),
                                   np.sum(ref ** 2, axis=0), rtol=1e-12)


def _terms(mixture, points):
    """:func:`mixture_terms` on a mixture's cached stacks, as its gradient
    and Hessian call it."""
    return mixture_terms(mixture._means, mixture._chol_invs, mixture._log_weights, points)


def _vi_terms(params, points):
    """:func:`mixture_terms` on VI parameters, as the estimator calls it."""
    return mixture_terms(params.means, _inverse_lower(params.chol_factors()),
                         params.softmax()[1], points)


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


@st.composite
def _lower_factors(draw):
    """(K, d, d) stacks of lower factors with a positive diagonal, K = 1..4
    and d = 1..15. Off-diagonal entries up to ten times the diagonal make
    the LU inside ``np.linalg.inv`` pivot."""
    d = draw(st.integers(1, 15))
    k = draw(st.integers(1, 4))
    spread = draw(st.sampled_from([0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chols = np.tril(spread * rng.standard_normal((k, d, d)), -1)
    chols[:, np.arange(d), np.arange(d)] = np.exp(rng.uniform(-1.0, 1.0, (k, d)))
    return chols


class TestInverseLower:
    @given(_lower_factors())
    def test_matches_triangular_solves(self, chols):
        d = chols.shape[1]
        stacked = _inverse_lower(chols)
        for chol, inverse in zip(chols, stacked):
            single = _inverse_lower(chol)
            assert np.array_equal(single, inverse)
            assert not np.triu(single, 1).any()
            reference = solve_triangular(chol, np.eye(d), lower=True)
            # backward-stable inversion: relative error within d eps cond(L)
            bound = d * np.finfo(float).eps * np.linalg.cond(chol)
            assert (np.linalg.norm(single - reference)
                    <= bound * np.linalg.norm(reference))

    @given(_lower_factors(), st.data())
    def test_zero_on_the_diagonal_raises(self, chols, data):
        k, d = chols.shape[:2]
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(0, d - 1))
        chols[i, j, j] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _inverse_lower(chols)
        with pytest.raises(np.linalg.LinAlgError):
            _inverse_lower(chols[i])


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
            np.testing.assert_allclose(mixture.gradient(z), grad,
                                       rtol=1e-10, atol=1e-10 * g_scale)
            np.testing.assert_allclose(mixture.hessian(z), hess,
                                       rtol=1e-10, atol=1e-10 * h_scale)

    @given(_mixtures())
    def test_batched_log_pdf_equals_per_point(self, case):
        mixture, points = case
        per_point = np.array([mixture.log_pdf(z) for z in points])
        np.testing.assert_allclose(mixture.log_pdf(points), per_point,
                                   rtol=1e-13, atol=1e-13)

    @given(_mixtures())
    def test_vi_log_q_equals_mixture_log_pdf(self, case):
        mixture, points = case
        # logits are defined up to a constant; shift them off the normalized ones
        params = vi.from_mixture(mixture)
        params = dataclasses.replace(params, logits=params.logits + 3.0)
        log_q = _vi_terms(params, points)[0]
        np.testing.assert_allclose(log_q, vi.to_mixture(params).log_pdf(points),
                                   rtol=1e-13, atol=1e-13)

    @given(_mixtures())
    def test_batched_gradient_equals_per_point(self, case):
        mixture, points = case
        per_point = np.array([mixture.gradient(z) for z in points])
        # an entry that cancels to near zero keeps the largest score's rounding
        scale = np.abs(_terms(mixture, points)[3]).max()
        np.testing.assert_allclose(mixture.gradient(points), per_point,
                                   rtol=1e-13, atol=1e-13 * scale)
        for z, grad in zip(points, per_point):
            # one point takes the single (d, K) @ (K,) contraction, bit for bit
            _, resp, _, scores = _terms(mixture, z[np.newaxis])
            assert np.array_equal(grad, scores[0].T @ resp[0])
        target = mixture.as_target()
        assert target.gradient_batch is not None
        grads, failed = gradient_rows(target, points)
        np.testing.assert_array_equal(grads, mixture.gradient(points))
        assert failed == {}

    @given(_mixtures(), st.integers(1, 64))
    def test_vi_draws_equal_mixture_sample(self, case, n):
        # VI draws from its parameters without building the mixture
        mixture, _ = case
        params = vi.from_mixture(mixture)
        np.testing.assert_array_equal(
            draw_mixture(params.softmax()[0], params.means, params.chol_factors(), n, 5),
            vi.to_mixture(params).sample(n, 5))

    @given(_mixtures())
    def test_responsibilities_sum_to_one(self, case):
        mixture, points = case
        params = vi.from_mixture(mixture)
        resp = _vi_terms(params, points)[1]
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=1e-14)
        _, resp, _, scores = _terms(mixture, points)
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
        draws = mix.sample(n, seed=0)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 / math.sqrt(n))

    def test_degenerate_weights(self):
        comps = (
            GaussianComponent(np.array([0.0]), 0.01 * np.eye(1)),
            GaussianComponent(np.array([100.0]), 0.01 * np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([1.0, 0.0]))
        draws = mix.sample(1000, seed=1)
        assert np.all(np.abs(draws) < 1.0)

    def test_component_frequencies(self):
        comps = (
            GaussianComponent(np.array([0.0]), 0.01 * np.eye(1)),
            GaussianComponent(np.array([100.0]), 0.01 * np.eye(1)),
        )
        mix = MixtureModel(comps, np.array([0.25, 0.75]))
        draws = mix.sample(10**5, seed=2)
        freq = float(np.mean(draws > 50.0))
        assert abs(freq - 0.75) <= 0.01  # binomial sd ~ 0.0014

    def test_moments_single_component(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[1.5, 0.4], [0.4, 0.7]])
        mix = MixtureModel((GaussianComponent(mean, np.linalg.cholesky(cov)),),
                           np.ones(1))
        n = 10**6
        draws = mix.sample(n, seed=3)
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
        np.testing.assert_array_equal(mix.sample(64, 9),
                                      mix.sample(64, 9))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_or_factor_rejected(self, bad):
        # every ordering test is False for NaN, so only a finiteness check sees it
        with pytest.raises(ValueError, match="finite"):
            GaussianComponent(np.array([0.0, bad]), np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            GaussianComponent(np.zeros(2), np.array([[1.0, 0.0], [bad, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            GaussianComponent(np.zeros(2), np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.nan, math.nan],
                                         [1.0, math.nan]])
    def test_nan_weight_rejected(self, weights):
        comp = GaussianComponent(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            MixtureModel((comp, comp), np.array(weights))

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

    @pytest.mark.parametrize("field,value", [("log_phi", None),
                                             ("gradient", np.zeros(2)),
                                             ("log_phi_batch", "x")])
    def test_target_fields_must_be_callable(self, field, value):
        # a fit used to die later, on "'NoneType' object is not callable"
        fields = {"log_phi": lambda z: 0.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be callable"):
            UnnormalizedTarget(dim=2, search_box=np.tile([0.0, 1.0], (2, 1)), **fields)

    def test_search_box_validation(self):
        with pytest.raises(ValueError):
            UnnormalizedTarget(dim=1, log_phi=lambda z: 0.0,
                               search_box=np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("bounds", [[-math.inf, 1.0], [0.0, math.inf],
                                        [-math.inf, math.inf], [math.nan, 1.0]])
    def test_search_box_bounds_must_be_finite(self, bounds):
        # multistart starts at lo + u (hi - lo), which is NaN in an infinite box
        with pytest.raises(ValueError, match="search_box bounds must be finite"):
            UnnormalizedTarget(dim=2, log_phi=lambda z: 0.0,
                               search_box=np.array([[0.0, 1.0], bounds]))


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


def _per_coordinate_log_pdf(mix, points):
    """The sinh-arcsinh mixture log-density term by term per coordinate, as
    written before the constants were folded: the oracle of the kernel."""
    x = (points[:, np.newaxis, :] - mix.loc) / mix.scale
    u = np.arcsinh(x) / mix.tail - mix.skew
    z = np.sinh(u)
    logp = (-0.5 * (LOG_2PI + z * z) + np.log(np.cosh(u)) - np.log(mix.tail)
            - 0.5 * np.log1p(x * x) - np.log(mix.scale))
    return log_sum_exp(logp.sum(axis=2) + np.log(mix.weights))[0]


def _two_component_sinh(field=None, bad=None):
    """A 1-d two-component sinh-arcsinh mixture, with ``bad`` put into the
    first entry of parameter ``field`` when given."""
    params = {"weights": [0.5, 0.5], "loc": [[0.0], [1.0]], "scale": [[1.0], [1.0]],
              "skew": [[0.0], [0.0]], "tail": [[0.8], [1.25]]}
    params = {name: np.array(value, float) for name, value in params.items()}
    if field is not None:
        params[field].flat[0] = bad
    return SinhArcsinhMixture(**params)


def _sinh_with_tails(*tails):
    """A 1-d sinh-arcsinh mixture of equal weights, loc 0, scale 1, skew 0
    and the given tails."""
    k = len(tails)
    return SinhArcsinhMixture(np.full(k, 1.0 / k), np.zeros((k, 1)), np.ones((k, 1)),
                              np.zeros((k, 1)), np.array(tails, float)[:, np.newaxis])


class TestSinhArcsinh:
    @given(_sinh_arcsinh_batches())
    def test_batched_gradient_equals_per_point_bitwise(self, case):
        mix, points = case
        batch = mix.gradient(points)
        assert batch.shape == points.shape
        assert np.array_equal(batch, np.array([mix.gradient(z) for z in points]))
        assert mix.as_target().gradient_batch == mix.gradient

    def test_gaussian_case_matches_mixture_model(self):
        # skew 0, tail 1 reduces to a location-scale Gaussian mixture
        loc = np.array([[-1.0, 0.5], [2.0, -0.5]])
        scale = np.array([[0.8, 1.2], [1.1, 0.6]])
        weights = np.array([0.4, 0.6])
        sinh_mix = SinhArcsinhMixture(weights, loc, scale, np.zeros((2, 2)),
                                      np.ones((2, 2)))
        comps = tuple(GaussianComponent(m, np.diag(s)) for m, s in zip(loc, scale))
        gauss = MixtureModel(comps, weights)
        rng = np.random.default_rng(15)
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        ratio = sinh_mix.log_pdf(pts) - gauss.log_pdf(pts)
        assert np.max(np.abs(ratio)) <= 1e-10  # KL is 0 to this accuracy

    def test_positive_skew_parameter_gives_positive_sample_skew(self):
        mix = SinhArcsinhMixture(np.ones(1), [[0.0]], [[1.0]], [[1.0]], [[1.0]])
        draws = mix.sample(10**5, seed=7).ravel()
        assert skew(draws) > 0.0

    def test_two_separated_components_have_two_maxima(self):
        target = SinhArcsinhMixture(
            np.array([0.5, 0.5]), [[-4.0], [4.0]], [[0.7], [0.9]], [[0.3], [-0.2]],
            [[1.0], [1.1]],
        ).as_target()
        # dense grid-search oracle
        grid = np.linspace(-8.0, 8.0, 4001)
        vals = eval_log_density_batch(target, grid[:, np.newaxis])
        is_max = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        assert int(np.sum(is_max)) == 2

    def test_each_coordinate_integrates_to_one(self):
        mix = SinhArcsinhMixture(np.ones(1), [[0.5, -1.0]], [[1.2, 0.7]],
                                 [[0.8, -0.5]], [[1.5, 0.8]])
        for i in range(2):
            # integrate over the image of z in [-10, 10]
            zs = np.array([-10.0, 10.0])
            bounds = mix.loc[0, i] + mix.scale[0, i] * np.sinh(
                (np.arcsinh(zs) + mix.skew[0, i]) * mix.tail[0, i]
            )
            one_d = SinhArcsinhMixture(mix.weights, mix.loc[:, i:i+1],
                                       mix.scale[:, i:i+1], mix.skew[:, i:i+1],
                                       mix.tail[:, i:i+1])
            total, _ = quad(lambda y: math.exp(one_d.log_pdf(np.array([y]))),
                            min(bounds), max(bounds), limit=400)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="scale and tail"):
            SinhArcsinhMixture(np.ones(1), [[0.0]], [[0.0]], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="scale and tail"):
            SinhArcsinhMixture(np.ones(1), [[0.0]], [[1.0]], [[0.0]], [[-1.0]])
        with pytest.raises(ValueError, match="skew must have shape"):
            SinhArcsinhMixture(np.ones(1), [[0.0]], [[1.0]], [0.0], [[1.0]])
        with pytest.raises(ValueError, match="weights"):
            SinhArcsinhMixture(np.ones(2), [[0.0]], [[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="simplex"):
            SinhArcsinhMixture(np.full(2, 0.6), [[0.0], [1.0]], [[1.0], [1.0]],
                               [[0.0], [0.0]], [[1.0], [1.0]])

    def test_sampling_matches_density_moments(self):
        mix = random_sinh_arcsinh_mixture(2, 2, seed=8)
        draws = mix.sample(200000, seed=9)
        # compare sample mean against quadrature mean per coordinate
        target_mean = np.zeros(2)
        for i in range(2):
            marginal = SinhArcsinhMixture(mix.weights, mix.loc[:, i:i+1],
                                          mix.scale[:, i:i+1], mix.skew[:, i:i+1],
                                          mix.tail[:, i:i+1])
            lo = mix.loc[:, i].min() - 30 * mix.scale[:, i].max()
            hi = mix.loc[:, i].max() + 30 * mix.scale[:, i].max()
            target_mean[i], _ = quad(
                lambda y: y * math.exp(marginal.log_pdf(np.array([y]))),
                lo, hi, limit=500,
            )
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) <= 5 * se)

    @given(_sinh_arcsinh_batches(), st.sampled_from([0.25, 1.0, 4.0]))
    def test_folded_log_pdf_equals_per_coordinate_formula(self, case, spread):
        mix, points = case
        center = mix.loc.mean(axis=0)
        points = center + spread * (points - center)  # the core and the tails
        want = _per_coordinate_log_pdf(mix, points)
        got = mix.log_pdf(points)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    @given(_sinh_arcsinh_batches(), st.integers(1, 64))
    def test_sample_equals_gather_then_transform_bitwise(self, case, n):
        mix, _ = case
        rng = np.random.default_rng(3)
        ks = rng.choice(mix.n_components, size=n, p=mix.weights)
        eps = rng.standard_normal((n, mix.dim))
        gathered = mix.loc[ks] + mix.scale[ks] * np.sinh(
            (np.arcsinh(eps) + mix.skew[ks]) * mix.tail[ks])
        np.testing.assert_array_equal(mix.sample(n, 3), gathered)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_needs_a_positive_count(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            _two_component_sinh().sample(n, seed=0)

    @pytest.mark.parametrize("field", ["weights", "loc", "scale", "skew", "tail"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected_by_name(self, field, bad):
        # every ordering test is False for NaN, so only a finiteness check sees it
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            _two_component_sinh(field, bad)

    def test_far_point_has_zero_density_not_an_error(self):
        mix = _two_component_sinh()
        target = mix.as_target()
        # every component underflows: the density is zero
        assert eval_log_density(target, np.array([1e200])) == -math.inf
        assert eval_log_density(target, np.array([-1e300])) == -math.inf
        # z^2 overflows in the tail-0.8 component only, whose inf - inf must
        # not hide the tail-1.25 component
        values = eval_log_density_batch(target, np.array([[1e130], [0.5]]))
        alone = SinhArcsinhMixture(np.ones(1), mix.loc[1:], mix.scale[1:], mix.skew[1:],
                                   mix.tail[1:])
        assert values[0] == pytest.approx(math.log(0.5) + alone.log_pdf(np.array([1e130])),
                                          rel=1e-14)
        assert values[1] == pytest.approx(_per_coordinate_log_pdf(mix, np.array([[0.5]]))[0],
                                          rel=1e-14)

    @pytest.mark.parametrize("tails, y", [((0.8, 1.3), 1e130), ((0.4, 1.0), 1e125)])
    def test_tail_gradient_equals_the_surviving_component(self, tails, y):
        # the smaller tail's z^2 overflows (at 1e125 its sinh does too), so
        # that component has zero responsibility and contributes 0, not NaN
        mix = _sinh_with_tails(*tails)
        u = math.asinh(y) / tails[1]
        z, r = math.sinh(u), math.hypot(1.0, y)  # z^2 fits a double here
        want = -(z * z * math.tanh(u) / tails[1] + y / r) / r
        grad = mix.gradient(np.array([y]))
        assert grad[0] < 0.0
        assert grad[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("y", [1e200, -1e300])
    def test_gradient_where_every_component_underflows_points_back(self, y):
        # the component with the smaller z takes all the weight; its exact
        # gradient fits a double, so the reply is finite
        grad = _sinh_with_tails(0.8, 1.3).gradient(np.array([y]))
        assert np.isfinite(grad[0])
        assert np.sign(grad[0]) == -np.sign(y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises_with_point(self, bad):
        target = random_sinh_arcsinh_mixture(2, 2, seed=1).as_target()
        with pytest.raises(NonFiniteDensityError) as exc:
            eval_log_density_batch(target, np.array([[0.0, 0.0], [bad, 1.0]]))
        np.testing.assert_array_equal(exc.value.point, [bad, 1.0])


# n = block - 1, block, block + 1 and 2 block + 3, in blocks of one row count,
# for the log-density (whose ids predate the gradient's) and the gradient
_BLOCK_SPLITS = [(1, -1), (1, 0), (1, 1), (2, 3)]
_BLOCK_CASES = ([pytest.param(b, e, "log_pdf", id=f"{b}-{e}") for b, e in _BLOCK_SPLITS]
                + [pytest.param(b, e, "gradient", id=f"{b}-{e}-gradient")
                   for b, e in _BLOCK_SPLITS])


class TestRowBlocks:
    @pytest.mark.parametrize("blocks, extra, method", _BLOCK_CASES)
    def test_sinh_arcsinh_blocks_equal_rows_bitwise(self, blocks, extra, method):
        mix = random_sinh_arcsinh_mixture(15, 2, seed=21)
        points = mix.sample(blocks * _block_rows(mix.loc.size) + extra, seed=22)
        values = getattr(mix, method)(points)
        np.testing.assert_array_equal(values, [getattr(mix, method)(z) for z in points])
        np.testing.assert_array_equal(values, getattr(mix, f"_{method}_block")(points))

    @pytest.mark.parametrize("blocks, extra, method", _BLOCK_CASES)
    def test_gaussian_mixture_blocks_equal_one_batch_bitwise(self, blocks, extra, method):
        # a lone row would take BLAS's matrix-vector product, which rounds
        # apart from the matrix product (hence the tolerance of
        # test_batched_log_pdf_equals_per_point), so the oracle is one
        # whole-batch kernel call
        rng = np.random.default_rng(23)
        comps = tuple(GaussianComponent(3.0 * rng.standard_normal(6),
                                        np.linalg.cholesky(a @ a.T + np.eye(6)))
                      for a in rng.standard_normal((4, 6, 6)))
        mix = MixtureModel(comps, np.array([0.1, 0.2, 0.3, 0.4]))
        points = mix.sample(blocks * _block_rows(mix._means.size) + extra, seed=24)
        values = getattr(mix, method)(points)
        np.testing.assert_array_equal(values, getattr(mix, f"_{method}_block")(points))
        np.testing.assert_allclose(values, [getattr(mix, method)(z) for z in points],
                                   rtol=1e-13, atol=1e-13)
