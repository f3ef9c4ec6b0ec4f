import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from postmix.density import GaussianComponent, MixtureModel
from postmix.metrics import GridDensity2D, dice_overlap, jsd_normalized, kl_mc


def _gauss(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, float))
    cov = np.atleast_2d(np.asarray(cov, float))
    comp = GaussianComponent(mean, np.linalg.cholesky(cov))
    return MixtureModel((comp,), np.ones(1))


def _jsd_quadrature_1d(p_mean, p_sd, q_mean, q_sd):
    p = norm(p_mean, p_sd)
    q = norm(q_mean, q_sd)

    def term(f, g):
        def integrand(x):
            lf, lg = f.logpdf(x), g.logpdf(x)
            return math.exp(lf) * (lf - (np.logaddexp(lf, lg) - math.log(2.0)))

        return quad(integrand, -20.0, 20.0, limit=400)[0]

    return 0.5 * (term(p, q) + term(q, p)) / math.log(2.0)


class TestKlMc:
    def test_identical_densities(self):
        p = _gauss(0.0, 1.0)
        est = kl_mc(p, p, 2000, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_gives_half(self):
        est = kl_mc(_gauss(0.0, 1.0), _gauss(1.0, 1.0), 10**4, seed=1)
        assert abs(est.value - 0.5) <= 3.0 * est.std_error

    def test_variance_ratio_closed_form(self):
        # KL(N(0,1) || N(0,4)) = (1/4 - 1 + ln 4) / 2
        expected = 0.5 * (0.25 - 1.0 + math.log(4.0))
        est = kl_mc(_gauss(0.0, 1.0), _gauss(0.0, 4.0), 10**4, seed=2)
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            p = _gauss(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            q = _gauss(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            est = kl_mc(p, q, 2000, seed=int(rng.integers(0, 2**31)))
            assert est.value >= -3.0 * est.std_error

    def test_support_violation_clamp(self):
        class PointMass:
            def log_pdf(self, pts):
                return np.where(np.abs(np.asarray(pts).ravel()) < 0.1, 0.0, -np.inf)

        p = _gauss(0.0, 1.0)
        est = kl_mc(p, PointMass(), 500, seed=3)
        assert est.n_support_violations > 0
        assert np.isfinite(est.value)

    def test_one_sample_has_no_standard_error(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            kl_mc(_gauss(0.0, 1.0), _gauss(1.0, 1.0), 1, seed=0)


class TestJsdNormalized:
    def test_identical(self):
        p = _gauss(0.0, 1.0)
        est = jsd_normalized(p, p, 4000, seed=0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_far_separated_pair(self):
        est = jsd_normalized(_gauss(0.0, 1.0), _gauss(100.0, 1.0), 4000, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_matches_quadrature_oracle(self):
        oracle = _jsd_quadrature_1d(0.0, 1.0, 1.0, 1.0)
        est = jsd_normalized(_gauss(0.0, 1.0), _gauss(1.0, 1.0), 10**4, seed=2)
        assert 0.0 < est.value < 1.0
        assert abs(est.value - oracle) <= 3.0 * est.std_error

    def test_symmetry_under_argument_and_seed_exchange(self):
        p = _gauss(0.0, 1.0)
        q = _gauss(0.7, 1.5)
        a = jsd_normalized(p, q, 2 * 10**4, seed=3)
        b = jsd_normalized(q, p, 2 * 10**4, seed=4)
        combined = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3.0 * combined

    def test_bounded_estimates(self):
        est = jsd_normalized(_gauss(0.0, 1.0), _gauss(2.0, 0.5), 4000, seed=5)
        assert -3.0 * est.std_error <= est.value <= 1.0 + 3.0 * est.std_error

    def test_one_sample_has_no_standard_error(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            jsd_normalized(_gauss(0.0, 1.0), _gauss(2.0, 0.5), 1, seed=0)


class TestDiceOverlap:
    def test_identical_gives_one(self):
        c = GaussianComponent(np.array([0.3, -0.2]),
                              np.linalg.cholesky(np.array([[1.0, 0.2], [0.2, 0.8]])))
        assert dice_overlap(c, c) == pytest.approx(1.0, abs=1e-14)

    def test_unit_normal_bound_distances(self):
        # overlap exp(-delta^2/4) for unit variances: the two reference
        # separations map to 1e-2 and 1e-4
        for target, delta in ((1e-2, 2.0 * math.sqrt(math.log(100.0))),
                              (1e-4, 2.0 * math.sqrt(math.log(10**4)))):
            a = GaussianComponent(np.zeros(1), np.eye(1))
            b = GaussianComponent(np.array([delta]), np.eye(1))
            assert dice_overlap(a, b) == pytest.approx(target, abs=1e-6)
        assert 2.0 * math.sqrt(math.log(100.0)) == pytest.approx(4.2919, abs=1e-4)
        assert 2.0 * math.sqrt(math.log(10**4)) == pytest.approx(6.0697, abs=1e-4)

    def test_quadrature_cross_check(self):
        a = GaussianComponent(np.zeros(1), np.eye(1))
        b = GaussianComponent(np.array([1.3]), np.array([[1.4]]))
        pa = norm(0.0, 1.0)
        pb = norm(1.3, math.sqrt(1.4 * 1.4))
        cross = quad(lambda x: pa.pdf(x) * pb.pdf(x), -15, 15)[0]
        self_a = quad(lambda x: pa.pdf(x) ** 2, -15, 15)[0]
        self_b = quad(lambda x: pb.pdf(x) ** 2, -15, 15)[0]
        oracle = 2.0 * cross / (self_a + self_b)
        assert dice_overlap(a, b) == pytest.approx(oracle, rel=1e-8)

    def test_bounds_and_identity_of_indiscernibles(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            m1 = rng.standard_normal((d, d))
            m2 = rng.standard_normal((d, d))
            a = GaussianComponent(rng.standard_normal(d),
                                  np.linalg.cholesky(m1 @ m1.T + 0.3 * np.eye(d)))
            b = GaussianComponent(rng.standard_normal(d),
                                  np.linalg.cholesky(m2 @ m2.T + 0.3 * np.eye(d)))
            val = dice_overlap(a, b)
            assert 0.0 <= val <= 1.0
            same = (np.allclose(a.mean, b.mean, atol=1e-10)
                    and np.allclose(a.chol_cov, b.chol_cov, atol=1e-10))
            if val > 1.0 - 1e-10:
                assert same
            if same:
                assert val > 1.0 - 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(24)
        d = 3
        m1, m2 = rng.standard_normal((2, d, d))
        a = GaussianComponent(rng.standard_normal(d),
                              np.linalg.cholesky(m1 @ m1.T + np.eye(d)))
        b = GaussianComponent(rng.standard_normal(d),
                              np.linalg.cholesky(m2 @ m2.T + np.eye(d)))
        t = rng.standard_normal((d, d)) + 2 * np.eye(d)
        shift = rng.standard_normal(d)

        def transform(c):
            cov = t @ c.cov @ t.T
            return GaussianComponent(t @ c.mean + shift, np.linalg.cholesky(cov))

        assert dice_overlap(transform(a), transform(b)) == pytest.approx(
            dice_overlap(a, b), abs=1e-10
        )

    def test_dimension_mismatch(self):
        a = GaussianComponent(np.zeros(1), np.eye(1))
        b = GaussianComponent(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            dice_overlap(a, b)


class TestGridDensity:
    def test_normalizes_unnormalized_gaussian(self):
        mix = _gauss([0.2, -0.1], [[0.5, 0.1], [0.1, 0.4]])
        base = mix.as_target()
        import math as _math

        from postmix.density import UnnormalizedTarget

        scale = 11.0
        target = UnnormalizedTarget(
            dim=2,
            log_phi=lambda z: _math.log(scale) + float(mix.log_pdf(z)),
            search_box=base.search_box,
            log_phi_batch=lambda pts: _math.log(scale) + mix.log_pdf(pts),
        )
        grid = GridDensity2D(target, 256)
        assert grid.log_z == pytest.approx(math.log(scale), abs=1e-3)
        pts = mix.sample(100, seed=0)
        np.testing.assert_allclose(grid.log_pdf(pts), mix.log_pdf(pts), atol=2e-3)

    def test_sampling_moments(self):
        mix = _gauss([1.0, -1.0], [[0.3, 0.0], [0.0, 0.2]])
        grid = GridDensity2D(mix.as_target(), 256)
        draws = grid.sample(20000, seed=1)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.05)

    def test_requires_2d(self):
        mix = _gauss(0.0, 1.0)
        with pytest.raises(ValueError):
            GridDensity2D(mix.as_target(), 64)

    @pytest.mark.parametrize("n_grid", [1, 0, True, 2.5])
    def test_grid_needs_an_integer_of_at_least_two_nodes(self, n_grid):
        mix = _gauss([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="n_grid"):
            GridDensity2D(mix.as_target(), n_grid)
