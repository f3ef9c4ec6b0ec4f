import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from postmix.density import (
    GaussianComponent,
    MixtureModel,
    SinhArcsinhMixture,
    UnnormalizedTarget,
    _inverse_lower,
    draw_mixture,
    eval_gradient,
    gradient_rows,
    mixture_terms,
    random_sinh_arcsinh_mixture,
)
from postmix.exceptions import NonFiniteDensityError
from postmix.gola import GolaConfig, run_gola
from postmix.metrics import jsd_normalized
from postmix.vi import (
    VariationalParams,
    ViConfig,
    _f_values,
    _score_gradient_raw,
    from_mixture,
    random_cold_start,
    refine,
    score_function_gradient,
    to_mixture,
)


def _gaussian_mixture(means, covs, weights):
    comps = tuple(
        GaussianComponent(np.asarray(m, float),
                          np.linalg.cholesky(np.asarray(c, float)))
        for m, c in zip(means, covs)
    )
    return MixtureModel(comps, np.asarray(weights, float))


def _negative_elbo_estimate(params, target, n, seed):
    """Monte Carlo estimate of E_q[log q(z) - log phi(z)] from the draws and
    integrand that ``refine`` uses; samples outside the target's support
    contribute a large finite penalty instead of infinity."""
    chol = params.chol_factors()
    weights, log_weights = params.softmax()
    points = draw_mixture(weights, params.means, chol, n, seed)
    log_q, *_ = mixture_terms(params.means, _inverse_lower(chol), log_weights,
                              points)
    f, _ = _f_values(target, points, log_q)
    return float(np.mean(f))


def _score_gradient_loop(params, target, n, seed):
    """The score-function estimator with one pass per component, as it was
    written before it became stacked products: an oracle for the stacked
    estimator, fed the same draws and the same :func:`mixture_terms`."""
    chol = params.chol_factors()
    pi, log_pi = params.softmax()
    points = draw_mixture(pi, params.means, chol, n, seed)
    log_q, resp, v_all, scores = mixture_terms(
        params.means, _inverse_lower(chol), log_pi, points)
    w_all = -scores.transpose(1, 2, 0)
    f, violations = _f_values(target, points, log_q)
    coeff = (n * f - np.sum(f)) / (n - 1)
    k, d = params.means.shape
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
    return VariationalParams(g_logits, g_means, g_chol), float(np.mean(f)), violations


@st.composite
def _variational_cases(draw):
    """Random VI parameters (K 1-5, d 1-8), a sinh-arcsinh target of the same
    dimension, a sample count n in 2-599 and a seed."""
    k, d = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = VariationalParams(rng.normal(size=k), 2.0 * rng.normal(size=(k, d)),
                               np.tril(0.3 * rng.normal(size=(k, d, d))))
    target = random_sinh_arcsinh_mixture(d, draw(st.integers(1, 3)),
                                         draw(st.integers(0, 1000))).as_target()
    return params, target, draw(st.integers(2, 599)), draw(st.integers(0, 2**31 - 1))


def _reparam_gradient(params, target, n, seed):
    """Pathwise gradient estimator for a single-Gaussian surrogate: draws
    ``z = mu + L eps`` and differentiates through the transform, with the
    target gradient at all ``n`` samples from one batched call. An oracle
    for the score-function estimator."""
    if params.n_components != 1:
        raise ValueError(
            "the pathwise estimator supports exactly one component; "
            f"got {params.n_components}"
        )
    d = params.dim
    chol = params.chol_factors()[0]
    eps = np.random.default_rng(seed).standard_normal((n, d))
    points = params.means[0] + eps @ chol.T
    score_phi, failed = gradient_rows(target, points)
    assert not failed
    g_mean = -score_phi.mean(axis=0)
    g_l = np.tril(-(score_phi.T @ eps) / n - np.diag(1.0 / np.diag(chol)))
    g_l[np.arange(d), np.arange(d)] *= np.diag(chol)
    return VariationalParams(np.zeros(1), g_mean[np.newaxis], g_l[np.newaxis])


def _kl_gradient_unconstrained(mu, sigma, m, s):
    """Closed-form gradient of KL(N(mu, sigma) || N(m, s)) in the
    unconstrained coordinates (means, log-diagonal Cholesky)."""
    d = mu.shape[0]
    s_inv = np.linalg.inv(s)
    chol = np.linalg.cholesky(sigma)
    g_mu = s_inv @ (mu - m)
    g_l = np.tril(s_inv @ chol - np.diag(1.0 / np.diag(chol)))
    g_l[np.arange(d), np.arange(d)] *= np.diag(chol)
    return g_mu, g_l


class TestParameterization:
    def test_round_trip(self):
        mix = _gaussian_mixture(
            [[0.5, -1.0], [2.0, 0.3]],
            [np.array([[1.2, 0.4], [0.4, 0.8]]), np.array([[0.6, -0.1], [-0.1, 0.9]])],
            [0.3, 0.7],
        )
        back = to_mixture(from_mixture(mix))
        np.testing.assert_allclose(back.weights, mix.weights, atol=1e-12)
        for a, b in zip(back.components, mix.components):
            np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
            np.testing.assert_allclose(a.chol_cov, b.chol_cov, atol=1e-12)

    def test_zero_weight_survives(self):
        mix = _gaussian_mixture([[0.0], [5.0]], [np.eye(1), np.eye(1)], [1.0, 0.0])
        back = to_mixture(from_mixture(mix))
        assert back.weights[1] <= 1e-12

    def test_any_unconstrained_vector_is_valid(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            k, d = 3, 2
            params = VariationalParams(
                rng.standard_normal(k) * 5,
                rng.standard_normal((k, d)) * 3,
                rng.standard_normal((k, d, d)),
            )
            mix = to_mixture(params)  # must not raise
            assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestNegativeElbo:
    def test_zero_when_q_equals_normalized_target(self):
        mix = _gaussian_mixture([[0.0, 0.0]], [np.eye(2)], [1.0])
        params = from_mixture(mix)
        est = _negative_elbo_estimate(params, mix.as_target(), 10**4, seed=0)
        # f = log q - log phi vanishes pointwise, so the estimate is exact
        assert abs(est) <= 1e-10

    def test_gaussian_kl_half(self):
        q = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        phi = _gaussian_mixture([[1.0]], [np.eye(1)], [1.0])
        n = 10**4
        est = _negative_elbo_estimate(from_mixture(q), phi.as_target(), n, seed=1)
        # KL(N(0,1) || N(1,1)) = 1/2; per-sample variance of f is 1
        assert est == pytest.approx(0.5, abs=3.0 / math.sqrt(n))

    def test_constant_offset(self):
        q = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        base = q.as_target()
        c = 7.5
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.log(c) + float(q.log_pdf(z)),
            search_box=base.search_box,
            log_phi_batch=lambda pts: math.log(c) + q.log_pdf(pts),
        )
        est = _negative_elbo_estimate(from_mixture(q), target, 4096, seed=2)
        assert est == pytest.approx(-math.log(c), abs=1e-10)

    def test_out_of_support_penalty(self):
        q = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: 0.0 if abs(z[0]) < 0.1 else -np.inf,
            search_box=np.array([[-5.0, 5.0]]),
        )
        est = _negative_elbo_estimate(from_mixture(q), target, 256, seed=3)
        assert est > 1e5  # most samples hit the penalty

    def test_nan_density_is_not_a_support_violation(self):
        q = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: math.nan if z[0] > 1.0 else 0.0,
            search_box=np.array([[-5.0, 5.0]]),
        )
        with pytest.raises(NonFiniteDensityError) as exc:
            _negative_elbo_estimate(from_mixture(q), target, 256, seed=3)
        assert exc.value.point[0] > 1.0


class TestScoreFunctionGradient:
    def test_exactly_zero_at_normalized_fixed_point(self):
        mix = _gaussian_mixture(
            [[-1.0, 0.0], [1.0, 0.5]], [0.5 * np.eye(2), 0.8 * np.eye(2)], [0.4, 0.6]
        )
        grad = score_function_gradient(from_mixture(mix), mix.as_target(),
                                       n=10**4, seed=4)
        # f is identically zero, so every estimate vanishes to rounding
        assert np.linalg.norm(grad.logits) <= 1e-10
        assert np.linalg.norm(grad.means) <= 1e-10
        assert np.linalg.norm(grad.chol_params) <= 1e-10

    def test_matches_closed_form_gaussian_kl_gradient(self):
        rng = np.random.default_rng(21)
        d = 3
        a = rng.standard_normal((d, d))
        s = a @ a.T + d * np.eye(d)
        m = rng.standard_normal(d)
        phi = _gaussian_mixture([m], [s], [1.0])
        b = rng.standard_normal((d, d))
        sigma = b @ b.T + d * np.eye(d)
        mu = rng.standard_normal(d)
        q = _gaussian_mixture([mu], [sigma], [1.0])
        params = from_mixture(q)

        g_mu, g_l = _kl_gradient_unconstrained(mu, sigma, m, s)
        samples = []
        for seed in range(30):
            g = score_function_gradient(params, phi.as_target(), 20000, seed)
            samples.append(np.concatenate([g.means.ravel(), g.chol_params.ravel()]))
        samples = np.array(samples)
        est = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
        truth = np.concatenate([g_mu.ravel(), g_l.ravel()])
        mask = np.concatenate([
            np.ones(d, bool), np.tril(np.ones((d, d), bool)).ravel()
        ])
        z = (est - truth)[mask] / np.maximum(se[mask], 1e-12)
        assert np.max(np.abs(z)) <= 4.0

    def test_matches_finite_difference_of_objective(self):
        # estimator mean over many seeds vs central differences of the
        # negative-ELBO estimate at large n
        phi = _gaussian_mixture([[0.8], [-0.8]], [np.eye(1), np.eye(1)], [0.5, 0.5])
        q = _gaussian_mixture([[0.3], [-0.5]],
                              [0.8 * np.eye(1), 1.2 * np.eye(1)], [0.45, 0.55])
        params = from_mixture(q)
        target = phi.as_target()

        grads = np.array([
            np.concatenate([
                score_function_gradient(params, target, 1000, seed).logits,
                score_function_gradient(params, target, 1000, seed).means.ravel(),
            ])
            for seed in range(200)
        ])
        est = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / math.sqrt(grads.shape[0])

        h = 0.05
        n_big = 10**6
        fd = np.empty(4)
        flat_fields = [("logits", 0), ("logits", 1), ("means", 0), ("means", 1)]
        for i, (field, idx) in enumerate(flat_fields):
            plus = from_mixture(q)
            minus = from_mixture(q)
            arr_p = getattr(plus, field).copy()
            arr_m = getattr(minus, field).copy()
            if field == "logits":
                arr_p[idx] += h
                arr_m[idx] -= h
            else:
                arr_p[idx, 0] += h
                arr_m[idx, 0] -= h
            plus = replace(plus, **{field: arr_p})
            minus = replace(minus, **{field: arr_m})
            fd[i] = (
                _negative_elbo_estimate(plus, target, n_big, seed=777)
                - _negative_elbo_estimate(minus, target, n_big, seed=778)
            ) / (2 * h)
        # combined error: estimator se plus FD sampling noise (~1/sqrt(n_big))
        tol = 4.0 * se + 4.0 / math.sqrt(n_big) / (2 * h) + 2e-3
        assert np.all(np.abs(est - fd) <= tol)

    @given(_variational_cases())
    def test_stacked_equals_per_component_loop(self, case):
        params, target, n, seed = case
        grad, neg_elbo, violations = _score_gradient_raw(params, target, n, seed)
        oracle, oracle_elbo, oracle_violations = _score_gradient_loop(params, target, n, seed)
        assert neg_elbo == oracle_elbo
        assert violations == oracle_violations
        for name in ("logits", "means", "chol_params"):
            got, want = getattr(grad, name), getattr(oracle, name)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_baseline_needs_two_samples(self):
        mix = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        with pytest.raises(ValueError):
            score_function_gradient(from_mixture(mix), mix.as_target(), 1, 0)
        with pytest.raises(ValueError, match="at least 2"):
            ViConfig(n_mc_samples=1)


def _reparam_per_sample(params, target, n, seed):
    """The pathwise estimator as a loop over samples, one scalar target
    gradient each: a reference for the batched one."""
    d = params.dim
    chol = params.chol_factors()[0]
    eps = np.random.default_rng(seed).standard_normal((n, d))
    points = params.means[0] + eps @ chol.T
    g_mean = np.zeros(d)
    g_l = np.zeros((d, d))
    for i in range(n):
        score_phi = eval_gradient(target, points[i])
        g_mean -= score_phi
        g_l += np.outer(-score_phi, eps[i]) - np.diag(1.0 / np.diag(chol))
    g_l = np.tril(g_l / n)
    g_l[np.arange(d), np.arange(d)] *= np.diag(chol)
    return g_mean / n, g_l


class TestReparamGradient:
    @pytest.mark.parametrize("finite_differences", [False, True])
    def test_equals_per_sample_loop(self, finite_differences):
        mix = random_sinh_arcsinh_mixture(3, 2, seed=8)
        target = mix.as_target()
        if finite_differences:
            target = replace(target, gradient=None, log_phi_and_gradient_batch=None)
        q = _gaussian_mixture([mix.sample(1, 0)[0]],
                              [np.array([[0.8, 0.2, 0.0], [0.2, 0.6, 0.1],
                                         [0.0, 0.1, 0.5]])], [1.0])
        params = from_mixture(q)
        grad = _reparam_gradient(params, target, 300, seed=9)
        g_mean, g_l = _reparam_per_sample(params, target, 300, seed=9)
        np.testing.assert_allclose(grad.means[0], g_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad.chol_params[0], g_l, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(grad.logits, np.zeros(1))

    def test_rejects_mixtures(self):
        mix = _gaussian_mixture([[0.0], [1.0]], [np.eye(1), np.eye(1)], [0.5, 0.5])
        with pytest.raises(ValueError):
            _reparam_gradient(from_mixture(mix), mix.as_target(), 8, 0)

    def test_stationary_at_optimum(self):
        mix = _gaussian_mixture([[0.0, 0.0]], [np.eye(2)], [1.0])
        n = 4000
        grad = _reparam_gradient(from_mixture(mix),
                                                mix.as_target(), n, seed=5)
        assert np.linalg.norm(grad.means) <= 5.0 / math.sqrt(n)
        assert np.linalg.norm(grad.chol_params) <= 8.0 / math.sqrt(n)

    def test_lower_variance_than_score(self):
        phi = _gaussian_mixture([[0.7]], [np.eye(1)], [1.0])
        q = _gaussian_mixture([[0.0]], [1.4 * np.eye(1)], [1.0])
        params = from_mixture(q)
        target = phi.as_target()
        n = 1000
        score_vals, reparam_vals = [], []
        for seed in range(40):
            score_vals.append(score_function_gradient(params, target, n, seed).means[0, 0])
            reparam_vals.append(
                _reparam_gradient(params, target, n, seed).means[0, 0]
            )
        assert np.var(reparam_vals, ddof=1) <= np.var(score_vals, ddof=1)

    def test_agrees_with_score_on_skewed_target(self):
        target = SinhArcsinhMixture(np.ones(1), [[0.4]], [[1.1]], [[0.8]],
                                    [[1.0]]).as_target()
        q = _gaussian_mixture([[0.2]], [0.9 * np.eye(1)], [1.0])
        params = from_mixture(q)
        n = 2000
        score = np.array([
            np.concatenate([
                score_function_gradient(params, target, n, seed).means.ravel(),
                score_function_gradient(params, target, n, seed).chol_params.ravel(),
            ])
            for seed in range(40)
        ])
        reparam = np.array([
            np.concatenate([
                _reparam_gradient(params, target, n, seed).means.ravel(),
                _reparam_gradient(params, target, n, seed).chol_params.ravel(),
            ])
            for seed in range(40)
        ])
        diff = score.mean(axis=0) - reparam.mean(axis=0)
        se = np.sqrt(score.var(axis=0, ddof=1) / 40 + reparam.var(axis=0, ddof=1) / 40)
        assert np.all(np.abs(diff) <= 4.0 * se + 1e-12)


class TestRefine:
    def test_start_at_optimum_stays(self):
        mix = _gaussian_mixture([[0.2, -0.4]], [np.eye(2)], [1.0])
        cfg = ViConfig(n_mc_samples=64, max_epochs=20, seed=0)
        refined, trace = refine(mix, mix.as_target(), cfg)
        # f vanishes pointwise at the optimum so no update ever fires
        jsd = jsd_normalized(refined, mix, 4096, seed=0)
        assert jsd.value <= 1e-3
        assert not trace.diverged

    def test_jsd_needs_two_samples(self):
        with pytest.raises(ValueError, match="jsd_samples must be at least 2"):
            ViConfig(jsd_samples=1)

    def test_warm_start_improves_on_init(self):
        truth = random_sinh_arcsinh_mixture(4, 2, seed=30)
        target = truth.as_target()
        report = run_gola(target, GolaConfig(n_starts=32, master_seed=0))
        improved = 0
        for seed in range(5):
            cfg = ViConfig(n_mc_samples=128, step_size=5e-3, max_epochs=50, seed=seed)
            _, trace = refine(report.mixture, target, cfg)
            first = trace.records[0].neg_elbo
            if min(r.neg_elbo for r in trace.records) < first:
                improved += 1
        assert improved >= 3  # majority vote across seeds

    def test_cold_start_spread(self):
        truth = random_sinh_arcsinh_mixture(4, 2, seed=31)
        target = truth.as_target()
        report = run_gola(target, GolaConfig(n_starts=32, master_seed=0))
        cfg = ViConfig(n_mc_samples=128, max_epochs=30, report_interval=29, seed=0,
                       jsd_samples=2048)
        warm_jsds = []
        for seed in range(3):
            _, trace = refine(report.mixture, target, replace(cfg, seed=seed),
                              reference=truth)
            warm_jsds.append(min(r.jsd for r in trace.records if r.jsd is not None))
        warm_median = float(np.median(warm_jsds))
        cold_final = []
        for seed in range(10):
            init = random_cold_start(4, 2, target.search_box, seed=seed)
            _, trace = refine(init, target, replace(cfg, seed=100 + seed),
                              reference=truth)
            cold_final.append([r.jsd for r in trace.records if r.jsd is not None][-1])
        assert max(cold_final) > warm_median

    def test_divergence_flag(self):
        phi = _gaussian_mixture([[0.0]], [1e-4 * np.eye(1)], [1.0])
        init = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        cfg = ViConfig(n_mc_samples=32, step_size=200.0, max_epochs=400, seed=1)
        _, trace = refine(init, phi.as_target(), cfg)
        assert trace.diverged
        assert len(trace.records) < 400

    def test_trace_invariants_and_csv(self, tmp_path):
        mix = _gaussian_mixture([[0.5]], [np.eye(1)], [1.0])
        phi = _gaussian_mixture([[0.0]], [np.eye(1)], [1.0])
        cfg = ViConfig(n_mc_samples=32, max_epochs=12, report_interval=4, seed=2,
                       jsd_samples=512)
        _, trace = refine(mix, phi.as_target(), cfg, reference=phi)
        epochs = [r.epoch for r in trace.records]
        elapsed = [r.elapsed_seconds for r in trace.records]
        assert epochs == sorted(set(epochs))
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        jsd_rows = [r for r in trace.records if r.jsd is not None]
        assert [r.epoch for r in jsd_rows] == [0, 4, 8]
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,elapsed_seconds,neg_elbo,jsd"
        assert len(lines) == len(trace.records) + 1
        assert lines[1].count(",") == 3


class TestRandomColdStart:
    def test_reproducible(self):
        box = np.array([[-2.0, 2.0], [0.0, 10.0]])
        a = random_cold_start(2, 3, box, seed=7)
        b = random_cold_start(2, 3, box, seed=7)
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_array_equal(ca.mean, cb.mean)

    def test_single_component_weight(self):
        mix = random_cold_start(2, 1, np.array([[-1.0, 1.0], [-1.0, 1.0]]), seed=8)
        np.testing.assert_array_equal(mix.weights, [1.0])

    def test_covariance_scale(self):
        box = np.array([[-5.0, 5.0], [0.0, 1.0]])
        mix = random_cold_start(2, 1, box, seed=9)
        np.testing.assert_allclose(np.diag(mix.components[0].cov),
                                   [(10.0 / 10) ** 2, (1.0 / 10) ** 2])

    def test_means_uniform_over_box(self):
        box = np.array([[0.0, 1.0]])
        locations = np.array([
            random_cold_start(1, 1, box, seed=s).components[0].mean[0]
            for s in range(10**4)
        ])
        counts, _ = np.histogram(locations, bins=4, range=(0.0, 1.0))
        expected = len(locations) / 4
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 0.01-level critical value for 3 degrees of freedom
        assert chi2 <= 11.345
