import dataclasses
import math

import numpy as np
import pytest

from postmix import sensibench
from postmix.density import MixtureModel
from postmix.exceptions import GenerationError, NoModesFoundError
from postmix.gola import GolaConfig
from postmix.metrics import dice_overlap
from postmix.sensibench import (
    Factor,
    FactorSpec,
    ProblemFactors,
    bootstrap_ci,
    estimate_indices,
    evaluate_case,
    generate_test_gmm,
    robustness_study,
    sobol_design,
)


def _pairwise_overlaps(mix: MixtureModel):
    comps = mix.components
    return [
        dice_overlap(comps[i], comps[j])
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    ]


class TestGenerateTestGmm:
    def test_geometric_weights(self):
        factors = ProblemFactors(d=3, n_components=3, weight_decay=2.0,
                                 correlation=0.0, max_overlap=1e-3)
        mix = generate_test_gmm(factors, seed=0)
        np.testing.assert_allclose(mix.weights, [4 / 7, 2 / 7, 1 / 7], rtol=1e-12)

    def test_two_components_hit_overlap(self):
        for lam in (1e-4, 1e-3, 1e-2):
            factors = ProblemFactors(d=4, n_components=2, weight_decay=1.5,
                                     correlation=0.3, max_overlap=lam)
            mix = generate_test_gmm(factors, seed=1)
            overlap = _pairwise_overlaps(mix)[0]
            assert overlap == pytest.approx(lam, rel=0.01)

    def test_zero_correlation_gives_identity_covariance(self):
        factors = ProblemFactors(d=5, n_components=2, weight_decay=1.0,
                                 correlation=0.0, max_overlap=1e-3)
        mix = generate_test_gmm(factors, seed=2)
        for comp in mix.components:
            np.testing.assert_array_equal(comp.cov, np.eye(5))

    def test_max_overlap_attained_never_exceeded(self):
        for m in (3, 4):
            factors = ProblemFactors(d=6, n_components=m, weight_decay=1.4,
                                     correlation=0.5, max_overlap=5e-3)
            mix = generate_test_gmm(factors, seed=3)
            overlaps = _pairwise_overlaps(mix)
            assert max(overlaps) == pytest.approx(5e-3, rel=0.01)
            assert all(o <= 5e-3 * 1.01 for o in overlaps)

    def test_square_layout_when_simplex_does_not_fit(self):
        factors = ProblemFactors(d=2, n_components=4, weight_decay=1.0,
                                 correlation=0.2, max_overlap=1e-3)
        mix = generate_test_gmm(factors, seed=4)
        assert max(_pairwise_overlaps(mix)) == pytest.approx(1e-3, rel=0.01)

    def test_three_means_on_a_line_raise(self):
        line = ProblemFactors(d=1, n_components=3, weight_decay=1.0,
                              correlation=0.0, max_overlap=1e-3)
        with pytest.raises(GenerationError, match="d = 1"):
            generate_test_gmm(line, seed=0)
        pair = generate_test_gmm(dataclasses.replace(line, n_components=2), seed=0)
        assert max(_pairwise_overlaps(pair)) == pytest.approx(1e-3, rel=0.01)

    def test_deterministic_per_seed(self):
        factors = ProblemFactors(d=3, n_components=3, weight_decay=1.2,
                                 correlation=0.4, max_overlap=1e-3)
        a = generate_test_gmm(factors, seed=5)
        b = generate_test_gmm(factors, seed=5)
        c = generate_test_gmm(factors, seed=6)
        for ca, cb in zip(a.components, b.components):
            np.testing.assert_array_equal(ca.mean, cb.mean)
        assert not np.allclose(a.components[0].mean, c.components[0].mean)

    def test_factor_spec_validation(self):
        with pytest.raises(ValueError):
            FactorSpec(corr_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            FactorSpec(overlap_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            FactorSpec(d_range=(5, 2))
        for ranges in ({"d_range": (2.5, 6)}, {"m_range": (2, 3.5)},
                       {"d_range": (2, float("inf"))}):
            with pytest.raises(ValueError, match="whole-number"):
                FactorSpec(**ranges)
        assert FactorSpec(d_range=(2.0, 6.0)).d_range == (2.0, 6.0)


class TestSobolDesign:
    def test_evaluation_count(self):
        calls = []

        def model(row):
            calls.append(row.copy())
            return float(row.sum())

        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
        design = sobol_design(factors, 4, seed=0, model=model)
        assert len(calls) == 4 * (2 + 2)  # N (k + 2)
        assert design.f_a.shape == (4,)
        assert design.f_ab.shape == (2, 4)

    def test_column_swap_structure(self):
        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0),
                   Factor("x3", 0.0, 1.0)]
        design = sobol_design(factors, 16, seed=1, model=lambda row: 0.5)
        for i in range(3):
            np.testing.assert_array_equal(design.ab[i][:, i], design.b[:, i])
            others = [j for j in range(3) if j != i]
            np.testing.assert_array_equal(design.ab[i][:, others],
                                          design.a[:, others])

    def test_constant_model(self):
        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
        design = sobol_design(factors, 8, seed=2, model=lambda row: 7.0)
        assert np.all(design.f_a == 7.0)
        assert np.all(design.f_b == 7.0)
        assert np.all(design.f_ab == 7.0)
        with pytest.raises(ValueError, match="zero variance"):
            estimate_indices(design)

    def test_discrete_factors_integral(self):
        factors = [Factor("d", 2, 10, discrete=True), Factor("w", 0.0, 1.0)]
        design = sobol_design(factors, 64, seed=3, model=lambda row: row[0])
        assert np.all(design.a[:, 0] == np.round(design.a[:, 0]))
        assert design.a[:, 0].min() >= 2 and design.a[:, 0].max() <= 10

    def test_first_model_failure_propagates(self):
        calls = []

        def fails_once(row):
            calls.append(None)
            # Calls run A, B, AB0, AB1 with 4 rows each: call 5 is B row 1.
            if len(calls) - 1 == 5:
                raise RuntimeError("model failed")
            return float(row[0])

        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
        with pytest.raises(RuntimeError, match="model failed"):
            sobol_design(factors, 4, seed=4, model=fails_once)
        assert len(calls) == 6  # the failed row is not called again

    def test_seed_changes_design(self):
        factors = [Factor("x1", 0.0, 1.0)]
        a = sobol_design(factors, 8, seed=0, model=lambda row: 0.0)
        b = sobol_design(factors, 8, seed=1, model=lambda row: 0.0)
        assert not np.array_equal(a.a, b.a)


class TestEstimators:
    @staticmethod
    def _design(model, n, k=2, seed=0):
        factors = [Factor(f"x{i}", 0.0, 1.0) for i in range(k)]
        return sobol_design(factors, n, seed=seed, model=model)

    def test_additive_function(self):
        # f = X1 + 2 X2: V = 5/12, V1 = 1/12, V2 = 4/12
        design = self._design(lambda row: row[0] + 2.0 * row[1], 2**14)
        result = estimate_indices(design)
        np.testing.assert_allclose(result.first_order, [0.2, 0.8], atol=0.02)
        np.testing.assert_allclose(result.total_order, [0.2, 0.8], atol=0.02)

    def test_dummy_factor_null(self):
        design = self._design(lambda row: math.sin(row[0]), 2**14, k=2)
        result = estimate_indices(design)
        assert abs(result.first_order[1]) <= 0.02
        assert result.total_order[1] <= 0.02

    def test_multiplicative_interaction(self):
        # f = X1 * X2: S1 = S2 = 3/7, interaction remainder 1/7
        design = self._design(lambda row: row[0] * row[1], 2**14)
        result = estimate_indices(design)
        s_sum = float(result.first_order.sum())
        assert s_sum < 1.0
        assert 1.0 - s_sum == pytest.approx(1.0 / 7.0, abs=0.03)
        np.testing.assert_allclose(result.first_order, [3 / 7, 3 / 7], atol=0.03)

    def test_sum_rule_for_additive_models(self):
        design = self._design(lambda row: 3.0 * row[0] - 1.5 * row[1], 2**14)
        result = estimate_indices(design)
        assert float(result.first_order.sum()) == pytest.approx(1.0, abs=0.03)

    def test_total_order_nonnegative(self):
        design = self._design(lambda row: math.cos(3 * row[0]) * row[1], 2**12)
        result = estimate_indices(design)
        assert np.all(result.total_order >= 0.0)

    def test_total_at_least_first_up_to_noise(self):
        design = self._design(lambda row: row[0] * row[1] + row[0], 2**13)
        result = bootstrap_ci(design, replicates=200, seed=0)
        for i in range(2):
            half_width = 0.5 * (result.first_ci[i, 1] - result.first_ci[i, 0])
            assert result.total_order[i] >= result.first_order[i] - 2.0 * half_width


class TestBootstrap:
    def test_point_estimate_inside_interval(self):
        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
        design = sobol_design(factors, 2**10, seed=5,
                              model=lambda row: row[0] + 0.5 * row[1])
        result = bootstrap_ci(design, replicates=500, seed=1)
        for i in range(2):
            assert result.first_ci[i, 0] <= result.first_order[i] <= result.first_ci[i, 1]
            assert result.total_ci[i, 0] <= result.total_order[i] <= result.total_ci[i, 1]

    def test_zero_variance_replicates_skipped(self):
        # nearly-constant output: many bootstrap resamples see zero variance
        def model(row):
            return 1.0 if row[0] > 0.95 else 0.0

        factors = [Factor("x1", 0.0, 1.0)]
        design = sobol_design(factors, 16, seed=6, model=model)
        if np.var(design.f_a) == 0.0:
            pytest.skip("design drew no rare event at all")
        result = bootstrap_ci(design, replicates=300, seed=2)
        assert result.skipped_replicates > 0
        assert result.n_replicates + result.skipped_replicates == 300

    def test_minimum_replicates(self):
        factors = [Factor("x1", 0.0, 1.0)]
        design = sobol_design(factors, 32, seed=7, model=lambda row: row[0])
        with pytest.raises(ValueError):
            bootstrap_ci(design, replicates=50)

    def test_csv_schema(self, tmp_path):
        factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
        design = sobol_design(factors, 256, seed=8,
                              model=lambda row: row[0] + row[1])
        result = bootstrap_ci(design, replicates=200, seed=3)
        path = tmp_path / "sens.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "factor,S,S_lo,S_hi,ST,ST_lo,ST_hi"
        assert len(lines) == 3


class TestRobustnessStudy:
    def test_easy_regime_all_pass(self):
        spec = FactorSpec(d_range=(2, 2), m_range=(2, 2),
                          omega_range=(1.0, 1.0), corr_range=(0.0, 0.0),
                          overlap_range=(1e-4, 1e-4))
        cfg = GolaConfig(n_starts=48, master_seed=0)
        table = robustness_study(spec, 20, cfg, jsd_samples=2048, seed=7)
        assert all(c.status == "ok" for c in table.cases)
        assert all(c.score <= 0.05 for c in table.cases)
        assert table.fraction_below() == 1.0

    def test_csv_schema(self, tmp_path):
        spec = FactorSpec(d_range=(2, 3), m_range=(2, 2))
        cfg = GolaConfig(n_starts=32, master_seed=0)
        table = robustness_study(spec, 3, cfg, jsd_samples=1024, seed=8)
        path = tmp_path / "robustness.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "case,d,M,omega,c,lambda,Y,status"
        assert len(lines) == 4

    def test_failures_scored_worst(self):
        # impossible overlap target: generation fails, case scores 1
        spec = FactorSpec(d_range=(2, 2), m_range=(2, 2),
                          omega_range=(1.0, 1.0), corr_range=(0.0, 0.0),
                          overlap_range=(0.97, 0.98))
        cfg = GolaConfig(n_starts=8, master_seed=0)
        table = robustness_study(spec, 2, cfg, jsd_samples=512, seed=9)
        for case in table.cases:
            if case.status != "ok":
                assert case.score == 1.0

    def test_pipeline_error_scores_worst_with_its_name(self, monkeypatch):
        def no_modes(target, cfg):
            raise NoModesFoundError("none converged")

        monkeypatch.setattr(sensibench, "run_gola", no_modes)
        factors = ProblemFactors(2, 2, 1.0, 0.0, 1e-4)
        assert evaluate_case(factors, GolaConfig(n_starts=8), 512, 3) == (
            1.0, "NoModesFoundError")

    def test_program_fault_propagates(self, monkeypatch):
        def broken(target, cfg):
            raise TypeError("a bug, not a hard case")

        monkeypatch.setattr(sensibench, "run_gola", broken)
        factors = ProblemFactors(2, 2, 1.0, 0.0, 1e-4)
        with pytest.raises(TypeError, match="a bug"):
            evaluate_case(factors, GolaConfig(n_starts=8), 512, 3)
