import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls
from scipy.stats import qmc

from postmix.exceptions import SingularMatrixError
from postmix.exemplar import (
    _PADE13,
    ShearFrame,
    _expm_batch,
    _frame_template,
    _pade_identity_terms,
    _state_matrices,
    default_scenario,
    simulate,
)
from postmix.mathkit import (
    _CHI2_SCALE_SWITCH,
    SOBOL_MAX_DIM,
    _chi_square_sums,
    _sobol_direction_table,
    chi_square_survival,
    cholesky_spd,
    nnls,
    sobol_points,
)


class TestCholeskySpd:
    def test_identity_needs_no_jitter(self):
        chol, jitter = cholesky_spd(np.eye(3))
        assert jitter == 0.0
        np.testing.assert_array_equal(chol, np.eye(3))

    def test_hand_worked_two_by_two(self):
        # [[4, 2], [2, 3]] factors as [[2, 0], [1, sqrt(2)]]
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        chol, _ = cholesky_spd(a)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(chol, expected, rtol=1e-14)
        np.testing.assert_allclose(chol @ chol.T, a, rtol=1e-14)

    def test_rank_deficient_gets_jitter(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.linalg.matrix_rank(a) == 1  # eigenvalue oracle: rank 1
        chol, jitter = cholesky_spd(a)
        assert jitter > 0.0
        recon_err = np.linalg.norm(chol @ chol.T - a, 2)
        assert recon_err <= jitter + 1e-12

    def test_reconstruction_invariant_random_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            m = rng.standard_normal((d, d))
            a = m @ m.T + 0.1 * np.eye(d)
            chol, jitter = cholesky_spd(a)
            target = a + jitter * np.eye(d)
            err = np.linalg.norm(chol @ chol.T - target, "fro")
            assert err <= 1e-12 * np.linalg.norm(a, "fro") + 1e-300

    def test_records_smallest_working_jitter(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, jitter = cholesky_spd(a)
        # one ladder rung below the applied jitter must fail
        ladder = [0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]
        scale = np.trace(a) / 2
        applied = jitter / scale
        below = max((j for j in ladder if j < applied * 0.99), default=None)
        if below is not None:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(a + below * scale * np.eye(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_spd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_negative_definite_fails(self):
        with pytest.raises(SingularMatrixError):
            cholesky_spd(-np.eye(2))


def _random_stack(seed, m, n, log_scale):
    """m random (n, n) matrices, each at its own scale within 10**log_scale."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-log_scale, log_scale, size=(m, 1, 1))
    return scales * rng.standard_normal((m, n, n))


@st.composite
def _mixed_stacks(draw):
    """(m, n, n) stacks whose rows share one 1-norm, and so one scaling
    power, or have their own, with zero matrices and rows that hold a NaN
    or an infinite entry."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.standard_normal((m, n, n))
    unit /= np.abs(unit).sum(axis=1).max(axis=1)[:, None, None]
    shared = draw(st.floats(0.0, 300.0))
    kinds = draw(st.lists(st.sampled_from(["shared", "own", "zero", "non-finite"]),
                          min_size=m, max_size=m))
    stack = unit * shared
    for i, kind in enumerate(kinds):
        if kind == "own":
            stack[i] = unit[i] * draw(st.floats(0.0, 300.0))
        elif kind == "zero":
            stack[i] = 0.0
        elif kind == "non-finite":
            stack[i, rng.integers(n), rng.integers(n)] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
    return stack


class TestMatrixExponential:
    # mathkit has no exponential; these pin the one the frame simulator uses
    def test_zero_matrix(self):
        np.testing.assert_array_equal(_expm_batch(np.zeros((3, 3))), np.eye(3))
        stack = _random_stack(0, 5, 4, 1.0)
        stack[[1, 3]] = 0.0
        out = _expm_batch(stack)
        np.testing.assert_array_equal(out[[1, 3]], np.broadcast_to(np.eye(4), (2, 4, 4)))

    def test_cached_pade_identity_terms_are_read_only(self):
        eye, b1_eye, b0_eye = _pade_identity_terms(4)
        np.testing.assert_array_equal(eye, np.eye(4))
        np.testing.assert_array_equal(b1_eye, _PADE13[1] * np.eye(4))
        np.testing.assert_array_equal(b0_eye, _PADE13[0] * np.eye(4))
        for term in (eye, b1_eye, b0_eye):
            with pytest.raises(ValueError, match="read-only"):
                term[0, 0] = 2.0

    def test_nonfinite_rejected(self):
        # the exponential itself returns NaN, so non-finite exponents are
        # rejected before they reach it: in the frame and in the times
        with pytest.raises(ValueError):
            ShearFrame(1.0, 1.0, 1.0, 1.0, np.nan, 0.1)
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.1, 0.1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                simulate(frame, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.5, bad]))

    def test_matches_scipy_on_the_damping_box(self):
        # the exemplar's step dt = 5 on a fine grid, and every per-time
        # exponent up to the horizon on a coarser one
        scenario = default_scenario()
        (lo1, hi1), (lo2, hi2) = scenario.search_box

        def states(n):
            c1, c2 = np.meshgrid(np.linspace(lo1, hi1, n), np.linspace(lo2, hi2, n))
            return _state_matrices(np.column_stack([c1.ravel(), c2.ravel()]),
                                   _frame_template(scenario.constants()))

        dt = scenario.horizon / scenario.n_obs
        times = np.linspace(0.0, scenario.horizon, 61)[1:]
        exponents = np.concatenate([dt * states(64),
                                    (states(12)[:, None] * times[:, None, None]).reshape(-1, 4, 4)])
        ours, ref = _expm_batch(exponents), scipy.linalg.expm(exponents)
        err = np.linalg.norm(ours - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.floats(0.0, 3.0))
    def test_row_equals_a_stack_of_one(self, seed, m, n, log_scale):
        stack = _random_stack(seed, m, n, log_scale)
        out = _expm_batch(stack)
        for i in range(m):
            np.testing.assert_array_equal(out[i], _expm_batch(stack[i:i + 1])[0])

    @settings(max_examples=80, deadline=None)
    @given(_mixed_stacks())
    def test_row_equals_a_stack_of_one_on_mixed_stacks(self, stack):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _expm_batch(stack)
            rows = [_expm_batch(stack[i:i + 1])[0] for i in range(len(stack))]
            singles = [_expm_batch(row) for row in stack]
        for i, matrix in enumerate(stack):
            assert out[i].tobytes() == rows[i].tobytes() == singles[i].tobytes()
            if not np.all(np.isfinite(matrix)):
                assert np.all(np.isnan(out[i]))
            elif not matrix.any():
                assert out[i].tobytes() == np.eye(len(matrix)).tobytes()

    def test_nonfinite_row_is_nan_and_leaves_the_others(self):
        stack = _random_stack(1, 4, 4, 1.0)
        expected = _expm_batch(stack)
        for bad in (np.inf, -np.inf, np.nan):
            poisoned = stack.copy()
            poisoned[2, 1, 3] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = _expm_batch(poisoned)
            assert np.all(np.isnan(out[2]))
            np.testing.assert_array_equal(np.delete(out, 2, axis=0),
                                          np.delete(expected, 2, axis=0))

    def test_matrix_in_matrix_out(self):
        a = _random_stack(2, 1, 4, 1.0)
        out = _expm_batch(a[0])
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out, _expm_batch(a)[0])


def _star_discrepancy_estimate(points, grid=24):
    """Anchored-box discrepancy over a corner grid (shared across batches)."""
    n, d = points.shape
    axes = [np.linspace(0.1, 1.0, grid)] * d
    worst = 0.0
    mesh = np.meshgrid(*axes, indexing="ij")
    corners = np.column_stack([m.ravel() for m in mesh])
    for corner in corners:
        inside = np.all(points < corner, axis=1).mean()
        worst = max(worst, abs(inside - np.prod(corner)))
    return worst


class TestSobolPoints:
    def test_first_points_dim1_with_skip(self):
        np.testing.assert_array_equal(
            sobol_points(1, 3).ravel(), [0.5, 0.75, 0.25]
        )

    def test_projection_permutation_property(self):
        # every 1-d projection of the first 2^m points of the sequence,
        # the skipped origin included, is {k / 2^m}
        for dim in (1, 3, 8, 21):
            for m in (4, 6):
                pts = np.vstack([np.zeros((1, dim)), sobol_points(dim, 2**m - 1)])
                expected = np.arange(2**m) / 2**m
                for j in range(dim):
                    np.testing.assert_array_equal(np.sort(pts[:, j]), expected)

    def test_discrepancy_beats_pseudorandom(self):
        pts = sobol_points(2, 1024)
        sobol_disc = _star_discrepancy_estimate(pts)
        rng = np.random.default_rng(5)
        random_discs = [
            _star_discrepancy_estimate(rng.uniform(size=(1024, 2)))
            for _ in range(100)
        ]
        assert sobol_disc < min(random_discs)

    def test_matches_reference_generator(self):
        for dim in (1, 2, 3, 8, 33, 64):
            ours = sobol_points(dim, 255)
            ref = qmc.Sobol(d=dim, scramble=False).random(256)
            np.testing.assert_array_equal(ref[0], np.zeros(dim))
            np.testing.assert_array_equal(ours, ref[1:])

    def test_cached_table_gives_the_points_of_a_fresh_one(self):
        for dim in range(1, SOBOL_MAX_DIM + 1):
            cached = sobol_points(dim, 300)
            table = _sobol_direction_table(dim)
            np.testing.assert_array_equal(table, _sobol_direction_table.__wrapped__(dim))
            _sobol_direction_table.cache_clear()
            assert sobol_points(dim, 300).tobytes() == cached.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 1] = 0

    def test_dimension_cap(self):
        assert sobol_points(SOBOL_MAX_DIM, 2).shape == (2, 64)
        with pytest.raises(ValueError):
            sobol_points(SOBOL_MAX_DIM + 1, 2)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            sobol_points(2, 0)


class TestChiSquareSurvival:
    def test_at_zero(self):
        for dof in (1, 2, 7, 30):
            assert chi_square_survival(0.0, dof) == 1.0

    def test_two_dof_closed_form(self):
        # dof = 2 gives exactly exp(-x/2)
        for x in (0.1, 1.0, 2.0 * math.log(2.0), 10.0, 80.0):
            assert chi_square_survival(x, 2) == pytest.approx(
                math.exp(-x / 2.0), abs=1e-12
            )
        assert chi_square_survival(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)

    def test_five_dof_five_percent_point(self):
        # 11.0705 is the 5% point of chi-square(5) by inverting the
        # regularized gamma (oracle value frozen from that inversion)
        assert chi_square_survival(11.0705, 5) == pytest.approx(0.05, abs=5e-7)

    def test_matches_regularized_gamma_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            dof = int(rng.integers(1, 50))
            x = float(rng.uniform(0.0, 150.0))
            ref = scipy.special.gammaincc(dof / 2.0, x / 2.0)
            assert chi_square_survival(x, dof) == pytest.approx(ref, abs=1e-10)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 60.0, 500)
        for dof in (1, 3, 10):
            vals = [chi_square_survival(x, dof) for x in xs]
            assert np.all(np.diff(vals) <= 1e-15)

    def test_monte_carlo_frequencies(self):
        rng = np.random.default_rng(7)
        dof = 4
        draws = rng.chisquare(dof, size=10**6)
        for x in np.linspace(0.5, 14.0, 10):
            p = chi_square_survival(x, dof)
            freq = float(np.mean(draws >= x))
            se = math.sqrt(p * (1.0 - p) / draws.size)
            assert abs(freq - p) <= 4.0 * se

    def test_hand_values(self):
        # dof 4: e^{-x/2} (1 + x/2); dof 3: erfc(sqrt(x/2)) + sqrt(2x/pi) e^{-x/2}
        assert chi_square_survival(2.0, 4) == pytest.approx(2.0 / math.e, rel=1e-15)
        assert chi_square_survival(2.0, 3) == pytest.approx(
            math.erfc(1.0) + 2.0 / math.sqrt(math.pi) / math.e, rel=1e-15)
        assert chi_square_survival(2.0, 1) == pytest.approx(math.erfc(1.0), rel=1e-15)

    def test_far_tail_matches_scipy(self):
        # relative agreement while e^{-x/2} is a normal double (x <= 1400),
        # and 0 where both underflow
        for dof in (1, 2, 3, 4, 9, 10, 30, 49):
            for x in (300.0, 500.0, 1000.0, 1400.0, 1e4, 1e300, sys.float_info.max):
                want = float(scipy.stats.chi2.sf(x, dof))
                assert chi_square_survival(x, dof) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_past_the_underflow_of_the_first_term_matches_scipy(self):
        # relative agreement wherever the value is a normal double; scipy
        # flushes some subnormal tails to 0, hence the absolute floor
        tiny = sys.float_info.min
        for x, dof, want in ((1450.0, 1500, 0.81885486609), (1500.0, 1600, 0.964),
                             (2000.0, 2000, 0.496)):
            assert chi_square_survival(x, dof) == pytest.approx(want, rel=2e-3)
        switch = 2.0 * _CHI2_SCALE_SWITCH
        for dof in [*range(1, 65), *range(65, 4097, 61), 4096]:
            # the far tail of a small dof, the bulk of a large one, and beyond
            bulk = [dof + t * math.sqrt(2.0 * dof) for t in (-3.0, 0.0, 3.0, 10.0, 30.0)]
            xs = [np.nextafter(switch, math.inf), switch + 10.0, switch + 40.0,
                  switch + 80.0, *(x for x in bulk if x > switch),
                  2e4, 1e6, 1e300, sys.float_info.max]
            for x in xs:
                want = float(scipy.stats.chi2.sf(x, dof))
                assert chi_square_survival(float(x), dof) == pytest.approx(
                    want, rel=1e-10, abs=tiny), (x, dof)

    def test_the_two_forms_agree_at_the_switch(self):
        # the scaled sums repeat the closed form's roundings on a start
        # within an ulp of e^{-x/2}; dof 1 is left out, because its closed
        # form is a subnormal erfc there
        halves = [_CHI2_SCALE_SWITCH * (1.0 + t) for t in (-1e-6, -1e-12, 1e-12, 1e-6)]
        halves += [np.nextafter(_CHI2_SCALE_SWITCH, 0.0),
                   np.nextafter(_CHI2_SCALE_SWITCH, math.inf)]
        for dof in [*range(2, 129), *range(129, 4097, 37)]:
            for half in halves:
                scaled = _chi_square_sums(half, dof, scaled=True)
                closed = _chi_square_sums(half, dof, scaled=False)
                assert abs(scaled - closed) <= 4 * np.spacing(max(scaled, closed)), (dof, half)

    def test_zero_at_infinity(self):
        # the closed-form sums would meet 0 * inf, a NaN that min(1, .) read as 1
        for dof in range(1, 41):
            assert chi_square_survival(math.inf, dof) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_square_survival(-1.0, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            chi_square_survival(math.nan, 3)
        with pytest.raises(ValueError):
            chi_square_survival(1.0, 0)


@st.composite
def _nnls_problems(draw):
    """A design of any shape that is Gaussian, has two collinear columns,
    has column scales 1e-3 to 1e3, or holds Gaussian bumps at sample points
    like the weight fit's; and a right-hand side that is generic or a
    nonnegative combination of the columns with some weights zero, which
    the solver can fit exactly."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["gaussian", "collinear", "scaled", "bumps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bumps":
        centers = rng.uniform(-3.0, 3.0, n)
        points = rng.uniform(-4.0, 4.0, m)
        a = np.exp(-0.5 * (points[:, np.newaxis] - centers) ** 2)
    else:
        a = rng.standard_normal((m, n))
        if kind == "collinear" and n > 1:
            a[:, -1] = 2.0 * a[:, 0]
        elif kind == "scaled":
            a *= 10.0 ** rng.uniform(-3.0, 3.0, n)
    if draw(st.booleans()):
        b = a @ np.where(rng.uniform(size=n) < 0.5, 0.0, rng.exponential(size=n))
    else:
        b = rng.standard_normal(m)
    return a, b


class TestNnls:
    @given(_nnls_problems())
    def test_kkt_conditions_on_hard_designs(self, problem):
        a, b = problem
        x, _ = nnls(a, b)
        g = a.T @ (b - a @ x)
        tol = 1e-9 * np.linalg.norm(a, 2) * np.linalg.norm(b)
        assert np.all(x >= 0.0)
        assert np.all(g[x == 0.0] <= tol)
        assert np.all(np.abs(g[x > 0.0]) <= tol)

    def test_exact_nonnegative_recovery(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 4))
        x_true = np.array([0.5, 0.0, 2.0, 0.1])
        x, rnorm = nnls(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-10)
        assert rnorm == pytest.approx(0.0, abs=1e-10)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            m, n = int(rng.integers(3, 25)), int(rng.integers(1, 12))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            x, _ = nnls(a, b)
            assert np.all(x >= 0.0)
            g = a.T @ (a @ x - b)
            scale = np.linalg.norm(a, 2) * max(1.0, np.linalg.norm(b))
            assert np.all(np.abs(g[x > 0]) <= 1e-8 * scale)
            assert np.all(g[x == 0] >= -1e-8 * scale)

    def test_never_worse_than_scipy(self):
        # compare actual achieved residuals (scipy's reported rnorm can be
        # stale on underdetermined problems, so recompute it)
        rng = np.random.default_rng(10)
        for _ in range(200):
            m, n = int(rng.integers(3, 25)), int(rng.integers(1, 12))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            x, rnorm = nnls(a, b)
            x_ref, _ = scipy_nnls(a, b)
            ref_resid = np.linalg.norm(a @ x_ref - b)
            assert rnorm <= ref_resid + 1e-8
            assert rnorm == pytest.approx(np.linalg.norm(a @ x - b), abs=1e-12)

    def test_exact_fit_with_badly_scaled_columns_terminates(self):
        # Once the residual of an exact fit is rounding noise, the duals
        # are too; two columns then took turns entering, and the solver
        # raised after max_iter iterations.
        rng = np.random.default_rng(132)
        a = rng.standard_normal((20, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, 8)
        x_true = np.where(rng.uniform(size=8) < 0.5, 0.0, rng.exponential(size=8))
        b = a @ x_true
        x, rnorm = nnls(a, b)
        assert np.all(x >= 0.0)
        assert rnorm <= 1e-12 * np.linalg.norm(b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nnls(np.zeros((3, 2)), np.zeros(4))
