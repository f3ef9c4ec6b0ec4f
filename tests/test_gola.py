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
    _inverse_lower,
    eval_gradient,
    eval_hessian,
    eval_log_density,
    eval_log_density_batch,
    gaussian_log_pdfs,
    gradient_rows,
)
from postmix.exceptions import (
    DerivativeError,
    EvidenceOverflowError,
    NoModesFoundError,
    NonFiniteDensityError,
    WeightUnderflowError,
)
from postmix.exemplar import damping_log_likelihood, default_scenario
from postmix.gola import (
    _ARMIJO_C1,
    _BACKTRACK,
    _DEDUP_THRESHOLD,
    _MAX_BACKTRACKS,
    _MAX_FLAT_STEPS,
    _MAX_LOCAL_ITERS,
    _VALLEY_DEPTH,
    _VALLEY_GATE,
    _VALLEY_POINTS,
    GolaConfig,
    LocalMinimum,
    _clamp,
    _component_from_hessian,
    _is_indefinite,
    _row_dots,
    _valley_between,
    dedup_modes,
    multistart_minimize,
    run_gola,
    run_lockstep,
    solve_weights,
)
from postmix.mathkit import chi_square_survival, sobol_points
from postmix.metrics import jsd_normalized
from postmix.sensibench import FactorSpec, ProblemFactors, generate_test_gmm


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


def _descend(target, start, cfg):
    """One start run alone: a batch of one through ``run_lockstep``."""
    (result,) = run_lockstep(target, np.array([start], dtype=float), cfg)
    return result


def _drive(target, searches):
    """Drive searches written as generators, in the rounds of
    :func:`run_lockstep`: a search yields ``("log_phi", z)`` or
    ``("gradient", z)``, is sent the value and returns its result. Each
    round answers every log-density request with one batched call, then the
    gradient requests that leaves with one more, rows in search order; a
    search whose gradient stencil met ``-inf`` is dropped."""
    results = [None] * len(searches)
    waiting = {i: next(search) for i, search in enumerate(searches)}
    while waiting:
        for kind in ("log_phi", "gradient"):
            rows = [i for i, (asked, _) in waiting.items() if asked == kind]
            if not rows:
                continue
            points = np.array([waiting[i][1] for i in rows])
            if kind == "log_phi":
                replies, failed = eval_log_density_batch(target, points).tolist(), {}
            else:
                replies, failed = gradient_rows(target, points)
            for row, i in enumerate(rows):
                if row in failed:
                    del waiting[i]
                    continue
                try:
                    waiting[i] = searches[i].send(replies[row])
                except StopIteration as done:
                    results[i] = done.value
                    del waiting[i]
    return results


def _logged(target, log):
    """``target`` with every callable field appending ``(field, bytes of its
    argument)`` to ``log`` before it answers."""
    def forward(name, fn):
        def call(x):
            log.append((name, np.asarray(x).tobytes()))
            return fn(x)
        return call

    return dataclasses.replace(target, **{
        f.name: forward(f.name, getattr(target, f.name))
        for f in dataclasses.fields(target) if callable(getattr(target, f.name))})


def _same_result(a, b):
    """Bitwise the same search result, the start index aside."""
    if a is None or b is None:
        return a is b
    return (a.location.tobytes() == b.location.tobytes()
            and (a.objective, a.gradient_norm, a.converged)
            == (b.objective, b.gradient_norm, b.converged))


class TestLocalMinimize:
    def test_quadratic_converges_to_origin(self):
        cfg = GolaConfig(gradient_tol=1e-9)
        for start in ([3.0, -4.0], [0.1, 0.1], [-4.9, 4.9]):
            result = _descend(_quadratic_target(), start, cfg)
            assert result.converged
            assert np.linalg.norm(result.location) <= 1e-8

    def test_double_well_basin(self):
        # gradient of (z^2-1)^2 is negative on (0, 1): descent from 0.4 ends at +1
        result = _descend(_double_well_target(), [0.4], GolaConfig(gradient_tol=1e-10))
        assert result.converged
        assert result.location[0] == pytest.approx(1.0, abs=1e-6)

    def test_stationary_start_returns_immediately(self):
        result = _descend(_quadratic_target(), [0.0, 0.0], GolaConfig())
        assert result.converged
        assert result.gradient_norm == 0.0
        assert result.objective == 0.0

    def test_rejected_start(self, call_counter):
        # a start of zero density gives None after its one log-density
        # request, and its row asks for nothing more
        counter = call_counter()
        target = counter.wrap(UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -np.inf if abs(z[0]) > 0.5 else 0.0,
            search_box=_box(1),
        ))
        assert _descend(target, [2.0], GolaConfig()) is None
        assert counter.calls == {"log_phi": 1}
        results = run_lockstep(target, np.array([[2.0], [0.25], [-3.0]]), GolaConfig())
        assert results[0] is None and results[2] is None
        assert results[1].converged and results[1].start_index == 1

    def test_start_at_the_rounding_floor_stops_after_the_flat_steps(self):
        # f = 1e12 + 1e-6 z: each step lowers f by far less than half an ulp,
        # so the Armijo test accepts steps that leave f bitwise equal while
        # the gradient stays 100 times gradient_tol
        gradient_calls = []

        def gradient(z):
            gradient_calls.append(z)
            return np.array([-1e-6])

        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -(1e12 + 1e-6 * float(z[0])),
            search_box=_box(1),
            gradient=gradient,
        )
        result = _descend(target, [0.0], GolaConfig())
        assert not result.converged
        assert result.objective == 1e12
        # the start's gradient, then one per accepted step
        assert len(gradient_calls) == 1 + _MAX_FLAT_STEPS

    def test_a_search_stops_at_the_iteration_cap(self):
        # Rosenbrock's valley: from (-1.2, 1) the descent converges, from
        # (1.5, -1.5) it is still short of gradient_tol after the cap; both
        # in one batch ask what their reference searches ask, bit for bit
        def log_phi(z):
            return -(100.0 * (z[1] - z[0] ** 2) ** 2 + (1.0 - z[0]) ** 2)

        def gradient(z):
            return np.array([400.0 * z[0] * (z[1] - z[0] ** 2) + 2.0 * (1.0 - z[0]),
                             -200.0 * (z[1] - z[0] ** 2)])

        target = UnnormalizedTarget(dim=2, log_phi=log_phi, search_box=_box(2, -2.0, 2.0),
                                    gradient=gradient)
        cfg = GolaConfig(gradient_tol=1e-10)
        starts = np.array([[-1.2, 1.0], [1.5, -1.5]])
        log, reference_log = [], []
        got = run_lockstep(_logged(target, log), starts, cfg)
        reference = _logged(target, reference_log)
        want = _drive(reference, [_reference_local_minimize(reference, s, cfg, i)
                                  for i, s in enumerate(starts)])
        assert log == reference_log
        assert all(_same_result(a, b) for a, b in zip(got, want))
        assert got[0].converged and not got[1].converged
        alone = []
        _descend(_logged(target, alone), starts[1], cfg)
        assert sum(field == "gradient" for field, _ in alone) == 1 + _MAX_LOCAL_ITERS

    def test_methods_reach_a_minimum_from_far_start(self):
        # large early steps may hop basins; the descent must still land on
        # one of the two true minima
        cfg = GolaConfig(gradient_tol=1e-9)
        result = _descend(_double_well_target(), [1.9], cfg)
        assert result.converged
        assert abs(result.location[0]) == pytest.approx(1.0, abs=1e-6)


def _sobol_starts(target, n_starts):
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]
    return lo + sobol_points(target.dim, n_starts) * (hi - lo)


def _bimodal_target():
    _, target = _gaussian_mixture_target(
        [[-1.5, 0.5], [2.0, -1.0]],
        [[[1.0, 0.3], [0.3, 0.6]], [[0.5, -0.1], [-0.1, 0.8]]], [0.4, 0.6])
    return target


class TestLockstep:
    def test_each_row_is_its_start_driven_alone(self, call_counter):
        # per-point fields only: the batched evaluators call them row by row,
        # so lockstep and lone searches see the same values bit for bit
        target = dataclasses.replace(_bimodal_target(), hessian=None,
                                     log_phi_batch=None, gradient_batch=None)
        cfg = GolaConfig(n_starts=24, gradient_tol=1e-9)
        together = call_counter()
        minima = multistart_minimize(together.wrap(target), cfg)

        # each start alone, through the engine and as its reference search
        alone_counter = call_counter()
        alone_target = alone_counter.wrap(target)
        alone, requests = [], []
        for i, start in enumerate(_sobol_starts(target, 24)):
            log = []
            (reference,) = _drive(_logged(target, log),
                                  [_reference_local_minimize(target, start, cfg, i)])
            result = _descend(alone_target, start, cfg)
            assert _same_result(result, reference)
            alone.append((i, result))
            requests += log
        alone = sorted(((i, m) for i, m in alone if m.converged),
                       key=lambda im: (im[1].objective, tuple(im[1].location)))
        assert len(minima) == len(alone) > 0
        for got, (i, want) in zip(minima, alone):
            assert got.start_index == i
            assert _same_result(got, want)
        assert together.points == alone_counter.points
        # together, the rows ask for the same points, interleaved
        together_log = []
        multistart_minimize(_logged(target, together_log), cfg)
        assert sorted(together_log) == sorted(requests)

    def test_mixture_target_is_only_asked_for_batches(self, call_counter):
        counter = call_counter()
        cfg = GolaConfig(n_starts=24, gradient_tol=1e-9)
        minima = multistart_minimize(counter.wrap(_bimodal_target()), cfg)
        assert len(minima) > 0
        assert set(counter.calls) == {"log_phi_batch", "gradient_batch"}
        assert counter.calls["gradient_batch"] <= counter.calls["log_phi_batch"]

    def test_one_round_per_log_density_request(self, call_counter):
        # every round answers all searches' log-density requests in one call
        # and the gradient requests that leaves in one more, so there are as
        # many rounds as the longest search makes log-density requests; the
        # batch fields evaluate row by row, so a lone search takes the same
        # path as its lockstep row and ends bitwise as that row
        plain = _bimodal_target()
        target = dataclasses.replace(
            plain,
            log_phi_batch=lambda pts: np.array([plain.log_phi(p) for p in pts]),
            gradient_batch=lambda pts: np.array([plain.gradient(p) for p in pts]))
        cfg = GolaConfig(n_starts=24, gradient_tol=1e-9)
        together = call_counter()
        multistart_minimize(together.wrap(target), cfg)

        starts = _sobol_starts(target, 24)
        rows = run_lockstep(target, starts, cfg)
        alone = []
        for start, row in zip(starts, rows):
            counter = call_counter()
            assert _same_result(_descend(counter.wrap(target), start, cfg), row)
            alone.append(counter)
        longest = max(c.calls["log_phi_batch"] for c in alone)
        assert together.calls["log_phi_batch"] == longest
        assert together.calls["gradient_batch"] <= longest
        for field in ("log_phi_batch", "gradient_batch"):
            assert together.points[field] == sum(c.points[field] for c in alone)

    def test_failed_stencil_drops_only_its_row(self):
        # finite-difference gradients: the middle start sits just inside the
        # support, so its stencil steps onto -inf in the round where the
        # other two starts take their first gradients
        target = UnnormalizedTarget(
            dim=2,
            log_phi=lambda z: -math.inf if z[0] >= 4.0 else -0.5 * float(z @ z),
            search_box=_box(2),
        )
        cfg = GolaConfig(gradient_tol=1e-6)
        starts = np.array([[-1.0, 1.0], [4.0 - 1e-9, 0.0], [2.0, -2.0]])
        results = run_lockstep(target, starts, cfg)
        assert results[1] is None
        for i in (0, 2):
            assert results[i].converged and results[i].start_index == i
            assert np.linalg.norm(results[i].location) <= 1e-5

    def test_stencil_failing_mid_search_drops_only_its_row(self):
        # the middle start descends toward a mode at (5, 0), past the edge
        # of the support at z[0] = 4; its accepted steps close in on the
        # edge until a stencil steps onto -inf, many rounds in. The row
        # leaves without a result, and asks for nothing after that round
        def log_phi(z):
            if z[0] >= 4.0:
                return -math.inf
            return float(np.logaddexp(-0.5 * (z @ z), -0.5 * ((z[0] - 5.0) ** 2 + z[1] ** 2)))

        target = UnnormalizedTarget(dim=2, log_phi=log_phi, search_box=_box(2))
        cfg = GolaConfig(gradient_tol=1e-6)
        starts = np.array([[-1.0, 1.0], [3.0, 0.5], [0.5, -0.5]])
        with_it = run_lockstep(target, starts, cfg)
        without = run_lockstep(target, starts[[0, 2]], cfg)
        assert with_it[1] is None
        for got, want in zip(with_it[::2], without):
            assert got.converged and _same_result(got, want)
        # alone, it asks for the points its reference search asks for, and
        # its last request is the failing stencil of the accepted trial
        # before it, well past the first round
        log, reference_log = [], []
        assert _descend(_logged(target, log), starts[1], cfg) is None
        assert _drive(_logged(target, reference_log),
                      [_reference_local_minimize(target, starts[1], cfg)]) == [None]
        assert log == reference_log
        asked = [np.frombuffer(point) for _, point in log]
        assert len(asked) > 50
        np.testing.assert_allclose(np.mean(asked[-4:], axis=0), asked[-5], rtol=1e-12)
        assert asked[-5][0] < 4.0 <= max(z[0] for z in asked[-4:])

    @pytest.mark.parametrize("gradient", ["analytic", "finite differences"])
    def test_zero_density_start_drops_only_its_row(self, gradient):
        # the middle start lies where the density is zero, so it is dropped
        # at its first request; per-point fields evaluate row by row, so the
        # other starts end bitwise as in a batch without it
        plain = _bimodal_target()
        target = dataclasses.replace(
            plain, log_phi=lambda z: -math.inf if z[0] > 4.5 else plain.log_phi(z),
            gradient=plain.gradient if gradient == "analytic" else None,
            hessian=None, log_phi_batch=None, gradient_batch=None)
        cfg = GolaConfig(gradient_tol=1e-6)
        starts = np.insert(_sobol_starts(target, 6), 3, [4.7, 0.0], axis=0)

        with_it = run_lockstep(target, starts, cfg)
        without = run_lockstep(target, np.delete(starts, 3, axis=0), cfg)
        assert with_it[3] is None
        assert sum(m.converged for m in without) == 6
        for i, (got, want) in enumerate(zip(with_it[:3] + with_it[4:], without)):
            assert _same_result(got, want)
            assert (got.start_index, want.start_index) == (i + (i >= 3), i)

    def test_nan_in_a_failed_stencil_raises_with_point(self):
        # the second start's stencil meets -inf at its first coordinate and
        # NaN at its second: NaN is a fault in the target, so the run aborts
        # instead of dropping the start
        def log_phi(z):
            if z[0] >= 4.0:
                return -math.inf
            return math.nan if z[1] >= 4.0 else -0.5 * float(z @ z)

        target = UnnormalizedTarget(dim=2, log_phi=log_phi, search_box=_box(2))
        starts = np.array([[-1.0, 1.0], [4.0 - 1e-9, 4.0 - 1e-9]])
        with pytest.raises(NonFiniteDensityError) as exc:
            run_lockstep(target, starts, GolaConfig())
        assert exc.value.point[0] < 4.0 <= exc.value.point[1]

    def test_finite_difference_stencils_are_one_call_per_round(self, call_counter):
        # no gradient field: each round evaluates all log-density requests
        # in one call and all rows' gradient stencils in one more; the batch
        # field evaluates row by row, so every path sees the same values
        plain = dataclasses.replace(_bimodal_target(), gradient=None, hessian=None,
                                    gradient_batch=None)
        target = dataclasses.replace(
            plain, log_phi_batch=lambda pts: np.array([plain.log_phi(p) for p in pts]))
        cfg = GolaConfig(n_starts=24, gradient_tol=1e-6)
        together = call_counter()
        minima = multistart_minimize(together.wrap(target), cfg)
        assert len(minima) > 0
        assert set(together.calls) == {"log_phi_batch"}

        # a lone search's log-density requests: its gradients come through a
        # gradient_batch field, the per-row eval_gradient (bitwise the stencil)
        lone_target = dataclasses.replace(
            target, gradient_batch=lambda pts: np.array([eval_gradient(plain, p)
                                                         for p in pts]))
        longest = 0
        for start in _sobol_starts(target, 24):
            counter = call_counter()
            _descend(counter.wrap(lone_target), start, cfg)
            longest = max(longest, counter.calls["log_phi_batch"])
        assert together.calls["log_phi_batch"] <= 2 * longest

        per_point = call_counter()
        per_point_minima = multistart_minimize(
            per_point.wrap(dataclasses.replace(plain, log_phi_batch=None)), cfg)
        assert together.points["log_phi_batch"] == per_point.points["log_phi"]
        assert ([m.location.tobytes() for m in minima]
                == [m.location.tobytes() for m in per_point_minima])

    def test_analytic_gradient_without_a_batch_is_kept(self, call_counter):
        # a scalar gradient and no gradient_batch: the search asks the
        # analytic gradient and no stencil, so it makes the same requests as
        # with a gradient_batch built from that gradient's rows
        plain = dataclasses.replace(_bimodal_target(), gradient_batch=None)
        twin = dataclasses.replace(
            plain, gradient_batch=lambda pts: np.array([plain.gradient(p) for p in pts]))
        cfg = GolaConfig(n_starts=24, gradient_tol=1e-9)
        counter, twin_counter = call_counter(), call_counter()
        minima = multistart_minimize(counter.wrap(plain), cfg)
        twin_minima = multistart_minimize(twin_counter.wrap(twin), cfg)
        assert set(counter.calls) == {"log_phi_batch", "gradient"}
        assert counter.calls["gradient"] == twin_counter.points["gradient_batch"] > 0
        assert counter.points["log_phi_batch"] == twin_counter.points["log_phi_batch"]
        assert ([m.location.tobytes() for m in minima]
                == [m.location.tobytes() for m in twin_minima])


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

    @pytest.mark.parametrize("field", ["gradient", "gradient_batch"])
    def test_non_finite_analytic_gradient_raises_at_an_iterate(self, field):
        # a Gaussian whose analytic gradient is NaN past z[0] = 2: the error
        # blames the gradient at a point the search reached, not the
        # log-density at the NaN point a step along that gradient would make
        def gradient(z):
            return np.where(z[..., :1] > 2.0, math.nan, -z)

        target = UnnormalizedTarget(
            dim=2, log_phi=lambda z: -0.5 * float(z @ z), search_box=_box(2),
            **{field: gradient})
        with pytest.raises(DerivativeError) as exc:
            run_gola(target, GolaConfig(n_starts=8))
        assert np.all(np.isfinite(exc.value.point))
        assert exc.value.point[0] > 2.0


def _laplace_at_mode(target, mode):
    """The Laplace step ``dedup_modes`` takes at an accepted mode: the
    covariance is the inverse Hessian of -log phi there."""
    mode = np.asarray(mode, dtype=float)
    return _component_from_hessian(mode, eval_hessian(target, mode))


class TestLaplace:
    def test_exact_on_gaussian(self):
        mean = np.array([1.0, -2.0, 0.5])
        m = np.array([[1.2, 0.3, 0.0], [0.3, 0.8, -0.2], [0.0, -0.2, 1.5]])
        mix, target = _gaussian_mixture_target([mean], [m], [1.0])
        comp = _laplace_at_mode(target, mean)
        np.testing.assert_allclose(comp.mean, mean)
        np.testing.assert_allclose(comp.cov, m, rtol=1e-8, atol=1e-10)

    def test_double_well_variance(self):
        target = UnnormalizedTarget(
            dim=1,
            log_phi=lambda z: -((float(z[0]) ** 2 - 1.0) ** 2),
            search_box=_box(1, -2.0, 2.0),
        )
        comp = _laplace_at_mode(target, np.array([1.0]))
        # curvature 8 from the symbolic oracle, so variance 1/8
        assert comp.cov[0, 0] == pytest.approx(1.0 / 8.0, rel=1e-4)

    def test_correlated_2d(self):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        _, target = _gaussian_mixture_target([[0.0, 0.0]], [cov], [1.0])
        comp = _laplace_at_mode(target, np.zeros(2))
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
                comp = _laplace_at_mode(fit_target, mean)
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
            comp = _laplace_at_mode(fit_target, mean)
            np.testing.assert_array_equal(comp.mean, mean)
            err = np.linalg.norm(comp.cov - cov, "fro") / np.linalg.norm(cov, "fro")
            assert err <= rtol

    @given(st.integers(1, 8), st.floats(0.0, 8.0), st.integers(0, 2**32 - 1))
    def test_covariance_is_the_inverse_hessian(self, d, log_cond, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hess = (q * 10.0 ** rng.uniform(0.0, log_cond, d)) @ q.T
        hess = 0.5 * (hess + hess.T)
        comp = _component_from_hessian(np.zeros(d), hess)
        inverse = np.linalg.inv(hess)
        err = np.linalg.norm(comp.cov - inverse) / np.linalg.norm(inverse)
        # d eps cond(H), times 4 for the roundings of a square root, a
        # reciprocal and a square that bound it at d = 1 (cond 1)
        assert err <= 4.0 * d * np.finfo(float).eps * np.linalg.cond(hess)
        assert np.array_equal(np.tril(comp.chol_cov), comp.chol_cov)
        assert np.all(np.diag(comp.chol_cov) > 0.0)


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
        accepted, peaks = [], []
        for cand, decision in zip(candidates, log):
            # per-component triangular solves against the Cholesky factors
            # of the components accepted so far
            dist2 = [float(y @ y) for y in (
                solve_triangular(c.chol_cov, cand.location - c.mean, lower=True)
                for c in accepted)]
            reference = max((chi_square_survival(v, target.dim) for v in dist2),
                            default=0.0)
            np.testing.assert_allclose(decision.survival, reference, rtol=1e-12)
            typical = reference >= _DEDUP_THRESHOLD
            valley = False
            if typical and min(dist2) > _VALLEY_GATE ** 2:
                # log phi point by point on the segment from the nearest mean
                j = int(np.argmin(dist2))
                mean = accepted[j].mean
                dip = min(eval_log_density(target, mean + t * (cand.location - mean))
                          for t in _VALLEY_POINTS)
                valley = dip < min(peaks[j], -cand.objective) - _VALLEY_DEPTH
            assert (decision.note == "duplicate") == (typical and not valley)
            assert (decision.note == "valley") == (valley and decision.accepted)
            if decision.accepted:
                accepted.append(comps[len(accepted)])
                peaks.append(-cand.objective)
        assert len(accepted) == len(comps)

    def test_valley_keeps_a_chi_square_duplicate(self):
        # two unit Gaussians 2.5 apart in d = 9: the chi-square rule calls
        # the second mean typical under the first (survival 0.71), but
        # log phi dips between them
        d = 9
        second = np.zeros(d)
        second[0] = 2.5
        _, target = _gaussian_mixture_target([np.zeros(d), second],
                                             [np.eye(d), np.eye(d)], [0.5, 0.5])
        locations = [np.zeros(d), second]
        cands = self._minima(locations, [-eval_log_density(target, z) for z in locations])
        comps, log = dedup_modes(cands, target)
        assert log[1].survival >= _DEDUP_THRESHOLD
        assert len(comps) == 2 and log[1].accepted and log[1].note == "valley"

    def test_hard_case_2_of_seed_707_finds_every_mode(self):
        # case 2 of acceptance criterion 3's hard table (d = 9, M = 3), seeded
        # as robustness_study and evaluate_case seed it; the chi-square rule
        # alone merged its three modes into one
        spec = FactorSpec.hard()
        case_seeds = np.random.SeedSequence(707).generate_state(2 * 40)
        factors = spec.sample(np.random.default_rng(int(case_seeds[4])))
        seeds = np.random.SeedSequence(int(case_seeds[5])).generate_state(4)
        assert (factors.d, factors.n_components) == (9, 3)
        truth = generate_test_gmm(factors, int(seeds[0]))
        report = run_gola(truth.as_target(), GolaConfig(master_seed=int(seeds[2])))
        assert report.mixture.n_components == 3
        # overlap moves each mode slightly off its component's mean
        fit = sorted(tuple(c.mean) for c in report.mixture.components)
        true = sorted(tuple(c.mean) for c in truth.components)
        np.testing.assert_allclose(fit, true, atol=1e-2)


@st.composite
def _separated_mixtures(draw):
    """Gaussian mixtures in d = 1..4 with K = 1..4, means 14 apart along the
    diagonal plus a uniform jitter in [-6, 6] as in acceptance criterion 2,
    and a scale c in [0.5, 4] for the target c * mixture."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.uniform(-6.0, 6.0, size=(k, d)) + 14.0 * np.arange(k)[:, np.newaxis]
    covs = []
    for _ in range(k):
        f = rng.standard_normal((d, d))
        covs.append(f @ f.T + 0.5 * np.eye(d))
    raw = rng.uniform(0.5, 1.5, size=k)
    return means, covs, raw / raw.sum(), draw(st.floats(0.5, 4.0))


class TestSolveWeights:
    @given(_separated_mixtures())
    def test_recovers_weights_and_evidence(self, case):
        means, covs, weights, scale = case
        mix, _ = _gaussian_mixture_target(means, covs, weights)
        target = UnnormalizedTarget(
            dim=mix.dim, log_phi=lambda z: math.log(scale) + float(mix.log_pdf(z)),
            search_box=_box(mix.dim),
            log_phi_batch=lambda pts: math.log(scale) + mix.log_pdf(pts),
        )
        pi_tilde, _ = solve_weights(target, list(mix.components), 4096, seed=0)
        evidence = float(pi_tilde.sum())
        assert np.max(np.abs(pi_tilde / evidence - weights)) <= 1e-3
        assert abs(evidence - scale) <= 0.01 * scale

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
        pts = MixtureModel(tuple(comps), np.full(2, 0.5)).sample(n, seed=3)
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
        points = MixtureModel((comp,), np.ones(1)).sample(128, 4)
        np.testing.assert_array_equal(exc.value.point, points[5])


class TestRunGola:
    def test_evidence_overflow_raises(self):
        # phi peaks at e^800: the weights overflowed to inf and normalized to NaN
        target = UnnormalizedTarget(dim=2, log_phi=lambda z: -0.5 * z @ z + 800.0,
                                    search_box=[[-5, 5], [-5, 4]], gradient=lambda z: -z)
        with pytest.raises(EvidenceOverflowError,
                           match=r"log phi peaks at 799\.9.*subtract a constant"):
            run_gola(target, GolaConfig(n_starts=8, master_seed=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_analytic_hessian_raises_at_the_mode(self, bad):
        # used to surface as a ValueError of the Gaussian component, or a
        # RuntimeWarning of the Cholesky factorization
        _, plain = _gaussian_mixture_target([[0.0, 0.0]], [np.eye(2)], [1.0])
        target = dataclasses.replace(plain, hessian=lambda z: np.full((2, 2), bad))
        cfg = GolaConfig(n_starts=8, master_seed=0)
        with pytest.raises(DerivativeError, match="analytic hessian") as exc:
            run_gola(target, cfg)
        np.testing.assert_array_equal(exc.value.point,
                                      multistart_minimize(plain, cfg)[0].location)

    @pytest.mark.parametrize("field,reply", [
        ("log_phi_batch", lambda pts: -0.5 * (pts * pts).sum(axis=1, keepdims=True)),
        ("log_phi_batch", lambda pts: np.zeros(1)),
        ("gradient_batch", lambda pts: -pts[:, :1]),
    ], ids=["log_phi_batch_column", "log_phi_batch_one", "gradient_batch_column"])
    def test_batched_reply_of_the_wrong_shape_names_the_field(self, field, reply):
        # these used to die inside the search on a list, an index or a dot product
        target = dataclasses.replace(_quadratic_target(), **{field: reply})
        with pytest.raises(ValueError, match=rf"{field} replied with shape"):
            run_gola(target, GolaConfig(n_starts=8, master_seed=0))

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

    def test_only_saddles_is_no_modes_error(self):
        # -log phi = x^2 - y^2 descends onto the edges y = +-1, where the
        # projected gradient vanishes but the Hessian is indefinite
        target = UnnormalizedTarget(
            dim=2,
            log_phi=lambda z: float(z[1] ** 2 - z[0] ** 2),
            search_box=_box(2, -1.0, 1.0),
            gradient=lambda z: np.array([-2.0 * z[0], 2.0 * z[1]]),
        )
        with pytest.raises(NoModesFoundError, match="saddles"):
            run_gola(target, GolaConfig(n_starts=8))

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


def _reference_local_minimize(target, start, cfg, start_index=0):
    """One start's descent in its reference form, the specification of a
    row of :func:`run_lockstep`: a generator for :func:`_drive`, in which
    the objective's gradient is the reply negated and every 1-D product is
    ``@``."""
    lo, hi = target.search_box[:, 0], target.search_box[:, 1]

    def projected_gradient_norm(z, grad):
        r = z - _clamp(z - grad, lo, hi)
        return math.sqrt(r @ r)

    z = _clamp(np.asarray(start, dtype=float), lo, hi)
    f = -(yield "log_phi", z)
    if not math.isfinite(f):
        return None
    grad = -(yield "gradient", z)

    step = 1.0
    flat = 0
    for _ in range(_MAX_LOCAL_ITERS):
        pg_norm = projected_gradient_norm(z, grad)
        if pg_norm <= cfg.gradient_tol:
            return LocalMinimum(z, f, pg_norm, True, start_index)
        if flat == _MAX_FLAT_STEPS:
            return LocalMinimum(z, f, pg_norm, False, start_index)

        alpha = step
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            z_new = _clamp(z - alpha * grad, lo, hi)
            decrease = float(grad @ (z - z_new))
            if decrease <= 0.0:
                alpha *= _BACKTRACK
                continue
            f_new = -(yield "log_phi", z_new)
            if math.isfinite(f_new) and f_new <= f - _ARMIJO_C1 * decrease:
                accepted = True
                break
            alpha *= _BACKTRACK
        if not accepted:
            return LocalMinimum(z, f, pg_norm, False, start_index)

        grad_new = -(yield "gradient", z_new)
        s = z_new - z
        y = grad_new - grad
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-16 else min(1.0, 2.0 * alpha)
        step = min(max(step, 1e-12), 1e6)
        flat = flat + 1 if f_new == f else 0
        z, f, grad = z_new, f_new, grad_new

    pg_norm = projected_gradient_norm(z, grad)
    return LocalMinimum(z, f, pg_norm, pg_norm <= cfg.gradient_tol, start_index)


@st.composite
def _search_cases(draw):
    """A Gaussian mixture in d = 1..6 with K = 1..3, its means partly outside
    the box [-3, 3]^d, with analytic or finite-difference gradients; starts
    inside the box, some with coordinates on its faces or beyond them."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = 2.5 * rng.standard_normal((k, d))
    covs = []
    for _ in range(k):
        f = rng.standard_normal((d, d))
        covs.append(0.3 * f @ f.T + 0.2 * np.eye(d))
    raw = rng.uniform(0.5, 1.5, k)
    _, target = _gaussian_mixture_target(means, covs, raw / raw.sum())
    target = dataclasses.replace(target, search_box=_box(d, -3.0, 3.0))
    if draw(st.booleans()):
        target = dataclasses.replace(target, gradient=None, gradient_batch=None,
                                     hessian=None)
    starts = rng.uniform(-3.0, 3.0, size=(6, d))
    faces = rng.random((6, d)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    starts[faces] = rng.choice([-3.0, 3.0, -4.0, 4.0], size=int(faces.sum()))
    tol = draw(st.sampled_from([1e-8, 1e-5]))
    return target, starts, GolaConfig(gradient_tol=tol)


class TestLocalSearchReference:
    @given(_search_cases())
    def test_bitwise_equal_to_the_reference_form(self, case):
        # the engine asks the target for the same points in the same calls
        # as the reference searches driven in lockstep, so every row makes
        # its reference search's requests, and ends bitwise as it does
        target, starts, cfg = case
        got_requests, want_requests = [], []
        got = run_lockstep(_logged(target, got_requests), starts, cfg)
        reference = _logged(target, want_requests)
        want = _drive(reference, [_reference_local_minimize(reference, s, cfg, i)
                                  for i, s in enumerate(starts)])
        assert got_requests == want_requests
        for i, (a, b) in enumerate(zip(got, want)):
            assert _same_result(a, b)
            assert a is None or a.start_index == b.start_index == i


@st.composite
def _row_dot_cases(draw):
    """Two (S, d) arrays with d = 1..20 and S in {1, 2, 3, 64, 384}, each
    row scaled by a power of ten from 1e-8 to 1e8."""
    d = draw(st.integers(1, 20))
    n = draw(st.sampled_from([1, 2, 3, 64, 384]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.integers(-8, 9, size=(2, n, 1))
    return scales * rng.standard_normal((2, n, d))


class TestRowDots:
    @given(_row_dot_cases())
    def test_each_row_is_bitwise_the_1d_dot(self, case):
        # the engine's claim that a row descends bitwise as a lone start
        # rests on this; a numpy or BLAS change that breaks it fails here
        a, b = case
        got = _row_dots(a, b)
        want = np.array([a[i].dot(b[i]) for i in range(len(a))])
        assert got.tobytes() == want.tobytes()


def _reference_dedup(candidates, target):
    """:func:`dedup_modes` in its reference form: each candidate whitened
    against all components accepted so far, in a call of its own."""
    accepted, peaks, decisions = [], [], []
    for idx, cand in enumerate(candidates):
        survival, note = 0.0, ""
        if accepted:
            _, whitened = gaussian_log_pdfs(
                np.array([c.mean for c in accepted]),
                np.array([_inverse_lower(c.chol_cov) for c in accepted]),
                cand.location[np.newaxis])
            dist2 = (whitened * whitened).sum(axis=1)[:, 0]
            nearest = int(np.argmin(dist2))
            survival = chi_square_survival(float(dist2[nearest]), target.dim)
        if survival >= _DEDUP_THRESHOLD:
            if (dist2[nearest] <= _VALLEY_GATE ** 2 or not _valley_between(
                    target, accepted[nearest].mean, peaks[nearest], cand)):
                decisions.append((idx, survival, False, "duplicate"))
                continue
            note = "valley"
        hess = eval_hessian(target, cand.location)
        if _is_indefinite(hess):
            decisions.append((idx, survival, False, "saddle"))
            continue
        accepted.append(_component_from_hessian(cand.location, hess))
        peaks.append(-cand.objective)
        decisions.append((idx, survival, True, note))
    return accepted, decisions


def _ensemble_targets():
    """The first case of dimension 2, 4 and 6 of acceptance criterion 3's
    broad study (design seed 303), generated as ``evaluate_case`` does."""
    spec = FactorSpec(d_range=(2, 6))
    case_seeds = np.random.SeedSequence(303).generate_state(200)
    targets = {}
    for i in range(100):
        factors = spec.sample(np.random.default_rng(int(case_seeds[2 * i])))
        if factors.d in (2, 4, 6) and factors.d not in targets:
            seed = np.random.SeedSequence(int(case_seeds[2 * i + 1])).generate_state(1)[0]
            targets[factors.d] = generate_test_gmm(factors, int(seed)).as_target()
    return [targets[d] for d in (2, 4, 6)]


def _dedup_reference_cases():
    cases = [(t, multistart_minimize(t, GolaConfig())) for t in _ensemble_targets()]
    gmm10 = generate_test_gmm(ProblemFactors(10, 4, 1.5, 0.3, 1e-3), 7).as_target()
    cases.append((gmm10, multistart_minimize(gmm10, GolaConfig())))
    scenario = default_scenario()
    frame = damping_log_likelihood(scenario.observations(), scenario.constants(),
                                   scenario.search_box)
    cases.append((frame, multistart_minimize(frame, GolaConfig(n_starts=16,
                                                                gradient_tol=1e-5))))
    # two unit Gaussians 2.5 apart in d = 9: a chi-square duplicate kept
    # across a valley
    second = np.zeros(9)
    second[0] = 2.5
    _, valley = _gaussian_mixture_target([np.zeros(9), second], [np.eye(9)] * 2,
                                         [0.5, 0.5])
    # -log phi = 4 (x^2 - 1)^2 + y^2: modes at (+-1, 0), a saddle at the
    # origin, and candidates near each
    saddle = UnnormalizedTarget(
        dim=2, log_phi=lambda z: -(4.0 * (z[0] ** 2 - 1.0) ** 2 + z[1] ** 2),
        search_box=_box(2, -2.0, 2.0),
        gradient=lambda z: np.array([-16.0 * z[0] * (z[0] ** 2 - 1.0), -2.0 * z[1]]))
    for target, locations in (
            (valley, [np.zeros(9), second, second + 1e-4, np.full(9, 1e-6)]),
            (saddle, [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 1e-3], [-1.0, 1e-9],
                      [0.0, 1e-6]])):
        locations = np.asarray(locations, dtype=float)
        minima = [LocalMinimum(z, -eval_log_density(target, z), 0.0, True, i)
                  for i, z in enumerate(locations)]
        minima.sort(key=lambda m: (m.objective, tuple(m.location)))
        cases.append((target, minima))
    return cases


class TestDedupReference:
    # one candidate whitened alone (a matrix-vector product) and one whitened
    # in a stack (a matrix-matrix product) may round apart in the last bits
    SURVIVAL_ATOL = 1e-15

    def test_decisions_equal_the_reference_form(self):
        notes = set()
        for target, candidates in _dedup_reference_cases():
            comps, log = dedup_modes(candidates, target)
            want_comps, want_log = _reference_dedup(candidates, target)
            assert [(d.candidate_index, d.accepted, d.note) for d in log] == \
                [(i, accepted, note) for i, _, accepted, note in want_log]
            for d, (_, survival, _, _) in zip(log, want_log):
                assert abs(d.survival - survival) <= self.SURVIVAL_ATOL
            assert len(comps) == len(want_comps)
            for a, b in zip(comps, want_comps):
                assert a.mean.tobytes() == b.mean.tobytes()
                assert a.chol_cov.tobytes() == b.chol_cov.tobytes()
            notes.update(d.note for d in log)
        assert notes == {"", "duplicate", "valley", "saddle"}
