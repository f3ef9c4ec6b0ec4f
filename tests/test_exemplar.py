import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import postmix
from postmix.density import (GaussianComponent, MixtureModel, eval_log_density,
                             eval_log_density_batch)
from postmix.exceptions import NonFiniteDensityError
from postmix.exemplar import (
    ObservationSet,
    ShearFrame,
    _is_uniform_grid,
    _simulate_batch,
    assemble_state_matrix,
    damping_log_likelihood,
    default_scenario,
    generate_observations,
    pushforward,
    simulate,
)


def _mechanical_energy(frame, states):
    """Total mechanical energy along a trajectory of (x1, x2, v1, v2) states."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    x = states[:, :2]
    v = states[:, 2:]
    mass = np.diag([frame.m1, frame.m2])
    stiffness = np.array([[frame.k1 + frame.k2, -frame.k2],
                          [-frame.k2, frame.k2]])
    kinetic = 0.5 * np.einsum("ni,ij,nj->n", v, mass, v)
    potential = 0.5 * np.einsum("ni,ij,nj->n", x, stiffness, x)
    return kinetic + potential


def test_simulation_and_likelihood_load_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the tests
    src = str(Path(postmix.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import numpy as np",
        "import postmix, postmix.cli, postmix.exemplar",
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert loaded() == [], f'loaded at import: {loaded()}'",
        "frame = postmix.exemplar.ShearFrame(1.0, 1.0, 1.0, 1.0, 0.1, 0.1)",
        "postmix.exemplar.simulate(frame, [1.0, 0.0, 0.0, 0.0], [0.5, 1.0])",
        "target = postmix.exemplar.default_scenario().target()",
        "values = target.log_phi_batch(np.array([[0.3, 0.2], [0.5, 0.5]]))",
        "assert np.all(np.isfinite(values))",
        "assert loaded() == [], f'loaded by a simulation: {loaded()}'",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _random_frame(rng):
    return ShearFrame(
        m1=float(rng.uniform(0.5, 3.0)),
        m2=float(rng.uniform(0.5, 3.0)),
        k1=float(rng.uniform(0.5, 3.0)),
        k2=float(rng.uniform(0.5, 3.0)),
        c1=float(rng.uniform(0.0, 0.5)),
        c2=float(rng.uniform(0.0, 0.5)),
    )


class TestAssembleStateMatrix:
    def test_zero_damping_block(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        a = assemble_state_matrix(frame)
        np.testing.assert_array_equal(a[2:, 2:], np.zeros((2, 2)))

    def test_unit_frame_stiffness_block(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.1, 0.1)
        a = assemble_state_matrix(frame)
        np.testing.assert_array_equal(a[2:, :2], np.array([[-2.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_array_equal(a[:2, 2:], np.eye(2))
        np.testing.assert_array_equal(a[:2, :2], np.zeros((2, 2)))

    def test_trace_formula(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            frame = _random_frame(rng)
            a = assemble_state_matrix(frame)
            expected = -(frame.c1 + frame.c2) / frame.m1 - frame.c2 / frame.m2
            assert np.trace(a) == pytest.approx(expected, rel=1e-12)

    def test_eigenvalues_nonpositive_real_parts(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            frame = _random_frame(rng)
            eigs = np.linalg.eigvals(assemble_state_matrix(frame))
            assert np.all(eigs.real <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShearFrame(0.0, 1.0, 1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            ShearFrame(1.0, 1.0, 1.0, 1.0, -0.1, 0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ShearFrame(1.0, 1.0, 1.0, 1.0, bad, 0.1)
            with pytest.raises(ValueError, match="finite"):
                ShearFrame(1.0, bad, 1.0, 1.0, 0.1, 0.1)


class TestSimulate:
    def test_time_zero_returns_initial_state(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.1, 0.2)
        u0 = np.array([0.0, 1.0, 0.0, 0.0])
        states = simulate(frame, u0, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(states[0], u0)
        np.testing.assert_array_equal(simulate(frame, u0, np.zeros(3)), np.tile(u0, (3, 1)))

    def test_semigroup(self):
        # u(t + s) is the state reached by simulating from u(t) over s
        rng = np.random.default_rng(35)
        for _ in range(10):
            frame = _random_frame(rng)
            u0 = rng.standard_normal(4)
            t = float(rng.uniform(0.1, 10.0))
            later = np.sort(rng.uniform(0.0, 10.0, size=8))
            u_t = simulate(frame, u0, np.array([t]))[0]
            np.testing.assert_allclose(simulate(frame, u_t, later),
                                       simulate(frame, u0, t + later), atol=1e-10)

    def test_undamped_energy_conserved(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        # initial condition along an undamped mode shape
        stiffness = np.array([[2.0, -1.0], [-1.0, 1.0]])
        w2, vecs = np.linalg.eigh(stiffness)
        mode = vecs[:, 0]
        period = 2.0 * math.pi / math.sqrt(w2[0])
        u0 = np.concatenate([mode, np.zeros(2)])
        times = np.linspace(period / 50, period, 50)
        states = simulate(frame, u0, times)
        energy = _mechanical_energy(frame, states)
        assert np.max(np.abs(energy - energy[0])) <= 1e-8
        # displacement amplitude after one full period returns to the start
        np.testing.assert_allclose(states[-1, :2], mode, atol=1e-8)

    def test_matches_adaptive_runge_kutta(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            frame = _random_frame(rng)
            a = assemble_state_matrix(frame)
            u0 = rng.standard_normal(4)
            times = np.sort(rng.uniform(0.1, 20.0, size=20))
            ours = simulate(frame, u0, times)
            sol = solve_ivp(lambda t, u: a @ u, (0.0, float(times[-1])), u0,
                            t_eval=times, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(ours, sol.y.T, atol=1e-8)

    def test_linearity(self):
        frame = ShearFrame(1.0, 2.0, 1.5, 0.8, 0.2, 0.1)
        rng = np.random.default_rng(33)
        u0, v0 = rng.standard_normal((2, 4))
        times = np.linspace(0.5, 10.0, 7)
        combined = simulate(frame, u0 + v0, times)
        split = simulate(frame, u0, times) + simulate(frame, v0, times)
        np.testing.assert_allclose(combined, split, atol=1e-10)

    def test_damped_energy_decays(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2)
        times = np.linspace(0.25, 25.0, 100)
        states = simulate(frame, np.array([0.0, 1.0, 0.0, 0.0]), times)
        energy = _mechanical_energy(frame, states)
        assert np.all(np.diff(energy) <= 1e-12)

    def test_uniform_grid_matches_per_time_path(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.15, 0.25)
        u0 = np.array([0.0, 1.0, 0.0, 0.0])
        uniform = np.linspace(0.5, 5.0, 10)   # starts at its own spacing
        jittered = uniform.copy()
        jittered[3] += 1e-7                   # breaks the fast path
        fast = simulate(frame, u0, uniform)
        slow = simulate(frame, u0, jittered)
        np.testing.assert_allclose(fast[0], slow[0], atol=1e-9)
        np.testing.assert_allclose(fast[-1], slow[-1], atol=1e-9)
        # on the same grid the repeated one-step propagator and one
        # exponential per time agree at every time
        pairs = np.array([[0.15, 0.25], [0.01, 0.9], [0.6, 0.05]])
        stepped = _simulate_batch(pairs, (1.0, 1.0, 1.0, 1.0), u0, uniform, True)
        direct = _simulate_batch(pairs, (1.0, 1.0, 1.0, 1.0), u0, uniform, False)
        np.testing.assert_allclose(stepped, direct, atol=1e-12)


class TestObservations:
    def test_noiseless_limit(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2)
        u0 = np.array([0.0, 1.0, 0.0, 0.0])
        obs = generate_observations(frame, u0, 20, 30.0, noise_sigma=1e-12, seed=0)
        truth = simulate(frame, u0, obs.times)[:, 0]
        np.testing.assert_allclose(obs.values, truth, atol=1e-10)

    def test_reproducible(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2)
        u0 = np.array([0.0, 1.0, 0.0, 0.0])
        a = generate_observations(frame, u0, 10, 30.0, 0.05, seed=3)
        b = generate_observations(frame, u0, 10, 30.0, 0.05, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_residual_variance(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2)
        u0 = np.array([0.0, 1.0, 0.0, 0.0])
        sigma = 0.05
        truth = simulate(frame, u0, np.linspace(30.0 / 10, 30.0, 10))[:, 0]
        residuals = []
        for seed in range(1000):
            obs = generate_observations(frame, u0, 10, 30.0, sigma, seed=seed)
            residuals.extend(obs.values - truth)
        sample_var = float(np.var(residuals))
        assert sample_var == pytest.approx(sigma**2, rel=0.05)

    def test_times_uniform_on_half_open_interval(self):
        frame = ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2)
        obs = generate_observations(frame, np.array([0.0, 1.0, 0.0, 0.0]),
                                    6, 30.0, 0.05, seed=0)
        np.testing.assert_allclose(obs.times, [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationSet(np.array([1.0, 1.0]), np.zeros(2), 0.1, np.zeros(4))
        with pytest.raises(ValueError):
            ObservationSet(np.array([1.0, 2.0]), np.zeros(2), 0.0, np.zeros(4))


class TestDampingLikelihood:
    def test_true_parameters_maximize_clean_likelihood(self):
        scenario = default_scenario()
        frame = scenario.frame_true
        obs = generate_observations(frame, scenario.u0, 12, 30.0,
                                    noise_sigma=1e-9, seed=0)
        target = damping_log_likelihood(obs, scenario.constants(),
                                        scenario.search_box)
        n = 64
        xs = np.linspace(0.01, 1.0, n)
        grid = np.column_stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")])
        values = eval_log_density_batch(target, grid)
        best = grid[int(np.argmax(values))]
        true_value = target.log_phi(np.array([frame.c1, frame.c2]))
        assert true_value >= values.max()  # grid-search oracle
        assert np.linalg.norm(best - [frame.c1, frame.c2]) <= 0.03

    def test_argmax_invariant_under_sigma_scaling(self):
        scenario = default_scenario()
        obs = scenario.observations()
        doubled = ObservationSet(obs.times, obs.values, 2.0 * obs.noise_sigma,
                                 obs.initial_state)
        t1 = damping_log_likelihood(obs, scenario.constants(), scenario.search_box)
        t2 = damping_log_likelihood(doubled, scenario.constants(), scenario.search_box)
        n = 48
        xs = np.linspace(0.01, 1.0, n)
        grid = np.column_stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")])
        v1 = eval_log_density_batch(t1, grid)
        v2 = eval_log_density_batch(t2, grid)
        assert np.argmax(v1) == np.argmax(v2)
        np.testing.assert_allclose(v2, v1 / 4.0, rtol=1e-10)

    def test_nonpositive_damping_is_out_of_support(self):
        scenario = default_scenario()
        target = scenario.target()
        assert target.log_phi(np.array([-0.1, 0.5])) == -np.inf
        assert target.log_phi(np.array([0.5, 0.0])) == -np.inf

    def test_nan_coordinate_raises_with_its_point(self):
        # NaN is no damping value: the evaluator names the point instead of
        # reading the reply as out of support, which -inf damping still is
        target = default_scenario().target()
        with pytest.raises(NonFiniteDensityError) as exc:
            eval_log_density(target, np.array([math.nan, 0.2]))
        np.testing.assert_array_equal(exc.value.point, [math.nan, 0.2])
        with pytest.raises(NonFiniteDensityError):
            eval_log_density_batch(target, np.array([[0.3, 0.2], [0.3, math.nan]]))
        assert eval_log_density(target, np.array([-math.inf, 0.2])) == -math.inf

    def test_default_scenario_is_bimodal_on_grid(self):
        target = default_scenario().target()
        n = 64
        xs = np.linspace(0.01, 1.0, n)
        grid_vals = eval_log_density_batch(
            target,
            np.column_stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")]),
        ).reshape(n, n)
        count = 0
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                patch = grid_vals[i - 1:i + 2, j - 1:j + 2].copy()
                center = patch[1, 1]
                patch[1, 1] = -np.inf
                if center > patch.max():
                    count += 1
        assert count >= 2

    def test_batch_matches_single_point_evaluation(self):
        target = default_scenario().target()
        rng = np.random.default_rng(34)
        pts = rng.uniform(0.05, 0.9, size=(16, 2))
        batch = eval_log_density_batch(target, pts)
        single = np.array([target.log_phi(p) for p in pts])
        np.testing.assert_array_equal(batch, single)


_damping = st.floats(-0.2, 1.5, allow_nan=False)


@st.composite
def _observation_grids(draw):
    """Uniform grids starting at their own spacing, or jittered ones."""
    n_obs = draw(st.integers(2, 12))
    horizon = draw(st.floats(1.0, 40.0))
    times = np.linspace(horizon / n_obs, horizon, n_obs)
    if draw(st.booleans()):
        jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n_obs, max_size=n_obs))
        times = times + np.array(jitter) * (horizon / n_obs)
    return times


class TestBatchedSimulatorProperties:
    @settings(max_examples=60)
    @given(times=_observation_grids(),
           points=st.lists(st.tuples(_damping, _damping), min_size=1, max_size=12))
    def test_log_phi_batch_equals_per_point(self, times, points):
        scenario = default_scenario()
        obs = ObservationSet(times, np.cos(times), 0.05, scenario.u0)
        target = damping_log_likelihood(obs, scenario.constants(), scenario.search_box)
        pts = np.array(points)
        single = np.array([target.log_phi(p) for p in pts])
        np.testing.assert_array_equal(target.log_phi_batch(pts), single)

    @settings(max_examples=60)
    @given(times=_observation_grids(),
           pairs=st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
                          min_size=1, max_size=8),
           constants=st.tuples(*[st.floats(0.5, 3.0)] * 4))
    def test_rows_equal_simulate(self, times, pairs, constants):
        u0 = np.array([0.3, 1.0, -0.2, 0.1])
        rows = _simulate_batch(np.array(pairs), constants, u0, times,
                               _is_uniform_grid(times))
        for (c1, c2), row in zip(pairs, rows):
            np.testing.assert_array_equal(row, simulate(ShearFrame(*constants, c1, c2), u0, times))


class TestPushforward:
    def test_point_mass_posterior(self):
        scenario = default_scenario()
        frame = scenario.frame_true
        tiny = 1e-8
        comp = GaussianComponent(np.array([frame.c1, frame.c2]),
                                 math.sqrt(tiny) * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        times = np.linspace(0.5, 10.0, 20)
        summary = pushforward(posterior, scenario.constants(), scenario.u0,
                              times, 400, seed=0)
        truth = simulate(frame, scenario.u0, times)
        np.testing.assert_allclose(summary.mean[0], truth[:, 0], atol=1e-4)
        np.testing.assert_allclose(summary.mean[1], truth[:, 1], atol=1e-4)
        assert np.max(summary.hi95 - summary.lo95) <= 1e-3

    def test_zero_width_at_time_zero(self):
        scenario = default_scenario()
        comp = GaussianComponent(np.array([0.3, 0.2]), 0.05 * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        times = np.array([0.0, 1.0, 2.0])
        summary = pushforward(posterior, scenario.constants(), scenario.u0,
                              times, 200, seed=1)
        assert summary.hi95[0, 0] - summary.lo95[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert summary.hi95[1, 0] - summary.lo95[1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_rejection_warning(self):
        # posterior mass mostly on negative damping triggers the flag
        comp = GaussianComponent(np.array([-0.05, 0.2]), 0.1 * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        summary = pushforward(posterior, (1.0, 1.0, 1.0, 1.0),
                              np.array([0.0, 1.0, 0.0, 0.0]),
                              np.linspace(0.5, 5.0, 5), 100, seed=2)
        assert summary.high_rejection_warning
        assert summary.n_rejections > 0

    def test_rejection_rate_counts_every_draw(self):
        # half the mass on c1 <= 0: three rounds of 100 draws reject 140, a
        # rate of 0.47, though 140 / (140 + 100) would read 0.58
        comp = GaussianComponent(np.array([0.0, 0.5]), 0.1 * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        summary = pushforward(posterior, (1.0, 1.0, 1.0, 1.0),
                              np.array([0.0, 1.0, 0.0, 0.0]),
                              np.linspace(0.5, 5.0, 5), 100, seed=272)
        assert summary.n_rejections == 140
        assert not summary.high_rejection_warning

    def test_invalid_inputs_rejected(self):
        comp = GaussianComponent(np.array([0.3, 0.2]), 0.02 * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        with pytest.raises(ValueError, match="nonnegative"):
            pushforward(posterior, (1.0, 1.0, 1.0, 1.0), np.array([0.0, 1.0, 0.0, 0.0]),
                        np.array([-1.0, 1.0]), 100, seed=0)
        with pytest.raises(ValueError, match="length-4"):
            pushforward(posterior, (1.0, 1.0, 1.0, 1.0), np.zeros(3),
                        np.array([1.0, 2.0]), 100, seed=0)

    def test_csv_schema(self, tmp_path):
        comp = GaussianComponent(np.array([0.3, 0.2]), 0.02 * np.eye(2))
        posterior = MixtureModel((comp,), np.ones(1))
        summary = pushforward(posterior, (1.0, 1.0, 1.0, 1.0),
                              np.array([0.0, 1.0, 0.0, 0.0]),
                              np.linspace(1.0, 5.0, 5), 150, seed=3)
        path = tmp_path / "push.csv"
        summary.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,floor,mean,lo95,hi95"
        assert len(lines) == 1 + 2 * 5


class TestObservationArtifacts:
    def test_csv_and_sidecar(self, tmp_path):
        scenario = default_scenario()
        obs = scenario.observations()
        obs.to_csv(tmp_path / "obs.csv")
        lines = (tmp_path / "obs.csv").read_text().strip().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == scenario.n_obs + 1
        sidecar = obs.sidecar_dict(scenario.frame_true)
        assert set(sidecar) == {"noise_sigma", "initial_state", "constants"}
        assert sidecar["constants"]["c1"] == scenario.frame_true.c1
