"""Two-story shear-frame inverse problem for viscous damping coefficients.

The frame's linear dynamics are simulated exactly through the matrix
exponential of the state matrix, a numpy Padé-13 scaling-and-squaring kernel
that exponentiates a whole stack of matrices at once. One batched
simulator covers a stack of (c1, c2) pairs; a single frame, the likelihood
and the pushforward all go through it. Synthetic noisy displacement records
are generated from a true frame, the damping posterior is exposed as an
unnormalized target over (c1, c2), and posterior parameter uncertainty is
pushed forward to displacement trajectories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .density import MixtureModel, UnnormalizedTarget, _as_points, _write_csv

# The fewest posterior samples a pushforward summarizes.
MIN_PUSHFORWARD = 100


# Padé-13 coefficients b_0..b_13, and the largest 1-norm at which the
# approximant alone is accurate to double precision (Higham, "The scaling and
# squaring method for the matrix exponential revisited", SIAM J. Matrix Anal.
# Appl. 26, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


@functools.cache
def _pade_identity_terms(n: int) -> tuple[NDArray[np.float64], ...]:
    """The (n, n) identity and its Padé-13 multiples ``b_1 I`` and ``b_0 I``,
    built once per size and shared, so they are read-only."""
    eye = np.eye(n)
    terms = (eye, _PADE13[1] * eye, _PADE13[0] * eye)
    for term in terms:
        term.flags.writeable = False
    return terms


def _expm_batch(a: NDArray) -> NDArray[np.float64]:
    """Matrix exponential of one (n, n) matrix or an (m, n, n) stack.

    Padé-13 scaling and squaring on the whole stack: each matrix is scaled by
    its own power of two, one solve serves every Padé quotient, and each
    matrix is squared only as often as its own scaling needs, so a row equals
    a stack of one bitwise. A zero matrix gives the identity exactly; a
    matrix with a non-finite entry gives NaN.

    A pass that only some rows need runs only when a row needs it: a stack
    with no non-finite entry skips the zeroing of non-finite rows and their
    NaN fill, one with no zero matrix skips the identity fix-up, and one
    whose rows share one scaling power squares with plain ``r @ r`` instead
    of the masked ``where``. The values are bitwise the masked path's.
    """
    a = np.asarray(a, dtype=float)
    x = a if a.ndim == 3 else a[np.newaxis]
    finite = np.isfinite(x).all(axis=(1, 2))
    all_finite = finite.all()
    if not all_finite:
        x = np.where(finite[:, None, None], x, 0.0)
    norm = np.abs(x).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    x = np.ldexp(x, -s[:, None, None])
    b = _PADE13
    eye, b1_eye, b0_eye = _pade_identity_terms(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b1_eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b0_eye)
    r = np.linalg.solve(v - u, v + u)
    squarings = int(s.max(initial=0))
    if s.min(initial=squarings) == squarings:
        for _ in range(squarings):
            r = r @ r
    else:
        for k in range(squarings):
            r = np.where((s > k)[:, None, None], r @ r, r)
    if not norm.all():
        r[norm == 0.0] = eye  # the solve's reciprocal pivot would give 1 - 2**-53
    if not all_finite:
        r[~finite] = np.nan
    return r if a.ndim == 3 else r[0]


# The benchmark's traced run wraps this name; alias until it stops doing so.
matrix_exponential = _expm_batch


@dataclass(frozen=True)
class ShearFrame:
    """Floor masses, inter-story stiffnesses, and viscous damping constants."""

    m1: float
    m2: float
    k1: float
    k2: float
    c1: float
    c2: float

    def __post_init__(self):
        values = (self.m1, self.m2, self.k1, self.k2, self.c1, self.c2)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"frame parameters must be finite, got {values}")
        if min(self.m1, self.m2, self.k1, self.k2) <= 0.0:
            raise ValueError("masses and stiffnesses must be strictly positive")
        if min(self.c1, self.c2) < 0.0:
            raise ValueError("damping coefficients must be nonnegative")


def _constants(frame: ShearFrame) -> tuple:
    return (frame.m1, frame.m2, frame.k1, frame.k2)


def _frame_template(constants: tuple) -> tuple[NDArray[np.float64], float, float]:
    """The state matrix of the undamped frame, and the inverse masses that
    scale the damping entries :func:`_state_matrices` writes into its copies."""
    m1, m2, k1, k2 = constants
    inv_m1, inv_m2 = 1.0 / m1, 1.0 / m2
    a = np.zeros((4, 4))
    a[0, 2] = a[1, 3] = 1.0
    a[2, 0] = -inv_m1 * (k1 + k2)
    a[2, 1] = inv_m1 * k2
    a[3, 0] = inv_m2 * k2
    a[3, 1] = -inv_m2 * k2
    return a, inv_m1, inv_m2


def _state_matrices(c_pairs: NDArray, template: tuple) -> NDArray[np.float64]:
    """Stack of state matrices [[0, I], [-M^-1 K, -M^-1 C]], one per (c1, c2)
    pair: copies of :func:`_frame_template`'s matrix with the four damping
    entries written in."""
    a0, inv_m1, inv_m2 = template
    c1, c2 = c_pairs[:, 0], c_pairs[:, 1]
    a = np.repeat(a0[np.newaxis], c_pairs.shape[0], axis=0)
    a[:, 2, 2] = -inv_m1 * (c1 + c2)
    a[:, 2, 3] = inv_m1 * c2
    a[:, 3, 2] = inv_m2 * c2
    a[:, 3, 3] = -inv_m2 * c2
    return a


def assemble_state_matrix(frame: ShearFrame) -> NDArray[np.float64]:
    """First-order state matrix [[0, I], [-M^-1 K, -M^-1 C]].

    The state vector is (x1, x2, v1, v2): floor displacements from
    equilibrium followed by their velocities.
    """
    return _state_matrices(np.array([[frame.c1, frame.c2]]),
                           _frame_template(_constants(frame)))[0]


def _is_uniform_grid(times: NDArray) -> bool:
    if times.shape[0] < 2:
        return False
    spacing = times[1] - times[0]
    if spacing <= 0.0 or not math.isclose(times[0], spacing, rel_tol=1e-12):
        return False
    return bool(np.allclose(np.diff(times), spacing, rtol=1e-12, atol=0.0))


def _checked_inputs(u0: NDArray, times: NDArray) -> tuple[NDArray, NDArray]:
    """Initial state and times as float arrays, validated for simulation."""
    u0 = np.asarray(u0, dtype=float)
    times = np.asarray(times, dtype=float)
    if u0.shape != (4,):
        raise ValueError(f"u0 must be a length-4 state vector, got {u0.shape}")
    if not np.all(np.isfinite(times)):
        # the exponential turns a non-finite exponent into NaN silently
        raise ValueError("times must be finite")
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    return u0, times


def _simulate_batch(c_pairs: NDArray, template: tuple, u0: NDArray,
                    times: NDArray, uniform: bool) -> NDArray[np.float64]:
    """States u(t_i) = exp(A t_i) u0 of one frame per (c1, c2) pair.

    ``template`` is the frames' :func:`_frame_template`. Returns shape
    (n_pairs, n_times, 4). On a uniform grid starting at its own spacing
    (``uniform``, decided once by the caller) each frame's one-step
    propagator is exponentiated once and applied repeatedly, and the states
    are joined once at the end; otherwise every (frame, time) gets its own
    exponential. Every row is computed independently of the others, so a
    row equals a stack of one.
    """
    a = _state_matrices(c_pairs, template)
    if uniform:
        step = _expm_batch(a * (times[1] - times[0]))
        u, states = u0[:, np.newaxis], []
        for _ in range(times.shape[0]):
            u = step @ u
            states.append(u)
        return np.concatenate(states, axis=2).transpose(0, 2, 1)
    scaled = a[:, np.newaxis] * times[:, np.newaxis, np.newaxis]
    propagators = _expm_batch(scaled.reshape(-1, 4, 4))
    return (propagators @ u0).reshape(a.shape[0], times.shape[0], 4)


def simulate(frame: ShearFrame, u0: NDArray, times: NDArray) -> NDArray[np.float64]:
    """States u(t_i) = exp(A t_i) u0 at the requested times, shape (n_times, 4)."""
    u0, times = _checked_inputs(u0, times)
    return _simulate_batch(np.array([[frame.c1, frame.c2]]),
                           _frame_template(_constants(frame)), u0, times,
                           _is_uniform_grid(times))[0]


@dataclass(frozen=True)
class ObservationSet:
    """Noisy observations of the first-floor displacement."""

    times: NDArray[np.float64]
    values: NDArray[np.float64]
    noise_sigma: float
    initial_state: NDArray[np.float64]

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.noise_sigma <= 0.0:
            raise ValueError("noise_sigma must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "initial_state", np.asarray(self.initial_state, dtype=float)
        )

    def to_csv(self, path) -> None:
        _write_csv(path, ["t", "y"], zip(self.times, self.values))

    def sidecar_dict(self, frame: ShearFrame) -> dict:
        return {
            "noise_sigma": self.noise_sigma,
            "initial_state": list(self.initial_state),
            "constants": {"m1": frame.m1, "m2": frame.m2,
                          "k1": frame.k1, "k2": frame.k2,
                          "c1": frame.c1, "c2": frame.c2},
        }


def generate_observations(frame_true: ShearFrame, u0: NDArray, n_obs: int,
                          horizon: float, noise_sigma: float,
                          seed: int) -> ObservationSet:
    """Observe the first-floor displacement at uniform times on (0, horizon].

    Additive white Gaussian noise with the given standard deviation; fully
    reproducible from the seed.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if n_obs < 2:
        raise ValueError("need at least two observations")
    times = np.linspace(horizon / n_obs, horizon, n_obs)
    states = simulate(frame_true, u0, times)
    rng = np.random.default_rng(seed)
    values = states[:, 0] + noise_sigma * rng.standard_normal(n_obs)
    return ObservationSet(times, values, noise_sigma, np.asarray(u0, float))


def damping_log_likelihood(obs: ObservationSet, constants: tuple,
                           search_box: NDArray) -> UnnormalizedTarget:
    """Gaussian log likelihood over the two damping coefficients.

    log phi(c1, c2) = -sum((y_i - x1(t_i; c1, c2))^2) / (2 sigma^2) with an
    uninformative prior; nonpositive damping returns -inf, and a NaN
    coordinate NaN, which the evaluators reject naming the point. The
    gradient is left to finite differences because every evaluation
    integrates the system.

    A batch whose points are all in the support skips the out-of-support
    mask, the ``-inf``/NaN fill and the scatter of the in-support values;
    its values are bitwise those of the masked path. The frame's undamped
    state matrix is built once here, and each call copies it per point.
    """
    u0, times = _checked_inputs(obs.initial_state, obs.times)
    values = obs.values
    inv_two_var = 1.0 / (2.0 * obs.noise_sigma**2)
    uniform = _is_uniform_grid(times)
    template = _frame_template(constants)

    def in_support(pts: NDArray) -> NDArray[np.float64]:
        x1 = _simulate_batch(pts, template, u0, times, uniform)[:, :, 0]
        residuals = values - x1
        return -inv_two_var * np.sum(residuals * residuals, axis=1)

    def log_phi(points: NDArray) -> NDArray | float:  # one point or a batch
        pts, single = _as_points(points, 2)
        positive = pts > 0.0
        if positive.all():
            out = in_support(pts)
        else:
            ok = positive.all(axis=1)
            out = np.full(pts.shape[0], -np.inf)
            out[np.isnan(pts).any(axis=1)] = np.nan
            if np.any(ok):
                out[ok] = in_support(pts[ok])
        return float(out[0]) if single else out

    return UnnormalizedTarget(dim=2, log_phi=log_phi,
                              search_box=np.asarray(search_box, dtype=float),
                              log_phi_batch=log_phi)


@dataclass(frozen=True)
class PushforwardSummary:
    """Pointwise mean and central 95% band of the predicted displacements."""

    times: NDArray[np.float64]
    mean: NDArray[np.float64]   # (2, n_times), floors 1 and 2
    lo95: NDArray[np.float64]
    hi95: NDArray[np.float64]
    n_rejections: int
    high_rejection_warning: bool

    def to_csv(self, path) -> None:
        _write_csv(path, ["time", "floor", "mean", "lo95", "hi95"],
                   ([t, floor + 1, self.mean[floor, i], self.lo95[floor, i],
                     self.hi95[floor, i]]
                    for floor in (0, 1) for i, t in enumerate(self.times)))


def pushforward(posterior: MixtureModel, constants: tuple, u0: NDArray,
                times: NDArray, n_samples: int, seed: int) -> PushforwardSummary:
    """Propagate damping-posterior samples through the frame model.

    Draws (c1, c2) pairs from the posterior in rounds of ``n_samples``,
    rejecting nonpositive values (counted; more than half of all draws
    rejected raises the warning flag), then simulates the first
    ``n_samples`` accepted pairs and summarizes both floors' displacement
    trajectories pointwise.
    """
    if n_samples < MIN_PUSHFORWARD:
        raise ValueError(f"use at least {MIN_PUSHFORWARD} posterior samples")
    u0, times = _checked_inputs(u0, times)
    seeds = np.random.SeedSequence(seed).generate_state(64)
    accepted = []
    rejected = 0
    for round_idx in range(64):
        draw = posterior.sample(n_samples, int(seeds[round_idx]))
        ok = np.all(draw > 0.0, axis=1)
        rejected += int(np.sum(~ok))
        accepted.append(draw[ok])
        if sum(a.shape[0] for a in accepted) >= n_samples:
            break
    samples = np.concatenate(accepted)[:n_samples]
    if samples.shape[0] < n_samples:
        raise ValueError("posterior mass on positive damping is too small to sample")

    states = _simulate_batch(samples, _frame_template(constants), u0, times,
                             _is_uniform_grid(times))
    floors = states[:, :, :2].transpose(0, 2, 1)  # (n_samples, 2, n_times)
    mean = floors.mean(axis=0)
    lo95 = np.percentile(floors, 2.5, axis=0)
    hi95 = np.percentile(floors, 97.5, axis=0)
    rate = rejected / (len(accepted) * n_samples)
    return PushforwardSummary(times, mean, lo95, hi95, rejected, rate > 0.5)


@dataclass(frozen=True)
class ExemplarScenario:
    """A complete, reproducible inverse-problem setup.

    The observation seed is part of the scenario: the multimodality of the
    damping posterior depends on the realized noise, so a fully specified
    default must pin it.
    """

    frame_true: ShearFrame
    u0: NDArray[np.float64]
    horizon: float
    n_obs: int
    noise_sigma: float
    search_box: NDArray[np.float64]
    obs_seed: int = 0

    def constants(self) -> tuple:
        return _constants(self.frame_true)

    def observations(self) -> ObservationSet:
        return generate_observations(
            self.frame_true, self.u0, self.n_obs, self.horizon,
            self.noise_sigma, self.obs_seed,
        )

    def target(self) -> UnnormalizedTarget:
        return damping_log_likelihood(
            self.observations(), self.constants(), self.search_box
        )


def default_scenario() -> ExemplarScenario:
    """Unit masses and stiffnesses, moderate damping, a second-floor release.

    Six sparse, lightly noisy observations of the first floor over a window
    of length 30 leave the fast mode's decay rate aliased, which splits the
    damping posterior into two well-separated modes (verified by grid
    census). Denser or cleaner observation schedules collapse it back to a
    single mode.
    """
    return ExemplarScenario(
        frame_true=ShearFrame(1.0, 1.0, 1.0, 1.0, 0.3, 0.2),
        u0=np.array([0.0, 1.0, 0.0, 0.0]),
        horizon=30.0,
        n_obs=6,
        noise_sigma=0.01,
        search_box=np.array([[0.01, 1.0], [0.01, 1.0]]),
        obs_seed=3,
    )
