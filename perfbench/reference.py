"""Reference computations the workloads check the program against.

Everything here is computed apart from ``postmix``: Gaussian densities come
from ``scipy.stats``, the sinh-arcsinh density and sampler are written out
from the transform, and the shear frame is integrated with
``scipy.linalg.expm`` and ``scipy.integrate.solve_ivp``. Only parameters
(mixture means, Cholesky factors, weights, frame constants, observations)
are read from ``postmix`` objects. Large grids are evaluated in chunks so
that these checks never set the process's peak resident set.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

_CHUNK = 8192


class GaussianMixture:
    """A Gaussian mixture evaluated and sampled through scipy.stats."""

    def __init__(self, weights, means, covs):
        keep = np.asarray(weights) > 0.0
        self.weights = np.asarray(weights, float)[keep]
        self.components = [multivariate_normal(m, c)
                           for m, c, k in zip(means, covs, keep) if k]

    @classmethod
    def of(cls, mixture) -> "GaussianMixture":
        """Read the parameters of a ``postmix`` mixture."""
        return cls(mixture.weights, [c.mean for c in mixture.components],
                   [c.chol_cov @ c.chol_cov.T for c in mixture.components])

    def log_pdf(self, x):
        logs = [c.logpdf(x) + math.log(w) for c, w in zip(self.components, self.weights)]
        return logsumexp(np.atleast_2d(logs), axis=0)

    def sample(self, n: int, rng: np.random.Generator):
        ks = rng.choice(len(self.weights), size=n, p=self.weights)
        out = np.empty((n, self.components[0].dim))
        for k, comp in enumerate(self.components):
            rows = ks == k
            out[rows] = comp.rvs(size=int(rows.sum()), random_state=rng).reshape(-1, comp.dim)
        return out


class SinhArcsinh:
    """Factorized sinh-arcsinh mixture: Y = loc + scale sinh((asinh(Z) + skew) tail)."""

    def __init__(self, weights, loc, scale, skew, tail):
        self.weights = np.asarray(weights, float)
        self.loc, self.scale = np.asarray(loc, float), np.asarray(scale, float)
        self.skew, self.tail = np.asarray(skew, float), np.asarray(tail, float)

    @classmethod
    def of(cls, mixture) -> "SinhArcsinh":
        return cls(mixture.weights, mixture.loc, mixture.scale, mixture.skew, mixture.tail)

    def component_log_pdfs(self, y):
        """Shape (n, K): Z = sinh(asinh(x)/tail - skew) with x = (y - loc)/scale,
        density N(Z) |dZ/dy| with dZ/dy = cosh(.) / (tail sqrt(1 + x^2) scale)."""
        x = (y[:, None, :] - self.loc) / self.scale
        inner = np.arcsinh(x) / self.tail - self.skew
        log_jac = (np.log(np.cosh(inner)) - np.log(self.tail)
                   - 0.5 * np.log1p(x * x) - np.log(self.scale))
        return np.sum(norm.logpdf(np.sinh(inner)) + log_jac, axis=2)

    def log_pdf(self, y):
        return logsumexp(self.component_log_pdfs(y) + np.log(self.weights), axis=1)

    def sample(self, n: int, rng: np.random.Generator):
        ks = rng.choice(len(self.weights), size=n, p=self.weights)
        z = rng.standard_normal((n, self.loc.shape[1]))
        return self.loc[ks] + self.scale[ks] * np.sinh(
            (np.arcsinh(z) + self.skew[ks]) * self.tail[ks])


def jsd(p, q, n: int, seed: int) -> float:
    """Monte Carlo Jensen-Shannon divergence in [0, 1] (base-2 logarithms)."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for first, other in ((p, q), (q, p)):
        x = first.sample(n, rng)
        lf, lo = first.log_pdf(x), other.log_pdf(x)
        total += float(np.mean(lf - (np.logaddexp(lf, lo) - math.log(2.0))))
    return 0.5 * total / math.log(2.0)


class ShearFrameReference:
    """Two-story shear frame with damping (c1, c2): state (x1, x2, v1, v2)."""

    def __init__(self, m1, m2, k1, k2):
        self.inv_mass = np.diag([1.0 / m1, 1.0 / m2])
        self.stiffness = np.array([[k1 + k2, -k2], [-k2, k2]])

    def state_matrices(self, c):
        """Stack of state matrices for damping pairs ``c`` of shape (n, 2)."""
        c = np.atleast_2d(c)
        damping = np.zeros((len(c), 2, 2))
        damping[:, 0, 0] = c[:, 0] + c[:, 1]
        damping[:, 0, 1] = damping[:, 1, 0] = -c[:, 1]
        damping[:, 1, 1] = c[:, 1]
        a = np.zeros((len(c), 4, 4))
        a[:, :2, 2:] = np.eye(2)
        a[:, 2:, :2] = -self.inv_mass @ self.stiffness
        a[:, 2:, 2:] = -self.inv_mass @ damping
        return a

    def trajectories(self, c, u0, times):
        """States at ``times`` (a uniform grid starting at its spacing), (n, T, 4)."""
        step = expm(self.state_matrices(c) * (times[1] - times[0]))
        u = np.broadcast_to(np.asarray(u0, float), (len(step), 4))
        out = np.empty((len(step), len(times), 4))
        for i in range(len(times)):
            u = np.einsum("nij,nj->ni", step, u)
            out[:, i] = u
        return out

    def solve_ivp(self, c, u0, times):
        a = self.state_matrices(c)[0]
        sol = solve_ivp(lambda t, u: a @ u, (0.0, float(times[-1])), u0,
                        t_eval=times, rtol=1e-12, atol=1e-12)
        return sol.y.T

    def log_likelihood(self, c, obs):
        """Gaussian log likelihood of first-floor observations, -inf off c > 0."""
        c = np.atleast_2d(c)
        out = np.full(len(c), -np.inf)
        for lo in range(0, len(c), _CHUNK):
            block = c[lo:lo + _CHUNK]
            ok = np.all(block > 0.0, axis=1)
            if np.any(ok):
                x1 = self.trajectories(block[ok], obs.initial_state, obs.times)[:, :, 0]
                resid = obs.values - x1
                out[lo:lo + _CHUNK][ok] = -np.sum(resid * resid, axis=1) / (
                    2.0 * obs.noise_sigma ** 2)
        return out


class GridReference:
    """The likelihood normalized by trapezoid quadrature on an n x n grid."""

    def __init__(self, frame: ShearFrameReference, obs, box, n: int):
        self.frame, self.obs, self.n = frame, obs, n
        self.x = np.linspace(box[0, 0], box[0, 1], n)
        self.y = np.linspace(box[1, 0], box[1, 1], n)
        self.dx, self.dy = self.x[1] - self.x[0], self.y[1] - self.y[0]
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        self.log_grid = frame.log_likelihood(
            np.column_stack([xx.ravel(), yy.ravel()]), obs).reshape(n, n)
        w = np.ones(n)
        w[[0, -1]] = 0.5
        weighted = self.log_grid + np.log(w)[:, None] + np.log(w)[None, :]
        self.log_z = logsumexp(weighted) + math.log(self.dx * self.dy)

    def local_maxima(self):
        """Interior grid nodes strictly above all eight neighbours, as (i, j)."""
        g = self.log_grid
        centre = g[1:-1, 1:-1]
        is_max = np.ones_like(centre, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    is_max &= centre > g[1 + di:g.shape[0] - 1 + di,
                                          1 + dj:g.shape[1] - 1 + dj]
        return [(i + 1, j + 1) for i, j in zip(*np.nonzero(is_max))]

    def nearest_node(self, point):
        return (int(np.argmin(np.abs(self.x - point[0]))),
                int(np.argmin(np.abs(self.y - point[1]))))

    def log_pdf(self, points):
        return self.frame.log_likelihood(points, self.obs) - self.log_z

    def sample(self, n: int, rng: np.random.Generator):
        masses = np.exp(self.log_grid - np.max(self.log_grid)).ravel()
        cells = rng.choice(masses.size, size=n, p=masses / masses.sum())
        ix, iy = np.unravel_index(cells, (self.n, self.n))
        jitter = rng.uniform(-0.5, 0.5, size=(n, 2))
        out = np.column_stack([self.x[ix] + jitter[:, 0] * self.dx,
                               self.y[iy] + jitter[:, 1] * self.dy])
        return np.clip(out, [self.x[0], self.y[0]], [self.x[-1], self.y[-1]])
