"""The benchmark's workloads.

Each workload builds its inputs once (the set-up), then runs whole passes
of the same operations through postmix's public functions, and finally
checks one pass's outputs against ``reference``. Program functions are
looked up on their modules at call time, so the traced run's wrappers see
every call.

The problems themselves are fixed, so every seed does the same amount of
work; ``--seed`` drives the stochastic inputs: the weight-sampling seed of
``run_gola``, the scoring, refinement and pushforward seeds.

``reference`` is imported only by the checks, so that its scipy modules
stay out of the measured set-up time.
"""

from __future__ import annotations

import json

import numpy as np

from postmix import density, exemplar, gola, metrics, sensibench, vi
from postmix.exceptions import GenerationError, PostmixError


def _seeds(seed: int, salt: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(n)]


def _mixture_json(mixture) -> str:
    return json.dumps(density.mixture_to_dict(mixture), sort_keys=True)


class Op:
    """The outcome of one operation in one pass.

    ``fingerprint`` must be byte-identical across passes; it holds the
    serialized output and the operation's target-evaluation count.
    """

    def __init__(self, value, fingerprint: str, points: int, error: str | None = None):
        self.value = value
        self.fingerprint = fingerprint
        self.points = points
        self.error = error


def _not_run() -> Op:
    return Op(None, "not run", 0, "not run: the fit failed")


class Workload:
    name = ""

    def __init__(self, meter):
        self.meter = meter

    def run_pass(self, times) -> dict[str, Op]:
        raise NotImplementedError

    def check(self, ops: dict[str, Op]) -> dict[str, str | None]:
        """Failure reason per operation, None when it is correct."""
        raise NotImplementedError

    def _op(self, make_fingerprint, call):
        """Run ``call``, counting its target points; catch the program's own errors."""
        before = self.meter.total_points()
        try:
            value = call()
        except (PostmixError, ValueError, np.linalg.LinAlgError) as exc:
            points = self.meter.total_points() - before
            return Op(None, f"error {type(exc).__name__} points={points}", points,
                      f"{type(exc).__name__}: {exc}")
        points = self.meter.total_points() - before
        return Op(value, f"{make_fingerprint(value)} points={points}", points)


class Ensemble(Workload):
    """Synthetic GMM posteriors of acceptance criterion 3 (broad, d in 2..6).

    The cases come from the criterion's 100-case study (design seed 303),
    with the generator seeds ``evaluate_case`` derives: the first case of
    dimension 2, 4 and 6, in design order. Three cases keep a pass near one
    second, short enough for many interleaved repeats in one run.
    """

    name = "ensemble"
    DIMS = (2, 4, 6)
    DESIGN_SEED = 303
    DESIGN_CASES = 100
    JSD_LIMIT = 0.05

    def __init__(self, seed, meter):
        super().__init__(meter)
        spec = sensibench.FactorSpec(d_range=(2, 6))
        case_seeds = np.random.SeedSequence(self.DESIGN_SEED).generate_state(
            2 * self.DESIGN_CASES)
        chosen = {}
        for i in range(self.DESIGN_CASES):
            factors = spec.sample(np.random.default_rng(int(case_seeds[2 * i])))
            if factors.d in self.DIMS:
                chosen.setdefault(factors.d, (i, factors))
        self.cases = []
        for i, factors in sorted(chosen.values(), key=lambda c: c[0]):
            gen = np.random.SeedSequence(int(case_seeds[2 * i + 1])).generate_state(2)
            try:
                truth = sensibench.generate_test_gmm(factors, int(gen[0]))
            except GenerationError:
                truth = sensibench.generate_test_gmm(factors, int(gen[1]))
            fit_seed, score_seed, check_seed = _seeds(seed, i, 3)
            self.cases.append({
                "factors": factors, "truth": truth,
                "target": meter.wrap(truth.as_target()),
                "cfg": gola.GolaConfig(master_seed=fit_seed),
                "score_seed": score_seed, "check_seed": check_seed,
            })

    def run_pass(self, times):
        ops = {}
        for i, case in enumerate(self.cases):
            def fit_and_score():
                with times.unit(f"fit{i}", fit=True):
                    report = gola.run_gola(case["target"], case["cfg"])
                with times.unit(f"score{i}"):
                    score = metrics.jsd_normalized(case["truth"], report.mixture, 4096,
                                                   case["score_seed"]).value
                return report.mixture, score
            ops[f"case{i}"] = self._op(
                lambda r: f"{_mixture_json(r[0])} score={r[1]!r}", fit_and_score)
        return ops

    def check(self, ops):
        import reference

        out = {}
        for i, case in enumerate(self.cases):
            op = ops[f"case{i}"]
            if op.error:
                out[f"case{i}"] = op.error
                continue
            fit = op.value[0]
            want = case["factors"].n_components
            if fit.n_components != want:
                out[f"case{i}"] = f"K={fit.n_components}, true M={want}"
                continue
            value = reference.jsd(reference.GaussianMixture.of(case["truth"]),
                                  reference.GaussianMixture.of(fit), 2048,
                                  case["check_seed"])
            out[f"case{i}"] = (None if value <= self.JSD_LIMIT
                               else f"JSD {value:.4f} > {self.JSD_LIMIT}")
        return out


class Exemplar(Workload):
    """The default shear-frame damping scenario: FD-gradient fit, then pushforward."""

    name = "exemplar"
    N_STARTS = 16
    GRADIENT_TOL = 1e-5        # as acceptance criterion 6
    N_PUSH = 500
    N_TIMES = 60
    JSD_LIMIT = 0.1
    SIM_TOL = 1e-8

    def __init__(self, seed, meter):
        super().__init__(meter)
        self.scenario = exemplar.default_scenario()
        self.obs = self.scenario.observations()
        self.target = meter.wrap(exemplar.damping_log_likelihood(
            self.obs, self.scenario.constants(), self.scenario.search_box))
        self.times = np.linspace(self.scenario.horizon / self.N_TIMES,
                                 self.scenario.horizon, self.N_TIMES)
        fit_seed, self.push_seed, self.check_seed = _seeds(seed, 0, 3)
        self.cfg = gola.GolaConfig(n_starts=self.N_STARTS,
                                   gradient_tol=self.GRADIENT_TOL, master_seed=fit_seed)

    def run_pass(self, times):
        def fit():
            with times.unit("fit", fit=True):
                return gola.run_gola(self.target, self.cfg).mixture

        ops = {"fit": self._op(_mixture_json, fit)}
        mixture = ops["fit"].value
        if mixture is None:
            ops["pushforward"] = _not_run()
            return ops

        def push():
            with times.unit("pushforward"):
                return exemplar.pushforward(mixture, self.scenario.constants(),
                                            self.scenario.u0, self.times,
                                            self.N_PUSH, self.push_seed)

        ops["pushforward"] = self._op(
            lambda s: json.dumps([s.mean.tolist(), s.lo95.tolist(), s.hi95.tolist(),
                                  s.n_rejections]), push)
        return ops

    def check(self, ops):
        import reference

        frame = reference.ShearFrameReference(*self.scenario.constants())
        out = {"fit": ops["fit"].error}
        if out["fit"] is None:
            out["fit"] = self._check_fit(frame, ops["fit"].value)
        out["pushforward"] = ops["pushforward"].error or self._check_push(
            frame, ops["fit"].value, ops["pushforward"].value)
        return out

    def _check_fit(self, frame, mixture):
        import reference

        u0, t = self.obs.initial_state, self.obs.times
        m1, m2, k1, k2 = self.scenario.constants()
        for comp in mixture.components:
            c1, c2 = comp.mean
            states = exemplar.simulate(exemplar.ShearFrame(m1, m2, k1, k2, c1, c2), u0, t)
            gap = float(np.max(np.abs(states - frame.solve_ivp(comp.mean, u0, t))))
            if gap > self.SIM_TOL:
                return f"simulator off solve_ivp by {gap:.2e} at mode {comp.mean}"
        grid = reference.GridReference(frame, self.obs, self.scenario.search_box, 512)
        census = reference.GridReference(frame, self.obs, self.scenario.search_box, 64)
        maxima = census.local_maxima()
        for comp in mixture.components:
            i, j = census.nearest_node(comp.mean)
            if not any(max(abs(a - i), abs(b - j)) <= 1 for a, b in maxima):
                return f"mode {comp.mean} is not at a grid-census maximum {maxima}"
        value = reference.jsd(grid, reference.GaussianMixture.of(mixture), 8192,
                              self.check_seed)
        return None if value <= self.JSD_LIMIT else f"JSD {value:.4f} > {self.JSD_LIMIT}"

    def _check_push(self, frame, mixture, summary):
        """The pushforward mean matches an independent one within 6 standard errors."""
        import reference

        rng = np.random.default_rng(self.check_seed)
        draws = reference.GaussianMixture.of(mixture).sample(4 * self.N_PUSH, rng)
        draws = draws[np.all(draws > 0.0, axis=1)][:self.N_PUSH]
        paths = frame.trajectories(draws, self.scenario.u0, self.times)[:, :, :2]
        mean = paths.mean(axis=0).T
        err = np.sqrt(2.0 * paths.var(axis=0).T / len(draws))
        gap = np.abs(summary.mean - mean)
        if np.all(gap <= 6.0 * err + 1e-12):
            return None
        return f"pushforward mean off by {np.max(gap / (err + 1e-300)):.1f} standard errors"


class Warmstart(Workload):
    """Criterion 4's sinh-arcsinh posterior (d=15, K=2): fit, then VI refinement."""

    name = "warmstart"
    DIM, N_COMPONENTS, TRUTH_SEED = 15, 2, 42
    N_STARTS = 32
    GRADIENT_TOL = 1e-6
    EPOCHS = 400
    MC_SAMPLES = 256
    REPORT_INTERVAL = 20
    JSD_SAMPLES = 2048

    def __init__(self, seed, meter):
        super().__init__(meter)
        self.truth = density.random_sinh_arcsinh_mixture(
            self.DIM, self.N_COMPONENTS, seed=self.TRUTH_SEED)
        self.target = meter.wrap(self.truth.as_target())
        fit_seed, vi_seed, self.check_seed = _seeds(seed, 0, 3)
        self.gola_cfg = gola.GolaConfig(n_starts=self.N_STARTS,
                                        gradient_tol=self.GRADIENT_TOL,
                                        master_seed=fit_seed)
        self.vi_cfg = vi.ViConfig(n_mc_samples=self.MC_SAMPLES, max_epochs=self.EPOCHS,
                                  report_interval=self.REPORT_INTERVAL,
                                  jsd_samples=self.JSD_SAMPLES, seed=vi_seed)

    def run_pass(self, times):
        def fit():
            with times.unit("fit", fit=True):
                return gola.run_gola(self.target, self.gola_cfg).mixture

        ops = {"fit": self._op(_mixture_json, fit)}
        init = ops["fit"].value
        if init is None:
            ops["refine"] = _not_run()
            return ops

        def refine():
            with times.unit("refine"):
                return vi.refine(init, self.target, self.vi_cfg, reference=self.truth)[0]

        ops["refine"] = self._op(_mixture_json, refine)
        return ops

    def check(self, ops):
        import reference

        truth = reference.SinhArcsinh.of(self.truth)
        init = ops["fit"].value
        out = {"fit": ops["fit"].error}
        if out["fit"] is None:
            # Each fitted component must sit where a different truth component
            # has the larger density.
            nearest = {int(np.argmax(truth.component_log_pdfs(c.mean[None])[0]))
                       for c in init.components}
            if init.n_components != self.N_COMPONENTS or len(nearest) != self.N_COMPONENTS:
                out["fit"] = (f"K={init.n_components} components cover truth "
                              f"components {sorted(nearest)}")
        out["refine"] = ops["refine"].error
        if out["refine"] is None:
            before = reference.jsd(truth, reference.GaussianMixture.of(init), 4096,
                                   self.check_seed)
            after = reference.jsd(truth, reference.GaussianMixture.of(ops["refine"].value),
                                  4096, self.check_seed)
            if not after < before:
                out["refine"] = f"refined JSD {after:.4f} >= Laplace JSD {before:.4f}"
        return out


WORKLOADS = {w.name: w for w in (Ensemble, Exemplar, Warmstart)}
