"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces the pinned tolerance and runtime budget for its
criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

from postmix.density import (
    GaussianComponent,
    MixtureModel,
    UnnormalizedTarget,
    eval_log_density_batch,
    random_sinh_arcsinh_mixture,
)
from postmix.exemplar import (
    ShearFrame,
    assemble_state_matrix,
    default_scenario,
    pushforward,
    simulate,
)
from postmix.gola import GolaConfig, run_gola, solve_weights
from postmix.metrics import (
    dice_overlap,
    grid_normalized_density,
    jsd_normalized,
    kl_mc,
)
from postmix.sensibench import (
    Factor,
    FactorSpec,
    bootstrap_ci,
    estimate_indices,
    robustness_study,
    sobol_design,
)
from postmix.vi import (
    ViConfig,
    from_mixture,
    random_cold_start,
    refine,
    score_function_gradient,
)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def _gauss_mixture(means, covs, weights):
    comps = tuple(
        GaussianComponent(np.asarray(m, float),
                          np.linalg.cholesky(np.asarray(c, float)))
        for m, c in zip(means, covs)
    )
    return MixtureModel(comps, np.asarray(weights, float))


def _scaled_target(mixture, scale):
    base = mixture.as_target()
    return UnnormalizedTarget(
        dim=mixture.dim,
        log_phi=lambda z: math.log(scale) + float(mixture.log_pdf(z)),
        search_box=base.search_box,
        gradient=base.gradient,
        hessian=base.hessian,
        log_phi_batch=lambda pts: math.log(scale) + mixture.log_pdf(pts),
    )


def test_criterion_1_laplace_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mean, worst_cov = 0.0, 0.0
    all_single = True
    for trial in range(50):
        d = int(rng.integers(2, 11))
        factor = rng.standard_normal((d, d))
        cov = factor @ factor.T + 0.5 * np.eye(d)
        mean = rng.uniform(-3.0, 3.0, size=d)
        mixture = _gauss_mixture([mean], [cov], [1.0])
        report = run_gola(mixture.as_target(),
                          GolaConfig(n_starts=8, master_seed=trial))
        all_single &= report.mixture.n_components == 1
        got = report.mixture.components[0]
        worst_mean = max(worst_mean,
                         np.linalg.norm(got.mean - mean) / max(1.0, np.linalg.norm(mean)))
        worst_cov = max(worst_cov,
                        np.linalg.norm(got.cov - cov, "fro") / np.linalg.norm(cov, "fro"))
    elapsed = time.perf_counter() - started
    ok = all_single and worst_mean <= 1e-6 and worst_cov <= 1e-6 and elapsed < 30.0
    _report(1, "Laplace exactness", ok,
            f"worst mean rel {worst_mean:.2e}, worst cov rel {worst_cov:.2e}, "
            f"single-component {all_single}, {elapsed:.1f}s < 30s")


def test_criterion_2_weight_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_weight, worst_evidence = 0.0, 0.0
    for seed in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        means = [rng.uniform(-6.0, 6.0, size=d) + 14.0 * i * np.ones(d)
                 for i in range(k)]
        covs = []
        for _ in range(k):
            f = rng.standard_normal((d, d))
            covs.append(f @ f.T + 0.5 * np.eye(d))
        raw = rng.uniform(0.5, 1.5, size=k)
        true_weights = raw / raw.sum()
        scale = float(rng.uniform(0.5, 4.0))
        mixture = _gauss_mixture(means, covs, true_weights)
        target = _scaled_target(mixture, scale)
        pi_tilde, _ = solve_weights(target, list(mixture.components), 4096, seed)
        evidence = float(pi_tilde.sum())
        worst_weight = max(worst_weight,
                           float(np.max(np.abs(pi_tilde / evidence - true_weights))))
        worst_evidence = max(worst_evidence, abs(evidence - scale) / scale)
    elapsed = time.perf_counter() - started
    ok = worst_weight <= 1e-3 and worst_evidence <= 0.01 and elapsed < 60.0
    _report(2, "exact-GMM weight recovery", ok,
            f"worst weight err {worst_weight:.2e} <= 1e-3, "
            f"worst evidence rel err {worst_evidence:.2e} <= 1%, {elapsed:.1f}s < 60s")


def test_criterion_3_robustness_desk_scale():
    started = time.perf_counter()
    broad_desk = FactorSpec(d_range=(2, 6))
    cfg = GolaConfig(master_seed=0)
    table_broad = robustness_study(broad_desk, 100, cfg, jsd_samples=4096, seed=303)
    fraction = table_broad.fraction_below()

    table_broad_small = robustness_study(broad_desk, 40, cfg, jsd_samples=4096,
                                         seed=707)
    table_hard = robustness_study(FactorSpec.hard(), 40, cfg, jsd_samples=4096,
                                  seed=707)
    ordering = table_hard.mean_score() > table_broad_small.mean_score()
    elapsed = time.perf_counter() - started
    ok = fraction >= 0.90 and ordering and elapsed < 1200.0
    _report(3, "robustness at desk scale", ok,
            f"fraction Y<=0.05: {fraction:.2f} >= 0.90; mean Y hard "
            f"{table_hard.mean_score():.4f} > broad {table_broad_small.mean_score():.4f}; "
            f"{elapsed:.0f}s < 1200s")


def test_criterion_4_warm_start_speedup():
    started = time.perf_counter()
    dim = 15
    truth = random_sinh_arcsinh_mixture(dim, 2, seed=42)
    target = truth.as_target()
    vi_cfg = ViConfig(n_mc_samples=256, step_size=1e-2, max_epochs=50,
                      report_interval=1, jsd_samples=2048)

    cold_walls, cold_bests = [], []
    for seed in range(5):
        init = random_cold_start(dim, 2, target.search_box, seed=seed)
        _, trace = refine(init, target, replace(vi_cfg, seed=1000 + seed),
                          reference=truth)
        jsds = [r.jsd for r in trace.records if r.jsd is not None]
        cold_bests.append(min(jsds))
        cold_walls.append(trace.records[-1].elapsed_seconds)
    cold_best = min(cold_bests)  # strongest cold run sets the bar
    cold_wall = float(np.median(cold_walls))

    warm_walls = []
    for seed in range(5):
        t0 = time.perf_counter()
        report = run_gola(target, GolaConfig(n_starts=32, master_seed=seed,
                                             gradient_tol=1e-6))
        gola_time = time.perf_counter() - t0
        _, trace = refine(report.mixture, target, replace(vi_cfg, seed=seed),
                          reference=truth)
        reached = next((r for r in trace.records
                        if r.jsd is not None and r.jsd <= cold_best), None)
        warm_walls.append(math.inf if reached is None
                          else gola_time + reached.elapsed_seconds)
    warm_wall = float(np.median(warm_walls))
    elapsed = time.perf_counter() - started
    ok = warm_wall <= 0.5 * cold_wall and elapsed < 1800.0
    _report(4, "warm-start speedup", ok,
            f"median warm wall {warm_wall:.2f}s (incl. mode search) <= half of "
            f"cold wall {cold_wall:.2f}s; {elapsed:.0f}s < 1800s")


def test_criterion_5_sobol_estimator_oracle():
    started = time.perf_counter()
    factors = [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0)]
    # analytic decomposition of f = X1 + 2 X2: V1 = 1/12, V2 = 4/12, V = 5/12
    design = sobol_design(factors, 2**14, seed=505,
                          model=lambda row: row[0] + 2.0 * row[1])
    point = estimate_indices(design)
    additive_ok = (np.all(np.abs(point.first_order - [0.2, 0.8]) <= 0.02)
                   and np.all(np.abs(point.total_order - [0.2, 0.8]) <= 0.02))

    dummy_design = sobol_design(
        [Factor("x1", 0.0, 1.0), Factor("x2", 0.0, 1.0), Factor("dummy", 0.0, 1.0)],
        2**14, seed=506, model=lambda row: row[0] + 2.0 * row[1],
    )
    dummy = estimate_indices(dummy_design)
    dummy_ok = dummy.total_order[2] <= 0.02

    covered = total = 0
    for rep in range(100):
        d = sobol_design(factors, 1024, seed=10_000 + rep,
                         model=lambda row: row[0] + 2.0 * row[1])
        result = bootstrap_ci(d, replicates=500, seed=rep)
        for i, truth in enumerate([0.2, 0.8]):
            covered += int(result.first_ci[i, 0] <= truth <= result.first_ci[i, 1])
            covered += int(result.total_ci[i, 0] <= truth <= result.total_ci[i, 1])
            total += 2
    coverage = covered / total
    elapsed = time.perf_counter() - started
    ok = additive_ok and dummy_ok and coverage >= 0.93 and elapsed < 300.0
    _report(5, "variance-based estimator oracle", ok,
            f"S={np.round(point.first_order, 3)}, ST={np.round(point.total_order, 3)} "
            f"within 0.02; dummy ST {dummy.total_order[2]:.3f} <= 0.02; "
            f"CI coverage {coverage:.2f} >= 0.93; {elapsed:.0f}s < 300s")


def test_criterion_6_exemplar_bimodality_and_fit():
    started = time.perf_counter()
    scenario = default_scenario()
    target = scenario.target()

    n = 64
    xs = np.linspace(scenario.search_box[0, 0], scenario.search_box[0, 1], n)
    ys = np.linspace(scenario.search_box[1, 0], scenario.search_box[1, 1], n)
    grid = np.column_stack([m.ravel() for m in np.meshgrid(xs, ys, indexing="ij")])
    values = eval_log_density_batch(target, grid).reshape(n, n)
    census = 0
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            patch = values[i - 1:i + 2, j - 1:j + 2].copy()
            center = patch[1, 1]
            patch[1, 1] = -np.inf
            census += int(center > patch.max())

    report = run_gola(target, GolaConfig(n_starts=96, gradient_tol=1e-5,
                                         master_seed=0))
    n_components = report.mixture.n_components

    reference = grid_normalized_density(target, 512)
    jsd = jsd_normalized(reference, report.mixture, 8192, seed=606)

    times = np.linspace(scenario.horizon / 60.0, scenario.horizon, 60)
    pf_fit = pushforward(report.mixture, scenario.constants(), scenario.u0,
                         times, 1500, seed=607)
    pf_truth = pushforward(reference, scenario.constants(), scenario.u0,
                           times, 1500, seed=608)
    gap = np.abs(pf_fit.mean - pf_truth.mean)
    half_widths = np.maximum(0.5 * (pf_fit.hi95 - pf_fit.lo95),
                             0.5 * (pf_truth.hi95 - pf_truth.lo95))
    push_ok = bool(np.all(gap <= half_widths))
    elapsed = time.perf_counter() - started
    ok = (census >= 2 and n_components >= 2 and jsd.value <= 0.1
          and push_ok and elapsed < 900.0)
    _report(6, "exemplar bimodality and fit", ok,
            f"grid census {census} >= 2 minima; K={n_components} >= 2; "
            f"JSD {jsd.value:.3f} <= 0.1; pushforward within half-widths: "
            f"{push_ok}; {elapsed:.0f}s < 900s")


def test_criterion_7_simulation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10):
        frame = ShearFrame(
            m1=float(rng.uniform(0.5, 3.0)), m2=float(rng.uniform(0.5, 3.0)),
            k1=float(rng.uniform(0.5, 3.0)), k2=float(rng.uniform(0.5, 3.0)),
            c1=float(rng.uniform(0.0, 0.5)), c2=float(rng.uniform(0.0, 0.5)),
        )
        a = assemble_state_matrix(frame)
        u0 = rng.standard_normal(4)
        times = np.sort(rng.uniform(0.1, 25.0, size=20))
        ours = simulate(frame, u0, times)
        ref = solve_ivp(lambda t, u: a @ u, (0.0, float(times[-1])), u0,
                        t_eval=times, rtol=1e-12, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(ours - ref.y.T))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(7, "simulation oracle", ok,
            f"worst deviation {worst:.2e} <= 1e-8 at 20 probe times x 10 frames; "
            f"{elapsed:.1f}s < 10s")


def test_criterion_8_gradient_estimator_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    d = 3
    f1 = rng.standard_normal((d, d))
    s = f1 @ f1.T + d * np.eye(d)
    m = rng.standard_normal(d)
    phi = _gauss_mixture([m], [s], [1.0])
    f2 = rng.standard_normal((d, d))
    sigma = f2 @ f2.T + d * np.eye(d)
    mu = rng.standard_normal(d)
    params = from_mixture(_gauss_mixture([mu], [sigma], [1.0]))

    s_inv = np.linalg.inv(s)
    chol = np.linalg.cholesky(sigma)
    truth_mean = s_inv @ (mu - m)
    truth_chol = np.tril(s_inv @ chol - np.diag(1.0 / np.diag(chol)))
    truth_chol[np.arange(d), np.arange(d)] *= np.diag(chol)

    # 25 independent estimates of 4000 samples each: 1e5 total
    draws = []
    for seed in range(25):
        grad = score_function_gradient(params, phi.as_target(), 4000, seed)
        draws.append(np.concatenate([grad.means.ravel(), grad.chol_params.ravel()]))
    draws = np.array(draws)
    estimate = draws.mean(axis=0)
    std_err = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    truth = np.concatenate([truth_mean.ravel(), truth_chol.ravel()])
    mask = np.concatenate([np.ones(d, bool), np.tril(np.ones((d, d), bool)).ravel()])
    z = np.abs(estimate - truth)[mask] / np.maximum(std_err[mask], 1e-12)
    elapsed = time.perf_counter() - started
    ok = float(np.max(z)) <= 4.0 and elapsed < 120.0
    _report(8, "score-gradient soundness", ok,
            f"max |z| {np.max(z):.2f} <= 4 std errors at n=1e5; {elapsed:.1f}s < 120s")


def test_criterion_9_divergence_oracles():
    started = time.perf_counter()

    def gauss1(mean, var):
        return _gauss_mixture([[mean]], [[[var]]], [1.0])

    kl_cases = [
        (gauss1(0.0, 1.0), gauss1(1.0, 1.0), 0.5),
        (gauss1(0.0, 1.0), gauss1(0.0, 4.0), 0.5 * (0.25 - 1.0 + math.log(4.0))),
        (gauss1(2.0, 2.0), gauss1(0.0, 1.0),
         0.5 * (2.0 + 4.0 - 1.0 - math.log(2.0))),
    ]
    kl_ok = True
    kl_details = []
    for i, (p, q, expected) in enumerate(kl_cases):
        est = kl_mc(p, q, 10**4, seed=900 + i)
        kl_ok &= abs(est.value - expected) <= 3.0 * est.std_error
        kl_details.append(f"{est.value:.3f}~{expected:.3f}")

    p = gauss1(0.0, 1.0)
    self_est = jsd_normalized(p, p, 10**4, seed=903)
    self_ok = abs(self_est.value) <= 3.0 * self_est.std_error + 1e-12

    far_est = jsd_normalized(gauss1(0.0, 1.0), gauss1(200.0, 1.0), 10**4, seed=904)
    far_ok = abs(far_est.value - 1.0) <= 1e-3

    dice_ok = True
    for lam, delta in ((1e-2, 2.0 * math.sqrt(math.log(100.0))),
                       (1e-4, 2.0 * math.sqrt(math.log(10**4)))):
        a = GaussianComponent(np.zeros(1), np.eye(1))
        b = GaussianComponent(np.array([delta]), np.eye(1))
        dice_ok &= abs(dice_overlap(a, b) - lam) <= 1e-6
    elapsed = time.perf_counter() - started
    ok = kl_ok and self_ok and far_ok and dice_ok and elapsed < 60.0
    _report(9, "divergence oracles", ok,
            f"KL {', '.join(kl_details)} within 3 SE; self-JSD {self_est.value:.1e}; "
            f"far-pair JSD {far_est.value:.4f} within 1e-3 of 1; reference overlap "
            f"distances within 1e-6; {elapsed:.1f}s < 60s")
