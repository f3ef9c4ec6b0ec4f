"""Command-line entry point wiring the pipeline modules together.

Every run is driven by a validated configuration (JSON file and/or flags,
flags winning), executes one named command, and writes its artifacts plus
a manifest into the output directory. Mixture and report JSON files are
byte-reproducible for a fixed configuration; wall-clock and versions live
only in the manifest.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .density import (
    GaussianComponent,
    MixtureModel,
    mixture_from_dict,
    mixture_to_dict,
    random_sinh_arcsinh_mixture,
)
from .exceptions import PostmixError
from .exemplar import default_scenario, pushforward
from .gola import GolaConfig, run_gola
from .metrics import jsd_normalized
from .sensibench import (
    ACCURACY_THRESHOLD,
    FactorSpec,
    ProblemFactors,
    bootstrap_ci,
    evaluate_case,
    generate_test_gmm,
    robustness_study,
    sobol_design,
)
from .vi import ViConfig, refine

OUTPUT_DIR_ENV = "POSTMIX_OUT"

# Config keys accepted inside the sections that no dataclass mirrors; the
# top-level, gola and vi keys are the fields of RunConfig, GolaConfig and
# ViConfig (defined after RunConfig below).
_TARGET_KEYS = {"name", "mixture_json", "dim", "n_components"}
# The two keys that select the target; a config names at most one of them.
_TARGET_SELECTORS = ("name", "mixture_json")
_FACTOR_KEYS = {"preset", "d", "M", "omega", "c", "lambda"}
_EXEMPLAR_KEYS = {"c1_true", "c2_true", "n_obs", "horizon", "noise_sigma",
                  "obs_seed", "n_pushforward"}
# Flags that set a key inside a config section, as flag -> (section, key).
_SECTION_FLAGS = {"target": ("target", "name"),
                  "mixture_json": ("target", "mixture_json"),
                  "preset": ("factors", "preset")}


class ConfigError(PostmixError):
    """A configuration file or flag set failed validation."""


@dataclass
class RunConfig:
    """One fully validated pipeline invocation."""

    command: str
    seed: int = 0
    out: Optional[str] = None
    target: dict = field(default_factory=dict)
    gola: dict = field(default_factory=dict)
    vi: dict = field(default_factory=dict)
    factors: dict = field(default_factory=dict)
    exemplar: dict = field(default_factory=dict)
    init: Optional[str] = None
    reference: Optional[str] = None
    p: Optional[str] = None
    q: Optional[str] = None
    n: int = 8192
    n_cases: int = 100
    n_design: int = 1024
    replicates: int = 500
    jsd_samples: int = 4096

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


def _field_names(cls, *exclude: str) -> set:
    return {f.name for f in dataclass_fields(cls)} - set(exclude)


_TOP_KEYS = _field_names(RunConfig)
# The run's seed feeds both sections' seeds, so they are not section keys.
_GOLA_KEYS = _field_names(GolaConfig, "master_seed")
_VI_KEYS = _field_names(ViConfig, "seed")


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    for key in doc:
        if key not in allowed:
            suggestion = difflib.get_close_matches(key, allowed, n=1)
            hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
            raise ConfigError(f"unknown key {key!r} in {where}{hint}")


def parse_config(path: Optional[str] = None,
                 flags: Optional[dict] = None) -> RunConfig:
    """Merge a JSON config file with flag overrides into a RunConfig.

    Unknown keys are hard errors with a closest-match suggestion; when a
    flag conflicts with a file value, the flag wins and a notice goes to
    stderr. Flags name top-level keys, except those in ``_SECTION_FLAGS``,
    which set a key inside a section (``--target`` sets ``target.name``).
    ``--target`` and ``--mixture-json`` each replace either target selector
    in the file; a file or flag set naming both selectors is an error.
    """
    doc: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: line {exc.lineno}: {exc.msg}")
    _reject_unknown(doc, _TOP_KEYS, "config")
    for section, allowed in (("target", _TARGET_KEYS), ("gola", _GOLA_KEYS),
                             ("vi", _VI_KEYS), ("factors", _FACTOR_KEYS),
                             ("exemplar", _EXEMPLAR_KEYS)):
        if section in doc:
            if not isinstance(doc[section], dict):
                raise ConfigError(f"config section {section!r} must be an object")
            _reject_unknown(doc[section], allowed, f"config section {section!r}")
    if all(key in doc.get("target", {}) for key in _TARGET_SELECTORS):
        raise ConfigError("config section 'target' names both 'name' and "
                          "'mixture_json'; keep one")

    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    if "target" in flags and "mixture_json" in flags:
        raise ConfigError("give --target or --mixture-json, not both")
    for flag, value in flags.items():
        section, key = _SECTION_FLAGS.get(flag, (None, flag))
        dest = doc.setdefault(section, {}) if section else doc
        # A target flag replaces whichever selector the file names.
        for old_key in _TARGET_SELECTORS if section == "target" else (key,):
            old = dest.pop(old_key, None)
            if old is not None and (old_key, old) != (key, value) and key != "command":
                print(f"notice: flag --{flag.replace('_', '-')}={value!r} overrides "
                      f"config value {old!r}", file=sys.stderr)
        dest[key] = value

    if "command" not in doc:
        raise ConfigError("no command given")
    if doc["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {doc['command']!r}; "
                          f"expected one of {', '.join(COMMANDS)}")
    if doc.get("out") is None and os.environ.get(OUTPUT_DIR_ENV):
        doc["out"] = os.environ[OUTPUT_DIR_ENV]

    cfg = RunConfig(**{k: v for k, v in doc.items()})
    for name in ("init", "reference", "p", "q"):
        value = getattr(cfg, name)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"--{name} path does not exist: {value}")
    if cfg.target.get("mixture_json") and not Path(cfg.target["mixture_json"]).exists():
        raise ConfigError(
            f"target mixture_json does not exist: {cfg.target['mixture_json']}"
        )
    return cfg


def _json_dump(doc: dict, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _load_mixture(path: str) -> MixtureModel:
    with open(path) as handle:
        return mixture_from_dict(json.load(handle))


def _gola_config(cfg: RunConfig, **overrides) -> GolaConfig:
    kwargs = dict(cfg.gola)
    kwargs.setdefault("master_seed", cfg.seed)
    kwargs.update(overrides)
    return GolaConfig(**kwargs)


def _vi_config(cfg: RunConfig) -> ViConfig:
    kwargs = dict(cfg.vi)
    kwargs.setdefault("seed", cfg.seed)
    return ViConfig(**kwargs)


def _build_target(cfg: RunConfig):
    """Resolve the target section into an UnnormalizedTarget."""
    spec = cfg.target
    if spec.get("mixture_json"):
        return _load_mixture(spec["mixture_json"]).as_target()
    name = spec.get("name")
    if name == "gauss2d":
        comp = GaussianComponent(
            np.array([1.0, -0.5]),
            np.linalg.cholesky(np.array([[1.5, 0.4], [0.4, 0.8]])),
        )
        return MixtureModel((comp,), np.ones(1)).as_target()
    if name == "sinh":
        mixture = random_sinh_arcsinh_mixture(
            int(spec.get("dim", 15)), int(spec.get("n_components", 2)), cfg.seed,
        )
        return mixture.as_target()
    raise ConfigError(
        "target requires either mixture_json or a built-in name "
        "('gauss2d' or 'sinh')"
    )


def _factor_spec(cfg: RunConfig) -> FactorSpec:
    doc = dict(cfg.factors)
    preset = doc.pop("preset", "broad")
    if preset == "broad":
        spec = FactorSpec.broad()
    elif preset == "hard":
        spec = FactorSpec.hard()
    else:
        raise ConfigError(f"unknown factors preset {preset!r}")
    kwargs = {}
    mapping = {"d": "d_range", "M": "m_range", "omega": "omega_range",
               "c": "corr_range", "lambda": "overlap_range"}
    for key, attr in mapping.items():
        if key in doc:
            pair = doc[key]
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(type(v) in (int, float) for v in pair)):
                raise ConfigError(f"factors.{key} must be a [low, high] pair "
                                  f"of numbers, got {pair!r}")
            kwargs[attr] = tuple(pair)
    if kwargs:
        from dataclasses import replace
        spec = replace(spec, **kwargs)
    return spec


def _cmd_fit(cfg: RunConfig, out: Path) -> list[str]:
    target = _build_target(cfg)
    report = run_gola(target, _gola_config(cfg))
    _json_dump(mixture_to_dict(report.mixture), out / "mixture.json")
    _json_dump(report.to_dict(), out / "gola_report.json")
    return ["mixture.json", "gola_report.json"]


def _cmd_refine(cfg: RunConfig, out: Path) -> list[str]:
    target = _build_target(cfg)
    if cfg.init:
        init = _load_mixture(cfg.init)
    else:
        report = run_gola(target, _gola_config(cfg))
        init = report.mixture
    reference = _load_mixture(cfg.reference) if cfg.reference else None
    refined, trace = refine(init, target, _vi_config(cfg), reference)
    _json_dump(mixture_to_dict(refined), out / "mixture.json")
    trace.to_csv(out / "vi_trace.csv")
    return ["mixture.json", "vi_trace.csv"]


def _cmd_eval(cfg: RunConfig, out: Optional[Path]) -> list[str]:
    if not (cfg.p and cfg.q):
        raise ConfigError("eval needs --p and --q mixture paths")
    p = _load_mixture(cfg.p)
    q = _load_mixture(cfg.q)
    if p.dim != q.dim:
        raise ConfigError(f"mixture dimensions differ: {p.dim} vs {q.dim}")
    est = jsd_normalized(p, q, cfg.n, cfg.seed)
    doc = {"jsd": est.value, "std_error": est.std_error, "n": est.n_samples}
    print(json.dumps(doc))
    if out is not None:
        _json_dump(doc, out / "jsd.json")
        return ["jsd.json"]
    return []


def _cmd_robustness(cfg: RunConfig, out: Path) -> list[str]:
    spec = _factor_spec(cfg)
    table = robustness_study(spec, cfg.n_cases, _gola_config(cfg),
                             cfg.jsd_samples, cfg.seed)
    table.to_csv(out / "robustness.csv")
    _json_dump({"fraction_below_threshold": table.fraction_below(),
                "threshold": ACCURACY_THRESHOLD,
                "mean_Y": table.mean_score()}, out / "robustness_summary.json")
    return ["robustness.csv", "robustness_summary.json"]


def _cmd_sensitivity(cfg: RunConfig, out: Path) -> list[str]:
    spec = _factor_spec(cfg)
    gola_cfg = _gola_config(cfg)

    def model(row: np.ndarray) -> float:
        factors = ProblemFactors(
            d=int(row[0]), n_components=int(row[1]), weight_decay=float(row[2]),
            correlation=float(row[3]), max_overlap=float(row[4]),
        )
        case_seed = int(np.random.SeedSequence(
            [cfg.seed, int(row[0]), int(row[1]),
             int(1e9 * row[2]), int(1e9 * row[3]), int(1e12 * row[4])]
        ).generate_state(1)[0])
        score, _ = evaluate_case(factors, gola_cfg, cfg.jsd_samples, case_seed)
        return score

    design = sobol_design(spec.factors(), cfg.n_design, cfg.seed, model)
    result = bootstrap_ci(design, cfg.replicates, seed=cfg.seed)
    result.to_csv(out / "sensitivity.csv")
    return ["sensitivity.csv"]


def _cmd_exemplar(cfg: RunConfig, out: Path) -> list[str]:
    from dataclasses import replace as dc_replace

    from .exemplar import ShearFrame

    scenario = default_scenario()
    doc = dict(cfg.exemplar)
    if doc:
        frame = scenario.frame_true
        frame = ShearFrame(frame.m1, frame.m2, frame.k1, frame.k2,
                           float(doc.get("c1_true", frame.c1)),
                           float(doc.get("c2_true", frame.c2)))
        scenario = dc_replace(
            scenario, frame_true=frame,
            n_obs=int(doc.get("n_obs", scenario.n_obs)),
            horizon=float(doc.get("horizon", scenario.horizon)),
            noise_sigma=float(doc.get("noise_sigma", scenario.noise_sigma)),
            obs_seed=int(doc.get("obs_seed", scenario.obs_seed)),
        )
    obs = scenario.observations()
    obs.to_csv(out / "observations.csv")
    _json_dump(obs.sidecar_dict(scenario.frame_true), out / "observations.json")

    target = scenario.target()
    gola_cfg = _gola_config(cfg, gradient_tol=cfg.gola.get("gradient_tol", 1e-5),
                            n_starts=cfg.gola.get("n_starts", 96))
    report = run_gola(target, gola_cfg)
    _json_dump(mixture_to_dict(report.mixture), out / "mixture.json")
    _json_dump(report.to_dict(), out / "gola_report.json")

    times = np.linspace(scenario.horizon / 100.0, scenario.horizon, 100)
    n_push = int(cfg.exemplar.get("n_pushforward", 2000))
    summary = pushforward(report.mixture, scenario.constants(), scenario.u0,
                          times, n_push, cfg.seed)
    summary.to_csv(out / "pushforward.csv")
    return ["observations.csv", "observations.json", "mixture.json",
            "gola_report.json", "pushforward.csv"]


def _cmd_generate(cfg: RunConfig, out: Path) -> list[str]:
    # a collapsed [v, v] range in the config pins its factor
    factors = _factor_spec(cfg).sample(np.random.default_rng(cfg.seed))
    mixture = generate_test_gmm(factors, cfg.seed)
    _json_dump(mixture_to_dict(mixture), out / "mixture.json")
    return ["mixture.json"]


_RUNNERS = {
    "fit": _cmd_fit,
    "refine": _cmd_refine,
    "eval": _cmd_eval,
    "robustness": _cmd_robustness,
    "sensitivity": _cmd_sensitivity,
    "exemplar": _cmd_exemplar,
    "generate": _cmd_generate,
}
COMMANDS = tuple(_RUNNERS)


def run(cfg: RunConfig) -> int:
    """Execute the configured command; returns the process exit status.

    Artifacts land in the output directory along with a run manifest
    (config echo, seed, versions, wall-clock). Failures produce an
    error.json and a nonzero status instead of a traceback.
    """
    out: Optional[Path] = None
    try:
        if cfg.command != "eval" or cfg.out is not None:
            if cfg.out is None:
                raise ConfigError(f"command {cfg.command!r} needs --out DIR")
            out = Path(cfg.out)
            out.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        artifacts = _RUNNERS[cfg.command](cfg, out)
        if out is not None:
            import scipy

            manifest = {
                "config": cfg.echo(),
                "seed": cfg.seed,
                "versions": {"postmix": __version__,
                             "numpy": np.__version__,
                             "scipy": scipy.__version__},
                "wall_clock_seconds": time.perf_counter() - started,
                "artifacts": artifacts,
            }
            _json_dump(manifest, out / "run_manifest.json")
        return 0
    except (PostmixError, ValueError, OSError) as exc:
        error_doc = {"error": type(exc).__name__, "message": str(exc)}
        if out is not None:
            _json_dump(error_doc, out / "error.json")
        print(json.dumps(error_doc), file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postmix",
        description="Gaussian-mixture approximations to multimodal posteriors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", help=f"output directory (or ${OUTPUT_DIR_ENV})")
        if name in ("fit", "refine"):
            cmd.add_argument("--target", help="built-in target name")
            cmd.add_argument("--mixture-json", dest="mixture_json",
                             help="mixture JSON file used as the target density")
        if name == "refine":
            cmd.add_argument("--init", help="initial mixture JSON")
            cmd.add_argument("--reference", help="reference mixture for JSD logging")
        if name == "eval":
            cmd.add_argument("--p", help="first mixture JSON")
            cmd.add_argument("--q", help="second mixture JSON")
            cmd.add_argument("--n", type=int, help="Monte Carlo sample count")
        if name == "robustness":
            cmd.add_argument("--n-cases", dest="n_cases", type=int)
            cmd.add_argument("--preset", choices=("broad", "hard"))
        if name == "sensitivity":
            cmd.add_argument("--n-design", dest="n_design", type=int)
            cmd.add_argument("--replicates", type=int)
            cmd.add_argument("--preset", choices=("broad", "hard"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    try:
        cfg = parse_config(flags.pop("config"), flags)
    except ConfigError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
