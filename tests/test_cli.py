import dataclasses
import json
import math
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from postmix import cli
from postmix.cli import ConfigError, OUTPUT_DIR_ENV, main, parse_config
from postmix.density import mixture_from_dict
from postmix.exemplar import default_scenario, pushforward
from postmix.exceptions import check_fields
from postmix.gola import GolaConfig
from postmix.vi import ViConfig

DATA = Path(__file__).parent / "data"

# normalized JSD of the checked-in regression pair, from 1-d adaptive
# quadrature of both Kullback-Leibler terms against the 50/50 mixture
PINNED_REGRESSION_JSD = 0.03735233357582707


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestParseConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = parse_config(None, {"command": "fit", "out": str(tmp_path)})
        assert cfg.seed == 0

    def test_unknown_key_suggestion(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gola": {"n_stars": 4}}))
        with pytest.raises(ConfigError, match="n_starts"):
            parse_config(str(path), {"command": "fit"})

    @pytest.mark.parametrize("doc, key", [({"workers": 2}, "workers"),
                                          ({"vi": {"baseline": False}}, "baseline"),
                                          ({"vi": {"beta1": 0.9}}, "beta1"),
                                          ({"vi": {"beta2": 0.999}}, "beta2"),
                                          ({"gola": {"dedup_threshold": 0.01}},
                                           "dedup_threshold"),
                                          ({"gola": {"max_local_iters": 500}},
                                           "max_local_iters"),
                                          ({"gola": {"n_weight_samples": 4096}},
                                           "n_weight_samples"),
                                          ({"target": {"separation": 6.0}},
                                           "separation")])
    def test_retired_keys_rejected(self, tmp_path, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(str(path), {"command": "fit"})

    def test_workers_flag_retired(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--target", "gauss2d", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_section_keys_are_config_fields(self):
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert cli._GOLA_KEYS == names(GolaConfig) - {"master_seed"}
        assert cli._VI_KEYS == names(ViConfig) - {"seed"}
        assert cli._TOP_KEYS == names(cli.RunConfig)

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sede": 3}))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(str(path), {"command": "fit"})

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3}))
        cfg = parse_config(str(path), {"command": "fit", "seed": 7})
        assert cfg.seed == 7
        assert "overrides" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/cfg.json", {"command": "fit"})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": }')
        with pytest.raises(ConfigError, match="line"):
            parse_config(str(path), {"command": "fit"})

    @pytest.mark.parametrize("doc", [[], 3, None, "fit"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="must be a JSON object"):
            parse_config(str(path), {"command": "fit"})
        assert main(["fit", "--config", str(path)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(None, {"command": "fitt"})

    def test_missing_reference_path(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(None, {"command": "refine", "reference": "/no/such.json"})

    def test_env_var_supplies_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        cfg = parse_config(None, {"command": "fit"})
        assert cfg.out == str(tmp_path)


def _main_config(monkeypatch, argv):
    """The RunConfig that ``main`` hands to ``run`` for these arguments."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    return seen[0]


class TestSectionFlagOverrides:
    def test_target_flag_overrides_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"name": "sinh", "dim": 3}}))
        cfg = _main_config(monkeypatch, ["fit", "--config", str(path),
                                         "--target", "gauss2d"])
        assert cfg.target == {"name": "gauss2d", "dim": 3}
        assert "--target='gauss2d' overrides config value 'sinh'" in capsys.readouterr().err

    def test_mixture_json_flag_overrides_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"mixture_json": str(DATA / "mixture_q.json")}}))
        flag = str(DATA / "mixture_p.json")
        cfg = _main_config(monkeypatch, ["refine", "--config", str(path),
                                         "--mixture-json", flag])
        assert cfg.target == {"mixture_json": flag}
        assert "--mixture-json=" in capsys.readouterr().err

    def test_preset_flag_overrides_file(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"factors": {"preset": "hard", "d": [2, 3]}}))
        cfg = _main_config(monkeypatch, ["robustness", "--config", str(path),
                                         "--preset", "broad"])
        assert cfg.factors == {"preset": "broad", "d": [2, 3]}
        assert "--preset='broad' overrides config value 'hard'" in capsys.readouterr().err

    def test_target_flag_replaces_file_mixture_json(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        mixture = str(DATA / "mixture_p.json")
        path.write_text(json.dumps({"target": {"mixture_json": mixture}}))
        cfg = _main_config(monkeypatch, ["fit", "--config", str(path),
                                         "--target", "gauss2d"])
        assert cfg.target == {"name": "gauss2d"}
        assert cli._build_target(cfg).dim == 2
        assert (f"--target='gauss2d' overrides config value {mixture!r}"
                in capsys.readouterr().err)

    def test_mixture_json_flag_replaces_file_name(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"name": "gauss2d"}}))
        flag = str(DATA / "mixture_p.json")
        cfg = _main_config(monkeypatch, ["fit", "--config", str(path),
                                         "--mixture-json", flag])
        assert cfg.target == {"mixture_json": flag}
        assert cli._build_target(cfg).dim == 1
        assert "overrides config value 'gauss2d'" in capsys.readouterr().err

    def test_file_naming_both_selectors_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"name": "gauss2d",
                                               "mixture_json": str(DATA / "mixture_p.json")}}))
        with pytest.raises(ConfigError, match="names both"):
            parse_config(str(path), {"command": "fit"})

    def test_both_selector_flags_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(None, {"command": "fit", "target": "gauss2d",
                                "mixture_json": str(DATA / "mixture_p.json")})


class TestFitCommand:
    def test_gauss2d_exact_recovery(self, tmp_path):
        code = main(["fit", "--target", "gauss2d", "--out", str(tmp_path),
                     "--seed", "3"])
        assert code == 0
        mixture = mixture_from_dict(_read_json(tmp_path / "mixture.json"))
        assert mixture.n_components == 1
        np.testing.assert_allclose(mixture.components[0].mean, [1.0, -0.5],
                                   atol=1e-6)
        np.testing.assert_allclose(mixture.components[0].cov,
                                   [[1.5, 0.4], [0.4, 0.8]], atol=1e-6)
        report = _read_json(tmp_path / "gola_report.json")
        assert report["evidence"] == pytest.approx(1.0, rel=0.01)
        manifest = _read_json(tmp_path / "run_manifest.json")
        assert manifest["seed"] == 3
        assert "mixture.json" in manifest["artifacts"]
        assert manifest["wall_clock_seconds"] > 0

    def test_byte_identical_reruns(self, tmp_path):
        main(["fit", "--target", "gauss2d", "--out", str(tmp_path / "a"),
              "--seed", "5"])
        main(["fit", "--target", "gauss2d", "--out", str(tmp_path / "b"),
              "--seed", "5"])
        for name in ("mixture.json", "gola_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_sinh_target_from_a_config(self, tmp_path):
        # the built-in sinh-arcsinh target, sized by its config keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": {"name": "sinh", "dim": 3, "n_components": 2},
            "gola": {"n_starts": 32, "gradient_tol": 1e-6}}))
        for run in ("a", "b"):
            assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
        mixture = mixture_from_dict(_read_json(tmp_path / "a" / "mixture.json"))
        assert (mixture.dim, mixture.n_components) == (3, 2)
        for name in ("mixture.json", "gola_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_error_json_on_failure(self, tmp_path):
        code = main(["fit", "--out", str(tmp_path)])  # no target given
        assert code == 1
        err = _read_json(tmp_path / "error.json")
        assert err["error"] == "ConfigError"

    def test_exit_zero_only_with_artifacts(self, tmp_path):
        code = main(["fit", "--target", "gauss2d", "--out", str(tmp_path)])
        assert code == 0
        for name in ("mixture.json", "gola_report.json", "run_manifest.json"):
            assert (tmp_path / name).exists()


class TestEvalCommand:
    def test_self_comparison_near_zero(self, tmp_path, capsys):
        code = main(["eval", "--p", str(DATA / "mixture_p.json"),
                     "--q", str(DATA / "mixture_p.json"),
                     "--n", "4000", "--seed", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert abs(doc["jsd"]) <= 3.0 * doc["std_error"] + 1e-12

    def test_far_pair_near_one(self, tmp_path, capsys):
        far = {"dim": 1, "weights": [1.0],
               "components": [{"mean": [500.0], "chol_cov_rowmajor_lower": [1.0]}]}
        p = tmp_path / "far.json"
        p.write_text(json.dumps(far))
        code = main(["eval", "--p", str(DATA / "mixture_p.json"),
                     "--q", str(p), "--n", "4000", "--seed", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["jsd"] == pytest.approx(1.0, abs=1e-3)

    def test_regression_pair_matches_pinned_oracle(self, capsys):
        code = main(["eval", "--p", str(DATA / "mixture_p.json"),
                     "--q", str(DATA / "mixture_q.json"),
                     "--n", "20000", "--seed", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert abs(doc["jsd"] - PINNED_REGRESSION_JSD) <= 3.0 * doc["std_error"]

    def test_out_writes_the_estimate_and_a_manifest(self, tmp_path, capsys):
        code = main(["eval", "--p", str(DATA / "mixture_p.json"),
                     "--q", str(DATA / "mixture_q.json"), "--n", "1000",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = _read_json(tmp_path / "jsd.json")
        assert doc == json.loads(capsys.readouterr().out.strip())
        assert doc["n"] == 1000
        assert _read_json(tmp_path / "run_manifest.json")["artifacts"] == ["jsd.json"]

    def test_missing_mixture_paths_is_a_config_error(self, tmp_path):
        code = main(["eval", "--p", str(DATA / "mixture_p.json"), "--out", str(tmp_path)])
        assert code == 1
        err = _read_json(tmp_path / "error.json")
        assert err["error"] == "ConfigError"
        assert "--p and --q" in err["message"]

    def test_dimension_mismatch_fails(self, tmp_path, capsys):
        two_d = {"dim": 2, "weights": [1.0],
                 "components": [{"mean": [0.0, 0.0],
                                 "chol_cov_rowmajor_lower": [1.0, 0.0, 1.0]}]}
        p = tmp_path / "2d.json"
        p.write_text(json.dumps(two_d))
        code = main(["eval", "--p", str(DATA / "mixture_p.json"), "--q", str(p)])
        assert code == 1
        assert "dimensions differ" in capsys.readouterr().err

    def test_one_sample_rejected(self, capsys):
        # one draw has no sample variance, so no standard error to report
        code = main(["eval", "--p", str(DATA / "mixture_p.json"),
                     "--q", str(DATA / "mixture_q.json"), "--n", "1"])
        assert code == 1
        assert "n must be at least 2" in capsys.readouterr().err


_GOOD_MIXTURE = {"dim": 1, "weights": [1.0],
                 "components": [{"mean": [0.0], "chol_cov_rowmajor_lower": [1.0]}]}


def _without(key):
    doc = json.loads(json.dumps(_GOOD_MIXTURE))
    if key in doc:
        del doc[key]
    else:
        del doc["components"][0][key]
    return doc


class TestMalformedMixtureJson:
    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("doc, message", [
        pytest.param(_without(key), repr(key), id=f"no-{key}")
        for key in ("components", "weights", "dim", "chol_cov_rowmajor_lower", "mean")
    ] + [
        pytest.param({**_GOOD_MIXTURE,
                      "components": [{"mean": 0.0, "chol_cov_rowmajor_lower": [1.0]}]},
                     "inconsistent shapes", id="scalar-mean"),
        pytest.param({**_GOOD_MIXTURE, "dim": None}, "malformed", id="null-dim"),
        pytest.param({**_GOOD_MIXTURE, "components": 5}, "malformed",
                     id="scalar-components"),
        pytest.param({**_GOOD_MIXTURE,
                      "components": [{"mean": [0.0], "chol_cov_rowmajor_lower": 1.0}]},
                     "malformed", id="scalar-cholesky"),
        pytest.param([], "malformed", id="list-document"),
        # JSON's NaN and Infinity literals used to become a NaN result, exit 0
        pytest.param({**_GOOD_MIXTURE,
                      "components": [{"mean": [math.nan], "chol_cov_rowmajor_lower": [1.0]}]},
                     "must be finite", id="nan-mean"),
        pytest.param({**_GOOD_MIXTURE,
                      "components": [{"mean": [0.0], "chol_cov_rowmajor_lower": [math.inf]}]},
                     "must be finite", id="infinite-cholesky"),
        pytest.param({"dim": 1, "weights": [math.nan, 1.0],
                      "components": 2 * _GOOD_MIXTURE["components"]},
                     "weights must lie in [0, 1]", id="nan-weight"),
    ])
    def test_error_json_names_the_fault(self, tmp_path, command, doc, message):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(doc))
        inputs = (["--mixture-json", str(path)] if command == "fit"
                  else ["--p", str(path), "--q", str(path)])
        out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert message in err["message"]


class TestRefineCommand:
    def test_reference_populates_jsd_column(self, tmp_path):
        fit_dir = tmp_path / "fit"
        main(["fit", "--target", "gauss2d", "--out", str(fit_dir), "--seed", "1"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": {"name": "gauss2d"},
            "vi": {"max_epochs": 6, "n_mc_samples": 32, "report_interval": 2,
                   "jsd_samples": 512},
        }))
        out = tmp_path / "refine"
        code = main(["refine", "--config", str(cfg),
                     "--init", str(fit_dir / "mixture.json"),
                     "--reference", str(fit_dir / "mixture.json"),
                     "--out", str(out), "--seed", "2"])
        assert code == 0
        lines = (out / "vi_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,elapsed_seconds,neg_elbo,jsd"
        populated = [l for l in lines[1:] if not l.endswith(",")]
        assert len(populated) == 3  # epochs 0, 2, 4

    def test_refine_without_init_runs_fit_first(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": {"name": "gauss2d"},
            "vi": {"max_epochs": 3, "n_mc_samples": 16},
        }))
        out = tmp_path / "out"
        assert main(["refine", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "mixture.json").exists()

    def test_manifest_reports_a_diverged_run(self, tmp_path):
        # a diverged refinement still exits 0 with its best iterate, so the
        # manifest is where it shows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": {"name": "gauss2d"},
            "vi": {"max_epochs": 40, "n_mc_samples": 16, "step_size": 50.0},
        }))
        out = tmp_path / "out"
        assert main(["refine", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        manifest = _read_json(out / "run_manifest.json")
        assert manifest["diagnostics"] == {"diverged": True, "support_violations": 0,
                                           "best_epoch": 0}

    @pytest.mark.parametrize("key", ["report_interval", "max_epochs"])
    def test_zero_count_rejected(self, tmp_path, key):
        fit_dir = tmp_path / "fit"
        main(["fit", "--target", "gauss2d", "--out", str(fit_dir)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target": {"name": "gauss2d"},
            "vi": {"max_epochs": 3, "n_mc_samples": 16, key: 0},
        }))
        out = tmp_path / "out"
        assert main(["refine", "--config", str(cfg),
                     "--init", str(fit_dir / "mixture.json"),
                     "--reference", str(fit_dir / "mixture.json"),
                     "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert key in err["message"]
        assert not (out / "vi_trace.csv").exists()


class TestIntegerConfigValues:
    @pytest.mark.parametrize("command, doc, key", [
        ("fit", {"target": {"name": "sinh", "dim": 2.5}}, "target.dim"),
        ("fit", {"target": {"name": "sinh", "dim": True}}, "target.dim"),
        ("fit", {"target": {"name": "gauss2d"}, "gola": {"n_starts": 2.5}}, "n_starts"),
        ("fit", {"target": {"name": "gauss2d"}, "gola": {"n_starts": "8"}}, "n_starts"),
        ("fit", {"target": {"name": "gauss2d"}, "seed": 1.5}, "seed"),
        ("refine", {"target": {"mixture_json": str(DATA / "mixture_p.json")},
                    "vi": {"max_epochs": 2.5}}, "max_epochs"),
        # a typed section key is checked even where the command ignores it
        ("fit", {"target": {"name": "gauss2d", "dim": "x"}}, "target.dim"),
        ("fit", {"target": {"name": "gauss2d"}, "exemplar": {"n_obs": 6.5}},
         "exemplar.n_obs"),
    ])
    def test_non_integer_rejected(self, tmp_path, command, doc, key):
        # a fraction or a bool must not be truncated into a different problem
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "refine":
            argv += ["--init", str(DATA / "mixture_p.json")]
        assert main(argv) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert f"{key} must be an integer" in err["message"]
        assert not (out / "mixture.json").exists()


class TestTargetCounts:
    @pytest.mark.parametrize("key", ["dim", "n_components"])
    def test_zero_count_rejected(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": {"name": "sinh", key: 0}}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert f"target.{key}" in err["message"]
        assert "at least 1" in err["message"]

    def test_floor_checked_where_the_target_ignores_it(self, tmp_path):
        # gauss2d has a fixed dimension, but the section is still checked
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": {"name": "gauss2d", "dim": 0}}))
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["message"] == "target.dim must be at least 1, got 0"


class TestPathConfigValues:
    @pytest.mark.parametrize("command, doc, key", [
        ("fit", {"out": 5}, "out"),
        ("fit", {"out": ["a"]}, "out"),
        ("refine", {"init": 5}, "init"),
        ("refine", {"reference": 5}, "reference"),
        ("eval", {"p": 7}, "p"),
        ("eval", {"q": 7}, "q"),
        ("fit", {"target": {"mixture_json": 5}}, "target.mixture_json"),
    ])
    def test_non_string_path_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                               command, doc, key):
        # a number or a list must not die in a traceback where a Path is built
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{key} must be a string")


def _typed_fields():
    """(config class, field name, base type) of every field the checker types."""
    found = []
    for cls in (GolaConfig, ViConfig, cli.RunConfig):
        for f in dataclasses.fields(cls):
            base = f.type.removeprefix("Optional[").removesuffix("]")
            if base in ("int", "float", "str"):
                found.append((cls, f.name, base))
    return found


def _check_config(cls, **changes):
    """Put ``cls`` with ``changes`` through the checker, as its construction
    (or, for a RunConfig, ``cli.run``) does."""
    if cls is cli.RunConfig:
        cfg = cli.RunConfig(**{"command": "fit", **changes})
        check_fields(vars(cfg), cli.RunConfig.__annotations__)
    else:
        cls(**changes)


_WRONG_VALUES = {
    "int": st.text() | st.floats().filter(lambda x: not x.is_integer()),
    "float": st.text() | st.sampled_from([math.nan, math.inf, -math.inf]),
    "str": st.integers() | st.floats(),
}


class TestConfigFieldTypes:
    def test_every_type_is_covered(self):
        assert {base for _, _, base in _typed_fields()} == set(_WRONG_VALUES)

    @given(st.data())
    def test_wrong_value_names_its_field(self, data):
        # a bool is no number and no string
        cls, name, base = data.draw(st.sampled_from(_typed_fields()))
        value = data.draw(st.booleans() | _WRONG_VALUES[base])
        with pytest.raises(ValueError, match=f"^{name} must be "):
            _check_config(cls, **{name: value})

    @pytest.mark.parametrize("cls", [GolaConfig, ViConfig, cli.RunConfig])
    def test_default_instance_passes(self, cls):
        _check_config(cls)


class TestRealConfigValues:
    @pytest.mark.parametrize("command, doc, key", [
        ("fit", {"target": {"name": "gauss2d"}, "gola": {"gradient_tol": "1e-8"}},
         "gradient_tol"),
        ("fit", {"target": {"name": "gauss2d"}, "gola": {"gradient_tol": True}},
         "gradient_tol"),
        ("fit", {"target": {"name": "gauss2d"}, "gola": {"gradient_tol": math.nan}},
         "gradient_tol"),
        ("refine", {"target": {"mixture_json": str(DATA / "mixture_p.json")},
                    "vi": {"step_size": "0.01"}}, "step_size"),
        ("exemplar", {"exemplar": {"horizon": True}}, "exemplar.horizon"),
        ("exemplar", {"exemplar": {"c1_true": "0.1"}}, "exemplar.c1_true"),
        ("exemplar", {"exemplar": {"noise_sigma": None}}, "exemplar.noise_sigma"),
    ])
    def test_non_real_rejected(self, tmp_path, command, doc, key):
        # a string must not die in a traceback, nor a bool pass as 1.0, nor
        # a NaN tolerance leave every search unable to converge
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "refine":
            argv += ["--init", str(DATA / "mixture_p.json")]
        assert main(argv) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert f"{key} must be a finite real number" in err["message"]
        assert not (out / "mixture.json").exists()


class TestEverySectionChecked:
    @pytest.mark.parametrize("command, doc, error, message", [
        ("fit", {"target": {"name": "gauss2d"},
                 "vi": {"step_size": "x", "max_epochs": 2.5}},
         "ValueError", "step_size must be a finite real number"),
        ("generate", {"gola": {"gradient_tol": "x"}},
         "ValueError", "gradient_tol must be a finite real number"),
        ("fit", {"target": {"name": "gauss2d"}, "factors": {"d": "x", "preset": "nope"}},
         "ConfigError", "unknown factors preset 'nope'"),
        ("refine", {"target": {"name": "gauss2d"}, "vi": {"step_size": "x"}},
         "ValueError", "step_size must be a finite real number"),
    ])
    def test_unused_section_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                     command, doc, error, message):
        # the README promises each key is checked even where the command
        # does not use it; refine without --init would fit first
        for name in ("run_gola", "generate_test_gmm"):
            monkeypatch.setattr(cli, name,
                                lambda *args, name=name: pytest.fail(f"{name} ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == error
        assert message in err["message"]
        assert [path.name for path in out.iterdir()] == ["error.json"]


class TestGenerateCommand:
    def test_writes_valid_mixture(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "factors": {"d": [2, 2], "M": [3, 3], "omega": [1.5, 1.5],
                        "c": [0.2, 0.2], "lambda": [0.003, 0.003]},
        }))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", "4"]) == 0
        mixture = mixture_from_dict(_read_json(out / "mixture.json"))
        assert mixture.n_components == 3
        np.testing.assert_allclose(mixture.weights,
                                   np.array([9.0, 6.0, 4.0]) / 19.0, rtol=1e-9)

    def _generate(self, tmp_path, factors, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"factors": factors}))
        out = tmp_path / f"out{seed}"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        return mixture_from_dict(_read_json(out / "mixture.json"))

    def test_factor_ranges_are_sampled(self, tmp_path):
        # the draws of FactorSpec(d_range=(2, 6), m_range=(2, 4)).sample
        # under default_rng(seed), not the low end of each range
        shapes = []
        for seed in range(5):
            mixture = self._generate(tmp_path, {"d": [2, 6], "M": [2, 4]}, seed)
            shapes.append((mixture.dim, mixture.n_components))
        assert shapes == [(6, 3), (4, 3), (6, 2), (6, 2), (5, 4)]

    def test_collapsed_range_pins_its_factor(self, tmp_path):
        shapes = {(m.dim, m.n_components) for m in (
            self._generate(tmp_path, {"d": [3, 3], "M": [2, 4]}, seed)
            for seed in range(5))}
        assert {d for d, _ in shapes} == {3}
        assert len(shapes) > 1

    def test_hard_preset_draws_from_its_ranges(self, tmp_path):
        for seed in range(3):
            mixture = self._generate(tmp_path, {"preset": "hard"}, seed)
            assert 8 <= mixture.dim <= 10 and 3 <= mixture.n_components <= 4

    def test_one_component_sits_at_the_origin(self, tmp_path):
        mixture = self._generate(tmp_path, {"M": [1, 1]}, 3)
        assert mixture.n_components == 1 and mixture.weights.tolist() == [1.0]
        assert not mixture.components[0].mean.any()

    def _generate_error(self, tmp_path, factors):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"factors": factors}))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        return _read_json(out / "error.json")

    @pytest.mark.parametrize("value", [5, [2], [2, 3, 4], ["2", 3], [True, 3]])
    def test_malformed_factor_range_names_its_key(self, tmp_path, value):
        err = self._generate_error(tmp_path, {"d": value})
        assert err["error"] == "ConfigError"
        assert "factors.d" in err["message"]

    def test_reversed_omega_range_rejected(self, tmp_path):
        err = self._generate_error(tmp_path, {"omega": [2.0, 0.5]})
        assert err["error"] == "ValueError"
        assert "omega" in err["message"]

    @pytest.mark.parametrize("factors, name", [({"d": [2.5, 6]}, "d_range"),
                                               ({"M": [2, 3.5]}, "m_range")])
    def test_fractional_integer_range_rejected(self, tmp_path, factors, name):
        # rng.integers would truncate 2.5 and draw d = 2, below the range
        err = self._generate_error(tmp_path, factors)
        assert err["error"] == "ValueError"
        assert name in err["message"]

    def test_three_means_on_a_line_is_a_generation_error(self, tmp_path):
        err = self._generate_error(tmp_path, {"d": [1, 1], "M": [3, 3]})
        assert err["error"] == "GenerationError"


class TestRobustnessCommand:
    def test_small_study_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "factors": {"preset": "broad", "d": [2, 3]},
            "gola": {"n_starts": 32},
            "n_cases": 4,
            "jsd_samples": 1024,
        }))
        out = tmp_path / "out"
        assert main(["robustness", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "robustness.csv").read_text().strip().splitlines()
        assert lines[0] == "case,d,M,omega,c,lambda,Y,status"
        assert len(lines) == 5
        summary = _read_json(out / "robustness_summary.json")
        assert 0.0 <= summary["fraction_below_threshold"] <= 1.0
        assert summary["threshold"] == 0.05

    def test_zero_cases_rejected(self, tmp_path):
        out = tmp_path / "out"
        assert main(["robustness", "--n-cases", "0", "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "n_cases" in err["message"]
        assert not (out / "robustness_summary.json").exists()

    def test_ungeneratable_cases_score_worst(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"factors": {"d": [1, 1], "M": [3, 3]},
                                   "n_cases": 2}))
        out = tmp_path / "out"
        assert main(["robustness", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "robustness.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[-2:] for row in rows] == [["1.0", "GenerationError"]] * 2


class TestSensitivityCommand:
    def test_small_design_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "factors": {"preset": "broad", "d": [2, 3], "M": [2, 3]},
            "gola": {"n_starts": 16},
            "n_design": 4,
            "replicates": 100,
            "jsd_samples": 512,
        }))
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sensitivity.csv").read_text().strip().splitlines()
        assert lines[0] == "factor,S,S_lo,S_hi,ST,ST_lo,ST_hi"
        assert [l.split(",")[0] for l in lines[1:]] == ["d", "M", "omega", "c", "lambda"]
        for line in lines[1:]:
            for field in line.split(",")[1:7]:
                if field:
                    float(field)

    def test_few_replicates_rejected_before_the_design(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "evaluate_case", lambda *args: pytest.fail("a fit ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_design": 16, "replicates": 50}))
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "replicates must be at least 100" in err["message"]
        assert [path.name for path in out.iterdir()] == ["error.json"]


class TestExemplarCommand:
    def test_all_artifacts_written(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gola": {"n_starts": 48, "gradient_tol": 1e-5},
            "exemplar": {"n_pushforward": 300},
        }))
        out = tmp_path / "out"
        assert main(["exemplar", "--config", str(cfg), "--out", str(out),
                     "--seed", "0"]) == 0
        for name in ("observations.csv", "observations.json", "mixture.json",
                     "gola_report.json", "pushforward.csv", "run_manifest.json"):
            assert (out / name).exists(), name
        obs_meta = _read_json(out / "observations.json")
        assert obs_meta["constants"]["m1"] == 1.0
        mixture = mixture_from_dict(_read_json(out / "mixture.json"))
        assert mixture.n_components >= 2
        push = (out / "pushforward.csv").read_text().strip().splitlines()
        assert push[0] == "time,floor,mean,lo95,hi95"

    def test_manifest_reports_the_pushforward_rejections(self, tmp_path):
        # damping near zero and noisy data put posterior mass on c <= 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gola": {"n_starts": 16, "gradient_tol": 1e-5},
            "exemplar": {"n_pushforward": 100, "c1_true": 0.05, "c2_true": 0.05,
                         "noise_sigma": 1.0},
        }))
        out = tmp_path / "out"
        assert main(["exemplar", "--config", str(cfg), "--out", str(out),
                     "--seed", "4"]) == 0
        # the same draws from the written mixture, rejected the same way
        mixture = mixture_from_dict(_read_json(out / "mixture.json"))
        scenario = default_scenario()
        times = np.linspace(scenario.horizon / 100.0, scenario.horizon, 100)
        summary = pushforward(mixture, scenario.constants(), scenario.u0, times, 100, 4)
        # 177 of three rounds of 100 draws, a rate of 0.59
        assert summary.n_rejections == 177
        assert summary.high_rejection_warning
        assert _read_json(out / "run_manifest.json")["diagnostics"] == {
            "n_rejections": summary.n_rejections,
            "high_rejection_warning": summary.high_rejection_warning}

    def test_manifest_records_scipy_without_importing_it(self, tmp_path):
        # a fresh interpreter: this one has scipy loaded by the tests
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gola": {"n_starts": 16, "gradient_tol": 1e-5},
                                   "exemplar": {"n_pushforward": 100}}))
        out = tmp_path / "out"
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "from postmix.cli import main",
            f"assert main(['exemplar', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0",
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert loaded == [], f'loaded by the run: {loaded}'",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        versions = _read_json(out / "run_manifest.json")["versions"]
        assert versions["scipy"] == metadata.version("scipy")

    def test_manifest_omits_scipy_when_not_installed(self, monkeypatch):
        def missing(name):
            raise metadata.PackageNotFoundError(name)

        monkeypatch.setattr(cli.metadata, "version", missing)
        assert set(cli._versions()) == {"postmix", "numpy"}

    def test_small_pushforward_rejected_before_any_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_gola", lambda *args: pytest.fail("the fit ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exemplar": {"n_pushforward": 50},
                                   "gola": {"n_starts": 8}}))
        out = tmp_path / "out"
        assert main(["exemplar", "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "ValueError"
        assert "exemplar.n_pushforward must be at least 100" in err["message"]
        assert [path.name for path in out.iterdir()] == ["error.json"]

    def test_only_saddles_is_no_modes_error(self, tmp_path):
        # on a short horizon every start stops on a box edge, at a saddle
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"exemplar": {"horizon": 1.0},
                                   "gola": {"n_starts": 4}}))
        out = tmp_path / "out"
        assert main(["exemplar", "--config", str(cfg), "--out", str(out)]) == 1
        err = _read_json(out / "error.json")
        assert err["error"] == "NoModesFoundError"
        assert "saddles" in err["message"]
        assert not (out / "mixture.json").exists()
