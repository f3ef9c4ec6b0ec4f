"""The README's config example and the file-format reference stay in step
with the code: a key the code no longer accepts fails here."""

import json
import re
from pathlib import Path

from postmix import cli
from postmix.cli import parse_config
from postmix.density import mixture_from_dict
from postmix.exemplar import default_scenario

ROOT = Path(__file__).resolve().parents[1]


def _json_blocks(text):
    return re.findall(r"```json\n(.*?)```", text, re.DOTALL)


def _schema_example(heading):
    """The first JSON example under a ``## heading`` of docs/schemas.md."""
    text = (ROOT / "docs" / "schemas.md").read_text()
    section = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    return json.loads(_json_blocks(section)[0])


def test_readme_config_example_parses(tmp_path):
    blocks = _json_blocks((ROOT / "README.md").read_text())
    assert len(blocks) == 1
    path = tmp_path / "cfg.json"
    path.write_text(blocks[0])
    cfg = parse_config(str(path), {"command": "fit"})
    # the section values build their configs too
    cli._gola_config(cfg)
    cli._vi_config(cfg)
    cli._factor_spec(cfg)


def test_schema_mixture_example_parses():
    mixture = mixture_from_dict(_schema_example("Mixture model"))
    assert mixture.n_components == 2


def test_schema_observation_sidecar_keys_match():
    scenario = default_scenario()
    sidecar = scenario.observations().sidecar_dict(scenario.frame_true)
    documented = _schema_example("Observations")
    assert set(documented) == set(sidecar)
    assert set(documented["constants"]) == set(sidecar["constants"])
