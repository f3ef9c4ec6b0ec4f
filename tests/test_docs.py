"""The README's examples, the file-format reference and the package's
exports stay in step with the code: a key the code no longer accepts, a
retired name or a quick start that no longer runs fails here."""

import dataclasses
import functools
import importlib
import inspect
import json
import re
from pathlib import Path

import numpy as np

import postmix
from postmix import cli
from postmix.cli import parse_config
from postmix.density import UnnormalizedTarget, mixture_from_dict
from postmix.exemplar import default_scenario

ROOT = Path(__file__).resolve().parents[1]


def _blocks(text, language):
    return re.findall(rf"```{language}\n(.*?)```", text, re.DOTALL)


def _schema_example(heading):
    """The first JSON example under a ``## heading`` of docs/schemas.md."""
    text = (ROOT / "docs" / "schemas.md").read_text()
    section = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    return json.loads(_blocks(section, "json")[0])


def test_readme_config_example_parses(tmp_path):
    blocks = _blocks((ROOT / "README.md").read_text(), "json")
    assert len(blocks) == 1
    path = tmp_path / "cfg.json"
    path.write_text(blocks[0])
    cfg = parse_config(str(path), {"command": "fit"})
    # the section values build their configs too
    cli._gola_config(cfg)
    cli._vi_config(cfg)
    cli._factor_spec(cfg)


def test_readme_quick_start_runs():
    blocks = _blocks((ROOT / "README.md").read_text(), "python")
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    report = namespace["report"]
    assert report.mixture.n_components == 2
    assert abs(report.evidence - 1.0) <= 1e-3


def test_every_export_resolves():
    assert [name for name in postmix.__all__ if not hasattr(postmix, name)] == []


def test_schema_mixture_example_parses():
    mixture = mixture_from_dict(_schema_example("Mixture model"))
    assert mixture.n_components == 2


def test_schema_observation_sidecar_keys_match():
    scenario = default_scenario()
    sidecar = scenario.observations().sidecar_dict(scenario.frame_true)
    documented = _schema_example("Observations")
    assert set(documented) == set(sidecar)
    assert set(documented["constants"]) == set(sidecar["constants"])


def _has(obj, dotted):
    try:
        functools.reduce(getattr, dotted.split("."), obj)
    except AttributeError:
        return False
    return True


def _resolves(module, name):
    """Whether a dotted ``name`` is an attribute of ``module``, of one of the
    classes in its namespace (a dataclass field counts), or of a sibling
    module (``density.mixture_terms`` from ``postmix.vi``)."""
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass)]
    fields = {f for c in classes for f in getattr(c, "__dataclass_fields__", {})}
    sibling = inspect.ismodule(getattr(postmix, name.split(".")[0], None))
    return (name in fields or any(_has(owner, name) for owner in (module, *classes))
            or sibling and _has(postmix, name))


def test_readme_layout_names_resolve():
    # a Layout row that still names a deleted or renamed function fails here
    text = (ROOT / "README.md").read_text()
    layout = text.split("\n## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(postmix\.\w+)` \| (.*) \|$", layout, re.MULTILINE)
    assert len(rows) == 8
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents):
            if name == "postmix" or hasattr(np, name):
                continue
            if not _resolves(module, name):
                missing.append(f"{module_name}: {name}")
    assert missing == []


def test_docstring_references_resolve():
    # a :func:, :class: or :meth: target that still names a deleted or
    # renamed function fails here
    package = ROOT / "src" / "postmix"
    targets, missing = 0, []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(
            "postmix" if path.stem == "__init__" else f"postmix.{path.stem}")
        for name in re.findall(r":(?:func|class|meth):`~?([\w.]+)`", path.read_text()):
            targets += 1
            if not _resolves(module, name):
                missing.append(f"{path.name}: {name}")
    assert targets > 0
    assert missing == []


def test_reply_contract_lists_every_callable_field():
    # a callable field added to the target without a row in README's reply
    # contract fails here, and so does a row for a field that is gone
    text = (ROOT / "README.md").read_text()
    table = text.split("Every reply is checked on its way in", 1)[1].split("\n\n")[1]
    documented = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    fields = [f.name for f in dataclasses.fields(UnnormalizedTarget)
              if "Callable" in str(f.type)]
    assert len(fields) == 5
    assert sorted(documented) == sorted(fields)


def test_batch_names_are_fields_or_resolve():
    # a backticked name ending in _batch that is neither a field of the
    # target nor a name in the package, such as a retired field, fails here
    package = ROOT / "src" / "postmix"
    modules = [postmix] + [importlib.import_module(f"postmix.{path.stem}")
                           for path in sorted(package.glob("*.py"))
                           if path.stem != "__init__"]
    fields = {f.name for f in dataclasses.fields(UnnormalizedTarget)}
    names, stale = 0, []
    for path in [ROOT / "README.md", ROOT / "docs" / "schemas.md",
                 *sorted(package.glob("*.py"))]:
        for name in re.findall(r"`([A-Za-z_][\w.]*_batch)`", path.read_text()):
            names += 1
            if (name.rsplit(".", 1)[-1] not in fields
                    and not any(_has(module, name) for module in modules)):
                stale.append(f"{path.name}: {name}")
    assert names > 0
    assert stale == []
