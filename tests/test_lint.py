"""Three lint rules for ``src/postmix``, read from the syntax tree with the
standard library alone: every import is used, every private module-level
name has a reader besides its own definition, and no module reads a
private attribute of an object other than ``self`` or ``cls``. An import
named in ``__all__`` or marked ``# noqa: F401`` is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "postmix"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node):
    """Every name ``node`` reads: a loaded name, the attribute of an
    attribute access, and a name imported from a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _exported(tree):
    """The strings of a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(path):
    tree = _tree(path)
    lines = path.read_text().splitlines()
    used = {sub.id for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    exempt = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if bound in used or bound in exempt or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{path.name}:{alias.lineno} {bound}")
    return unused


def _private_definitions(tree):
    """(name, node) for each private module-level function, class or
    assigned name; a dunder is not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, None) for t in names if isinstance(t, ast.Name)]
        else:
            continue
        for name, body in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, body


def _unread_private_names(paths):
    """The private module-level names that no module of ``paths`` reads,
    not counting a function's or class's own body."""
    trees = [_tree(path) for path in paths]
    unread = []
    for path, tree in zip(paths, trees):
        for name, definition in _private_definitions(tree):
            if not any(name in _read_names(node) for other in trees for node in other.body
                       if node is not definition):
                unread.append(f"{path.name}: {name}")
    return unread


def _foreign_private_reads(path):
    """Each read of a private attribute (``x._name``, not a dunder) of an
    object other than ``self`` or ``cls``, as ``file:line expression``."""
    reads = []
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return reads


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_every_private_name_has_a_reader():
    assert _unread_private_names(MODULES) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attribute_of_another_object_is_read(path):
    assert _foreign_private_reads(path) == []


def test_the_rules_catch_what_they_name(tmp_path):
    # an unused import, one kept by noqa, a private function read only by
    # its own recursive body, and a private attribute read off another
    # object (its own, a dunder and a write pass)
    module = tmp_path / "sample.py"
    module.write_text("import math\nimport os  # noqa: F401\nimport sys\n\n"
                      "def _spin(n):\n    return _spin(n - 1) + sys.maxsize\n\n"
                      "class Box:\n    def peek(self, other):\n"
                      "        self._seen = other.__class__\n"
                      "        return self._seen, other._hidden\n")
    assert _unused_imports(module) == ["sample.py:1 math"]
    assert _unread_private_names([module]) == ["sample.py: _spin"]
    assert _foreign_private_reads(module) == ["sample.py:11 other._hidden"]
