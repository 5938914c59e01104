"""The package's public API is what the product calls.

Every top-level ``def`` or ``class`` in ``src/gtslatent`` whose name has
no leading underscore must be used as ``module.name`` in some file under
``src/`` or in ``bench/*.py``.  A use is an attribute on the imported
module (``lstm.loss_and_grad``), a bare name inside the module's own
file, or a ``from .module import name``.  So ``lstm.loss_and_grad`` is
no use of ``ae.loss_and_grad``, and a string does not count either, so
a name the bench tracer only lists for wrapping is not a use.  A
function that only the tests run is one to delete or to make private.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gtslatent"


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_names() -> list:
    """``module.name`` of every public top-level def or class."""
    return [f"{path.stem}.{node.name}"
            for path, tree in _trees(sorted(PACKAGE.glob("*.py")))
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _module_of(node: ast.expr) -> str | None:
    """The module an attribute's value names: ``lstm`` or ``gtslatent.lstm``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _used_names() -> set:
    """``module.name`` of every use in ``src/`` and ``bench/*.py``."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py"))
    used = set()
    for path, tree in _trees(paths):
        own = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(f"{_module_of(node.value)}.{node.attr}")
            elif isinstance(node, ast.Name) and own is not None:
                used.add(f"{own}.{node.id}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                used.update(f"{module}.{alias.name}" for alias in node.names)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    public = _public_names()
    assert "spectral.LinearCodec" in public  # the scan sees the package
    used = _used_names()
    assert [name for name in public if name not in used] == []


def test_a_name_in_another_module_is_no_use():
    # the scan keys each use on its module, so lstm's loss_and_grad
    # cannot stand in for a public ae.loss_and_grad
    used = _used_names()
    assert "lstm.loss_and_grad" in used
    assert "ae.loss_and_grad" not in used
