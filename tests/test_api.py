"""The package's public API is what the product calls.

Every top-level ``def`` or ``class`` in ``src/gtslatent`` whose name has
no leading underscore must be used by name, as an ``ast.Name`` or an
``ast.Attribute``, in some file under ``src/`` or in ``bench/*.py``.  A
string does not count, so a name the bench tracer only lists for
wrapping is not a use.  A function that only the tests run is one to
delete or to make private.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(paths):
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_names() -> list:
    """``module.name`` of every public top-level def or class."""
    return [f"{path.stem}.{node.name}"
            for path, tree in _trees(sorted(
                (ROOT / "src" / "gtslatent").glob("*.py")))
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used_names() -> set:
    """Every name used in ``src/`` and ``bench/*.py``."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py"))
    used = set()
    for _, tree in _trees(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    public = _public_names()
    assert "spectral.LinearCodec" in public  # the scan sees the package
    used = _used_names()
    assert [name for name in public
            if name.split(".", 1)[1] not in used] == []
