"""The library keeps no method that only its tests call."""

import ast

from conftest import REPO_ROOT

LIBRARY = sorted((REPO_ROOT / "src" / "roughfca").glob("*.py"))
BENCHMARK = sorted(path for path in (REPO_ROOT / "perfbench").glob("*.py")
                   if not path.name.startswith("test_"))


def _parsed(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_every_public_method_is_read_outside_the_tests():
    """Each public method or property of a class in ``src/roughfca`` must be
    read as an attribute (``x.name``) somewhere in the library or the
    benchmark, test files excluded.  The check matches by name alone, so a
    name that some other object's attribute also has, such as ``column``,
    can hide an unused method."""
    read = {node.attr for _, tree in _parsed(LIBRARY + BENCHMARK) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}: {cls.name}.{item.name}"
              for path, tree in _parsed(LIBRARY)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body if isinstance(item, ast.FunctionDef)
              and not item.name.startswith("_") and item.name not in read]
    assert not unread, unread
