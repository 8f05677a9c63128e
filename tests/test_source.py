from __future__ import annotations

import ast
from pathlib import Path

import knowall

PACKAGE = Path(knowall.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every real check in the
    # package must raise explicitly
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
