from __future__ import annotations

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # the runtime depends on the standard library alone; relative imports
    # stay inside the package
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_every_error_class_is_raised():
    # an exception type nothing raises is an except clause that catches
    # nothing and an export that promises what never happens
    declared = {node.name
                for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ClassDef)} - {"KnowAllError"}
    assert declared
    raised = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(declared - raised) == []


def test_package_neither_imports_nor_exports_the_oracle():
    # oracle holds the test suite's baselines: no production module may
    # lean on them, and the package exports none of their names
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ("knowall" if node.level else None, node.module)))
                targets = {base} | {f"{base}.{alias.name}" for alias in node.names}
            else:
                continue
            if "knowall.oracle" in targets:
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []
    defined = set()
    for node in ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert defined
    assert sorted(defined & set(vars(knowall))) == []
