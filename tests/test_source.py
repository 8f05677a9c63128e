from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import random
import re
import sys
from pathlib import Path

import pytest

import knowall
from knowall import domination, dyngraph

from conftest import random_spec

PACKAGE = Path(knowall.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every real check in the
    # package, the Sperner walk's tripwires among them, must raise explicitly
    modules = sorted(PACKAGE.rglob("*.py"))
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
    # dir(), not vars(): the package binds a name only once it is first used
    assert sorted(defined & set(dir(knowall))) == []


def test_the_modules_form_layers_with_domination_at_the_bottom():
    # every relative import, at module level or inside a function, is an
    # edge; the package's modules import one another without a cycle, the
    # cover search leans on nothing of the package, and dyngraph on nothing
    # but the search and the errors
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                edges |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = edges
    assert graph["domination"] == set()
    assert graph["dyngraph"] == {"domination", "errors"}
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle {' -> '.join(path + [module])}"
        if module not in done:
            path.append(module)
            for target in sorted(graph.get(module, ())):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


# every public name of the package and the module that defines it
PUBLIC = {
    "check": ["ExhaustiveReport", "exhaustive_check", "sample_check"],
    "dyngraph": ["EXACT_SEARCH_CAP", "EXHAUSTIVE_CONFIG_CAP", "Arc", "DynamicGraphSpec",
                 "Extension", "Instance", "closure", "domination_numbers", "graph_at", "load_graph_file",
                 "min_dominating_set", "min_rounds", "save_graph_file", "spec_from_dict",
                 "spec_to_dict", "to_dot"],
    "errors": ["AlgorithmRangeError", "BudgetNotBelowBound", "CapExceeded", "GraphFormatError",
               "KnowAllError", "LemmaFalsified", "NeverDominated", "NoPanchromaticCell"],
    "families": ["complete_graph", "directed_cycle", "directed_path", "staggered_relay"],
    "kuhn": ["PrimitiveSimplex", "Vertex", "algorithm_coloring", "inp", "is_vertex"],
    "protocol": ["MAJORITY_HEARD", "MAX_HEARD", "MIN_HEARD", "AlgorithmSpec", "InputConfig",
                 "OutcomeReport", "View", "ViewTable", "algorithm_by_name",
                 "builtin_algorithms", "flood_dominator", "flood_solve", "format_inputs",
                 "parse_inputs", "run", "validate_inputs"],
    "refuter": ["Witness", "WitnessKind", "refute"],
}


def test_public_names_resolve_to_their_defining_modules():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == len(set(names)) == 55
    assert sorted(knowall.__all__) == sorted(names)
    assert set(names) <= set(dir(knowall))
    defined = {name: getattr(importlib.import_module(f"knowall.{home}"), name)
               for home, homed in PUBLIC.items() for name in homed}
    for name, obj in defined.items():
        # the first use resolves and keeps the name, later ones read it
        assert getattr(knowall, name) is obj and getattr(knowall, name) is obj, name
    star: dict = {}
    exec("from knowall import *", star)
    del star["__builtins__"]
    assert star.keys() == defined.keys()
    assert all(star[name] is obj for name, obj in defined.items())
    with pytest.raises(AttributeError, match="no_such_name"):
        knowall.no_such_name  # noqa: B018
    assert not hasattr(knowall, "brute_domination")


# exported names that no other package module and no code in the README
# uses, each with the reason it stays exported; the tests' oracle module
# counts as no package module
EXPORTED_UNUSED = {
    "Arc": "the type of a round graph's and a closure's arcs, for callers that build specs",
    "EXACT_SEARCH_CAP": "the n cap of every exact search, for callers to test n against",
    "save_graph_file": "writes the graph files that load_graph_file and the CLI read",
    "spec_from_dict": "the benchmark's verifier builds specs from its JSON documents with it",
    "spec_to_dict": "the JSON shape of a spec, for callers that embed it in other documents",
    "complete_graph": "a named sequence family that callers and the tests build specs from",
    "directed_path": "a named sequence family that callers and the tests build specs from",
    "staggered_relay": "a named sequence family that callers and the tests build specs from",
    "Vertex": "the type of the lattice points that inp, is_vertex and the coloring take",
    "MAX_HEARD": "a built-in algorithm as a library constant; the CLI reaches it by name",
    "MAJORITY_HEARD": "a built-in algorithm as a library constant; the CLI reaches it by name",
    "builtin_algorithms": "the algorithms algorithm_by_name chooses from",
    "validate_inputs": "the input test of run and flood_solve, for callers building inputs",
    "Witness": "the type refute returns",
    "WitnessKind": "the kinds of witness refute returns",
}


def test_every_export_is_used_or_kept_for_a_reason():
    # an export that nothing in the package runs and the README does not
    # show is kept only for a stated reason
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.name not in ("__init__.py", "oracle.py")}
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    # the words of its fenced blocks and code spans
    shown = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`]+`", readme, re.S))))

    def used(name, tree):
        return any(isinstance(node, ast.Name) and node.id == name or
                   isinstance(node, ast.Attribute) and node.attr == name or
                   isinstance(node, ast.alias) and node.name == name
                   for node in ast.walk(tree))

    unused = {name for home, names in knowall._EXPORTS.items() for name in names
              if name not in shown
              and not any(used(name, tree) for stem, tree in trees.items() if stem != home)}
    assert sorted(unused) == sorted(EXPORTED_UNUSED)


def test_searches_keep_no_module_state():
    # everything a search derives lives in the spec's memo, freed with the
    # spec; a module-level container that grows would be a cache shared by
    # every caller in the process
    def containers():
        return {(module.__name__, name): len(value)
                for module in (domination, dyngraph) for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))}

    names = set(vars(dyngraph)), set(vars(domination))
    before = containers()
    assert before
    rng = random.Random(4669)
    for _ in range(50):
        spec = random_spec(rng, max_n=14)
        r = rng.randint(0, 4)
        dyngraph._gamma(spec, r)
        dyngraph.min_dominating_set(spec, r)
    assert (set(vars(dyngraph)), set(vars(domination))) == names
    assert containers() == before


def test_no_module_imports_another_modules_private_names():
    # a module reaches another's data through its public names only, so a
    # private name can change without a caller elsewhere in the package
    found = [f"{path.name}:{node.lineno}: {alias.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_private_attributes_are_read_only_by_their_defining_module():
    # obj._name reaches into data that only the module defining _name may
    # know the shape of: a function, class, attribute store or __slots__
    # entry of that module
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        defined = set()
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Assign) and \
                    [getattr(t, "id", None) for t in node.targets] == ["__slots__"]:
                defined |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in nodes
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_") and not node.attr.endswith("__")
                  and node.attr not in defined]
    assert found == []


def test_every_private_module_name_is_used_by_the_package():
    # a private helper that only its own definition and the tests reach is
    # dead code that a test's monkeypatch keeps alive
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {}  # private name -> the top-level statement defining it
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, stmt) for name in names
                           if name.startswith("_") and not name.endswith("__"))
        for name, home in defined.items():
            if not any(isinstance(node, ast.Name) and node.id == name and
                       isinstance(node.ctx, ast.Load) or
                       isinstance(node, ast.Attribute) and node.attr == name
                       for stmt in body if stmt is not home for node in ast.walk(stmt)):
                unused.append(f"{path.name}: {name}")
    assert unused == []


def _package_trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def test_k_is_tested_in_one_place():
    # building an Instance is the package's one test of k (checked_k,
    # which validate_inputs shares because it has no spec)
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
             and getattr(node.left.func, "id", None) == "type"
             and [getattr(a, "id", None) for a in node.left.args] == ["k"]]
    assert len(found) == 1, found
    assert found[0].startswith("dyngraph.py:")


def test_a_round_number_is_tested_in_one_place():
    # checked_round is the package's one test of a round number's type and
    # sign; every entry point reaches it before a memo or a cap
    found = [f"{name}:{node.lineno}" for name, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and (isinstance(node.left, ast.Call) and getattr(node.left.func, "id", None) == "type"
                  and [getattr(a, "id", None) for a in node.left.args] in (["r"], ["budget"])
                  or getattr(node.left, "id", None) in ("r", "budget")
                  and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)))]
    assert len(found) == 2 and all(f.startswith("dyngraph.py:") for f in found), found


def test_few_functions_take_both_k_and_budget():
    # a query's spec and k travel together in an Instance; only the
    # documented library entry points still take both k and a budget.  The
    # tests' oracle module keeps its baselines' own signatures, and a
    # record's constructor (Witness's) names its fields
    both = sorted(f"{name}:{node.name}" for name, tree in _package_trees()
                  if name != "oracle.py"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name != "__init__"
                  and {"k", "budget"} <= {a.arg for a in node.args.args + node.args.kwonlyargs})
    assert both == ["check.py:exhaustive_check", "check.py:sample_check",
                    "kuhn.py:algorithm_coloring", "protocol.py:run", "refuter.py:refute"]


def test_run_decides_full_views():
    # run is the oracle that check's first failure, refute's witness and the
    # benchmark's verifier re-simulate through: it binds with bind and shows
    # each node every sender it hears, never the reads a ViewTable keys by
    tree = ast.parse((PACKAGE / "protocol.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    names = {node.id for node in ast.walk(run) if isinstance(node, ast.Name)} | \
        {node.attr for node in ast.walk(run) if isinstance(node, ast.Attribute)}
    assert {"bind", "senders"} <= names
    assert sorted(name for name in names if "read" in name or "table" in name.lower()) == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py finds its layer functions by name in every knowall
    # module, the tests' oracle included, and reports a missing one as
    # absent rather than failing; this test fails instead, until the
    # tracer's names and the package's are one set (ROADMAP item 1).
    # view_of, assign_node, color, carrier, find_panchromatic and
    # primitive_simplices live in oracle, whatever label the tracer gives them
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            arg = node.args[1] if len(node.args) > 1 else \
                next(kw.value for kw in node.keywords if kw.arg == "name")
            names.add(arg.value)
        elif isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["DECIDE_FACTORY"]:
            names.add(node.value.value)
    assert {"find_panchromatic", "color", "assign_node", "view_of", "check_sperner",
            "algorithm_by_name"} <= names
    modules = [importlib.import_module(f"knowall.{info.name}")
               for info in pkgutil.iter_modules(knowall.__path__)]
    defined = {name for module in modules for name, obj in vars(module).items()
               if callable(obj) and str(getattr(obj, "__module__", "")).startswith("knowall")}
    missing = sorted(names - defined)
    assert missing == []


def test_algorithm_spec_is_the_one_dataclass():
    # the benchmark's tracer wraps decide functions with dataclasses.replace,
    # so AlgorithmSpec stays a dataclass; the result records are plain
    # __slots__ classes, so that no other module runs the decorator, and
    # only protocol and the tests' oracle import dataclasses
    protocol = importlib.import_module("knowall.protocol")
    assert dataclasses.is_dataclass(protocol.AlgorithmSpec)
    records = [protocol.OutcomeReport, importlib.import_module("knowall.check").ExhaustiveReport,
               importlib.import_module("knowall.kuhn").PrimitiveSimplex,
               importlib.import_module("knowall.refuter").Witness]
    assert [cls for cls in records if dataclasses.is_dataclass(cls)] == []
    assert all(issubclass(cls, protocol.Record) and "__slots__" in vars(cls) for cls in records)
    assert protocol.Record.__slots__ == ()
    importers = sorted(name for name, tree in _package_trees() for node in ast.walk(tree)
                       if isinstance(node, ast.Import) and "dataclasses" in
                       [alias.name for alias in node.names]
                       or isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    assert importers == ["oracle.py", "protocol.py"]
