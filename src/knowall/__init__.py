"""Round-optimal k-set agreement on known dynamic graph sequences.

The package computes the exact number of communication rounds needed to
solve k-set agreement when the whole graph sequence is known in advance
(only the inputs are not), runs the matching flooding algorithm, and
refutes any candidate algorithm that claims to need fewer rounds by
constructing and re-simulating an explicit counterexample.

Importing the package loads none of its submodules.  Each public name
below is resolved on first use from the module that defines it (PEP 562
module __getattr__), which loads that module, and is then kept in the
package namespace.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "check": ("ExhaustiveReport", "exhaustive_check", "sample_check"),
    "dyngraph": (
        "EXACT_SEARCH_CAP",
        "EXHAUSTIVE_CONFIG_CAP",
        "Arc",
        "DynamicGraphSpec",
        "Extension",
        "Instance",
        "closure",
        "domination_numbers",
        "graph_at",
        "load_graph_file",
        "min_dominating_set",
        "min_rounds",
        "save_graph_file",
        "spec_from_dict",
        "spec_to_dict",
        "to_dot",
    ),
    "errors": (
        "AlgorithmRangeError",
        "BudgetNotBelowBound",
        "CapExceeded",
        "GraphFormatError",
        "KnowAllError",
        "LemmaFalsified",
        "NeverDominated",
        "NoPanchromaticCell",
    ),
    "families": ("complete_graph", "directed_cycle", "directed_path", "staggered_relay"),
    "kuhn": (
        "PrimitiveSimplex",
        "Vertex",
        "algorithm_coloring",
        "inp",
        "is_vertex",
    ),
    "protocol": (
        "MAJORITY_HEARD",
        "MAX_HEARD",
        "MIN_HEARD",
        "AlgorithmSpec",
        "InputConfig",
        "OutcomeReport",
        "View",
        "ViewTable",
        "algorithm_by_name",
        "builtin_algorithms",
        "flood_dominator",
        "flood_solve",
        "format_inputs",
        "parse_inputs",
        "run",
        "validate_inputs",
    ),
    "refuter": ("Witness", "WitnessKind", "refute"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # what `from .home import name` does; importlib is not loaded for it
    value = getattr(__import__(home, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
