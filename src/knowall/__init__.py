"""Round-optimal k-set agreement on known dynamic graph sequences.

The package computes the exact number of communication rounds needed to
solve k-set agreement when the whole graph sequence is known in advance
(only the inputs are not), runs the matching flooding algorithm, and
refutes any candidate algorithm that claims to need fewer rounds by
constructing and re-simulating an explicit counterexample.
"""
from .check import EXHAUSTIVE_CONFIG_CAP, ExhaustiveReport, exhaustive_check, sample_check
from .dyngraph import (
    EXACT_SEARCH_CAP,
    Arc,
    DynamicGraphSpec,
    Extension,
    closure,
    graph_at,
    load_graph_file,
    min_dominating_set,
    min_rounds,
    save_graph_file,
    spec_from_dict,
    spec_to_dict,
    to_dot,
)
from .errors import (
    AlgorithmRangeError,
    BudgetNotBelowBound,
    CapExceeded,
    GraphFormatError,
    KnowAllError,
    LemmaFalsified,
    NeverDominated,
    NoPanchromaticCell,
)
from .families import (
    complete_graph,
    directed_cycle,
    directed_path,
    staggered_relay,
)
from .kuhn import (
    Carrier,
    PrimitiveSimplex,
    Vertex,
    algorithm_coloring,
    assign_node,
    carrier,
    color,
    find_panchromatic,
    inp,
    is_vertex,
    primitive_simplices,
    vertices,
)
from .protocol import (
    MAJORITY_HEARD,
    MAX_HEARD,
    MIN_HEARD,
    AlgorithmSpec,
    InputConfig,
    OutcomeReport,
    View,
    ViewTable,
    algorithm_by_name,
    builtin_algorithms,
    flood_dominator,
    flood_solve,
    format_inputs,
    parse_inputs,
    run,
    validate_inputs,
    view_of,
)
from .refuter import Witness, WitnessKind, refute

__version__ = "0.1.0"
