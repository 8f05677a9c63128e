from __future__ import annotations

import math
import random
import re
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowall import (
    MIN_HEARD,
    BudgetNotBelowBound,
    Extension,
    NeverDominated,
    NoPanchromaticCell,
    PrimitiveSimplex,
    algorithm_coloring,
    builtin_algorithms,
    closure,
    complete_graph,
    directed_cycle,
    format_inputs,
    inp,
    is_vertex,
    min_rounds,
)
from knowall import kuhn, oracle
from knowall.dyngraph import _gamma
from knowall.oracle import (
    SpernerReport,
    assign_node,
    brute_panchromatic,
    carrier,
    check_sperner,
    color,
    find_panchromatic,
    primitive_simplices,
    vertices,
)

from conftest import random_spec, standard_family

# Sperner coloring transcribed from a drawn n=5, k=2 example
# (values 0, 1, 2 at each lattice vertex)
DRAWN_COLORING = {
    (0, 0): 0, (1, 0): 0, (2, 0): 1, (3, 0): 0, (4, 0): 1, (5, 0): 1,
    (1, 1): 0, (2, 1): 0, (3, 1): 2, (4, 1): 0, (5, 1): 1,
    (2, 2): 0, (3, 2): 2, (4, 2): 1, (5, 2): 1,
    (3, 3): 2, (4, 3): 1, (5, 3): 2,
    (4, 4): 2, (5, 4): 2,
    (5, 5): 2,
}


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_vertices_lex_order_and_bounds():
    vs = list(vertices(2, 2))
    assert vs == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    vs53 = list(vertices(5, 3))
    assert vs53 == sorted(vs53)
    assert vs53[0] == (0, 0, 0) and vs53[-1] == (5, 5, 5)
    assert all(is_vertex(v, 5) for v in vs53)


def test_vertex_count_identity():
    for n in range(1, 7):
        for k in range(1, 4):
            assert sum(1 for _ in vertices(n, k)) == math.comb(n + k, k)


def test_is_vertex():
    assert is_vertex((3, 1), 5)
    assert is_vertex((0, 0), 5)
    assert not is_vertex((1, 2), 5)   # not monotone
    assert not is_vertex((6, 0), 5)   # above n
    assert not is_vertex((1, -1), 5)
    # every coordinate is exactly an int: a bool or a float is refused
    assert not is_vertex((True, False), 5)
    assert not is_vertex((1.5, 0), 5)
    assert not is_vertex((3.0, 1.0), 5)


@pytest.mark.parametrize("n", ["2", 2.0, True, None])
def test_is_vertex_and_inp_refuse_an_n_that_is_not_an_int(n):
    # refused by name before any comparison, so a string n is no TypeError
    # and a float or bool n is never compared with the coordinates
    for call in (is_vertex, inp):
        with pytest.raises(ValueError, match=f"^n is {re.escape(repr(n))}, not an integer$"):
            call((1,), n)


def test_simplex_count_identity():
    for n in range(1, 7):
        for k in range(1, 4):
            assert sum(1 for _ in primitive_simplices(n, k)) == n ** k


def test_simplices_smallest_case():
    assert list(primitive_simplices(1, 2)) == [PrimitiveSimplex((0, 0), (1, 2))]


def test_unit_cube_has_six_cells():
    # a unit cube fully inside the k=3 region carries one cell per permutation
    cells = [s for s in primitive_simplices(3, 3) if s.base == (2, 1, 0)]
    assert len(cells) == 6
    assert sorted(s.perm for s in cells) == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    walked = PrimitiveSimplex((2, 1, 0), (1, 3, 2)).vertices()
    assert walked == ((2, 1, 0), (3, 1, 0), (3, 1, 1), (3, 2, 1))


def test_simplices_stream_in_lex_order_with_valid_corners():
    for n, k in ((4, 2), (3, 3)):
        keys = []
        for s in primitive_simplices(n, k):
            keys.append((s.base, s.perm))
            assert all(is_vertex(v, n) for v in s.vertices())
        assert keys == sorted(keys)


def _cells_by_every_permutation(n, k):
    # the enumeration the prefix walk replaced: every permutation tested at every base
    perms = list(permutations(range(1, k + 1)))
    for base in vertices(n, k):
        for perm in perms:
            cur = list(base)
            for j in perm:
                cur[j - 1] += 1
                if cur[j - 1] > (n if j == 1 else cur[j - 2]):
                    break
            else:
                yield PrimitiveSimplex(base=base, perm=perm)


def test_prefix_walk_matches_every_permutation_enumeration():
    for n in range(1, 6):
        for k in range(1, 6):
            assert list(primitive_simplices(n, k)) == list(_cells_by_every_permutation(n, k))


def test_cell_walk_visits_at_most_k_plus_1_prefixes_per_cell(monkeypatch):
    # every permutation at every base would be 9! = 362880 tests per base
    prefixes = oracle._prefixes
    steps = [0]

    def counting(*args):
        for prefix in prefixes(*args):
            steps[0] += 1
            yield prefix

    monkeypatch.setattr(oracle, "_prefixes", counting)
    for n in (1, 2, 3):
        steps[0] = 0
        cells = list(primitive_simplices(n, 9))
        assert len(cells) == n ** 9
        assert 10 <= steps[0] <= 10 * len(cells), n


def test_one_cell_deeper_than_the_recursion_limit():
    k = sys.getrecursionlimit() + 1
    assert list(primitive_simplices(1, k)) == [PrimitiveSimplex((0,) * k, tuple(range(1, k + 1)))]


# ---------------------------------------------------------------------------
# input and node assignment
# ---------------------------------------------------------------------------


def test_inp_examples():
    assert format_inputs(inp((3, 3, 1), 5)) == "32200"
    assert format_inputs(inp((3, 1), 5)) == "21100"
    assert format_inputs(inp((0, 0), 5)) == "00000"
    assert format_inputs(inp((5, 5), 5)) == "22222"
    assert format_inputs(inp((5, 0), 5)) == "11111"
    with pytest.raises(ValueError):
        inp((1, 2), 5)


def test_inp_refuses_an_n_past_a_tuple_by_name():
    with pytest.raises(ValueError,
                       match=f"^n = {10 ** 30} is too large for a configuration of n inputs$"):
        inp((1,), 10 ** 30)


def test_inp_counts_coordinates_at_least_i():
    for n in range(1, 6):
        for k in range(1, 4):
            for v in vertices(n, k):
                cfg = inp(v, n)
                assert cfg == tuple(sum(1 for x in v if x >= i) for i in range(1, n + 1))


def test_consecutive_corners_differ_at_one_forced_node():
    # stepping e_j from y raises exactly node y[j-1]+1 from j-1 to j
    for n in range(1, 6):
        for k in range(1, 4):
            for s in primitive_simplices(n, k):
                corners = s.vertices()
                for i, j in enumerate(s.perm):
                    a, b = inp(corners[i], n), inp(corners[i + 1], n)
                    diff = [idx + 1 for idx in range(n) if a[idx] != b[idx]]
                    forced = corners[i][j - 1] + 1
                    assert diff == [forced]
                    assert a[forced - 1] == j - 1 and b[forced - 1] == j


def test_difference_sets_chain():
    # V_i = nodes whose inputs differ between inp(y_i) and inp(y_0).  The
    # chain grows by at most one node per step and V_i is exactly the set
    # of nodes the first i steps changed; |V_i| = i only when those nodes
    # are pairwise distinct (tied coordinates hit the same node twice).
    for n in range(1, 6):
        for k in range(1, 4):
            for s in primitive_simplices(n, k):
                corners = s.vertices()
                base_cfg = inp(corners[0], n)
                changed = [corners[i][j - 1] + 1 for i, j in enumerate(s.perm)]
                prev: set[int] = set()
                for i, y in enumerate(corners):
                    cfg = inp(y, n)
                    vi = {idx + 1 for idx in range(n) if cfg[idx] != base_cfg[idx]}
                    assert vi == set(changed[:i])
                    assert prev <= vi and len(vi - prev) <= 1
                    prev = vi


def test_difference_set_size_collapses_on_tied_cells():
    # both steps of the cell (1,1),(2,1),(2,2) change node 2, so the
    # "exactly i differing nodes" reading fails there: V_1 = V_2 = {2}
    corners = PrimitiveSimplex((1, 1), (1, 2)).vertices()
    assert corners == ((1, 1), (2, 1), (2, 2))
    base_cfg = inp(corners[0], 5)
    sets = []
    for y in corners:
        cfg = inp(y, 5)
        sets.append({i + 1 for i in range(5) if cfg[i] != base_cfg[i]})
    assert sets == [set(), {2}, {2}]


def test_difference_set_reads_off_the_coordinates():
    # removing unit steps X from v changes exactly the nodes {v[j-1] : j in X}
    for n in range(1, 5):
        for k in range(1, 4):
            for v in vertices(n, k):
                for bits in range(1, 1 << k):
                    X = [j + 1 for j in range(k) if bits >> j & 1]
                    z = list(v)
                    for j in X:
                        z[j - 1] -= 1
                    z = tuple(z)
                    if not is_vertex(z, n):
                        continue
                    a, b = inp(v, n), inp(z, n)
                    diff = {idx + 1 for idx in range(n) if a[idx] != b[idx]}
                    assert diff == {v[j - 1] for j in X}


def test_carrier_examples():
    assert carrier((3, 1), 5) == {0, 1, 2}
    assert carrier((5, 5), 5) == {2}
    assert carrier((5, 0), 5) == {1}
    assert carrier((0, 0, 0), 4) == {0}


def test_carrier_equals_values_held():
    for n in range(1, 9):
        for k in range(1, 5):
            for v in vertices(n, k):
                assert carrier(v, n) == set(inp(v, n)), (n, v)


def test_assign_node_examples(c5):
    node = algorithm_coloring(c5, 2, 1, MIN_HEARD).node
    assert node((3, 1)) == 5
    assert node((4, 1)) == 3
    assert node((4, 2)) == 1
    assert node((0, 0)) == 1
    assert node((5, 5)) == 2


def test_assign_node_requires_budget_below_bound(c5):
    with pytest.raises(BudgetNotBelowBound, match="^budget 2 is not below the tight bound 2$"):
        algorithm_coloring(c5, 2, 2, MIN_HEARD)
    with pytest.raises(BudgetNotBelowBound, match="^budget 1 is not below the tight bound 1$"):
        algorithm_coloring(complete_graph(3), 2, 1, MIN_HEARD)
    with pytest.raises(BudgetNotBelowBound, match="^budget 3 is not below the tight bound 2$"):
        algorithm_coloring(c5, 2, 3, MIN_HEARD)
    with pytest.raises(BudgetNotBelowBound, match="^budget 0 is not below the tight bound 0$"):
        algorithm_coloring(directed_cycle(3), 3, 0, MIN_HEARD)


def test_negative_budget_is_rejected_whatever_was_asked_before():
    # the memo of domination numbers grows with the questions asked; a
    # negative round must not index it from the end
    spec = directed_cycle(5)
    with pytest.raises(ValueError, match="^closure needs r >= 0, got -1$"):
        algorithm_coloring(spec, 2, -1, MIN_HEARD)
    assert min_rounds(spec, 2) == 2
    with pytest.raises(ValueError, match="^closure needs r >= 0, got -1$"):
        algorithm_coloring(spec, 2, -1, MIN_HEARD)
    with pytest.raises(ValueError, match="^closure needs r >= 0, got -7$"):
        _gamma(spec, -7)


def test_assigned_node_hears_no_positive_coordinate():
    for name, spec, k in standard_family():
        budget = min_rounds(spec, k) - 1
        H = closure(spec, budget)
        node = algorithm_coloring(spec, k, budget, MIN_HEARD).node
        for v in vertices(spec.n, k):
            w = node(v)
            senders = {x for x in v if x != 0}
            assert w not in senders
            assert all((p, w) not in H for p in senders), (name, v, w)


def test_assign_node_matches_arc_scan_on_random_specs():
    # the coloring is checked against the oracle's node, read off reach sets
    # grown by scanning each round graph's arcs, and its color, a plain run
    # of the algorithm on the vertex's configuration read at that node
    rng = random.Random(2718)
    extensions, budgets = set(), 0
    for _ in range(30):
        spec = random_spec(rng, max_n=7)
        k = rng.randint(1, min(3, spec.n - 1))
        try:
            bound = min_rounds(spec, k)
        except NeverDominated:
            continue
        extensions.add(spec.extension)
        for budget in range(bound):
            colorings = [(alg, algorithm_coloring(spec, k, budget, alg))
                         for alg in builtin_algorithms()]
            for v in vertices(spec.n, k):
                node = colorings[0][1].node(v)
                assert node == assign_node(spec, budget, v), (spec, k, budget, v)
                for alg, coloring in colorings:
                    assert coloring(v) == color(spec, k, budget, alg, v), \
                        (spec, k, budget, v, alg.name)
            budgets += 1
    assert extensions == set(Extension) and budgets >= 30


def test_color_example(c5):
    assert algorithm_coloring(c5, 2, 1, MIN_HEARD)((5, 5)) == 2


@pytest.mark.parametrize("v", [(2, 3), (3,), (1, -1), (6, 0), (True, False), (1.5, 0)],
                         ids=["increasing", "short", "negative", "above_n", "bool", "float"])
def test_the_coloring_refuses_non_vertices(c5, v):
    # none is a vertex of the n=5, k=2 triangulation
    coloring = algorithm_coloring(c5, 2, 1, MIN_HEARD)
    message = f"^{re.escape(str(v))} is not a vertex for n=5, k=2$"
    for read in (coloring, coloring.node):
        with pytest.raises(ValueError, match=message):
            read(v)
    # inp takes no k, and (3,) is a vertex of the k = 1 triangulation
    if len(v) == 2:
        with pytest.raises(ValueError, match=f"^{re.escape(str(v))} is not a vertex for n=5$"):
            inp(v, 5)


# ---------------------------------------------------------------------------
# Sperner machinery
# ---------------------------------------------------------------------------


def test_check_sperner_accepts_min_value_coloring():
    report = check_sperner(4, 2, lambda v: min(carrier(v, 4)))
    assert report.is_sperner and report.violations == ()


def test_check_sperner_flags_corner():
    coloring = {v: min(carrier(v, 3)) for v in vertices(3, 2)}
    coloring[(0, 0)] = 2
    report = check_sperner(3, 2, coloring.__getitem__)
    assert not report.is_sperner
    assert report.violations == (((0, 0), 2, frozenset({0})),)


def test_check_sperner_matches_carrier_membership():
    # every color in and around the palette, at every vertex
    for n in range(1, 6):
        for k in range(1, 4):
            for c in range(-1, k + 2):
                expected = tuple((v, c, carrier(v, n)) for v in vertices(n, k)
                                 if c not in carrier(v, n))
                report = check_sperner(n, k, lambda v: c)
                assert report == SpernerReport(not expected, expected), (n, k, c)


def test_find_panchromatic_k1_threshold():
    coloring = {(x,): 0 if x < 2 else 1 for x in range(5)}
    cell = find_panchromatic(4, 1, coloring.__getitem__)
    assert cell == PrimitiveSimplex((1,), (1,))


def test_find_panchromatic_returns_violation_without_sperner():
    # (2,) has carrier {1}; no cell precedes it, and the pass ends there
    assert find_panchromatic(2, 1, lambda v: 0) == ((2,), 0)


def _top(witness, n):
    # a cell's top corner; for a violation at p, p+(1,...,1) when that is a
    # vertex, and otherwise the last vertex, since every later top has a
    # base below p
    if isinstance(witness, PrimitiveSimplex):
        return witness.vertices()[-1]
    top = tuple(x + 1 for x in witness[0])
    return top if is_vertex(top, n) else (n,) * len(top)


def test_find_panchromatic_calls_the_coloring_once_per_vertex_up_to_the_top():
    rng = random.Random(1960)
    kinds = set()
    for k in range(1, 4):
        for n in range(1, 7):
            for kind in ("sperner", "palette"):
                for _ in range(6):
                    verts = list(vertices(n, k))
                    if kind == "sperner":
                        coloring = {v: rng.choice(sorted(carrier(v, n))) for v in verts}
                    else:
                        coloring = {v: rng.randrange(k + 1) for v in verts}
                    read = []

                    def colored(v):
                        read.append(v)
                        return coloring[v]

                    found = find_panchromatic(n, k, colored)
                    top = _top(found, n)
                    # vertices come in lexicographic order, so the prefix up to
                    # the top is every vertex that compares at most equal to it
                    assert read == [v for v in verts if v <= top], (n, k, found)
                    kinds.add((kind, type(found).__name__))
    assert kinds == {("sperner", "PrimitiveSimplex"), ("palette", "PrimitiveSimplex"),
                     ("palette", "tuple")}
    with pytest.raises(ValueError, match="^need n >= 1 and k >= 1, got n=0 k=2$"):
        find_panchromatic(0, 2, lambda v: 0)


def test_find_panchromatic_reads_the_cells_of_primitive_simplices_in_order(monkeypatch):
    # the scan takes its cells from the one enumeration, in stream order,
    # and stops in the witness's base group: at the witness cell, or, for a
    # violation at p, at the first cell of the first base at or after p
    stream = oracle.primitive_simplices
    taken = []

    def recorded(n, k):
        for cell in stream(n, k):
            taken.append(cell)
            yield cell

    monkeypatch.setattr(oracle, "primitive_simplices", recorded)
    rng = random.Random(1968)
    kinds = set()
    for k in range(1, 4):
        for n in range(1, 6):
            for _ in range(8):
                table = {v: rng.randrange(k + 1) for v in vertices(n, k)}
                taken.clear()
                found = find_panchromatic(n, k, table.__getitem__)
                cells = list(stream(n, k))
                if isinstance(found, PrimitiveSimplex):
                    last = cells.index(found)
                else:
                    last = next((i for i, cell in enumerate(cells) if cell.base >= found[0]),
                                len(cells) - 1)
                assert taken == cells[:last + 1], (n, k, found)
                kinds.add(type(found).__name__)
    assert kinds == {"PrimitiveSimplex", "tuple"}


def test_no_panchromatic_cell_is_a_tripwire_after_a_full_pass(monkeypatch):
    # Sperner's lemma leaves no coloring that reaches it: only a cell search
    # that misses every cell makes the pass end without a witness, here one
    # that reads each cell's corners as k+1 copies of its base
    coloring = DRAWN_COLORING.__getitem__
    monkeypatch.setattr(kuhn.PrimitiveSimplex, "vertices",
                        lambda cell: (cell.base,) * (len(cell.perm) + 1))
    with pytest.raises(NoPanchromaticCell, match="^no panchromatic cell in the n=5, k=2 "):
        find_panchromatic(5, 2, coloring)


# colors of vertices(3, 2) in order:
# (0,0) (1,0) (1,1) (2,0) (2,1) (2,2) (3,0) (3,1) (3,2) (3,3)
INSIDE_SPAN = [0, 1, 0, 2, 0, 0, 1, 1, 1, 2]   # (2,0) colored 2
AT_BASE = [0, 1, 1, 1, 0, 2, 1, 2, 1, 2]       # (1,1) colored 1
AT_TOP = [0, 0, 0, 0, 2, 1, 1, 2, 1, 2]        # (2,2) colored 1


@pytest.mark.parametrize("colors, violation, cell, expected", [
    # the violation lies strictly between the first cell's base and top: the
    # cell's base comes first, so the cell wins
    (INSIDE_SPAN, ((2, 0), 2), PrimitiveSimplex((1, 0), (1, 2)), "cell"),
    # the violation is the first cell's base: a tie, which the violation wins
    (AT_BASE, ((1, 1), 1), PrimitiveSimplex((1, 1), (1, 2)), "violation"),
    # the violation is the first cell's top, with a color in 0..k: the
    # vertex is still tested as a top, so the cell wins
    (AT_TOP, ((2, 2), 1), PrimitiveSimplex((1, 1), (1, 2)), "cell"),
])
def test_held_violation_is_ordered_by_base(colors, violation, cell, expected):
    coloring = dict(zip(vertices(3, 2), colors)).__getitem__
    vertex, c = violation
    assert [u[:2] for u in check_sperner(3, 2, coloring).violations] == [violation]
    assert c in range(3) and c not in carrier(vertex, 3)
    assert brute_panchromatic(3, 2, coloring)[0] == cell
    assert cell.base <= vertex <= cell.vertices()[-1]
    assert find_panchromatic(3, 2, coloring) == (cell if expected == "cell" else violation)


def test_drawn_coloring_is_sperner_with_known_cells():
    assert check_sperner(5, 2, DRAWN_COLORING.__getitem__).is_sperner
    cells = brute_panchromatic(5, 2, DRAWN_COLORING.__getitem__)
    assert [(s.base, s.perm) for s in cells] == [
        ((2, 0), (1, 2)), ((2, 0), (2, 1)), ((3, 1), (1, 2))]
    assert find_panchromatic(5, 2, DRAWN_COLORING.__getitem__) == cells[0]
    bold = PrimitiveSimplex((3, 1), (1, 2))
    assert bold in cells
    assert bold.vertices() == ((3, 1), (4, 1), (4, 2))
    assert format_inputs(inp((3, 1), 5)) == "21100"


class _TableColoring:
    """A coloring from a table, read the way sperner_walk reads a coloring.

    It checks the configuration the walk keeps up to date against inp and
    records every vertex the walk colors.
    """

    def __init__(self, n, k, table):
        self.n, self.k, self.table, self.colored = n, k, table, []

    def _color(self, v, cfg):
        assert tuple(cfg) == inp(v, self.n), (v, cfg)
        self.colored.append(v)
        return self.table[v]


def test_sperner_walk_on_the_drawn_coloring():
    # up the x1 axis to (2, 0), whose color 1 completes the edge cell
    # ((1, 0), (1,)), up to (2, 1), then one pivot to (3, 1), colored 2
    coloring = _TableColoring(5, 2, DRAWN_COLORING)
    cell, colors = kuhn.sperner_walk(coloring)
    assert cell == PrimitiveSimplex((2, 0), (2, 1)) and colors == (1, 0, 2)
    assert cell in brute_panchromatic(5, 2, DRAWN_COLORING.__getitem__)
    assert coloring.colored == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]


def test_sperner_walk_k1_and_a_wrong_origin():
    threshold = {(x,): 0 if x < 2 else 1 for x in range(5)}
    assert kuhn.sperner_walk(_TableColoring(4, 1, threshold)) == \
        (PrimitiveSimplex((1,), (1,)), (0, 1))
    # the origin's carrier is {0}, and the walk starts there
    wrong = _TableColoring(3, 2, dict.fromkeys(vertices(3, 2), 1))
    assert kuhn.sperner_walk(wrong) == ((0, 0), (1,)) and wrong.colored == [(0, 0)]


def test_sperner_walk_matches_the_brute_oracles_on_table_colorings():
    # Sperner colorings always give a panchromatic cell; palette colorings
    # give a cell or a carrier violation, both checked by brute force.  The
    # walk colors each vertex once and keeps every configuration right
    rng = random.Random(1967)
    kinds = set()
    for k in range(1, 5):
        for n in range(1, 8 if k < 4 else 5):
            for kind in ("sperner", "palette"):
                for _ in range(8):
                    verts = list(vertices(n, k))
                    if kind == "sperner":
                        table = {v: rng.choice(sorted(carrier(v, n))) for v in verts}
                    else:
                        table = {v: rng.randrange(k + 1) for v in verts}
                    coloring = _TableColoring(n, k, table)
                    found, colors = kuhn.sperner_walk(coloring)
                    assert len(coloring.colored) == len(set(coloring.colored))
                    if isinstance(found, PrimitiveSimplex):
                        assert found in brute_panchromatic(n, k, table.__getitem__)
                        assert colors == tuple(map(table.__getitem__, found.vertices()))
                        assert coloring.colored[-1] in found.vertices()
                    else:
                        assert kind == "palette" and coloring.colored[-1] == found
                        assert colors[0] == table[found] not in carrier(found, n)
                    kinds.add((kind, type(found).__name__))
    assert kinds == {("sperner", "PrimitiveSimplex"), ("palette", "PrimitiveSimplex"),
                     ("palette", "tuple")}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 2))
def test_random_sperner_colorings_have_panchromatic_cell(seed, n, k):
    rng = random.Random(seed)
    coloring = {v: rng.choice(sorted(carrier(v, n))) for v in vertices(n, k)}
    assert check_sperner(n, k, coloring.__getitem__).is_sperner
    cell = find_panchromatic(n, k, coloring.__getitem__)
    assert {coloring[v] for v in cell.vertices()} == set(range(k + 1))
    assert cell == brute_panchromatic(n, k, coloring.__getitem__)[0]
