"""Triangulated input space and the Sperner machinery for refutation.

The corner-of-a-cube simplex {n >= x1 >= ... >= xk >= 0} is cut into
n^k primitive cells, each the convex hull of a base lattice point plus a
chain of k unit steps ordered by a permutation.  Every lattice vertex v
carries an input configuration inp(v) (node i holds the number of
coordinates that are >= i) and a node assign_node(v) that hears none of
the positive coordinates of v within the refuted budget.

Coloring each vertex with the output the candidate algorithm produces at
its assigned node turns correctness questions combinatorial: a color
outside the carrier is a value nobody holds (validity broken at that
vertex's configuration), and otherwise a panchromatic cell must exist,
whose k+1 corners decode to k+1 nodes outputting k+1 distinct values in
a single configuration.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator, Mapping, Union

from .dyngraph import DynamicGraphSpec, closure, min_dominating_set
from .errors import AssignmentImpossible, NoPanchromaticCell
from .protocol import AlgorithmSpec, InputConfig, ViewTable

Vertex = tuple[int, ...]
Carrier = frozenset[int]
Coloring = Union[Callable[[Vertex], int], Mapping[Vertex, int]]


def is_vertex(v: Vertex, n: int) -> bool:
    """Monotone lattice point: n >= x1 >= ... >= xk >= 0."""
    if len(v) < 1 or v[0] > n or v[-1] < 0:
        return False
    return all(a >= b for a, b in zip(v, v[1:]))


def _monotone(bound: int, k: int) -> Iterator[Vertex]:
    if k == 0:
        yield ()
        return
    for x in range(bound + 1):
        for rest in _monotone(x, k - 1):
            yield (x, *rest)


def vertices(n: int, k: int) -> Iterator[Vertex]:
    """All lattice vertices in lexicographic order; there are C(n+k, k)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    return _monotone(n, k)


@dataclass(frozen=True)
class PrimitiveSimplex:
    """Unit cell: base vertex plus one unit step per permutation entry."""

    base: Vertex
    perm: tuple[int, ...]

    def vertices(self) -> tuple[Vertex, ...]:
        pts = [self.base]
        for j in self.perm:
            prev = list(pts[-1])
            prev[j - 1] += 1
            pts.append(tuple(prev))
        return tuple(pts)


def primitive_simplices(n: int, k: int) -> Iterator[PrimitiveSimplex]:
    """Stream the n^k cells in (base, permutation) lexicographic order."""
    perms = list(permutations(range(1, k + 1)))
    for base in vertices(n, k):
        for perm in perms:
            cur = list(base)
            ok = True
            for j in perm:
                cur[j - 1] += 1
                # only the bound on the bumped coordinate can break
                limit = n if j == 1 else cur[j - 2]
                if cur[j - 1] > limit:
                    ok = False
                    break
            if ok:
                yield PrimitiveSimplex(base=base, perm=perm)


def inp(v: Vertex, n: int) -> InputConfig:
    """Input configuration of a vertex: node i holds #{coordinates >= i}."""
    if not is_vertex(v, n):
        raise ValueError(f"{v} is not a vertex for n={n}")
    return tuple(sum(1 for x in v if x >= i) for i in range(1, n + 1))


def carrier(v: Vertex, n: int) -> Carrier:
    """Face of the simplex containing v: values with positive barycentric weight."""
    k = len(v)
    diffs = {0: n - v[0], k: v[k - 1]}
    for j in range(1, k):
        diffs[j] = v[j - 1] - v[j]
    return frozenset(j for j, d in diffs.items() if d > 0)


def assign_node(spec: DynamicGraphSpec, k: int, budget: int, v: Vertex) -> int:
    """Smallest node hearing none of v's positive coordinates within budget.

    Requires the domination number of H_budget to exceed k (true at any
    budget below the tight bound), which guarantees such a node exists
    for every vertex.
    """
    if len(v) != k or not is_vertex(v, spec.n):
        raise ValueError(f"{v} is not a vertex for n={spec.n}, k={k}")
    H = closure(spec, budget)
    if min_dominating_set(H).size <= k:
        raise AssignmentImpossible(
            f"H_{budget} is dominated by {k} or fewer nodes; the budget is not below the bound")
    senders = {x for x in v if x != 0}
    blocked = set(senders)
    for u, w in H.arcs:
        if u in senders:
            blocked.add(w)
    for w in range(1, spec.n + 1):
        if w not in blocked:
            return w
    raise AssertionError("k+ nodes cannot dominate yet blocked everything")


def color(spec: DynamicGraphSpec, k: int, budget: int, alg: AlgorithmSpec,
          v: Vertex, table: ViewTable | None = None) -> int:
    """Output of the algorithm at v's assigned node on v's configuration.

    `table`, a ViewTable for the same (spec, k, alg, budget), carries the
    views already decided across calls; without one a fresh table is used.
    """
    node = assign_node(spec, k, budget, v)
    if table is None:
        table = ViewTable(spec, k, alg, budget)
    return table.output(node, inp(v, spec.n))


def algorithm_coloring(spec: DynamicGraphSpec, k: int, budget: int,
                       alg: AlgorithmSpec) -> Callable[[Vertex], int]:
    """Vertex-coloring view of an algorithm, memoized per vertex.

    Vertices share one ViewTable, so `decide` runs once per distinct view.
    """
    table = ViewTable(spec, k, alg, budget)
    cache: dict[Vertex, int] = {}

    def coloring(v: Vertex) -> int:
        if v not in cache:
            cache[v] = color(spec, k, budget, alg, v, table)
        return cache[v]

    return coloring


def _color_fn(coloring: Coloring) -> Callable[[Vertex], int]:
    if callable(coloring):
        cache: dict[Vertex, int] = {}

        def fn(v: Vertex) -> int:
            if v not in cache:
                cache[v] = coloring(v)
            return cache[v]

        return fn
    return coloring.__getitem__


@dataclass(frozen=True)
class SpernerReport:
    """Violations are (vertex, color, carrier) in vertex enumeration order."""

    is_sperner: bool
    violations: tuple[tuple[Vertex, int, Carrier], ...]


def check_sperner(n: int, k: int, coloring: Coloring) -> SpernerReport:
    """Verify every vertex's color lies in its carrier."""
    fn = _color_fn(coloring)
    violations = []
    for v in vertices(n, k):
        c = fn(v)
        car = carrier(v, n)
        if c not in car:
            violations.append((v, c, car))
    return SpernerReport(is_sperner=not violations, violations=tuple(violations))


def find_panchromatic(n: int, k: int, coloring: Coloring) -> PrimitiveSimplex:
    """First cell (in enumeration order) whose corners take all k+1 colors.

    For a Sperner coloring one always exists; NoPanchromaticCell can
    only surface when the precondition was violated.
    """
    fn = _color_fn(coloring)
    target = frozenset(range(k + 1))
    for simplex in primitive_simplices(n, k):
        if frozenset(fn(v) for v in simplex.vertices()) == target:
            return simplex
    raise NoPanchromaticCell(
        f"no panchromatic cell in the n={n}, k={k} triangulation; coloring was not Sperner")
