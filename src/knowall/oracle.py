"""Baselines for the test suite: the package neither imports nor exports them.

`brute_domination` and `brute_panchromatic` re-implement the production
searches independently, and `check_sperner` colors every vertex.
`find_panchromatic`, the reference scan the tests hold kuhn.sperner_walk
to, enumerates the whole triangulation (`vertices`, `primitive_simplices`)
and returns the first Sperner witness in (base, permutation) order.
`view_of`, `assign_node` and `color` read a node's view, a vertex's node
and a vertex's color (a `run` read at that node) from plain reach sets
grown round by round from graph_at, with no closure masks, Instance or
ViewTable.  They trust their arguments, which only tests pass.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations, count, groupby, islice, permutations, product
from operator import attrgetter, eq

from .dyngraph import Arc, DynamicGraphSpec, graph_at
from .errors import CapExceeded, NoPanchromaticCell
from .kuhn import PrimitiveSimplex, Vertex
from .protocol import AlgorithmSpec, View, run

Carrier = frozenset[int]
Coloring = Callable[[Vertex], int]

BRUTE_DOMINATION_CAP = 20
BRUTE_SIMPLEX_CAP = 10 ** 6


def reach_sets(spec: DynamicGraphSpec) -> Iterator[list[set[int]]]:
    """The reach sets of H_0, H_1, ...: entry u-1 of the r-th holds every node
    u's token can occupy after rounds 1..r, grown one round graph at a time."""
    reach = [{u} for u in range(1, spec.n + 1)]
    for t in count(1):
        yield reach
        arcs = graph_at(spec, t)
        reach = [s | {v for u, v in arcs if u in s} for s in reach]


def view_of(spec: DynamicGraphSpec, inputs, observer: int, budget: int) -> View:
    """The inputs `observer` heard by `budget`, senders in increasing order."""
    reach = next(islice(reach_sets(spec), budget, None))
    return View(observer, budget, {u: inputs[u - 1] for u in range(1, spec.n + 1)
                                   if observer in reach[u - 1]})


def assign_node(spec: DynamicGraphSpec, budget: int, v: Vertex) -> int:
    """Smallest node that no positive coordinate of v reaches by `budget`."""
    reach = next(islice(reach_sets(spec), budget, None))
    heard = set().union(*(reach[x - 1] for x in v if x))
    return min(set(range(1, spec.n + 1)) - heard)


def color(spec: DynamicGraphSpec, k: int, budget: int, alg: AlgorithmSpec, v: Vertex) -> int:
    """`alg`'s output at v's node when node i holds the number of coordinates >= i."""
    cfg = tuple(sum(x >= i for x in v) for i in range(1, spec.n + 1))
    return run(spec, k, alg, cfg, budget).outputs[assign_node(spec, budget, v) - 1]


def _monotone(bound: int, k: int) -> Iterator[Vertex]:
    # odometer: bump the rightmost coordinate still below its bound (the
    # coordinate before it, or `bound` for the first) and zero the rest
    v = [0] * k
    while True:
        yield tuple(v)
        j = k - 1
        while j >= 0 and v[j] == (v[j - 1] if j else bound):
            j -= 1
        if j < 0:
            return
        v[j] += 1
        v[j + 1:] = [0] * (k - 1 - j)


def vertices(n: int, k: int) -> Iterator[Vertex]:
    """All lattice vertices in lexicographic order; there are C(n+k, k)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n} k={k}")
    return _monotone(n, k)


def _prefixes(n: int, base: Vertex) -> Iterator[tuple[int, ...]]:
    """The permutation prefixes whose unit steps from `base` stay in the simplex,
    depth first with the steps in increasing order, so whole permutations come
    in lexicographic order; a step leaving the simplex drops every extension."""
    stack = [(list(base), (), tuple(range(1, len(base) + 1)))]
    while stack:
        cur, prefix, rest = stack.pop()
        yield prefix
        for i in range(len(rest) - 1, -1, -1):  # pushed last to first, popped first
            j = rest[i]
            # only the bound on the bumped coordinate can break
            if cur[j - 1] < (n if j == 1 else cur[j - 2]):
                corner = cur.copy()
                corner[j - 1] += 1
                stack.append((corner, prefix + (j,), rest[:i] + rest[i + 1:]))


def primitive_simplices(n: int, k: int) -> Iterator[PrimitiveSimplex]:
    """Stream the n^k cells in (base, permutation) lexicographic order.

    A base with x1 = n has no cell.  Elsewhere coordinate j can step unless
    it ties with an unstepped coordinate j-1, so the permutations depend
    only on the ties, and each tie pattern is walked once, at most k+1
    prefixes per cell, since the lowest coordinate left can always step.
    """
    perms_by_ties: dict[tuple[bool, ...], list[tuple[int, ...]]] = {}
    for base in vertices(n, k):
        if base[0] == n:
            continue
        ties = tuple(map(eq, base, base[1:]))
        perms = perms_by_ties.get(ties)
        if perms is None:
            perms = perms_by_ties[ties] = [p for p in _prefixes(n, base) if len(p) == k]
        for perm in perms:
            yield PrimitiveSimplex(base=base, perm=perm)


def carrier(v: Vertex, n: int) -> Carrier:
    """Face of the simplex containing v: values with positive barycentric weight."""
    # value j has weight x_j - x_{j+1}, reading x_0 = n and x_{k+1} = 0
    xs = (n, *v, 0)
    return frozenset(j for j in range(len(v) + 1) if xs[j] > xs[j + 1])


def find_panchromatic(n: int, k: int,
                      coloring: Coloring) -> PrimitiveSimplex | tuple[Vertex, int]:
    """First Sperner witness: a vertex colored outside its carrier, or a cell.

    `coloring` is called once per vertex, in vertices(n, k) order.  The
    cells of base b, a group of primitive_simplices, are tested when the
    scan reaches their top corner b+(1,...,1), whose predecessors include
    every corner, and the tops meet the groups in stream order.  The first
    vertex p colored outside its carrier is returned as (p, color) at the
    first top whose base is p or later, or at the end.  So the witness is
    the first in (base, permutation) order, a tie at p going to p, and
    nothing past its top is colored.  NoPanchromaticCell after a full scan
    is a tripwire that Sperner's lemma leaves no coloring to reach.
    """
    palette = set(range(k + 1))
    colors: dict[Vertex, int] = {}
    held = None
    groups = groupby(primitive_simplices(n, k), attrgetter("base"))
    for v in vertices(n, k):
        c = colors[v] = coloring(v)
        if held is None and c not in carrier(v, n):
            held = v, c
        if v[-1]:
            base, cells = next(groups)
            if held is not None and held[0] <= base:
                return held
            for cell in cells:
                if set(map(colors.__getitem__, cell.vertices())) == palette:
                    return cell
    if held is not None:
        return held
    raise NoPanchromaticCell(
        f"no panchromatic cell in the n={n}, k={k} triangulation although every "
        "vertex was colored inside its carrier, which Sperner's lemma rules out")


def brute_domination(n: int, arcs: Iterable[Arc], cap: int = BRUTE_DOMINATION_CAP) -> int:
    """Domination number of the digraph on 1..n with these arcs, by subset enumeration."""
    if n > cap:
        raise CapExceeded(f"brute domination capped at n <= {cap}, got n = {n}")
    covers = {u: {u} for u in range(1, n + 1)}
    for u, v in arcs:
        covers[u].add(v)
    everyone = set(range(1, n + 1))
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            seen = set()
            for u in combo:
                seen |= covers[u]
            if seen == everyone:
                return size
    raise AssertionError("the full node set always dominates")


def brute_panchromatic(n: int, k: int, coloring: Coloring,
                       cap: int = BRUTE_SIMPLEX_CAP) -> list[PrimitiveSimplex]:
    """All panchromatic cells, enumerated here from scratch.

    Raw k-tuple bases filtered for monotonicity, then permutations in
    lexicographic order, give primitive_simplices' order without its code:
    the first entry is the cell find_panchromatic must return, unless a
    vertex colored outside its carrier comes first.
    """
    if n ** k > cap:
        raise CapExceeded(f"brute panchromatic scan capped at {cap} cells")
    target = set(range(k + 1))
    found = []
    for base in product(range(n + 1), repeat=k):
        if any(a < b for a, b in zip(base, base[1:])):
            continue
        for perm in permutations(range(1, k + 1)):
            pts = [base]
            for j in perm:
                cur = list(pts[-1])
                cur[j - 1] += 1
                pts.append(tuple(cur))
            good = all(
                p[0] <= n and p[-1] >= 0 and all(a >= b for a, b in zip(p, p[1:]))
                for p in pts)
            if good and {coloring(p) for p in pts} == target:
                found.append(PrimitiveSimplex(base=base, perm=perm))
    return found


@dataclass(frozen=True)
class SpernerReport:
    """Violations are (vertex, color, carrier) in vertex enumeration order."""

    is_sperner: bool
    violations: tuple[tuple[Vertex, int, Carrier], ...]


def check_sperner(n: int, k: int, coloring: Coloring) -> SpernerReport:
    """Verify every vertex's color lies in its carrier, coloring them all."""
    violations = []
    for v in vertices(n, k):
        c, held = coloring(v), carrier(v, n)
        if c not in held:
            violations.append((v, c, held))
    return SpernerReport(is_sperner=not violations, violations=tuple(violations))
