"""Triangulated input space and the Sperner machinery for refutation.

The corner-of-a-cube simplex {n >= x1 >= ... >= xk >= 0} is cut into
n^k primitive cells, each the convex hull of a base lattice point plus a
chain of k unit steps ordered by a permutation.  Every lattice vertex v
carries an input configuration inp(v) (node i holds the number of
coordinates that are >= i) and a node assign_node(v) that hears none of
the positive coordinates of v within the refuted budget: the lowest node
outside the union of those coordinates' reach masks in H_budget.

Coloring each vertex with the output the candidate algorithm produces at
its assigned node turns correctness questions combinatorial: a color
outside the carrier is a value nobody holds (validity broken at that
vertex's configuration), and otherwise a panchromatic cell must exist,
whose k+1 corners decode to k+1 nodes outputting k+1 distinct values in
a single configuration.

algorithm_coloring checks the domination precondition once and colors
each vertex from the reach masks and a shared ViewTable, when asked.
find_panchromatic is one pass over the bases in enumeration order: it
tests each base's color against its carrier, then walks the base's
permutations as a prefix tree, dropping a prefix as soon as its corners
leave the triangulation, repeat a color or take one outside 0..k; no
cell below such a prefix can be panchromatic, so the first cell reached
is the first in enumeration order, and no later base is visited.  The
check that colors every vertex, a baseline for the tests, is
oracle.check_sperner.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import permutations

from .dyngraph import DynamicGraphSpec, _exists_cover, _search_masks, min_rounds
from .errors import BudgetNotBelowBound, LemmaFalsified, NoPanchromaticCell
from .protocol import AlgorithmSpec, InputConfig, ViewTable

Vertex = tuple[int, ...]
Carrier = frozenset[int]
Coloring = Callable[[Vertex], int]


def is_vertex(v: Vertex, n: int) -> bool:
    """Monotone lattice point: n >= x1 >= ... >= xk >= 0."""
    if len(v) < 1 or v[0] > n or v[-1] < 0:
        return False
    return all(a >= b for a, b in zip(v, v[1:]))


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


def _config(v: Vertex, n: int) -> InputConfig:
    # v is monotone, so the configuration is k repeated v[k-1] times,
    # then k-1 repeated v[k-2] - v[k-1] times, ..., then n - v[0] zeros
    k = len(v)
    cfg = (k,) * v[-1]
    for j in range(k - 1, 0, -1):
        cfg += (j,) * (v[j - 1] - v[j])
    return cfg + (0,) * (n - v[0])


def inp(v: Vertex, n: int) -> InputConfig:
    """Input configuration of a vertex: node i holds #{coordinates >= i}."""
    if not is_vertex(v, n):
        raise ValueError(f"{v} is not a vertex for n={n}")
    return _config(v, n)


def carrier(v: Vertex, n: int) -> Carrier:
    """Face of the simplex containing v: values with positive barycentric weight."""
    # value j has weight x_j - x_{j+1}, reading x_0 = n and x_{k+1} = 0
    xs = (n, *v, 0)
    return frozenset(j for j in range(len(v) + 1) if xs[j] > xs[j + 1])


def _reach_below_bound(spec: DynamicGraphSpec, k: int, budget: int) -> tuple[int, ...]:
    """Reach masks of H_budget, after checking that no k nodes dominate it.

    The package's one refutability check, a single k-slot cover decision:
    gamma never increases, so it holds exactly below min_rounds(spec, k),
    or always if no bound exists.  When it fails min_rounds <= budget, so
    the message cannot raise.
    """
    covers, dom = _search_masks(spec, budget)
    full = (1 << spec.n) - 1
    if _exists_cover(covers, dom, full, full, k):
        raise BudgetNotBelowBound(
            f"budget {budget} is not below the tight bound {min_rounds(spec, k)}")
    return covers


def _unheard_node(reach: tuple[int, ...], v: Vertex) -> int:
    """Lowest node outside the reach masks of v's positive coordinates."""
    heard = 0
    for x in v:
        if x:
            heard |= reach[x - 1]
    free = ((1 << len(reach)) - 1) & ~heard
    if not free:
        raise LemmaFalsified(
            f"the positive coordinates of {v} reach every node although the "
            f"closure needs more than {len(v)} dominators")
    return (free & -free).bit_length()


def assign_node(spec: DynamicGraphSpec, k: int, budget: int, v: Vertex) -> int:
    """Smallest node hearing none of v's positive coordinates within budget.

    Requires the domination number of H_budget to exceed k, which
    guarantees such a node exists for every vertex: at most k coordinates
    cannot reach every node.  Otherwise the budget is at or above the
    tight bound and BudgetNotBelowBound is raised.
    """
    if len(v) != k or not is_vertex(v, spec.n):
        raise ValueError(f"{v} is not a vertex for n={spec.n}, k={k}")
    return _unheard_node(_reach_below_bound(spec, k, budget), v)


def color(spec: DynamicGraphSpec, k: int, budget: int, alg: AlgorithmSpec, v: Vertex) -> int:
    """Output of the algorithm at v's assigned node on v's configuration."""
    if len(v) != k or not is_vertex(v, spec.n):
        raise ValueError(f"{v} is not a vertex for n={spec.n}, k={k}")
    return algorithm_coloring(spec, k, budget, alg)(v)


def algorithm_coloring(spec: DynamicGraphSpec, k: int, budget: int,
                       alg: AlgorithmSpec) -> Coloring:
    """Vertex-coloring view of an algorithm, memoized per vertex.

    The domination precondition of assign_node is checked once, here,
    before the ViewTable is built, and a vertex passed in is trusted to be
    one of the (spec.n, k) triangulation.  Vertices share one ViewTable,
    so `decide` runs once per distinct view.  The returned function's
    `reach` attribute holds the reach masks the vertices are decoded
    with, so that a caller decoding witness nodes decides nothing again.
    """
    reach = _reach_below_bound(spec, k, budget)
    table = ViewTable(spec, k, alg, budget)
    n = spec.n
    cache: dict[Vertex, int] = {}

    def coloring(v: Vertex) -> int:
        out = cache.get(v)
        if out is None:
            out = cache[v] = table.output(_unheard_node(reach, v), _config(v, n))
        return out

    coloring.reach = reach
    return coloring


def _in_carrier(v: Vertex, c: int, n: int) -> bool:
    # c is in carrier(v, n) iff 0 <= c <= k and xs[c] > xs[c+1], xs = (n, *v, 0)
    k = len(v)
    return 0 <= c <= k and (v[c - 1] if c else n) > (v[c] if c < k else 0)


def find_panchromatic(n: int, k: int,
                      coloring: Coloring) -> PrimitiveSimplex | tuple[Vertex, int]:
    """First Sperner witness: a vertex colored outside its carrier, or a cell.

    Bases are taken in vertices(n, k) order.  A base colored outside its
    carrier ends the pass as (vertex, color); otherwise the base's first
    panchromatic cell, if any, ends it.  A cell's other corners follow its
    base, so either witness is the first of its kind in enumeration order
    and a tie goes to the violation.  Sperner's lemma leaves only an
    inconsistent coloring to reach NoPanchromaticCell.  The coloring is
    called once per corner visited, so a costly one should memoize itself.
    """
    palette = frozenset(range(k + 1))
    for base in vertices(n, k):
        color0 = coloring(base)
        if not _in_carrier(base, color0, n):
            return base, color0
        # depth-first over permutation prefixes; a stack entry is
        # (last corner, corner colors, prefix), and children are pushed in
        # decreasing coordinate order so that prefixes pop in lex order
        stack = [(base, (color0,), ())]
        while stack:
            corner, colors, perm = stack.pop()
            if len(perm) == k:
                # k+1 distinct colors, all in 0..k: exactly the palette
                return PrimitiveSimplex(base=base, perm=perm)
            for j in range(k, 0, -1):
                if j in perm:
                    continue
                x = corner[j - 1] + 1
                # only the bound on the bumped coordinate can break
                if x > (n if j == 1 else corner[j - 2]):
                    continue
                nxt = corner[:j - 1] + (x,) + corner[j:]
                c = coloring(nxt)
                if c in palette and c not in colors:
                    stack.append((nxt, colors + (c,), perm + (j,)))
    raise NoPanchromaticCell(
        f"no panchromatic cell in the n={n}, k={k} triangulation although every "
        "vertex was colored inside its carrier; the coloring is inconsistent")
