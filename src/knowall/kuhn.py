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

algorithm_coloring checks the domination precondition once, through its
instance's closure_below_bound, and returns the coloring as a function of
the vertex that keeps the closure it got, with every color read through
the instance's ViewTable.  sperner_walk, which refute uses, follows doors
from the origin through the faces x_{d+1} = ... = x_k = 0 of increasing
dimension (Kuhn 1968, Cohen 1967) and colors only the vertices on that
path, each once; its witness is the first vertex on the path colored
outside its carrier, or the cell the path ends at.  find_panchromatic,
the reference scan the tests hold the walk to, returns the first witness
in (base, permutation) order instead.  The check that colors every
vertex, a baseline for the tests, is oracle.check_sperner.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, eq

from .dyngraph import DynamicGraphSpec, Instance
from .errors import NoPanchromaticCell
from .protocol import AlgorithmSpec, InputConfig

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


def _prefixes(n: int, base: Vertex) -> Iterator[tuple[int, ...]]:
    """The permutation prefixes whose unit steps from `base` stay in the simplex.

    Depth first with the steps in increasing coordinate order, so the
    whole permutations among them come in lexicographic order; a step
    that leaves the simplex drops its prefix and every extension of it.
    """
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

    A base with x1 = n has no cell, since coordinate 1 cannot step.  At
    any other base, coordinate j can step unless it ties with coordinate
    j-1 that has not stepped yet, so the cells' permutations depend only
    on which consecutive coordinates tie, and each tie pattern is walked
    once.  Such a walk never reaches a dead end (the lowest coordinate
    left can always step), so it visits at most k+1 prefixes per cell.
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


def assign_node(spec: DynamicGraphSpec, k: int, budget: int, v: Vertex) -> int:
    """Smallest node hearing none of v's positive coordinates within budget.

    Requires the domination number of H_budget to exceed k, which
    guarantees such a node exists for every vertex: at most k coordinates
    cannot reach every node.  Otherwise the budget is at or above the
    tight bound and BudgetNotBelowBound is raised.
    """
    instance = Instance(spec, k)
    if len(v) != k or not is_vertex(v, spec.n):
        raise ValueError(f"{v} is not a vertex for n={spec.n}, k={k}")
    return instance.closure_below_bound(budget).unheard(v)


def color(spec: DynamicGraphSpec, k: int, budget: int, alg: AlgorithmSpec, v: Vertex) -> int:
    """Output of the algorithm at v's assigned node on v's configuration."""
    return algorithm_coloring(spec, k, budget, alg)(v)


class AlgorithmColoring:
    """The vertex coloring an algorithm induces at a budget below the bound.

    Calling the object colors one vertex, and node(v) is its assigned
    node, both decoded by the closure of the instance's one refutability
    decision; both refuse anything but a vertex of the (n, k)
    triangulation.  sperner_walk colors through _color, from
    configurations it keeps itself.  Every color is read through the
    instance's ViewTable, so `decide` runs once per distinct view however
    the vertices are asked for.
    """

    def __init__(self, instance: Instance, budget: int, alg: AlgorithmSpec) -> None:
        self.n, self.k = instance.spec.n, instance.k
        self._closure = instance.closure_below_bound(budget)
        self._table = instance.table(alg, budget)

    def _check(self, v: Vertex) -> None:
        if len(v) != self.k or not is_vertex(v, self.n):
            raise ValueError(f"{v} is not a vertex for n={self.n}, k={self.k}")

    def node(self, v: Vertex) -> int:
        """Assigned node of the vertex v."""
        self._check(v)
        return self._closure.unheard(v)

    def __call__(self, v: Vertex) -> int:
        self._check(v)
        return self._color(v, _config(v, self.n))

    def _color(self, v: Vertex, cfg: Sequence[int]) -> int:
        # the color of the vertex v given its configuration cfg, unchecked;
        # sperner_walk derives cfg from a neighbouring corner's
        return self._table.output(self._closure.unheard(v), cfg)


def algorithm_coloring(spec: DynamicGraphSpec, k: int, budget: int,
                       alg: AlgorithmSpec) -> AlgorithmColoring:
    """The coloring `alg` induces on the (spec.n, k) triangulation at `budget`."""
    return AlgorithmColoring(Instance(spec, k), budget, alg)


def sperner_walk(coloring: AlgorithmColoring) -> tuple[PrimitiveSimplex | Vertex, tuple[int, ...]]:
    """Follow doors from the origin to a panchromatic cell, coloring only the path.

    F_d is the face x_{d+1} = ... = x_k = 0, triangulated by the cells
    (base, perm) with perm a permutation of 1..d, and a door of such a
    cell is a facet colored exactly 0..d-1.  The walk starts at the
    origin, the 0-cell of F_0, and moves to the next cell through a door;
    a cell colored 0..d goes up into F_{d+1} by appending step d+1, and a
    door lying in F_{d-1} (the cell's last step is d and its base has
    x_d = 0) goes down to that face, leaving the cell there through the
    facet opposite its corner colored d-1.  Inside F_d a move is a
    Freudenthal pivot: dropping corner 0 bumps the base by e_{perm[0]} and
    rotates perm left, dropping corner d lowers it by e_{perm[-1]} and
    rotates perm right, dropping an inner corner i swaps perm[i-1] and
    perm[i].  A cell on the path has at most two doors, and the origin and
    a cell colored 0..k are the only ends, so the walk ends at such a cell
    (Cohen's proof of Sperner's lemma).

    Each vertex is colored at most once, when the walk first reaches it,
    and tested against its carrier; the first color outside it ends the
    walk as (vertex, (color,)).  Otherwise the result is the cell and the
    colors of its k+1 corners.  Since every colored vertex respects its
    carrier, a door lies on the boundary of F_d only in F_{d-1}, so a
    pivot that leaves the simplex, a return to the origin or more moves
    than there are cells raises NoPanchromaticCell as a tripwire.
    """
    n, k = coloring.n, coloring.k
    color = coloring._color
    origin, cfg = (0,) * k, [0] * n
    c = color(origin, cfg)
    if c:  # the origin's carrier is {0}
        return origin, (c,)
    seen = {origin: 0}
    # the current cell of F_d: its corners, their configurations and colors
    pts, cfgs, cols, perm = [origin], [cfg], [0], []
    d = new = 0  # corner `new` was colored last
    moves = sum(n ** e for e in range(1, k + 1))  # the cells of F_1, ..., F_k
    while True:
        c = cols[new]
        if c == d:  # the cell is colored 0..d
            if d == k:
                return PrimitiveSimplex(base=pts[0], perm=tuple(perm)), tuple(cols)
            # up into F_{d+1}: coordinate d+1 of the top corner steps from 0 to 1
            p, cfg = pts[d], cfgs[d].copy()
            v = p[:d] + (1,) + p[d + 1:]
            d += 1
            cfg[0] = d
            perm.append(d)
            pts.append(v)
            cfgs.append(cfg)
            cols.append(0)
            new = d
        else:
            # the door just crossed has each of 0..d-1 once, so c is on one other corner
            j = cols.index(c)
            if j == new:
                j = cols.index(c, j + 1)
            while j == d:  # dropping the top corner lowers the base
                m = perm[-1]
                p = pts[0]
                a = p[m - 1]
                if a > (p[m] if m < k else 0):
                    break
                if m != d or d == 1:
                    raise NoPanchromaticCell(
                        f"the Sperner walk on the n={n}, k={k} triangulation left the "
                        f"simplex below {p} by a door colored {cols[:-1]}")
                # the door is a cell of F_{d-1} colored 0..d-1: go down to it
                del pts[-1], cfgs[-1], cols[-1], perm[-1]
                d -= 1
                j = cols.index(d)
            if j == d:
                # a lowered coordinate m from a to a-1 leaves node a with m-1 inputs >= a
                v = p[:m - 1] + (a - 1,) + p[m:]
                cfg = cfgs[0].copy()
                cfg[a - 1] = m - 1
                del pts[-1], cfgs[-1], cols[-1]
                pts.insert(0, v)
                cfgs.insert(0, cfg)
                cols.insert(0, 0)
                perm.insert(0, perm.pop())
                new = 0
            else:
                # dropping corner 0 steps the top by perm[0], an inner corner j
                # steps corner j-1 by perm[j]
                src, m = (j - 1, perm[j]) if j else (d, perm[0])
                p = pts[src]
                a = p[m - 1]
                if a >= (p[m - 2] if m > 1 else n):
                    raise NoPanchromaticCell(
                        f"the Sperner walk on the n={n}, k={k} triangulation left the "
                        f"simplex above {p} by a door colored {cols[:j] + cols[j + 1:]}")
                # a coordinate m bumped from a to a+1 gives node a+1 m inputs >= a+1
                v = p[:m - 1] + (a + 1,) + p[m:]
                cfg = cfgs[src].copy()
                cfg[a] = m
                if j:
                    pts[j], cfgs[j] = v, cfg
                    perm[j - 1], perm[j] = m, perm[j - 1]
                    new = j
                else:
                    del pts[0], cfgs[0], cols[0]
                    pts.append(v)
                    cfgs.append(cfg)
                    cols.append(0)
                    perm.append(perm.pop(0))
                    new = d
        moves -= 1
        if moves < 0:
            raise NoPanchromaticCell(
                f"the Sperner walk on the n={n}, k={k} triangulation made more moves "
                "than there are cells")
        c = seen.get(v)
        if c is None:
            c = seen[v] = color(v, cfg)
            # c is in v's carrier iff x_c > x_{c+1}, reading x_0 = n and x_{k+1} = 0
            if (v[c - 1] if c else n) <= (v[c] if c < k else 0):
                return v, (c,)
        cols[new] = c


def find_panchromatic(n: int, k: int,
                      coloring: Coloring) -> PrimitiveSimplex | tuple[Vertex, int]:
    """First Sperner witness: a vertex colored outside its carrier, or a cell.

    `coloring` is called once per vertex, in vertices(n, k) order.  The
    cells of base b, a group of primitive_simplices, are tested when the
    scan reaches their shared top corner b+(1,...,1): every corner lies
    componentwise between b and the top, so it is already colored, and
    since b -> b+(1,...,1) keeps the order, the tops reach the groups in
    stream order.  The first cell of the group whose corners are colored
    exactly 0..k is returned.  The first vertex colored outside its
    carrier, p, is returned as (p, color) when the scan reaches a top
    whose base is p or later, or at the end of the scan.  So the witness
    is the first in (base, permutation) order, a tie at p going to the
    violation, and nothing past its top corner is colored.  After a full
    scan, NoPanchromaticCell is a tripwire that Sperner's lemma leaves no
    coloring to reach.
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
