"""Triangulated input space and the Sperner walk that refutation follows.

The corner-of-a-cube simplex {n >= x1 >= ... >= xk >= 0} is cut into
n^k primitive cells, each the convex hull of a base lattice point plus a
chain of k unit steps ordered by a permutation.  Every lattice vertex v
carries an input configuration inp(v) (node i holds the number of
coordinates that are >= i) and a node that hears none of the positive
coordinates of v within the refuted budget: the lowest node outside the
union of those coordinates' reach masks in H_budget.

Coloring each vertex with the output the candidate algorithm produces at
its node turns correctness questions combinatorial: a color outside the
vertex's carrier (the values its configuration holds) is a value nobody
holds, and otherwise a panchromatic cell must exist, whose k+1 corners
decode to k+1 nodes outputting k+1 distinct values in a single
configuration.

algorithm_coloring checks the domination precondition once, through its
instance's closure_below_bound, and returns the coloring as a function of
the vertex: it keeps that closure's reach masks, decodes each vertex's
node from them, and reads every color through the one ViewTable it
builds; it is the package's one way to a vertex's node and color.
sperner_walk, which refute uses, follows doors from the origin through
the faces x_{d+1} = ... = x_k = 0 of increasing dimension (Kuhn 1968,
Cohen 1967) and colors only the vertices on that path, each once; its
witness is the first vertex on the path colored outside its carrier, or
the cell the path ends at.  The module enumerates nothing: the
whole-triangulation enumeration and the reference scan the tests hold
the walk to are test baselines in oracle.
"""
from __future__ import annotations

from collections.abc import Sequence

from .dyngraph import DynamicGraphSpec, Instance
from .errors import LemmaFalsified, NoPanchromaticCell
from .protocol import AlgorithmSpec, InputConfig, Record, ViewTable

Vertex = tuple[int, ...]


def is_vertex(v: Vertex, n: int) -> bool:
    """Monotone lattice point of ints: n >= x1 >= ... >= xk >= 0.

    ValueError unless n is exactly an int, tested before any comparison.
    """
    # bool is a subclass of int, so test the exact type
    if type(n) is not int:
        raise ValueError(f"n is {n!r}, not an integer")
    if len(v) < 1 or any(type(x) is not int for x in v) or v[0] > n or v[-1] < 0:
        return False
    return all(a >= b for a, b in zip(v, v[1:]))


class PrimitiveSimplex(Record):
    """Unit cell: base vertex plus one unit step per permutation entry."""

    __slots__ = ("base", "perm")

    def __init__(self, base: Vertex, perm: tuple[int, ...]) -> None:
        super().__init__(base, perm)

    def vertices(self) -> tuple[Vertex, ...]:
        pts = [self.base]
        for j in self.perm:
            prev = list(pts[-1])
            prev[j - 1] += 1
            pts.append(tuple(prev))
        return tuple(pts)


def _config(v: Vertex, n: int) -> InputConfig:
    # v is monotone, so the configuration is k repeated v[k-1] times,
    # then k-1 repeated v[k-2] - v[k-1] times, ..., then n - v[0] zeros
    k = len(v)
    cfg = (k,) * v[-1]
    for j in range(k - 1, 0, -1):
        cfg += (j,) * (v[j - 1] - v[j])
    return cfg + (0,) * (n - v[0])


def inp(v: Vertex, n: int) -> InputConfig:
    """Input configuration of a vertex: node i holds #{coordinates >= i}.

    ValueError unless v is a vertex for n and n is small enough to index a tuple.
    """
    if not is_vertex(v, n):
        raise ValueError(f"{v} is not a vertex for n={n}")
    try:
        return _config(v, n)
    except OverflowError:  # n is past what a tuple can index
        raise ValueError(f"n = {n} is too large for a configuration of n inputs") from None


class AlgorithmColoring:
    """The vertex coloring an algorithm induces at a budget below the bound.

    Calling the object colors one vertex, and node(v) is its assigned
    node, the lowest one outside the reach masks of v's positive
    coordinates in the closure of the instance's refutability decision;
    both refuse anything but a vertex of the (n, k) triangulation.
    sperner_walk colors through _color, from configurations it keeps
    itself.  Every color is read through the coloring's one ViewTable, so
    `decide` runs once per distinct view however the vertices are asked
    for.
    """

    def __init__(self, instance: Instance, budget: int, alg: AlgorithmSpec) -> None:
        self.n, self.k = instance.spec.n, instance.k
        self._reach = instance.closure_below_bound(budget).reach
        self._table = ViewTable(instance, alg, budget)

    def _check(self, v: Vertex) -> None:
        if len(v) != self.k or not is_vertex(v, self.n):
            raise ValueError(f"{v} is not a vertex for n={self.n}, k={self.k}")

    def _unheard(self, v: Vertex) -> int:
        # the lowest node outside the reach masks of v's positive coordinates,
        # which name at most k nodes: the decision showed they reach not all
        reach = self._reach
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

    def node(self, v: Vertex) -> int:
        """Assigned node of the vertex v."""
        self._check(v)
        return self._unheard(v)

    def __call__(self, v: Vertex) -> int:
        self._check(v)
        return self._color(v, _config(v, self.n))

    def _color(self, v: Vertex, cfg: Sequence[int]) -> int:
        # the color of the vertex v given its configuration cfg, unchecked;
        # sperner_walk derives cfg from a neighbouring corner's
        return self._table.output(self._unheard(v), cfg)


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
