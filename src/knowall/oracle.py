"""Brute-force baselines for the test suite.

`brute_domination` and `brute_panchromatic` are deliberately independent
re-implementations of the production searches, and `check_sperner` colors
every vertex where the refuter stops at the first witness; only tests use
them, to cross-examine the fast paths.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .dyngraph import Arc
from .errors import CapExceeded
from .kuhn import Carrier, Coloring, PrimitiveSimplex, Vertex, carrier, vertices

BRUTE_DOMINATION_CAP = 20
BRUTE_SIMPLEX_CAP = 10 ** 6


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

    Bases are scanned as raw k-tuples filtered for monotonicity and
    permutations lexicographically, which reproduces the order of
    kuhn.primitive_simplices without sharing its code; the first list
    entry is therefore the cell kuhn.find_panchromatic must return,
    unless a vertex colored outside its carrier comes first.
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
