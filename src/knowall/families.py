"""Ready-made graph sequences used by the docs, the tests, and the README."""
from __future__ import annotations

from .dyngraph import DynamicGraphSpec, Extension


def directed_cycle(n: int) -> DynamicGraphSpec:
    """Static C_n with arcs i -> i+1 (mod n)."""
    arcs = frozenset((i, i % n + 1) for i in range(1, n + 1))
    return DynamicGraphSpec(n=n, rounds=(arcs,))


def complete_graph(n: int) -> DynamicGraphSpec:
    """Static K_n with both arc directions everywhere."""
    arcs = frozenset((u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v)
    return DynamicGraphSpec(n=n, rounds=(arcs,))


def directed_path(n: int) -> DynamicGraphSpec:
    """Static path 1 -> 2 -> ... -> n."""
    arcs = frozenset((i, i + 1) for i in range(1, n))
    return DynamicGraphSpec(n=n, rounds=(arcs,))


def staggered_relay() -> DynamicGraphSpec:
    """Cycling 3-round sequence on 4 nodes where the relay order matters.

    Rounds cycle through {1->2}, {3->4}, {2->3}; node 1's token needs
    two trips around the period to reach node 4, so consensus takes five
    rounds even though each round graph is a single arc.
    """
    return DynamicGraphSpec(
        n=4,
        rounds=(frozenset({(1, 2)}), frozenset({(3, 4)}), frozenset({(2, 3)})),
        extension=Extension.CYCLE,
    )

