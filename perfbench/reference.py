"""Independent reference computations over the JSON graph documents.

Nothing here imports knowall: the generator uses these functions to pick
budgets, and the verifiers use them to check the program's answers, so a
defect in the program's own closure or domination code cannot confirm
itself.
"""
from __future__ import annotations


def round_arcs(doc: dict, t: int) -> list:
    """Arc list of round graph G_t (t >= 1) under the document's extension."""
    rounds = doc["rounds"]
    m = len(rounds)
    if t <= m:
        return rounds[t - 1]
    if doc["extension"] == "repeat_last":
        return rounds[m - 1]
    return rounds[(t - 1) % m]


def _advance(doc: dict, t: int, reach: list[set[int]]) -> list[set[int]]:
    """Reach sets after round t, given those after round t - 1."""
    step: dict[int, list[int]] = {}
    for u, v in round_arcs(doc, t):
        step.setdefault(u, []).append(v)
    return [held | {v for w in held for v in step.get(w, ())} for held in reach]


def reach_sets(doc: dict, r: int) -> list[set[int]]:
    """reach[u - 1] = nodes v with (u, v) an arc of the closure H_r."""
    reach = [{u} for u in range(1, doc["n"] + 1)]
    for t in range(1, r + 1):
        reach = _advance(doc, t, reach)
    return reach


def _masks(reach: list[set[int]]) -> list[int]:
    return [sum(1 << (v - 1) for v in held) for held in reach]


def dominated_within(reach: list[set[int]], k: int) -> bool:
    """True when some set of at most k nodes covers every node of H."""
    n = len(reach)
    cover = _masks(reach)
    dominators = [[u for u in range(n) if cover[u] >> x & 1] for x in range(n)]

    def search(uncovered: int, slots: int) -> bool:
        if not uncovered:
            return True
        if not slots:
            return False
        # branch on the uncovered node with the fewest dominators
        x = min((x for x in range(n) if uncovered >> x & 1),
                key=lambda x: len(dominators[x]))
        return any(search(uncovered & ~cover[u], slots - 1) for u in dominators[x])

    return search((1 << n) - 1, k)


def tight_bound(doc: dict, k: int, limit: int = 1000) -> int:
    """Smallest r >= 1 whose closure is dominated by k nodes."""
    reach = [{u} for u in range(1, doc["n"] + 1)]
    for r in range(1, limit + 1):
        reach = _advance(doc, r, reach)
        if dominated_within(reach, k):
            return r
    raise ValueError(f"no bound within {limit} rounds")
