"""Cover decisions and domination numbers over bitmasks; imports nothing of the package.

Bit v - 1 of a mask is node v: covers[v - 1] holds the nodes v covers,
itself included, and dom[v - 1] the nodes that dominate v.  find_cover is
the one decision: can `slots` nodes of `avail` cover `uncovered`?  It
returns the members it found, 1-based, so a caller can go on from them.

Closures only grow, so the domination number never increases with r:
each round whose closure changed starts from the round before
(domination_number), and its number is proven by the cheapest of three
proofs: counting, the forced members (nodes that hear nobody else)
covering everyone, or one failing cover decision (_cover) on the nodes
they leave uncovered.  Only the round a caller asks for rebuilds its
member list (dyngraph.min_dominating_set).
"""
from __future__ import annotations


def _greedy_members(covers: tuple[int, ...], full: int, limit: int) -> list[int]:
    """Greedy cover of `full` in pick order, cut off after `limit` members.

    Each pick takes the node that covers the most nodes still uncovered,
    ties going to the smallest id.  Gains only shrink, so a scan stops at
    the first node that gains as much as the pick before it.
    """
    n = len(covers)
    members = []
    uncovered = full
    best = full.bit_count()
    while uncovered and len(members) < limit:
        gain, pick = 0, -1
        for u in range(n):
            g = (covers[u] & uncovered).bit_count()
            if g > gain:  # strict: ties go to the smallest id
                gain, pick = g, u
                if g == best:
                    break
        members.append(pick + 1)
        uncovered &= ~covers[pick]
        best = gain
    return members


def _order(dom: tuple[int, ...], uncovered: int, avail: int) -> list[tuple[int, int, int]] | None:
    """(dominator count, bit, dominators) of each node of `uncovered`, fewest first.

    Dominators are taken within `avail` and ties go to the smaller id; the
    order is None when some node has no dominator in avail.
    """
    order = []
    m = uncovered
    while m:
        low = m & -m
        m ^= low
        dm = dom[low.bit_length() - 1] & avail
        if not dm:
            return None
        order.append((dm.bit_count(), low, dm))
    order.sort()
    return order


def find_cover(covers: tuple[int, ...], dom: tuple[int, ...], uncovered: int, avail: int,
               slots: int, widest: int) -> list[int] | None:
    """Sorted members of at most `slots` nodes of `avail` that cover `uncovered`, or None.

    Nothing left to cover needs no member.  Counting against `widest`, the
    largest cover, comes next.  The nodes to cover are then sorted once
    (_order), which fails a node that no node of avail dominates.  The
    failure memo lives as long as this call.
    """
    if not uncovered:
        return []
    if uncovered.bit_count() > slots * widest:
        return None
    order = _order(dom, uncovered, avail)
    found = None if order is None else _cover(covers, order, uncovered, slots, widest, {})
    return None if found is None else sorted(found)


def _cover(covers: tuple[int, ...], order: list[tuple[int, int, int]],
           uncovered: int, slots: int, widest: int, failed: dict[int, int]) -> list[int] | None:
    """Members, in no order, of `slots` dominators in `order` that cover `uncovered`, or None.

    Three tests fail a search before it branches: more nodes to cover than
    slots * widest, where no node covers more than `widest`; a mask that
    `failed` maps to at least `slots`; and more uncovered nodes with
    pairwise disjoint dominators, taken greedily in order, than slots,
    since no member dominates two of them.  Otherwise the search branches
    on the dominators of the first uncovered node in order, the one with
    the fewest, and a mask it fails on goes into `failed` with its slots.
    Those entries hold only for these covers and the dominators the order
    offers, so `failed` lives for one round's searches or one decision.
    `uncovered` is never empty: find_cover answers that case itself.
    """
    if uncovered.bit_count() > slots * widest or failed.get(uncovered, -1) >= slots:
        return None
    # disjointly dominated nodes each need a slot, and a last slot needs no
    # recursion
    pick = taken = 0
    packed = slots
    for _, bit, dm in order:
        if uncovered & bit:
            if not pick:
                pick = dm
            if not dm & taken:
                taken |= dm
                packed -= 1
                if packed < 0:
                    return None
    while pick:
        low = pick & -pick
        pick ^= low
        rest = uncovered & ~covers[low.bit_length() - 1]
        if not rest:
            return [low.bit_length()]
        if slots > 1 and (found := _cover(covers, order, rest, slots - 1, widest, failed)):
            found.append(low.bit_length())
            return found
    failed[uncovered] = slots
    return None


def domination_number(covers: tuple[int, ...], dom: tuple[int, ...], upper: int) -> int:
    """Domination number, at most `upper`, which must be attained.

    The cheapest proof comes first.  Counting: more than (upper - 1) *
    widest nodes need upper members.  Forced members: the set F of nodes
    that hear nobody else lies in every dominating set (the first rule of
    Alber, Fellows and Niedermeier, J. ACM 2004), and is the answer when it
    covers everyone.  Otherwise the greedy cover of `rest`, the nodes F
    leaves uncovered, cut off at upper - |F|, is the start, and the size
    steps down to each cover of rest found with one node fewer: a number g
    is then proven by one failing root decision (_cover on rest, g - |F| -
    1 slots).  The decisions share one fewest-dominators-first order and
    one failure memo, dropped when the number is known.
    """
    n = len(covers)
    widest = max(map(int.bit_count, covers))
    if n > (upper - 1) * widest:
        return upper
    forced = taken = 0
    for v, heard in enumerate(dom):
        if heard == 1 << v:
            forced += 1
            taken |= covers[v]
    full = (1 << n) - 1
    rest = full & ~taken
    if not rest:
        return forced
    g = len(_greedy_members(covers, rest, upper - forced))
    order = _order(dom, rest, full)
    failed: dict[int, int] = {}
    while (found := _cover(covers, order, rest, g - 1, widest, failed)) is not None:
        g = len(found)
    return forced + g
