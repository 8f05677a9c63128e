from __future__ import annotations

import copy
import inspect
import json
import math
import pickle
import random
import re
import sys
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowall import (
    MAX_HEARD,
    MIN_HEARD,
    BudgetNotBelowBound,
    CapExceeded,
    DynamicGraphSpec,
    Extension,
    GraphFormatError,
    Instance,
    NeverDominated,
    ViewTable,
    closure,
    complete_graph,
    directed_cycle,
    directed_path,
    domination_numbers,
    exhaustive_check,
    flood_dominator,
    graph_at,
    load_graph_file,
    min_dominating_set,
    min_rounds,
    refute,
    save_graph_file,
    spec_from_dict,
    spec_to_dict,
    staggered_relay,
    to_dot,
)
from knowall import domination, dyngraph
from knowall.cli import main
from knowall.domination import _greedy_members, domination_number, find_cover
from knowall.dyngraph import closure_at
from knowall.oracle import brute_domination, reach_sets

from conftest import random_spec


def arcs_of(spec, t):
    return sorted(graph_at(spec, t))


def gamma_of(spec, r):
    # the domination number of H_r, H_0's being n
    return (spec.n, *domination_numbers(spec, r))[r]


@st.composite
def specs(draw, max_n=7, max_prefix=3):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    rounds = tuple(
        draw(st.frozensets(st.sampled_from(pairs)))
        for _ in range(draw(st.integers(1, max_prefix))))
    ext = draw(st.sampled_from([Extension.REPEAT_LAST, Extension.CYCLE]))
    return DynamicGraphSpec(n=n, rounds=rounds, extension=ext)


# ---------------------------------------------------------------------------
# sequence access
# ---------------------------------------------------------------------------


def test_graph_at_prefix_and_extensions():
    g1 = frozenset({(1, 2)})
    g2 = frozenset({(2, 3)})
    rep = DynamicGraphSpec(3, (g1, g2), Extension.REPEAT_LAST)
    cyc = DynamicGraphSpec(3, (g1, g2), Extension.CYCLE)
    assert arcs_of(rep, 1) == [(1, 2)]
    assert arcs_of(rep, 2) == [(2, 3)]
    assert arcs_of(rep, 3) == [(2, 3)]
    assert arcs_of(rep, 99) == [(2, 3)]
    assert arcs_of(cyc, 3) == [(1, 2)]
    assert arcs_of(cyc, 4) == [(2, 3)]
    assert arcs_of(cyc, 7) == [(1, 2)]


def test_graph_at_rejects_bad_round():
    with pytest.raises(ValueError):
        graph_at(directed_cycle(3), 0)
    # a round index is exactly an int, on a one-graph repeat_last spec and a
    # two-graph cycle spec alike: never truncated, and a bool is not one
    two_graph_cycle = DynamicGraphSpec(
        5, (frozenset({(1, 2)}), frozenset({(2, 3)})), extension=Extension.CYCLE)
    for spec in (directed_cycle(5), two_graph_cycle):
        for bad in (True, 1.5):
            message = rf"^rounds are numbered by integers, got t={bad}$"
            with pytest.raises(ValueError, match=message):
                graph_at(spec, bad)
        assert graph_at(spec, 1) == spec.rounds[0]


def test_spec_validation():
    with pytest.raises(ValueError):
        DynamicGraphSpec(1, (frozenset(),))
    with pytest.raises(ValueError):
        DynamicGraphSpec(3, ())
    with pytest.raises(ValueError):
        DynamicGraphSpec(3, (frozenset({(1, 4)}),))
    with pytest.raises(ValueError):
        DynamicGraphSpec(3, (frozenset({(2, 2)}),))
    # n and arc endpoints must be exactly int: never truncated or parsed
    for bad in (3.0, 3.5, True, "3"):
        with pytest.raises(ValueError, match="must be integers"):
            DynamicGraphSpec(bad, (frozenset({(1, 2)}),))
        with pytest.raises(ValueError, match="must be integers"):
            DynamicGraphSpec(3, (frozenset({(1, bad)}),))
    # the type check runs before the range checks, in the order given
    with pytest.raises(ValueError, match=r"must be integers, got 2\.5$"):
        DynamicGraphSpec(1, ([(1, 2), (1, 2.5), (1, "x")],))


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def test_closure_r0_is_identity(c5):
    assert closure(c5, 0) == frozenset((i, i) for i in range(1, 6))


def test_closure_c5_is_cyclic_distance(c5):
    # (u, v) in H_r iff v is at most r steps ahead of u on the cycle
    for r in range(5):
        expected = frozenset(
            (u, (u - 1 + d) % 5 + 1) for u in range(1, 6) for d in range(min(r, 4) + 1))
        assert closure(c5, r) == expected
    assert len(closure(c5, 1)) == 10
    assert len(closure(c5, 2)) == 15


def test_closure_uses_each_round_graph(relay):
    # staggered relays: node 1's token needs rounds 1, 3, and 5 (wrapping
    # the 3-round cycle) to reach node 4
    reach1 = [sorted(v for (u, v) in closure(relay, r) if u == 1) for r in range(6)]
    assert reach1 == [[1], [1, 2], [1, 2], [1, 2, 3], [1, 2, 3], [1, 2, 3, 4]]


@settings(max_examples=40, deadline=None)
@given(specs(), st.integers(0, 5))
def test_closure_reflexive_and_monotone(spec, r):
    lo, hi = closure(spec, r), closure(spec, r + 1)
    for i in range(1, spec.n + 1):
        assert (i, i) in lo
    assert lo <= hi


@settings(max_examples=30, deadline=None)
@given(specs(max_prefix=1), st.integers(0, 4))
def test_closure_static_matches_bfs(spec, r):
    arcs = spec.rounds[0]
    for src in range(1, spec.n + 1):
        seen = {src}
        frontier = {src}
        for _ in range(r):
            frontier = {v for (u, v) in arcs if u in frontier and v not in seen}
            seen |= frontier
        assert {v for (u, v) in closure(spec, r) if u == src} == seen


# ---------------------------------------------------------------------------
# dominating sets
# ---------------------------------------------------------------------------


def test_min_dominating_c5_closures(c5):
    assert min_dominating_set(c5, 1) == (1, 2, 4)
    assert min_dominating_set(c5, 2) == (1, 3)
    assert min_dominating_set(c5, 4) == (1,)
    for r in (1, 2, 4):
        assert len(min_dominating_set(c5, r)) == brute_domination(5, closure(c5, r))


def test_min_dominating_complete_and_identity(k4):
    assert min_dominating_set(k4, 1) == (1,)
    assert min_dominating_set(k4, 0) == (1, 2, 3, 4)


def test_lex_smallest_among_optima():
    # out-stars from 2 and from 4 both dominate alone; 2 < 4 must win
    arcs = frozenset({(2, 1), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3)})
    assert min_dominating_set(DynamicGraphSpec(4, (arcs,)), 1) == (2,)


def test_domination_is_directional():
    # only in-arcs from members count: sinks must join the set themselves
    spec = DynamicGraphSpec(3, (frozenset({(2, 1), (3, 1)}),))
    assert min_dominating_set(spec, 1) == (2, 3)


def test_dominating_set_covers_everyone(c5, p4, relay):
    for spec in (c5, p4, relay, complete_graph(5)):
        for r in range(4):
            members = set(min_dominating_set(spec, r))
            covered = members | {v for u, v in closure(spec, r) if u in members}
            assert covered == set(range(1, spec.n + 1))


def test_grown_masks_match_naive_reach_sets_and_their_transpose():
    # the oracle's reach sets, grown one round graph at a time as sets; the
    # in-masks are grown separately and must be exactly the transpose of the
    # reach masks
    rng = random.Random(4669)
    rules = set()
    for _ in range(150):
        spec = random_spec(rng, max_n=9)
        n = spec.n
        for r, reach in zip(range(3 * n + 1), reach_sets(spec)):
            h = closure_at(spec, r)
            masks, into = h.reach, h.into
            assert [{v for v in range(1, n + 1) if m >> (v - 1) & 1} for m in masks] == reach
            assert into == tuple(sum(1 << u for u in range(n) if masks[u] >> v & 1)
                                 for v in range(n)), (spec, r)
            for v in range(1, n + 1):
                assert h.senders[v - 1] == tuple(u for u in range(1, n + 1)
                                                 if v in reach[u - 1])
            assert closure(spec, r) == {(u, v) for u in range(1, n + 1) for v in reach[u - 1]}
        rules.add(spec.extension)
    assert len(rules) == 2


def test_closure_reads_its_arcs_from_the_senders_alone(monkeypatch):
    # closure() lists each node's senders instead of testing all n^2 pairs
    # of reach bits: handed a closure with no reach masks, it still yields
    # exactly the self-arcs of a large empty round
    n = 10_000
    h = closure_at(DynamicGraphSpec(n, [[]]), 1)
    monkeypatch.setattr(dyngraph, "closure_at", lambda spec, r: dyngraph.Closure((), h.into))
    assert closure(DynamicGraphSpec(n, [[]]), 1) == {(v, v) for v in range(1, n + 1)}


def test_exists_cover_matches_subset_enumeration():
    rng = random.Random(1729)
    answers = set()
    for _ in range(150):
        spec = random_spec(rng, max_n=10)
        n = spec.n
        r = rng.randint(0, 3)
        h = closure_at(spec, r)
        covers, dom = h.reach, h.into
        widest = max(c.bit_count() for c in covers)
        for _ in range(8):
            avail = rng.getrandbits(n)
            offered = [x for x in range(n) if avail >> x & 1]
            uncovered = rng.choice((rng.getrandbits(n), (1 << n) - 1))
            for slots in range(4):
                expected = any(
                    not uncovered & ~_union(covers, combo)
                    for size in range(slots + 1) for combo in combinations(offered, size))
                found = find_cover(covers, dom, uncovered, avail, slots, widest)
                assert (found is not None) == expected, (spec, r, avail, uncovered, slots)
                # the members found are sorted nodes of avail, at most slots of
                # them, and they cover
                if found is not None:
                    assert found == sorted(set(found)) and len(found) <= slots
                    assert all(avail >> (v - 1) & 1 for v in found)
                    assert not uncovered & ~_union(covers, [v - 1 for v in found])
                answers.add(expected)
    assert answers == {True, False}


def _union(covers, combo):
    acc = 0
    for x in combo:
        acc |= covers[x]
    return acc


def test_exact_cap():
    with pytest.raises(CapExceeded, match=r"capped at n <= 32, got n = 33$"):
        min_dominating_set(directed_cycle(33), 1)


def test_greedy_examples(c5, k4):
    assert _greedy_members(closure_at(c5, 1).reach, (1 << 5) - 1, 5) == [1, 3, 4]
    assert _greedy_members(closure_at(k4, 1).reach, (1 << 4) - 1, 4) == [1]
    # cut off after `limit` members
    assert _greedy_members(closure_at(c5, 1).reach, (1 << 5) - 1, 2) == [1, 3]


def _full_scan_greedy(covers, full, limit):
    # every pick scans every node and takes the smallest id of largest
    # gain; the picks come with their gains
    members, gains, uncovered = [], [], full
    while uncovered and len(members) < limit:
        scan = [(c & uncovered).bit_count() for c in covers]
        pick = scan.index(max(scan))
        members.append(pick + 1)
        gains.append(scan[pick])
        uncovered &= ~covers[pick]
    return members, gains


def test_greedy_members_match_a_full_scan_greedy():
    # the scan that stops at the previous pick's gain picks the same nodes,
    # in the same order, whatever is to be covered and wherever it is cut off
    rng = random.Random(5077)
    stopped = 0
    for _ in range(300):
        n = rng.randint(2, 16)
        prob = rng.choice((0.1, 0.3, 0.5))
        covers = tuple(sum(1 << v for v in range(n) if v == u or rng.random() < prob)
                       for u in range(n))
        full = rng.choice(((1 << n) - 1, rng.getrandbits(n)))
        for limit in range(n + 1):
            members, gains = _full_scan_greedy(covers, full, limit)
            assert _greedy_members(covers, full, limit) == members, (covers, full, limit)
        # two picks of equal gain in a row: the second scan stops early
        stopped += any(a == b for a, b in zip(gains, gains[1:]))
    assert stopped >= 50


class _CountedReads(tuple):
    # a covers tuple that counts its reads
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_each_greedy_scan_stops_at_the_previous_picks_gain():
    # nodes 1, 2 and 3 each cover two nodes and 4..6 only themselves: the
    # first scan reads all 6 covers, and the next two stop at node 2 and at
    # node 3, which gain as much as the pick before; each pick reads its
    # cover once more
    covers = _CountedReads((0b11, 0b1100, 0b110000, 0b1000, 0b10000, 0b100000))
    assert _greedy_members(covers, 0b111111, 6) == [1, 2, 3]
    assert covers.reads == 6 + 2 + 3 + 3


def _counting(monkeypatch, name, calls):
    # record the arguments and the result of every call of a domination
    # function, recursive calls included
    real = getattr(domination, name)

    def counted(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(domination, name, counted)


def _forced(covers, dom):
    # the nodes that hear nobody else, and the mask of the nodes they cover
    forced = [v for v in range(len(dom)) if dom[v] == 1 << v]
    return forced, _union(covers, forced)


def test_cycles_are_settled_without_branching(monkeypatch):
    # on a directed cycle each node of H_t covers t + 1 nodes, so gamma is
    # ceil(n / (t + 1)): a round whose number stays is settled by counting
    # before any other proof, and one whose number drops by one pass of the
    # ring proof; no round sorts, runs the greedy or searches
    calls = {name: [] for name in ("_cover", "_order", "_greedy_members", "_ring_number")}
    for name, seen in calls.items():
        _counting(monkeypatch, name, seen)
    settled = dropped = 0
    for n in range(5, 33):
        spec = directed_cycle(n)
        for t in range(1, n):
            for seen in calls.values():
                seen.clear()
            g = gamma_of(spec, t)
            assert g == -(-n // (t + 1)), (n, t)
            if g == gamma_of(spec, t - 1):
                assert not any(calls.values()), (n, t)
                settled += 1
            else:
                [(args, found)] = calls["_ring_number"]
                assert (args[0], found) == (closure_at(spec, t).reach, g), (n, t)
                assert not any(seen for name, seen in calls.items() if name != "_ring_number")
                dropped += 1
    assert (settled, dropped) == (300, 190)


def test_lower_bounds_and_every_start_match_brute_force(monkeypatch):
    greedy, searched = [], []
    _counting(monkeypatch, "_greedy_members", greedy)
    _counting(monkeypatch, "_cover", searched)
    rng = random.Random(1414)
    rules = set()
    cases = []
    for _ in range(150):
        spec = random_spec(rng, max_n=14)
        h = closure_at(spec, rng.randint(0, 3))
        cases.append((spec, h.reach, h.into))
        rules.add(spec.extension)
    # only node 9 is forced, and on the rest the greedy takes node 2 (5
    # nodes), then 5 and 1, one more than {1, 5}
    covers = (0b1111, 0b1101110, 0b100, 0b11000, 0b11110000, 0b100000, 0b1000000, 0b10000001,
              0b100000000)
    cases.append(("greedy above gamma", covers,
                  tuple(sum(1 << u for u in range(9) if covers[u] >> v & 1) for v in range(9))))
    proven = 0
    searched_down = False
    for spec, covers, dom in cases:
        n = len(covers)
        forced, _ = _forced(covers, dom)
        arcs = {(u + 1, v + 1) for u in range(n) for v in range(n) if covers[u] >> v & 1}
        gamma = brute_domination(n, arcs)
        assert -(-n // max(c.bit_count() for c in covers)) <= gamma
        assert len(forced) <= gamma
        for upper in range(gamma, n + 1):
            greedy.clear()
            searched.clear()
            assert domination_number(covers, dom, upper) == gamma, (spec, upper)
            # where the greedy ran, its start (the forced members and the
            # greedy cover of the rest, cut off at upper) lay above gamma
            # somewhere, so successful decisions stepped the size down
            if greedy:
                start = len(forced) + len(greedy[0][1])
                assert start <= upper, (spec, upper)
                searched_down |= gamma < start
            # one failure memo per call, and each of its masks really fails
            # with the slots it is kept with
            memos = {id(args[5]): args[5] for args, _ in searched}
            assert len(memos) <= 1
            for failed in memos.values():
                proven += len(failed)
                for uncovered, slots in failed.items():
                    assert all(uncovered & ~_union(covers, combo)
                               for combo in combinations(range(n), slots)), (spec, upper)
    assert len(rules) == 2
    assert searched_down
    assert proven >= 20


def test_every_domination_number_is_proven_by_exactly_one_form(monkeypatch):
    # whatever upper a round starts from, its number g is certified in one
    # of three ways, tried in this order: counting (n > (g - 1) * widest,
    # no decision made); the forced members F, the nodes that hear nobody
    # else, covering every node with g = |F| (no decision made); or, as the
    # last decision made, a root call on rest, the nodes F leaves uncovered,
    # with g - |F| - 1 slots that fails.  The root calls before it succeed,
    # and each starts from the size of the cover the one before found
    searched = []
    _counting(monkeypatch, "_cover", searched)
    rng = random.Random(2718)
    rules = set()
    forms = {"counting": 0, "forced": 0, "search": 0}
    searched_after_forced = descents = 0
    for _ in range(150):
        spec = random_spec(rng, max_n=12)
        n = spec.n
        full = (1 << n) - 1
        h = closure_at(spec, rng.randint(0, 3))
        covers, dom = h.reach, h.into
        widest = max(c.bit_count() for c in covers)
        forced, taken = _forced(covers, dom)
        gamma = domination_number(covers, dom, n)
        counted = n > (gamma - 1) * widest
        for upper in range(gamma, n + 1):
            searched.clear()
            assert domination_number(covers, dom, upper) == gamma, (spec, upper)
            if not searched and upper == gamma and counted:
                forms["counting"] += 1
            elif not searched and taken == full:
                assert gamma == len(forced), (spec, upper)
                forms["forced"] += 1
            else:
                args, found = searched[-1]
                assert not (upper == gamma and counted) and taken != full, (spec, upper)
                assert (args[2], args[3], found) == (
                    full & ~taken, gamma - len(forced) - 1, None), (spec, upper)
                # a recursive call covers fewer nodes than the root
                roots = [(args[3], found) for args, found in searched
                         if args[2] == full & ~taken]
                sizes = [len(found) for _, found in roots[:-1]]
                assert None not in [found for _, found in roots[:-1]], (spec, upper)
                assert sizes == sorted(set(sizes), reverse=True), (spec, upper)
                assert [slots for slots, _ in roots[1:]] == [g - 1 for g in sizes], (spec, upper)
                descents += len(sizes)
                forms["search"] += 1
                searched_after_forced += bool(forced)
        rules.add(spec.extension)
    assert len(rules) == 2
    assert all(forms.values()) and searched_after_forced and descents, forms
    assert sum(forms.values()) >= 600


def test_domination_number_matches_brute_force_on_forced_heavy_specs():
    # sequences where many nodes hear nobody else: single-arc rounds, a
    # round where n - 1 nodes hear nobody, a cycle beside silent nodes,
    # and sparse random rounds
    rng = random.Random(3023)
    cases = []
    for n in range(2, 15):
        u, v = rng.sample(range(1, n + 1), 2)
        cases.append(DynamicGraphSpec(n, [[(u, v)]]))
        cases.append(DynamicGraphSpec(n, [[(u, n) for u in range(1, n)]]))
        m = rng.randint(2, n)
        cases.append(DynamicGraphSpec(n, [[(u, u % m + 1) for u in range(1, m + 1)]]))
        arcs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, n))]
        cases.append(DynamicGraphSpec(n, [arcs[:1], arcs], rng.choice(list(Extension))))
    forced_all = forced_some = 0
    for spec in cases:
        n = spec.n
        for r in range(3):
            h = closure_at(spec, r)
            covers, dom = h.reach, h.into
            gamma = brute_domination(n, closure(spec, r))
            forced, taken = _forced(covers, dom)
            forced_all += taken == (1 << n) - 1
            forced_some += 0 < len(forced) < gamma
            for upper in range(gamma, n + 1):
                assert domination_number(covers, dom, upper) == gamma, (spec, r, upper)
            assert gamma_of(spec, r) == gamma
            assert len(min_dominating_set(spec, r)) == gamma
    assert forced_all >= 20 and forced_some >= 20


def test_the_search_orders_only_the_nodes_the_forced_members_leave(monkeypatch):
    # node 1 hears nobody, so it is forced; the cycle 2 -> 3 -> 4 -> 5 -> 2
    # it leaves needs two more, and the failing one-slot decision on it
    # sorts those four nodes only
    orders = []
    _counting(monkeypatch, "_order", orders)
    h = closure_at(DynamicGraphSpec(5, [[(2, 3), (3, 4), (4, 5), (5, 2)]]), 1)
    assert domination_number(h.reach, h.into, 5) == 3
    assert [(args[1], args[2]) for args, _ in orders] == [(0b11110, 0b11111)]


def test_counting_rules_out_a_decision_before_any_order(monkeypatch, c5):
    orders = []
    _counting(monkeypatch, "_order", orders)
    # no 2 nodes of H_1 of the 5-cycle, each covering 2, cover 5 > 2 * 2
    assert Instance(c5, 2).closure_below_bound(1) is closure_at(c5, 1)
    assert orders == []
    # node 1 covers 1..4 in round 1 and nobody but 1 hears node 1 or 5, so
    # F = {1, 5} settles gamma without an order; min_dominating_set then
    # orders node 5 for node 1's decision, which succeeds. With 1 taken,
    # nodes 2 to 4, each covering only itself, leave node 5 to 0 slots and
    # fail by counting alone, and node 5's decision, with nothing left to
    # cover, orders nothing
    spec = DynamicGraphSpec(5, [[(1, 2), (1, 3), (1, 4)]])
    assert min_dominating_set(spec, 1) == (1, 5)
    assert [args[1] for args, _ in orders] == [1 << 4]


def _ring_spec(rng):
    # a seeded sequence whose round graphs' union is one cycle through all
    # n nodes, one path, or several paths, on shuffled node ids; every arc
    # of the union occurs in at least one round
    n = rng.randint(2, 32)
    nodes = rng.sample(range(1, n + 1), n)
    kind = rng.choice(("cycle", "path", "forest"))
    arcs = list(zip(nodes, nodes[1:] + nodes[:1]))
    if kind != "cycle":
        arcs.pop()
    if kind == "forest":
        arcs = [arc for arc in arcs if rng.random() < 0.8]
    rounds = [set() for _ in range(rng.randint(1, 4))]
    density = rng.choice((0.2, 0.5, 0.9))
    for arc in arcs:
        rng.choice(rounds).add(arc)
        for rnd in rounds:
            if rng.random() < density:
                rnd.add(arc)
    spec = DynamicGraphSpec(n, tuple(map(frozenset, rounds)), rng.choice(list(Extension)))
    return spec, kind, arcs


def test_the_ring_proof_matches_the_search_and_brute_force():
    # on every stored closure of ring-shaped sequences, the ring proof gives
    # the number the search without the ring gives, from upper = gamma and
    # upper = n, and brute force agrees for n <= 20 where it enumerates at
    # most 30,000 node sets
    rng = random.Random(4040)
    kinds, closures, brutes = set(), 0, 0
    for _ in range(150):
        spec, kind, arcs = _ring_spec(rng)
        n = spec.n
        closure_at(spec, 10 ** 6)  # every closure, up to the fixed one
        ring = spec._memo.ring
        assert ring is not None and sorted(ring) == list(range(n)), (spec, kind)
        assert all(ring[v - 1] == (ring[u - 1] + 1) % n for u, v in arcs), (spec, kind)
        kinds.add((kind, spec.extension))
        for h in {id(h): h for h in spec._memo.closures[1:]}.values():
            gamma = domination_number(h.reach, h.into, n)
            for upper in (gamma, n):
                assert domination_number(h.reach, h.into, upper, ring) == gamma, (spec, upper)
            closures += 1
            if n <= 20 and sum(math.comb(n, size) for size in range(gamma + 1)) <= 30000:
                arcs_h = [(u + 1, v + 1) for u in range(n) for v in range(n) if h.reach[u] >> v & 1]
                assert brute_domination(n, arcs_h) == gamma, spec
                brutes += 1
    assert len(kinds) == 6
    assert closures >= 1500 and brutes >= 600, (closures, brutes)


def test_the_ring_proof_tries_the_dominators_of_a_node_with_the_fewest():
    # node 1 of H_1 of the path 1 -> ... -> 6 hears only itself, and every
    # other node of the path, and every node of the 6-cycle, hears two: the
    # ring is read once per place and once per first member tried
    for spec, tries in ((directed_path(6), 1), (directed_cycle(6), 2)):
        h = closure_at(spec, 1)
        ring = _CountedReads(spec._memo.ring)
        assert domination_number(h.reach, h.into, 6, ring) == 3
        assert ring.reads == 6 + tries


def test_only_ring_shaped_sequences_get_a_ring():
    def ring(n, *rounds):
        spec = DynamicGraphSpec(n, tuple(map(frozenset, rounds)))
        closure_at(spec, 0)
        return spec._memo.ring

    # ring[v - 1] is node v's place: the cycle 1 -> 4 -> 2 -> 3 is read from
    # node 1, and the paths 4 -> 3, 5 -> 2 -> 1 and 6 are laid end to end in
    # order of their first nodes, a node without arcs being a path of its own
    assert ring(4, {(3, 1)}, {(1, 4), (4, 2), (2, 3)}) == (0, 2, 3, 1)
    assert ring(6, {(5, 2), (4, 3)}, {(2, 1)}) == (4, 3, 1, 0, 2, 5)
    assert ring(3, set()) == (0, 1, 2)
    # two out-neighbours, two in-neighbours, a short cycle beside a path,
    # and two disjoint cycles
    assert ring(4, {(1, 2)}, {(1, 3)}) is None
    assert ring(4, {(1, 3), (2, 3)}) is None
    assert ring(5, {(1, 2), (2, 3), (3, 1), (4, 5)}) is None
    assert ring(4, {(1, 2), (2, 1), (3, 4), (4, 3)}) is None


def test_a_sequence_that_is_not_ring_shaped_never_reaches_the_ring_proof(monkeypatch):
    rings, searched = [], []
    _counting(monkeypatch, "_ring_number", rings)
    _counting(monkeypatch, "_cover", searched)
    rng = random.Random(5051)
    specs = [complete_graph(6), DynamicGraphSpec(5, [[(1, 2), (2, 3), (3, 1), (4, 5)]])]
    specs += [random_spec(rng, max_n=12) for _ in range(40)]
    kept = 0
    for spec in specs:
        closure_at(spec, 0)
        if spec._memo.ring is None:
            domination_numbers(spec, 4)
            min_dominating_set(spec, 4)
            kept += 1
    assert rings == [] and searched and kept >= 30, kept


# ---------------------------------------------------------------------------
# min_rounds
# ---------------------------------------------------------------------------


def test_min_rounds_family(c5, p4, relay):
    assert min_rounds(c5, 2) == 2
    assert min_rounds(c5, 1) == 4
    assert min_rounds(p4, 1) == 3
    assert min_rounds(p4, 2) == 1
    assert min_rounds(relay, 1) == 5
    for n in (3, 4, 5):
        assert min_rounds(complete_graph(n), 1) == 1


def test_min_rounds_unsolvable():
    two_islands = DynamicGraphSpec(2, (frozenset(),))
    with pytest.raises(NeverDominated):
        min_rounds(two_islands, 1)


def _naive_bound(spec, k):
    # the oracle's reach sets for n^2 * m rounds from H_0, and domination
    # tried on every set of at most k nodes
    n = spec.n
    everyone = set(range(1, n + 1))
    for r, reach in zip(range(n * n * len(spec.rounds) + 1), reach_sets(spec)):
        for size in range(1, k + 1):
            for combo in combinations(range(n), size):
                if set().union(*(reach[d] for d in combo)) == everyone:
                    return r
    return None


def test_min_rounds_matches_naive_loop_on_random_specs():
    rng = random.Random(1618)
    outcomes = set()
    zero = False
    for _ in range(80):
        spec = random_spec(rng, max_n=6)
        k = rng.randint(1, spec.n + 1)
        expected = _naive_bound(spec, k)
        if expected is None:
            with pytest.raises(NeverDominated):
                min_rounds(spec, k)
        else:
            assert min_rounds(spec, k) == expected, (spec, k)
        outcomes.add((spec.extension, expected is None))
        zero |= expected == 0
    # both extension rules, each with bounds found and bounds that never
    # exist, and k >= n, where no round is needed
    assert len(outcomes) == 4 and zero


def test_never_dominated_names_the_fixed_round():
    # 1 -> 2 -> 3 is complete after round 2; nobody ever hears node 4
    spec = DynamicGraphSpec(4, (frozenset({(1, 2)}), frozenset({(2, 3)})))
    assert min_rounds(spec, 2) == 2
    with pytest.raises(NeverDominated, match="fixed from round 2 on .* is 2 > k = 1"):
        min_rounds(spec, 1)


def test_gamma_matches_brute_force_on_random_specs():
    rng = random.Random(2718)
    rules = set()
    deep = 0
    for _ in range(300):
        spec = random_spec(rng, max_n=14)
        for r in range(3 * spec.n + 1):
            expected = brute_domination(spec.n, closure(spec, r))
            assert gamma_of(spec, r) == expected, (spec, r)
            assert len(min_dominating_set(spec, r)) == expected, (spec, r)
            if r == 1 and spec.n >= 12 and expected >= 6:
                deep += 1
        rules.add(spec.extension)
    # the cover order matters only in deep searches: many nodes, many slots
    assert len(rules) == 2 and deep >= 10


def test_gamma_by_round_matches_brute_force(capsys, tmp_path):
    rng = random.Random(3141)
    answered = 0
    for i in range(60):
        spec = random_spec(rng, max_n=8)
        path = tmp_path / f"g{i}.json"
        save_graph_file(spec, str(path))
        if main(["bound", "--graph", str(path), "--k", str(rng.randint(1, 3))]) != 0:
            capsys.readouterr()
            continue
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_by_round"] == [
            brute_domination(spec.n, closure(spec, r)) for r in range(1, out["r"] + 1)], spec
        answered += 1
    assert answered >= 30


def _answer(route):
    # a bound, or the message that refuses one
    try:
        return route()
    except (NeverDominated, BudgetNotBelowBound) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_cover_decisions_and_domination_numbers_find_the_same_bound():
    # bound() decides each changed round with k slots, after the rounds a
    # refutability decision proved uncovered; the bound command proves
    # each round's domination number.  Each route runs on a fresh spec
    rng = random.Random(5772)
    specs = [random_spec(rng, max_n=12, max_prefix=4) for _ in range(3000)]
    specs += [family(n) for family in (directed_cycle, directed_path, complete_graph)
              for n in range(2, 13)] + [staggered_relay()]
    seen = set()
    for spec in specs:
        for k in (1, 2, 3):
            gammas = _answer(lambda: Instance(copy.copy(spec), k).gamma_by_round())
            walked = gammas if isinstance(gammas, str) else len(gammas)
            assert _answer(Instance(copy.copy(spec), k).bound) == walked, (spec, k)
            # a refutability decision first, as refute and the coloring make it
            query = Instance(copy.copy(spec), k)
            budget = rng.randint(0, 3 if isinstance(walked, str) else walked + 1)
            below = _answer(lambda: query.closure_below_bound(budget))
            if isinstance(below, str):
                assert below == f"BudgetNotBelowBound: budget {budget} is not below the tight " \
                                f"bound {walked}", (spec, k, budget)
            assert _answer(query.bound) == walked, (spec, k, budget)
            seen.add((spec.extension, isinstance(walked, str), isinstance(below, str)))
    # both rules, with bounds and without, and budgets on both sides of them
    assert len(seen) == 6, seen


def _recording_decisions(monkeypatch):
    # the covers of each k-slot decision on a whole closure, in call order
    decided = []
    find_cover = dyngraph.find_cover

    def recording(covers, dom, uncovered, avail, slots, widest):
        if uncovered == avail == (1 << len(covers)) - 1:
            decided.append(covers)
        return find_cover(covers, dom, uncovered, avail, slots, widest)

    monkeypatch.setattr(dyngraph, "find_cover", recording)
    return decided


def test_the_bound_walk_decides_changed_rounds_past_what_is_known(monkeypatch):
    # bound() makes one k-slot decision per changed round after the last
    # round known to be uncovered, by an exact search or by a refutability
    # decision, and the cover it finds bounds that closure's domination
    # number from above
    decided = _recording_decisions(monkeypatch)

    def walked(spec, k, first, rounds, bound):
        decided.clear()
        first(spec)
        assert Instance(spec, k).bound() == bound
        assert decided == [closure_at(spec, t).reach for t in rounds], (spec, k)

    # round 4 of the relay adds nothing
    walked(staggered_relay(), 1, lambda spec: None, [1, 2, 3, 5], 5)
    walked(directed_cycle(9), 2, lambda spec: None, [1, 2, 3, 4], 4)
    walked(directed_cycle(9), 2, lambda spec: domination_numbers(spec, 2), [3, 4], 4)
    for budgets in ((2,), (1, 2, 1)):
        walked(directed_cycle(9), 2,
               lambda spec: [Instance(spec, 2).closure_below_bound(b) for b in budgets],
               [*budgets, 3, 4], 4)
    spec = directed_cycle(9)
    assert [h.upper for h in spec._memo.closures] == []
    assert min_rounds(spec, 2) == 4
    assert [h.upper for h in spec._memo.closures] == [9, 9, 9, 9, 2]
    assert [h.lower for h in spec._memo.closures] == [9, 3, 3, 3, 1]
    # every k >= n has bound 0 and grows no closure past H_0, on either route
    walked(spec := directed_cycle(9), 9, lambda spec: None, [], 0)
    assert len(spec._memo.closures) == 1
    spec = directed_cycle(9)
    assert Instance(spec, 9).gamma_by_round() == () and len(spec._memo.closures) == 1


def test_a_refused_budget_keeps_the_cover_it_found(monkeypatch):
    # the 9-cycle's bound at k = 2 is 4: refusing budget 4 decides H_4 once,
    # and the bound that its message names then decides H_1 to H_3 alone
    decided = _recording_decisions(monkeypatch)
    spec = directed_cycle(9)
    with pytest.raises(BudgetNotBelowBound, match="^budget 4 is not below the tight bound 4$"):
        Instance(spec, 2).closure_below_bound(4)
    assert decided == [closure_at(spec, t).reach for t in (4, 1, 2, 3)]
    assert (closure_at(spec, 4).lower, closure_at(spec, 4).upper) == (1, 2)


def test_what_one_k_learns_serves_every_k(monkeypatch):
    # a refutability decision at k = 3 proves H_1 of the 9-cycle needs 4
    # nodes, so bound() at k = 2 starts after it; that walk's failed
    # decision on H_2 proves it needs 3, so bound() at k = 3 decides H_2 alone
    decided = _recording_decisions(monkeypatch)
    spec = directed_cycle(9)
    Instance(spec, 3).closure_below_bound(1)
    decided.clear()
    assert Instance(spec, 2).bound() == 4
    assert decided == [closure_at(spec, t).reach for t in (2, 3, 4)]
    decided.clear()
    assert Instance(spec, 3).bound() == 2
    assert decided == [closure_at(spec, 2).reach]


def test_every_call_keeps_each_closure_interval_around_its_number():
    # bounds at k 1-4, refutability decisions, domination numbers and
    # dominating sets, asked in random order: after each call every stored
    # closure has lower <= gamma <= upper, and each answer is the one the
    # same call gives on a fresh spec, so what was asked before changes none
    rng = random.Random(1732)
    calls = (lambda spec, k, r: Instance(spec, k).bound(),
             lambda spec, k, r: Instance(spec, k).closure_below_bound(r).reach,
             lambda spec, k, r: domination_numbers(spec, r),
             lambda spec, k, r: min_dominating_set(spec, r))
    asked = set()
    narrowed = 0  # intervals a decision narrowed but left open
    for _ in range(300):
        spec = random_spec(rng, max_n=12)
        gammas = {}
        for _ in range(8):
            # domination numbers close every interval they reach, so decisions come first
            i, k, r = rng.choice((0, 0, 0, 1, 1, 1, 2, 3)), rng.randint(1, 4), rng.randint(0, 6)
            call = calls[i]
            answer = _answer(lambda: call(spec, k, r))
            assert answer == _answer(lambda: call(copy.copy(spec), k, r)), (spec, i, k, r)
            asked.add((i, isinstance(answer, str)))
            for h in spec._memo.closures:
                if id(h) not in gammas:
                    arcs = [(u + 1, v + 1) for v, heard in enumerate(h.into)
                            for u in range(spec.n) if heard >> u & 1]
                    gammas[id(h)] = brute_domination(spec.n, arcs)
                assert h.lower <= gammas[id(h)] <= h.upper, (spec, i, k, r)
                narrowed += 1 < h.lower < h.upper or h.lower < h.upper < spec.n
    # every call, and bounds and budgets refused as well as answered
    assert narrowed >= 1000
    assert asked == {(0, False), (0, True), (1, False), (1, True), (2, False), (3, False)}


def test_flooding_proves_no_domination_number_below_the_bound(monkeypatch):
    # refute and check bind flooding through the cover-decision bound, so
    # the only exact search they may make sizes H_r's dominating set, and
    # none when the bound's cover closed H_r's interval (the relay's single
    # dominator); the bound command proves every round's number.  On these
    # ring-shaped sequences the sizing is settled by counting (the 9-cycle
    # at k = 2) or by the ring proof (the 6-cycle at k = 4, whose decision
    # found 4 nodes where 3 suffice), never by the greedy start of a search
    searched, rings, greedy = [], [], []
    search = dyngraph.domination_number
    monkeypatch.setattr(dyngraph, "domination_number",
                        lambda *args: searched.append(args[0]) or search(*args))
    _counting(monkeypatch, "_ring_number", rings)
    _counting(monkeypatch, "_greedy_members", greedy)
    for spec, k, budget, searches, proofs in ((directed_cycle(9), 2, 3, 1, 0),
                                              (staggered_relay(), 1, 4, 0, 0),
                                              (directed_cycle(6), 4, 0, 1, 1)):
        spec = copy.copy(spec)
        searched.clear()
        rings.clear()
        refute(spec, k, flood_dominator(), budget)
        assert searched == [closure_at(spec, budget + 1).reach] * searches
        assert [args[0] for args, _ in rings] == searched[:proofs]
        spec = copy.copy(spec)
        searched.clear()
        rings.clear()
        assert exhaustive_check(spec, k, flood_dominator(), budget + 1).passed
        assert searched == [closure_at(spec, budget + 1).reach] * searches
        assert [args[0] for args, _ in rings] == searched[:proofs]
        assert greedy == []
        assert len(Instance(spec, k).gamma_by_round()) == budget + 1
        # the gamma walk grows no closure past the bound, and closes each
        # one's interval
        closures = spec._memo.closures
        assert len(closures) == budget + 2
        assert all(h.lower == h.upper for h in closures)


def test_never_dominated_32_node_relay(monkeypatch):
    # the closure of the reversed relay over nodes 1..31 last changes in
    # round 871, and node 32 never hears anyone
    spec = DynamicGraphSpec(32, tuple(frozenset({(j, j + 1)}) for j in range(30, 0, -1)),
                            Extension.CYCLE)
    message = (r"^no round suffices: H_r is fixed from round 871 on and its "
               r"domination number is 2 > k = 1$")
    with pytest.raises(NeverDominated, match=message):
        min_rounds(copy.copy(spec), 1)
    # the bound command's walk proves each changed round's number once, the
    # fixed closure's among them, and the bound reads that one from the memo
    searched, greedy = [], []
    search = dyngraph.domination_number
    monkeypatch.setattr(dyngraph, "domination_number",
                        lambda *args: searched.append(args) or search(*args))
    _counting(monkeypatch, "_greedy_members", greedy)
    with pytest.raises(NeverDominated, match=message):
        Instance(spec, 1).gamma_by_round()
    assert len(searched) == len({id(h) for h in spec._memo.closures}) - 1
    # the relay's arcs lie on one path, so every number is settled by
    # counting or the ring proof, and no search starts from a greedy cover
    assert spec._memo.ring is not None and greedy == []


def test_min_rounds_validates():
    with pytest.raises(ValueError):
        min_rounds(directed_cycle(3), 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dict_round_trip(relay, c5):
    for spec in (relay, c5, directed_path(6)):
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_file_round_trip(tmp_path, relay):
    path = tmp_path / "relay.json"
    save_graph_file(relay, str(path))
    assert load_graph_file(str(path)) == relay


def test_graph_format_errors(tmp_path):
    with pytest.raises(GraphFormatError):
        spec_from_dict([1, 2])
    with pytest.raises(GraphFormatError):
        spec_from_dict({"n": 3})
    with pytest.raises(GraphFormatError):
        spec_from_dict({"n": 3, "rounds": [[[1, 1]]]})
    with pytest.raises(GraphFormatError):
        spec_from_dict({"n": 3, "rounds": [[[1, 2]]], "extension": "bogus"})
    # n and arc endpoints must be JSON integers, not truncated or parsed
    for doc in ({"n": 5.9, "rounds": [[[1, 2]]]},
                {"n": 5, "rounds": [[[1, 2.7]]]},
                {"n": True, "rounds": [[[1, 2]]]},
                {"n": "5", "rounds": [[[1, 2]]]},
                {"n": 3, "rounds": [[[True, 2]]]},
                {"n": 3, "rounds": [[["1", 2]]]}):
        with pytest.raises(GraphFormatError, match="must be integers"):
            spec_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph_file(str(bad))
    # an integer literal too long for int() is a ValueError of json.load
    bad.write_text('{"n": 1%s, "rounds": [[[1, 2]]]}' % ("0" * sys.get_int_max_str_digits()))
    with pytest.raises(GraphFormatError, match=f"^{re.escape(str(bad))}: Exceeds the limit"):
        load_graph_file(str(bad))


def test_graph_document_messages_and_their_order():
    # a non-pair arc first, then the extension, then every type before any
    # range, each range in the order given
    cases = [
        ({"n": 3, "rounds": [[[1, 9], [1.5, 2]]]},
         "n and arc endpoints must be integers, got 1.5"),
        ({"n": 3, "rounds": [[[1, 2, 3]]]},
         "bad graph document: too many values to unpack (expected 2)"),
        ({"n": 3, "rounds": [[[1]]], "extension": "bogus"},
         "bad graph document: not enough values to unpack (expected 2, got 1)"),
        ({"n": 3, "rounds": [[5]]}, "bad graph document: cannot unpack non-iterable int object"),
        ({"n": 3, "rounds": [[[1.5, 2], [1, 2, 3]]]},
         "bad graph document: too many values to unpack (expected 2)"),
        ({"n": 1.5, "rounds": [[[1, 2]]], "extension": "bogus"},
         "bad graph document: 'bogus' is not a valid Extension"),
        ({"n": 3, "rounds": [["ab"]]}, "n and arc endpoints must be integers, got 'a'"),
        ({"n": 1, "rounds": [[[1, 2.5]]]}, "n and arc endpoints must be integers, got 2.5"),
        ({"n": 1, "rounds": [[[1, 2]]]}, "need at least two nodes, got n=1"),
        ({"n": 3, "rounds": []}, "need at least one round graph"),
        ({"n": 3, "rounds": [[[1, 2]], [[3, 3], [1, 9]]]}, "round 2: self-loop (3, 3) not allowed"),
        ({"n": 3, "rounds": [[[1, 9]]]}, "round 1: arc (1, 9) outside 1..3"),
        ({"n": 3, "rounds": [[[1, 2]], 7]}, "rounds must be a list of arc lists"),
    ]
    for doc, message in cases:
        with pytest.raises(GraphFormatError) as exc:
            spec_from_dict(doc)
        assert str(exc.value) == message, doc


def test_dot_export():
    arcs = frozenset({(1, 2), (2, 3), (1, 1)})
    assert to_dot(arcs) == "digraph {\n  1 -> 1;\n  1 -> 2;\n  2 -> 3;\n}\n"


def test_memo_is_not_part_of_the_spec(relay):
    twin = staggered_relay()
    assert min_rounds(relay, 1) == 5 and len(closure(relay, 7)) == 10
    assert relay == twin and hash(relay) == hash(twin) and repr(relay) == repr(twin)
    assert "_memo" not in repr(relay)
    # the constructor takes exactly (n, rounds, extension=REPEAT_LAST)
    params = inspect.signature(DynamicGraphSpec).parameters
    assert [(p.name, p.kind, p.default) for p in params.values()] == [
        ("n", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("rounds", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("extension", inspect.Parameter.POSITIONAL_OR_KEYWORD, Extension.REPEAT_LAST)]
    assert DynamicGraphSpec(relay.n, relay.rounds, relay.extension) == relay
    assert DynamicGraphSpec(extension=relay.extension, rounds=relay.rounds, n=relay.n) == relay
    # no attribute can be assigned or deleted, a field or not
    for name in ("n", "rounds", "extension", "_memo", "other"):
        with pytest.raises(AttributeError):
            setattr(relay, name, None)
        with pytest.raises(AttributeError):
            delattr(relay, name)
    assert relay == twin and relay.n == 4
    # copies are equal specs with memos of their own
    for made in (pickle.loads(pickle.dumps(relay)), copy.copy(relay), copy.deepcopy(relay)):
        assert type(made) is DynamicGraphSpec and made == relay and hash(made) == hash(relay)
        assert made._memo is not relay._memo and made._memo.closures == []
        assert min_rounds(made, 1) == 5
    assert weakref.ref(relay)() is relay


def test_dominating_sets_are_kept_once_per_closure():
    # H_r of the 8-cycle is fixed from round 7 on: the memo stores rounds
    # 0..8, and round 8 shares round 7's closure, so however many rounds
    # are asked for, 7 sets are rebuilt, one per closure of H_1..H_7
    spec = directed_cycle(8)
    answers = [min_dominating_set(spec, r) for r in range(1, 300)]
    assert len(set(map(id, answers))) == 7
    assert min_dominating_set(spec, 7) is min_dominating_set(spec, 8)
    assert [h.dominating is not None for h in spec._memo.closures] == [False] + [True] * 8
    assert answers == [min_dominating_set(directed_cycle(8), min(r, 8)) for r in range(1, 300)]


def test_bounds_are_kept_once_per_k_below_n():
    # every k >= n has bound 0, and bounds are read from the closures'
    # intervals, so asking for many k keeps nothing per k
    spec = directed_cycle(8)
    assert [min_rounds(spec, k) for k in range(1, 300)] == [7, 3, 2, 1, 1, 1, 1] + [0] * 292
    assert type(spec._memo).__slots__ == ("graphs", "closures", "quiet", "ring")


def test_closures_stop_growing_once_they_are_fixed():
    # H_4 of the 5-cycle is complete, so H_5 is the first of m = 1 rounds
    # that add nothing and no round is stored after it
    spec = directed_cycle(5)
    arcs = closure(spec, 10 ** 6)
    assert arcs == closure(spec, 25) == closure(directed_cycle(5), 25)
    assert len(arcs) == 25
    memo = spec._memo
    assert len(memo.closures) == 6
    assert closure_at(spec, 10 ** 9).into == closure_at(spec, 4).into
    assert domination_numbers(spec, 7) == (3, 2, 2, 1, 1, 1, 1)
    # each of the 6 stored closures knows its number exactly
    assert len(memo.closures) == 6 and all(h.lower == h.upper for h in memo.closures)
    assert domination_numbers(spec, 0) == ()
    assert min_dominating_set(spec, 10 ** 9) == (1,) and len(memo.closures) == 6
    # a sequence that is never dominated stores at most about n^2 * m rounds
    relay = DynamicGraphSpec(4, (frozenset({(1, 2)}), frozenset(), frozenset({(3, 4)})),
                             Extension.CYCLE)
    assert len(closure(relay, 10 ** 6)) == 6
    assert len(relay._memo.closures) <= 4 * 4 * 3 + 3 + 1
    with pytest.raises(NeverDominated, match="fixed from round 3 on"):
        min_rounds(relay, 1)


def test_domination_numbers_refuse_an_r_past_a_tuple_by_name():
    # the closures of the 4-cycle are fixed from round 4 on, so only listing
    # the numbers meets r; an r within sys.maxsize would allocate instead
    with pytest.raises(ValueError,
                       match=f"^r = {10 ** 30} is too large to list one number per round$"):
        domination_numbers(directed_cycle(4), 10 ** 30)


def test_closures_are_shared_and_build_senders_on_first_use():
    # the searches read masks only, so they build no sender list
    rng = random.Random(2718)
    for spec in [directed_cycle(5), *(random_spec(rng, max_n=12) for _ in range(30))]:
        for k in (1, 2):
            try:
                r = min_rounds(spec, k)
            except NeverDominated:
                r = 3
            domination_numbers(spec, r + 2)
            min_dominating_set(spec, r)
        assert spec._memo.closures
        assert all(h._senders is None for h in spec._memo.closures), spec
    # H_4 of the 5-cycle is complete: every later round shares its closure
    spec = directed_cycle(5)
    memo = spec._memo
    assert closure_at(spec, 10 ** 9) is closure_at(spec, 5) is closure_at(spec, 4)
    assert closure_at(spec, 3) is not closure_at(spec, 4)
    # tables of two algorithms read one set of sender lists, built once
    tables = [ViewTable(Instance(spec, 2), alg, 1) for alg in (MIN_HEARD, MAX_HEARD)]
    assert tables[0].senders is tables[1].senders is closure_at(spec, 1).senders
    assert [h._senders is None for h in memo.closures] == [True, False, True, True, True, True]
    # a round that adds nothing shares its predecessor's closure
    relay = DynamicGraphSpec(4, (frozenset({(1, 2)}), frozenset(), frozenset({(3, 4)})),
                             Extension.CYCLE)
    assert closure_at(relay, 2) is closure_at(relay, 1)
    assert closure_at(relay, 3) is not closure_at(relay, 2)


def test_spec_accepts_plain_containers():
    spec = DynamicGraphSpec(3, (frozenset([(1, 2)]), frozenset([(2, 3)])), "cycle")
    assert spec.extension is Extension.CYCLE
    assert json.dumps(spec_to_dict(spec))
