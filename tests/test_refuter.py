from __future__ import annotations

import dataclasses
import gc
import math
import random
import weakref

import pytest

from knowall import (
    MAJORITY_HEARD,
    MAX_HEARD,
    MIN_HEARD,
    AlgorithmSpec,
    BudgetNotBelowBound,
    DynamicGraphSpec,
    LemmaFalsified,
    NeverDominated,
    PrimitiveSimplex,
    ViewTable,
    WitnessKind,
    assign_node,
    builtin_algorithms,
    closure,
    directed_cycle,
    exhaustive_check,
    flood_dominator,
    format_inputs,
    inp,
    min_rounds,
    refute,
    run,
    sample_check,
    vertices,
    view_of,
)
from knowall import kuhn, refuter
from knowall.families import standard_family
from knowall.kuhn import algorithm_coloring
from knowall.oracle import brute_panchromatic, check_sperner

from conftest import random_spec

CONST_ZERO = AlgorithmSpec("const0", lambda spec, k, view: 0)


def test_refute_flood_dominator_below_bound(c5):
    w = refute(c5, 2, flood_dominator(2), budget=1)
    assert w.kind is WitnessKind.AGREEMENT_VIOLATION
    assert format_inputs(w.config) == "21100"
    assert w.nodes == (5, 3, 1)
    assert w.outputs == (0, 1, 2)
    assert w.simplex == PrimitiveSimplex((3, 1), (1, 2))
    assert w.budget == 1 and w.verified


def test_refute_validity_violator(c5):
    w = refute(c5, 2, CONST_ZERO, budget=1)
    assert w.kind is WitnessKind.VALIDITY_VIOLATION
    # first bad vertex in enumeration order is (5, 0): everyone holds 1
    assert format_inputs(w.config) == "11111"
    assert w.nodes == (2,) and w.outputs == (0,)
    assert w.simplex is None and w.verified


def _breaks_validity_at(spec, k, budget, alg, v):
    """alg, except that v's assigned node outputs a value it did not hear in inp(v)."""
    node = assign_node(spec, k, budget, v)
    heard = view_of(spec, inp(v, spec.n), node, budget).heard
    bad = min(set(range(k + 1)) - set(heard.values()))

    def decide(s, kk, view):
        if view.observer == node and view.heard == heard:
            return bad
        return alg.decide(s, kk, view)

    return AlgorithmSpec(f"{alg.name}_broken_at_{v}", decide)


def test_first_witness_in_base_order_wins(c5):
    # the first panchromatic cell of flood_dominator has base (3, 1); a
    # validity break at a vertex past that base is not reached, one before
    # it is
    honest = refute(c5, 2, flood_dominator(2), 1)
    assert honest.simplex.base == (3, 1)
    for v, expected_kind in (((5, 0), WitnessKind.AGREEMENT_VIOLATION),
                             ((0, 0), WitnessKind.VALIDITY_VIOLATION)):
        alg = _breaks_validity_at(c5, 2, 1, flood_dominator(2), v)
        violations = check_sperner(5, 2, algorithm_coloring(c5, 2, 1, alg)).violations
        assert [u for u, _, _ in violations] == [v]
        assert not run(c5, 2, alg, inp(v, 5), 1).valid
        w = refute(c5, 2, alg, 1)
        assert w.kind is expected_kind and w.verified
        report = run(c5, 2, alg, w.config, 1)
        assert tuple(report.outputs[i - 1] for i in w.nodes) == w.outputs
        if expected_kind is WitnessKind.AGREEMENT_VIOLATION:
            assert (w.config, w.nodes, w.outputs, w.simplex) == \
                (honest.config, honest.nodes, honest.outputs, honest.simplex)
            assert not report.agreeing
        else:
            assert w.config == inp(v, 5) and not report.valid
            assert w.nodes == (assign_node(c5, 2, 1, v),) and w.outputs[0] not in w.config


def _recording(find, read):
    # find_panchromatic, except that every color it reads is appended to `read`
    def recorded(n, k, colors):
        return find(n, k, (read.append(c) or c for c in colors))
    return recorded


def test_refute_colors_only_part_of_the_triangulation(monkeypatch):
    name, spec, k = next(m for m in standard_family() if m[0] == "complete5/k=2")
    read = []
    monkeypatch.setattr(refuter, "find_panchromatic",
                        _recording(refuter.find_panchromatic, read))
    for alg in builtin_algorithms():
        read.clear()
        assert refute(spec, k, alg, min_rounds(spec, k) - 1).verified
        assert 0 < len(read) < math.comb(spec.n + k, k), (name, alg.name)


def _hashed(seed):
    # a seeded random view table: a pure decide that need not respect
    # validity, since tuples of ints hash the same in every process
    def decide(spec, k, view):
        return hash((seed, view.observer, tuple(sorted(view.heard.items())))) % (k + 1)
    return AlgorithmSpec(f"hashed{seed}", decide)


def test_color_stream_matches_per_vertex_coloring_and_brute_witness():
    # the stream's colors are the per-vertex colors, and refute's witness is
    # the first that check_sperner and brute_panchromatic give on them
    rng = random.Random(1968)
    kinds = set()
    runs = 0
    while runs < 60:
        spec = random_spec(rng, max_n=8)
        k = rng.randint(1, min(3, spec.n - 1))
        try:
            budgets = range(min_rounds(spec, k))
            algs = [*builtin_algorithms(), _hashed(rng.randrange(10 ** 6))]
        except NeverDominated:
            budgets = range(3)
            algs = [MIN_HEARD, MAX_HEARD, MAJORITY_HEARD, _hashed(rng.randrange(10 ** 6))]
        n = spec.n
        for budget in budgets:
            for alg in algs:
                coloring = algorithm_coloring(spec, k, budget, alg)
                colors = list(coloring)
                assert colors == [coloring(v) for v in vertices(n, k)], (spec, k, budget, alg.name)
                by_vertex = dict(zip(vertices(n, k), colors)).__getitem__
                cells = brute_panchromatic(n, k, by_vertex)
                violations = check_sperner(n, k, by_vertex).violations
                witness = refute(spec, k, alg, budget)
                if violations and (not cells or violations[0][0] <= cells[0].base):
                    vertex, c, _carrier = violations[0]
                    assert witness.kind is WitnessKind.VALIDITY_VIOLATION
                    assert (witness.config, witness.nodes, witness.outputs) == \
                        (inp(vertex, n), (coloring.node(vertex),), (c,))
                else:
                    assert witness.simplex == cells[0], (spec, k, budget, alg.name)
                    assert witness.nodes == tuple(map(coloring.node, cells[0].vertices()))
                kinds.add(witness.kind)
                runs += 1
    assert kinds == set(WitnessKind)


def test_witness_reruns_through_protocol(c5):
    w = refute(c5, 2, flood_dominator(2), budget=1)
    report = run(c5, 2, flood_dominator(2), w.config, w.budget)
    assert tuple(report.outputs[i - 1] for i in w.nodes) == w.outputs
    assert not report.agreeing


def test_refute_rejects_budget_at_or_above_bound(c5):
    for budget in (2, 3, 7):
        with pytest.raises(BudgetNotBelowBound):
            refute(c5, 2, flood_dominator(2), budget)
    with pytest.raises(ValueError):
        refute(c5, 2, flood_dominator(2), -1)
    # with k >= n no round is needed, so not even budget 0 is refutable
    with pytest.raises(BudgetNotBelowBound, match="^budget 0 is not below the tight bound 0$"):
        refute(directed_cycle(3), 3, MIN_HEARD, 0)


def two_islands() -> DynamicGraphSpec:
    # 1 -> 2 and 3 -> 4: no single node is ever heard by everyone
    return DynamicGraphSpec(4, (frozenset({(1, 2), (3, 4)}),))


def test_refute_sequence_with_no_bound():
    spec = two_islands()
    with pytest.raises(NeverDominated):
        min_rounds(spec, 1)
    for alg in (MIN_HEARD, MAX_HEARD, MAJORITY_HEARD):
        for budget in range(6):
            w = refute(spec, 1, alg, budget)
            assert w.kind is WitnessKind.AGREEMENT_VIOLATION and w.verified
            report = run(spec, 1, alg, w.config, budget)
            assert tuple(report.outputs[i - 1] for i in w.nodes) == w.outputs
            assert len(set(w.outputs)) == 2 and not report.agreeing
    # flooding's decide reads the bound, which does not exist
    with pytest.raises(NeverDominated, match="^no round suffices"):
        refute(spec, 1, flood_dominator(), 1)


def test_refute_is_deterministic(c5):
    a = refute(c5, 2, flood_dominator(2), 1)
    b = refute(c5, 2, flood_dominator(2), 1)
    assert a == b


def test_refute_every_builtin_on_the_family():
    for name, spec, k in standard_family():
        budget = min_rounds(spec, k) - 1
        for alg in builtin_algorithms():
            w = refute(spec, k, alg, budget)
            assert w.kind is WitnessKind.AGREEMENT_VIOLATION, (name, alg.name)
            assert w.verified and len(w.nodes) == k + 1
            assert len(set(w.outputs)) == k + 1


def test_witness_to_dict(c5):
    w = refute(c5, 2, flood_dominator(2), 1)
    assert w.to_dict() == {
        "kind": "AgreementViolation",
        "config": "21100",
        "budget": 1,
        "nodes": [5, 3, 1],
        "outputs": [0, 1, 2],
        "simplex": {"base": [3, 1], "perm": [1, 2]},
        "verified": True,
    }
    v = refute(c5, 2, CONST_ZERO, 1)
    assert v.to_dict()["simplex"] is None
    assert v.to_dict()["kind"] == "ValidityViolation"


def test_lemma_falsified_tripwire(c5):
    # a stateful (hence illegal) algorithm: behaves like min_heard while the
    # pass decides each distinct view of the vertices it colors once, then
    # goes constant, so the re-simulation cannot reproduce the panchromatic
    # cell
    read = []
    _recording(kuhn.find_panchromatic, read)(5, 2, algorithm_coloring(c5, 2, 1, MIN_HEARD))
    colored = list(vertices(5, 2))[:len(read)]
    assert len(colored) < math.comb(5 + 2, 2)
    flips_after = len({
        (node, tuple(view_of(c5, inp(v, 5), node, 1).heard.items()))
        for v in colored
        for node in [assign_node(c5, 2, 1, v)]})
    calls = {"n": 0}

    def decide(spec, k, view):
        calls["n"] += 1
        if calls["n"] <= flips_after:
            return min(view.heard.values())
        return 0

    with pytest.raises(LemmaFalsified):
        refute(c5, 2, AlgorithmSpec("stateful", decide), 1)


def test_lemma_falsified_when_resimulation_claims_agreement(c5, monkeypatch):
    real_run = refuter.run

    def agreeing_run(*args):
        return dataclasses.replace(real_run(*args), agreeing=True)

    monkeypatch.setattr(refuter, "run", agreeing_run)
    with pytest.raises(LemmaFalsified, match="reported agreement"):
        refute(c5, 2, flood_dominator(2), budget=1)


def test_lemma_falsified_when_resimulated_outputs_differ_from_the_coloring(c5, monkeypatch):
    # reversed outputs still put k+1 distinct values at the witness nodes
    # (5, 3, 1), but not the colors of the cell's corners
    real_run = refuter.run

    def reversed_run(*args):
        report = real_run(*args)
        return dataclasses.replace(report, outputs=report.outputs[::-1])

    monkeypatch.setattr(refuter, "run", reversed_run)
    with pytest.raises(LemmaFalsified, match=r"colored \(0, 1, 2\) re-simulated to outputs \(2, 1, 0\)"):
        refute(c5, 2, flood_dominator(2), budget=1)
    # a validity witness is held to the same check: the vertex (5, 0) is
    # colored 0, but here node 2 re-simulates to its own input 1
    monkeypatch.setattr(refuter, "run", lambda spec, k, alg, config, budget: dataclasses.replace(
        real_run(spec, k, alg, config, budget), outputs=config))
    with pytest.raises(LemmaFalsified, match=r"colored \(0,\) re-simulated to outputs \(1,\)"):
        refute(c5, 2, CONST_ZERO, budget=1)


def test_refute_releases_its_coloring(c5, monkeypatch):
    # the coloring and its ViewTable die with the call, not at the next
    # cycle collection: no reference cycle may hold them
    refs = []

    def recorded(make):
        def wrapper(*args):
            obj = make(*args)
            refs.append(weakref.ref(obj))
            return obj
        return wrapper

    monkeypatch.setattr(kuhn, "ViewTable", recorded(kuhn.ViewTable))
    monkeypatch.setattr(refuter, "algorithm_coloring", recorded(refuter.algorithm_coloring))
    gc.disable()
    try:
        witness = refute(c5, 2, flood_dominator(2), budget=1)
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert witness.kind is WitnessKind.AGREEMENT_VIOLATION
    assert alive == [False, False]


def test_derived_data_is_freed_with_the_spec():
    # the reach masks, dominating sets and bounds live on the spec, so
    # nothing in the package keeps a spec alive once its callers let go
    spec = directed_cycle(5)
    ref = weakref.ref(spec)
    gc.disable()
    try:
        assert min_rounds(spec, 2) == 2 and len(closure(spec, 3)) == 20
        assert run(spec, 2, flood_dominator(), (0, 1, 2, 0, 1), 2).agreeing
        assert exhaustive_check(spec, 2, flood_dominator(), 2).passed
        for alg in builtin_algorithms():
            assert refute(spec, 2, alg, 1).verified
        del spec
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


@pytest.mark.parametrize("call", [
    lambda spec: view_of(spec, (0,) * 5, 1, -1),
    lambda spec: run(spec, 2, MIN_HEARD, (0,) * 5, -1),
    lambda spec: ViewTable(spec, 2, MIN_HEARD, -1),
    lambda spec: exhaustive_check(spec, 2, MIN_HEARD, -1),
    lambda spec: sample_check(spec, 2, MIN_HEARD, -1),
    lambda spec: refute(spec, 2, MIN_HEARD, -1),
    lambda spec: assign_node(spec, 2, -1, (0, 0)),
    lambda spec: algorithm_coloring(spec, 2, -1, MIN_HEARD),
], ids=["view_of", "run", "ViewTable", "exhaustive_check", "sample_check", "refute",
        "assign_node", "algorithm_coloring"])
def test_a_negative_budget_has_one_message(call):
    # every path reads H_budget through the spec's memo, which refuses r < 0
    with pytest.raises(ValueError, match=r"^closure needs r >= 0, got -1$"):
        call(directed_cycle(5))
