from __future__ import annotations

import dataclasses
import gc
import math
import random
import re
import weakref

import pytest

from knowall import (
    MAJORITY_HEARD,
    MAX_HEARD,
    MIN_HEARD,
    AlgorithmSpec,
    BudgetNotBelowBound,
    DynamicGraphSpec,
    Instance,
    LemmaFalsified,
    NeverDominated,
    PrimitiveSimplex,
    ViewTable,
    WitnessKind,
    builtin_algorithms,
    closure,
    directed_cycle,
    domination_numbers,
    exhaustive_check,
    flood_dominator,
    flood_solve,
    format_inputs,
    inp,
    min_dominating_set,
    min_rounds,
    refute,
    run,
    sample_check,
)
from knowall import dyngraph, kuhn, oracle, refuter
from knowall.dyngraph import closure_at
from knowall.kuhn import algorithm_coloring, sperner_walk
from knowall.oracle import (
    assign_node,
    brute_panchromatic,
    check_sperner,
    find_panchromatic,
    vertices,
    view_of,
)

from conftest import random_spec, standard_family

CONST_ZERO = AlgorithmSpec("const0", lambda spec, k, view: 0)
CONST_ONE = AlgorithmSpec("const1", lambda spec, k, view: 1)


def test_refute_flood_dominator_below_bound(c5):
    w = refute(c5, 2, flood_dominator(), budget=1)
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
    node = assign_node(spec, budget, v)
    heard = view_of(spec, inp(v, spec.n), node, budget).heard
    bad = min(set(range(k + 1)) - set(heard.values()))

    def decide(s, kk, view):
        if view.observer == node and view.heard == heard:
            return bad
        return alg.decide(s, kk, view)

    return AlgorithmSpec(f"{alg.name}_broken_at_{v}", decide)


@pytest.fixture
def walked(monkeypatch):
    """The vertices the Sperner walk colors, in order, wherever it runs."""
    colored = []
    color = kuhn.AlgorithmColoring._color

    def recorded(self, v, cfg):
        colored.append(v)
        return color(self, v, cfg)

    monkeypatch.setattr(kuhn.AlgorithmColoring, "_color", recorded)
    return colored


def test_refute_colors_the_walk_path(c5, walked):
    # flood_dominator on c5: up the x1 axis to (2, 0), whose color 1
    # completes a cell of the edge, up into the triangle, and door to door
    # to the cell at (3, 1)
    w = refute(c5, 2, flood_dominator(), 1)
    path = list(walked)
    assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 0), (4, 1), (4, 2)]
    coloring = algorithm_coloring(c5, 2, 1, flood_dominator())
    assert [coloring(v) for v in path] == [0, 0, 1, 0, 0, 1, 1, 2]
    assert w.simplex == PrimitiveSimplex((3, 1), (1, 2)) and w.outputs == (0, 1, 2)


def test_a_validity_break_is_found_only_on_the_walk_path(c5, walked):
    # the honest walk colors (0, 0) but not (5, 0), and no vertex it colors
    # shares (5, 0)'s view: a break at (0, 0) is the witness, a break at
    # (5, 0) leaves the honest cell
    honest = refute(c5, 2, flood_dominator(), 1)
    path = list(walked)
    assert (0, 0) in path and (5, 0) not in path
    for v, expected_kind in (((5, 0), WitnessKind.AGREEMENT_VIOLATION),
                             ((0, 0), WitnessKind.VALIDITY_VIOLATION)):
        alg = _breaks_validity_at(c5, 2, 1, flood_dominator(), v)
        violations = check_sperner(5, 2, algorithm_coloring(c5, 2, 1, alg)).violations
        assert [u for u, _, _ in violations] == [v]
        assert not run(c5, 2, alg, inp(v, 5), 1).valid
        walked.clear()
        w = refute(c5, 2, alg, 1)
        assert w.kind is expected_kind and w.verified
        report = run(c5, 2, alg, w.config, 1)
        assert tuple(report.outputs[i - 1] for i in w.nodes) == w.outputs
        if expected_kind is WitnessKind.AGREEMENT_VIOLATION:
            assert walked == path
            assert (w.config, w.nodes, w.outputs, w.simplex) == \
                (honest.config, honest.nodes, honest.outputs, honest.simplex)
            assert not report.agreeing
        else:
            assert walked == [v]
            assert w.config == inp(v, 5) and not report.valid
            assert w.nodes == (assign_node(c5, 1, v),) and w.outputs[0] not in w.config


def _reads(n, k, coloring):
    # how many vertices find_panchromatic's sweep colors
    read = []
    find_panchromatic(n, k, lambda v: read.append(v) or coloring(v))
    return len(read)


def test_refute_colors_only_part_of_the_triangulation(monkeypatch, walked):
    # refute walks: it never sweeps, colors each vertex at most once, and on
    # the standard family colors no more vertices than the sweep reads
    def no_sweep(*args):
        raise AssertionError("refute called find_panchromatic")

    assert not hasattr(refuter, "find_panchromatic") and not hasattr(kuhn, "find_panchromatic")
    monkeypatch.setattr(oracle, "find_panchromatic", no_sweep)
    for name, spec, k in standard_family():
        budget = min_rounds(spec, k) - 1
        for alg in builtin_algorithms():
            walked.clear()
            assert refute(spec, k, alg, budget).verified
            path = len(walked)
            assert 0 < path == len(set(walked)), (name, alg.name)
            # the sweep colors through _color too, so its reads are counted apart
            read = _reads(spec.n, k, algorithm_coloring(spec, k, budget, alg))
            assert path <= read, (name, alg.name)
            if name == "complete5/k=2":
                assert path < read < math.comb(spec.n + k, k), alg.name


def test_refute_at_large_k_colors_few_vertices(walked):
    # c10 at k=9: the sweep reads 66,197 of the C(19, 9) = 92,378 vertices
    # before its witness, the walk colors at most a hundred
    spec = directed_cycle(10)
    for alg in builtin_algorithms():
        walked.clear()
        w = refute(spec, 9, alg, 0)
        assert w.verified and len(set(w.outputs)) == 10, alg.name
        assert 0 < len(walked) <= 100, (alg.name, len(walked))


def _hashed(seed):
    # a seeded random view table: a pure decide that need not respect
    # validity, since tuples of ints hash the same in every process
    def decide(spec, k, view):
        return hash((seed, view.observer, tuple(sorted(view.heard.items())))) % (k + 1)
    return AlgorithmSpec(f"hashed{seed}", decide)


def _random_cases(seed, count):
    """(spec, k, budget, alg) for `count` refutable cases, n <= 8 and k <= 3,
    with the built-ins and seeded `_hashed` algorithms."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        spec = random_spec(rng, max_n=8)
        k = rng.randint(1, min(3, spec.n - 1))
        try:
            budgets = range(min_rounds(spec, k))
            algs = [*builtin_algorithms(), _hashed(rng.randrange(10 ** 6))]
        except NeverDominated:
            budgets = range(3)
            algs = [MIN_HEARD, MAX_HEARD, MAJORITY_HEARD, _hashed(rng.randrange(10 ** 6))]
        cases += [(spec, k, budget, alg) for budget in budgets for alg in algs]
    return cases[:count]


def _check_witness(spec, k, budget, alg, witness, colors):
    # the witness is a cell of brute_panchromatic's list or one of
    # check_sperner's violations, and re-simulates through run
    n = spec.n
    if witness.kind is WitnessKind.VALIDITY_VIOLATION:
        vertex = next(v for v in vertices(n, k) if inp(v, n) == witness.config)
        assert (vertex, witness.outputs[0]) in \
            [(v, c) for v, c, _ in check_sperner(n, k, colors).violations]
        assert witness.simplex is None
    else:
        assert witness.simplex in brute_panchromatic(n, k, colors), (spec, k, budget, alg.name)
    report = run(spec, k, alg, witness.config, budget)
    assert tuple(report.outputs[w - 1] for w in witness.nodes) == witness.outputs
    assert not (report.valid if witness.simplex is None else report.agreeing)


def test_walk_witnesses_match_the_brute_oracles(walked):
    # 1,200 random cases: every cell is panchromatic by brute force, every
    # validity witness is a real carrier violation, and no vertex is
    # colored twice
    kinds = {kind: 0 for kind in WitnessKind}
    for spec, k, budget, alg in _random_cases(1967, 1200):
        walked.clear()
        witness = refute(spec, k, alg, budget)
        assert len(walked) == len(set(walked)), (spec, k, budget, alg.name)
        coloring = algorithm_coloring(spec, k, budget, alg)
        colors = {v: coloring(v) for v in vertices(spec.n, k)}
        _check_witness(spec, k, budget, alg, witness, colors.__getitem__)
        kinds[witness.kind] += 1
    assert min(kinds.values()) >= 100, kinds


def test_witness_reruns_through_protocol(c5):
    w = refute(c5, 2, flood_dominator(), budget=1)
    report = run(c5, 2, flood_dominator(), w.config, w.budget)
    assert tuple(report.outputs[i - 1] for i in w.nodes) == w.outputs
    assert not report.agreeing


def test_refute_rejects_budget_at_or_above_bound(c5):
    for budget in (2, 3, 7):
        with pytest.raises(BudgetNotBelowBound):
            refute(c5, 2, flood_dominator(), budget)
    with pytest.raises(ValueError):
        refute(c5, 2, flood_dominator(), -1)
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
    a = refute(c5, 2, flood_dominator(), 1)
    b = refute(c5, 2, flood_dominator(), 1)
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
    w = refute(c5, 2, flood_dominator(), 1)
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


def test_refute_at_k_above_9_prints_its_configuration_as_a_list():
    # a witness records k, and to_dict prints its configuration in the form k
    # gives: from k = 10 on a list of n ints, whatever the values, with the
    # keys of every other k
    w = refute(directed_cycle(13), 12, MIN_HEARD, 0)
    assert w.verified and w.kind is WitnessKind.AGREEMENT_VIOLATION and w.k == 12
    assert w.config == tuple(range(12, -1, -1)) and len(set(w.outputs)) == 13
    assert w.to_dict()["config"] == list(range(12, -1, -1))
    v = refute(directed_cycle(13), 10, CONST_ONE, 0)
    assert v.kind is WitnessKind.VALIDITY_VIOLATION and v.to_dict()["config"] == [0] * 13
    assert list(v.to_dict()) == list(w.to_dict()) == [
        "kind", "config", "budget", "nodes", "outputs", "simplex", "verified"]
    spec = directed_cycle(24)
    for k in range(10, 17):
        for alg in builtin_algorithms():
            config = refute(spec, k, alg, min_rounds(spec, k) - 1).to_dict()["config"]
            assert type(config) is list and len(config) == 24, (k, alg.name)


def test_refute_tripwires_at_k_12_show_the_configuration_as_a_list(monkeypatch):
    # each operand of the re-simulation checks, made to fail by a patched run
    # or, where run must agree with the colors, a patched walk; at k >= 10
    # every message shows the configuration as a list, as a witness prints it
    spec, k = directed_cycle(13), 12
    descending, zeros = str(list(range(12, -1, -1))), str([0] * 13)
    origin = (0,) * k
    real_run, real_walk = refuter.run, refuter.sperner_walk

    def patched_run(**changes):
        return lambda *args: dataclasses.replace(real_run(*args), **changes)

    def raises(message, alg=MIN_HEARD):
        with pytest.raises(LemmaFalsified, match=f"^{re.escape(message)}$"):
            refute(spec, k, alg, 0)
        monkeypatch.setattr(refuter, "run", real_run)
        monkeypatch.setattr(refuter, "sperner_walk", real_walk)

    # outputs other than the colors
    monkeypatch.setattr(refuter, "run", patched_run(outputs=tuple(range(13))))
    cell = PrimitiveSimplex(tuple(range(12, 0, -1)), tuple(range(1, 13)))
    raises(f"witness corners {cell.vertices()} colored {tuple(range(13))} re-simulated to "
           f"outputs {tuple(range(12, -1, -1))} at nodes {tuple(range(13, 0, -1))} in "
           f"configuration {descending}")
    # validity: an output that some node holds, then a run that calls it valid
    monkeypatch.setattr(refuter, "sperner_walk", lambda coloring: (origin, (0,)))
    raises(f"validity witness at vertex {origin} did not re-simulate: node 1 output 0 on {zeros}")
    monkeypatch.setattr(refuter, "run", patched_run(valid=True))
    raises(f"validity witness at vertex {origin} did not re-simulate: node 1 output 1 on {zeros}",
           CONST_ONE)
    # agreement: a cell whose corners are not k+1 distinct colors, then a run
    # that reports agreement
    low = PrimitiveSimplex(origin, tuple(range(1, 13)))
    monkeypatch.setattr(refuter, "sperner_walk", lambda coloring: (low, (0,) * 13))
    raises(f"panchromatic cell {low} decoded to outputs {(0,) * 13} in configuration {zeros}; "
           "expected k+1 distinct")
    monkeypatch.setattr(refuter, "run", patched_run(agreeing=True))
    raises(f"re-simulation of {descending} reported agreement although nodes "
           f"{tuple(range(13, 0, -1))} output {tuple(range(13))}")


def test_lemma_falsified_tripwire(c5, walked):
    # a stateful (hence illegal) algorithm: behaves like min_heard while the
    # walk decides each distinct view of the vertices it colors once, then
    # goes constant, so the re-simulation cannot reproduce the panchromatic
    # cell
    sperner_walk(algorithm_coloring(c5, 2, 1, MIN_HEARD))
    colored = list(walked)
    assert len(colored) < math.comb(5 + 2, 2)
    flips_after = len({
        (node, tuple(view_of(c5, inp(v, 5), node, 1).heard.items()))
        for v in colored
        for node in [assign_node(c5, 1, v)]})
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
        refute(c5, 2, flood_dominator(), budget=1)


def test_lemma_falsified_when_resimulation_claims_validity(c5, monkeypatch):
    # a constant 1 is no input at the origin, so the walk stops there; a run
    # that calls the outputs valid fires the tripwire although the output
    # itself re-simulates
    real_run = refuter.run

    def valid_run(*args):
        return dataclasses.replace(real_run(*args), valid=True)

    monkeypatch.setattr(refuter, "run", valid_run)
    with pytest.raises(LemmaFalsified, match=re.escape(
            "validity witness at vertex (0, 0) did not re-simulate: "
            "node 1 output 1 on 00000")):
        refute(c5, 2, AlgorithmSpec("const1", lambda s, k, v: 1), 1)


def test_lemma_falsified_when_resimulated_outputs_differ_from_the_coloring(c5, monkeypatch):
    # reversed outputs still put k+1 distinct values at the witness nodes
    # (5, 3, 1), but not the colors of the cell's corners
    real_run = refuter.run

    def reversed_run(*args):
        report = real_run(*args)
        return dataclasses.replace(report, outputs=report.outputs[::-1])

    monkeypatch.setattr(refuter, "run", reversed_run)
    with pytest.raises(LemmaFalsified, match=r"colored \(0, 1, 2\) re-simulated to outputs \(2, 1, 0\)"):
        refute(c5, 2, flood_dominator(), budget=1)
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

    # the coloring builds its one table through the name kuhn imports
    monkeypatch.setattr(kuhn, "ViewTable", recorded(kuhn.ViewTable))
    monkeypatch.setattr(refuter, "AlgorithmColoring", recorded(refuter.AlgorithmColoring))
    gc.disable()
    try:
        witness = refute(c5, 2, flood_dominator(), budget=1)
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
    lambda spec, query, r: run(spec, 2, MIN_HEARD, (0,) * spec.n, r),
    lambda spec, query, r: ViewTable(query, MIN_HEARD, r),
    lambda spec, query, r: exhaustive_check(spec, 2, MIN_HEARD, r),
    lambda spec, query, r: sample_check(spec, 2, MIN_HEARD, r),
    lambda spec, query, r: refute(spec, 2, MIN_HEARD, r),
    lambda spec, query, r: algorithm_coloring(spec, 2, r, MIN_HEARD),
    lambda spec, query, r: closure(spec, r),
    lambda spec, query, r: closure_at(spec, r),
    lambda spec, query, r: domination_numbers(spec, r),
    lambda spec, query, r: min_dominating_set(spec, r),
    lambda spec, query, r: query.closure_below_bound(r),
], ids=["run", "ViewTable", "exhaustive_check", "sample_check", "refute",
        "algorithm_coloring", "closure", "closure_at", "domination_numbers",
        "min_dominating_set", "Instance.closure_below_bound"])
def test_a_negative_budget_has_one_message(call):
    # one test of a round number runs before any memo keyed by the round
    # is read and before either cap: a bool or a float is never read as an
    # int, and n = 40, past the exact-search cap and the exhaustive cap,
    # gets the message n = 5 gets.  The memos are warm at round 1, which
    # True and 1.0 would otherwise hit
    outcomes = {}
    for n in (5, 40):
        spec = directed_cycle(n)
        query = Instance(spec, 2)
        ViewTable(query, MIN_HEARD, 1)
        if n == 5:
            min_dominating_set(spec, 1)
            query.closure_below_bound(1)
        for r in (-1, True, 1.0, 2.5):
            try:
                outcomes[n, r] = f"answered {call(spec, query, r)!r}"
            except Exception as exc:  # noqa: BLE001 - every outcome is compared below
                outcomes[n, r] = f"{type(exc).__name__}: {exc}"
    assert outcomes == {(n, r): "ValueError: closure needs r >= 0, got -1" if r == -1 else
                        f"ValueError: closure needs an integer r, got {r!r}"
                        for n in (5, 40) for r in (-1, True, 1.0, 2.5)}


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("k", [2.0, True, 2.5, 0], ids=["float", "bool", "fraction", "zero"])
def test_every_entry_point_refuses_a_bad_k_first(n, k):
    # building the query instance is the one test of k, and every entry
    # point builds it before anything else reads k: at n = 20 a float k
    # would otherwise reach the exhaustive cap, and k = 0 or True would
    # reach the refutability decision and answer
    spec = directed_cycle(n)
    expected = f"k is {k!r}, not an integer" if type(k) is not int else \
        f"k must be positive, got {k}"
    calls = {
        "Instance": lambda: Instance(spec, k),
        "min_rounds": lambda: min_rounds(spec, k),
        "run": lambda: run(spec, k, MIN_HEARD, (0,) * n, 1),
        "flood_solve": lambda: flood_solve(spec, k, (0,) * n),
        "exhaustive_check": lambda: exhaustive_check(spec, k, MIN_HEARD, 1),
        "sample_check": lambda: sample_check(spec, k, MIN_HEARD, 1, samples=5),
        "refute": lambda: refute(spec, k, MIN_HEARD, 1),
        "algorithm_coloring": lambda: algorithm_coloring(spec, k, 1, MIN_HEARD),
        "ViewTable": lambda: ViewTable(Instance(spec, k), MIN_HEARD, 1),
        "closure_below_bound": lambda: Instance(spec, k).closure_below_bound(1),
    }
    outcomes = {}
    for name, call in calls.items():
        try:
            outcomes[name] = f"answered {call()!r}"
        except Exception as exc:  # noqa: BLE001 - every outcome is compared below
            outcomes[name] = f"{type(exc).__name__}: {exc}"
    assert outcomes == dict.fromkeys(calls, f"ValueError: {expected}")


def test_sample_check_refuses_samples_that_are_not_an_int():
    # the sample count is a count: a bool or a float is refused, never
    # truncated or read as 1
    c5 = directed_cycle(5)
    for samples in (2.5, True, 2.0):
        with pytest.raises(ValueError, match=f"^samples is {samples!r}, not an integer$"):
            sample_check(c5, 2, MIN_HEARD, 1, samples=samples)
    # a bad k is reported before a bad sample count
    with pytest.raises(ValueError, match="^k is 2.0, not an integer$"):
        sample_check(c5, 2.0, MIN_HEARD, 1, samples=2.5)


def test_an_instance_is_the_query_and_a_coloring_decides_once(monkeypatch):
    # the instance keeps its spec and k and nothing else; a coloring built
    # on it makes one k-slot decision and colors as a fresh coloring does.
    # A refutability decision offers all n nodes to cover all n in k slots;
    # the dominating set's rebuild decides through find_cover too
    decisions = []
    find_cover = dyngraph.find_cover

    def counting(covers, dom, uncovered, avail, slots, widest):
        full = (1 << len(covers)) - 1
        if (uncovered, avail, slots) == (full, full, 2):
            decisions.append(slots)
        return find_cover(covers, dom, uncovered, avail, slots, widest)

    monkeypatch.setattr(dyngraph, "find_cover", counting)
    query = Instance(directed_cycle(5), 2)
    assert Instance.__slots__ == ("spec", "k")
    assert (query.spec, query.k) == (directed_cycle(5), 2)
    assert query.bound() == 2 and query.dominating_set() == (1, 3)
    coloring = kuhn.AlgorithmColoring(query, 1, MIN_HEARD)
    assert len(decisions) == 1
    fresh = algorithm_coloring(directed_cycle(5), 2, 1, MIN_HEARD)
    assert [coloring(v) for v in vertices(5, 2)] == [fresh(v) for v in vertices(5, 2)]
    assert len(decisions) == 2
    with pytest.raises(BudgetNotBelowBound, match="^budget 2 is not below the tight bound 2$"):
        query.closure_below_bound(2)


def test_an_algorithm_need_not_be_hashable():
    # a decide that cannot be hashed still sweeps, colors and refutes
    class Smallest:
        __hash__ = None

        def __call__(self, spec, k, view):
            return min(view.heard.values())

    alg = AlgorithmSpec("smallest", Smallest())
    with pytest.raises(TypeError):
        hash(alg)
    c5 = directed_cycle(5)
    assert exhaustive_check(c5, 2, alg, 1) == exhaustive_check(c5, 2, MIN_HEARD, 1)
    assert refute(c5, 2, alg, 1).to_dict() == refute(c5, 2, MIN_HEARD, 1).to_dict()
