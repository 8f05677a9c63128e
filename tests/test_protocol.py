from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import re
from collections import Counter
from collections.abc import Callable
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowall import (
    MAJORITY_HEARD,
    MAX_HEARD,
    MIN_HEARD,
    AlgorithmRangeError,
    AlgorithmSpec,
    DynamicGraphSpec,
    Instance,
    LemmaFalsified,
    NeverDominated,
    View,
    ViewTable,
    algorithm_by_name,
    builtin_algorithms,
    complete_graph,
    directed_cycle,
    exhaustive_check,
    flood_dominator,
    flood_solve,
    format_inputs,
    min_rounds,
    parse_inputs,
    refute,
    run,
    sample_check,
    validate_inputs,
)

from knowall import check, protocol
from knowall.dyngraph import closure_at
from knowall.oracle import view_of

from conftest import counting_min, flooding_of_round, random_spec, replaced, standard_family
import random


def test_parse_and_format_inputs():
    assert parse_inputs("01201", 5, 2) == (0, 1, 2, 0, 1)
    assert format_inputs((0, 1, 2, 0, 1)) == "01201"
    assert format_inputs((9, 0)) == "90"
    # a value above 9 has no digit that parse_inputs could read back
    with pytest.raises(ValueError, match=r"^\(10, 1, 0\) has a value above 9, "):
        format_inputs((10, 1, 0))
    # nor has anything but exactly an int in 0..9
    for values in ((True, 0), (-1, 2), (1.0, 2)):
        message = rf"^{re.escape(str(values))} has .*, which is not a digit$"
        with pytest.raises(ValueError, match=message):
            format_inputs(values)
    with pytest.raises(ValueError):
        parse_inputs("012", 5, 2)
    # a configuration prints as the digit string up to k = 9 and as a list of
    # the n ints from k = 10 on, whatever its values
    assert protocol.format_config((0, 1, 2, 0, 1), 2) == "01201"
    assert protocol.format_config((9, 0), 9) == "90"
    assert protocol.format_config((0, 1, 2, 0, 1), 10) == [0, 1, 2, 0, 1]
    assert protocol.format_config((12, 0), 12) == [12, 0]
    with pytest.raises(ValueError):
        parse_inputs("01301", 5, 2)  # digit above k
    with pytest.raises(ValueError):
        parse_inputs("0120a", 5, 2)
    # ASCII digits only: other Unicode digits are refused with the same message
    for text in ("\u0660\u0661\u0662\u0660\u0661", "0\u00b2201"):
        with pytest.raises(ValueError, match=r"^expected 5 digits, got "):
            parse_inputs(text, 5, 2)
    with pytest.raises(ValueError):
        validate_inputs((0, -1, 0), 3, 1)
    # inputs must be exactly int: never truncated or parsed
    for bad in (0.9, 1.0, True, "1"):
        with pytest.raises(ValueError, match=r"^input of node 2 is .*, not an integer$"):
            validate_inputs((0, bad, 1), 3, 2)
    with pytest.raises(ValueError, match="not an integer"):
        run(directed_cycle(5), 2, MIN_HEARD, (0.9, 1, 2, True, "1"), 1)


def test_k_must_be_positive(c5):
    # with k = 0 no output is legal, so nothing may be run or swept
    for call in (lambda: validate_inputs((0,) * 5, 5, 0),
                 lambda: run(c5, 0, MIN_HEARD, (0,) * 5, 1),
                 lambda: ViewTable(Instance(c5, 0), MIN_HEARD, 1),
                 lambda: ViewTable(Instance(c5, -1), MIN_HEARD, 1)):
        with pytest.raises(ValueError, match=r"^k must be positive, got -?\d+$"):
            call()


def test_k_must_be_exactly_an_int(c5):
    # a float k would reach bit shifts and sequence repeats, and True
    # would run as k = 1
    for k in (2.0, True):
        for call in (lambda: run(c5, k, MIN_HEARD, (0,) * 5, 1),
                     lambda: exhaustive_check(c5, k, MIN_HEARD, 1),
                     lambda: sample_check(c5, k, MIN_HEARD, 1, samples=10),
                     lambda: refute(c5, k, MIN_HEARD, 1),
                     lambda: min_rounds(c5, k),
                     lambda: ViewTable(Instance(c5, k), MIN_HEARD, 1)):
            with pytest.raises(ValueError, match=f"^k is {k!r}, not an integer$"):
                call()


def _run_views(spec, k, cfg, budget):
    """The views `run` shows nodes 1..n on cfg, as the algorithm it runs records them."""
    views = []
    run(spec, k, AlgorithmSpec("record", lambda s, kk, view: views.append(view) or 0), cfg, budget)
    return views


def test_view_examples(c5):
    cfg = parse_inputs("21100", 5, 2)
    assert _run_views(c5, 2, cfg, 0)[2].heard == {3: 1}
    assert _run_views(c5, 2, cfg, 1)[4].heard == {4: 0, 5: 0}
    assert _run_views(c5, 2, cfg, 2)[0].heard == {1: 2, 4: 0, 5: 0}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_view_contains_observer_and_grows(seed, budget):
    # run's views, held to the oracle's, read off plain reach sets
    rng = random.Random(seed)
    spec = random_spec(rng, max_n=6)
    cfg = tuple(rng.randrange(2) for _ in range(spec.n))
    views, later = _run_views(spec, 1, cfg, budget), _run_views(spec, 1, cfg, budget + 1)
    for obs, now, nxt in zip(range(1, spec.n + 1), views, later, strict=True):
        assert now == view_of(spec, cfg, obs, budget)
        assert now.heard[obs] == cfg[obs - 1]
        assert set(now.heard) <= set(nxt.heard)
        for j, val in now.heard.items():
            assert val == cfg[j - 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3))
def test_views_indistinguishable_when_heard_inputs_agree(seed, budget):
    # changing inputs outside the heard set cannot change the view or the
    # decision of any deterministic algorithm
    rng = random.Random(seed)
    spec = random_spec(rng, max_n=6)
    k = 2
    a = tuple(rng.randrange(k + 1) for _ in range(spec.n))
    b = tuple(rng.randrange(k + 1) for _ in range(spec.n))
    for obs, va in enumerate(_run_views(spec, k, a, budget), start=1):
        spliced = tuple(
            a[j - 1] if j in va.heard else b[j - 1] for j in range(1, spec.n + 1))
        vs = _run_views(spec, k, spliced, budget)[obs - 1]
        assert va == vs
        # flooding with a fixed round's dominators: the bound's may not exist
        # on sparse random sequences
        with flooding_of_round(max(budget, 1)) as flooding:
            for alg in (MIN_HEARD, MAX_HEARD, MAJORITY_HEARD, flooding):
                assert alg.decide(spec, k, va) == alg.decide(spec, k, vs)


def test_run_scores_validity_and_agreement(c5):
    all_zero = run(c5, 1, flood_dominator(), (0,) * 5, 4)
    assert all_zero.outputs == (0,) * 5
    assert all_zero.valid and all_zero.agreeing and all_zero.distinct_count == 1

    const0 = AlgorithmSpec("const0", lambda s, k, v: 0)
    rep = run(c5, 2, const0, (1,) * 5, 2)
    assert not rep.valid and rep.agreeing  # 0 is nobody's input


def test_run_rejects_out_of_range(c5):
    bad = AlgorithmSpec("bad", lambda s, k, v: k + 5)
    with pytest.raises(AlgorithmRangeError):
        run(c5, 2, bad, (0,) * 5, 1)
    returns_none = AlgorithmSpec("none", lambda s, k, v: None)
    with pytest.raises(AlgorithmRangeError):
        run(c5, 2, returns_none, (0,) * 5, 1)


def test_bool_outputs_are_out_of_range(c5):
    # True == 1 and False == 0, but an output, like an input, must be exactly an int
    heard_one = AlgorithmSpec("heard_one", lambda s, k, v: v.heard[v.observer] == 1)
    message = r"^heard_one returned (False|True) at node [1-5], outside 0\.\.2$"
    for call in (lambda: run(c5, 2, heard_one, (0,) * 5, 1),
                 lambda: exhaustive_check(c5, 2, heard_one, 1),
                 lambda: sample_check(c5, 2, heard_one, 1, samples=10, seed=0),
                 lambda: refute(c5, 2, heard_one, 1)):
        with pytest.raises(AlgorithmRangeError, match=message):
            call()


def test_flood_solve_worked_example(c5):
    # r=2, D={1,3}: nodes 1..3 hear dominator 1, nodes 4..5 hear dominator 3
    rep = flood_solve(c5, 2, parse_inputs("01201", 5, 2))
    assert format_inputs(rep.outputs) == "00022"
    assert rep.valid and rep.agreeing and rep.distinct_count == 2


def test_flood_solve_consensus(c5, k4):
    assert format_inputs(flood_solve(c5, 1, parse_inputs("10000", 5, 1)).outputs) == "11111"
    assert format_inputs(flood_solve(k4, 1, parse_inputs("0110", 4, 1)).outputs) == "0000"


def test_flood_solve_checks_its_inputs_before_the_bound():
    # an input outside 0..k is refused as `run` refuses it, before the
    # bound search could raise NeverDominated or CapExceeded
    for spec in (DynamicGraphSpec(4, [[(1, 2)]]), directed_cycle(40)):
        with pytest.raises(ValueError, match=r"^input of node 1 is 7, outside 0\.\.2$"):
            flood_solve(spec, 2, (7,) * spec.n)


def test_view_table_memo_stays_within_cap(monkeypatch):
    # on K4 after one round every node hears all 4 inputs: 81 views each
    default_cap = protocol.VIEW_MEMO_CAP
    monkeypatch.setattr(protocol, "VIEW_MEMO_CAP", 5)
    table = ViewTable(Instance(complete_graph(4), 2), MIN_HEARD, 1)
    for cfg in product(range(3), repeat=4):
        assert table.outputs(cfg) == run(complete_graph(4), 2, MIN_HEARD, cfg, 1).outputs
    # a full memo is emptied before it stores one more view, so with a cap
    # of 5 a view read again after 4 others is remembered and after 5
    # others decided again; with the default cap it is remembered
    configs = list(product(range(3), repeat=4))
    for cap, others, again in ((5, 4, 0), (5, 5, 1), (default_cap, 5, 0)):
        monkeypatch.setattr(protocol, "VIEW_MEMO_CAP", cap)
        decided = []
        table = ViewTable(Instance(complete_graph(4), 2), counting_min(decided), 1)
        for cfg in configs[:others + 1]:
            table.output(1, cfg)
        assert len(decided) == others + 1
        assert table.output(1, configs[0]) == 0
        assert len(decided) == others + 1 + again, (cap, others)


def test_view_table_decide_always_calls_the_algorithm_and_output_once_per_view(c5):
    decided = []
    table = ViewTable(Instance(c5, 2), counting_min(decided), 1)
    cfg = (0, 1, 2, 1, 0)
    expected = run(c5, 2, MIN_HEARD, cfg, 1).outputs
    assert [table.decide(5, cfg) for _ in range(3)] == [expected[4]] * 3
    assert len(decided) == 3
    decided.clear()
    for _ in range(3):
        assert tuple(table.output(node, cfg) for node in range(1, 6)) == expected
    assert len(set(decided)) == len(decided) == 5
    # node 5 hears only nodes 4 and 5, so this configuration shows it the same view
    assert table.output(5, (2, 2, 2, 1, 0)) == expected[4] and len(decided) == 5
    assert table.decide(5, cfg) == expected[4] and len(decided) == 6


@pytest.mark.parametrize("block_bits", [check.BLOCK_BITS, 3], ids=["whole", "one_digit"])
def test_flooding_table_decides_once_per_read_value(block_bits, monkeypatch):
    # a flooding node outputs the input of the one sender it reads, so its
    # table decides each node at most k+1 times where it would decide every
    # heard view, (k+1)^|heard| of them, were it keyed by all it hears;
    # with one digit in the block the nodes are read through their memos
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    spec, k = directed_cycle(7), 2
    r = min_rounds(spec, k)
    first_heard = protocol._first_heard
    calls = []

    def counting(members, view):
        calls.append(view.observer)
        return first_heard(members, view)

    monkeypatch.setattr(protocol, "_first_heard", counting)
    assert exhaustive_check(spec, k, flood_dominator(), r).passed
    heard_views = sum((k + 1) ** len(senders) for senders in closure_at(spec, r).senders)
    assert 0 < len(calls) <= spec.n * (k + 1) < heard_views
    table = ViewTable(Instance(spec, k), flood_dominator(), r)
    assert all(len(reads) == 1 for reads in table.reads)


@dataclasses.dataclass(frozen=True)
class _DeclaredReads(AlgorithmSpec):
    """min_heard whose declared reads are what `declare` makes of every node's senders."""

    declare: Callable = list

    def _bind_reads(self, instance, budget):
        bound, senders = super()._bind_reads(instance, budget)
        return bound, self.declare(senders)


def _declared(declare) -> _DeclaredReads:
    return _DeclaredReads("declared_reads", MIN_HEARD.decide, declare)


def test_view_table_refuses_reads_outside_what_a_node_hears(c5):
    # node v of c5 hears v-1 and v at budget 1, and never v+1
    table = ViewTable(Instance(c5, 2), _declared(lambda senders: [(v,) for v in range(1, 6)]), 1)
    assert table.reads == [(v,) for v in range(1, 6)]
    for bad in ((2,), (1, 5, 3)):
        with pytest.raises(ValueError, match=r"^node 1 reads "):
            ViewTable(Instance(c5, 2), _declared(lambda senders: [bad, *senders[1:]]), 1)
    # one read set per node, neither fewer nor more
    for declare in (lambda senders: senders[1:], lambda senders: [*senders, (1,)]):
        with pytest.raises(ValueError):
            ViewTable(Instance(c5, 2), _declared(declare), 1)


def test_view_table_rejects_unknown_node(c5):
    table = ViewTable(Instance(c5, 2), MIN_HEARD, 1)
    assert table.output(5, (0, 1, 2, 1, 0)) == run(c5, 2, MIN_HEARD, (0, 1, 2, 1, 0), 1).outputs[4]
    for node in (0, 6):
        with pytest.raises(ValueError, match="outside 1..5"):
            table.output(node, (0, 1, 2, 1, 0))


def test_flood_solve_failure_raises(c5, monkeypatch):
    # an agreement-breaking stand-in for flooding: every node keeps its input
    own = AlgorithmSpec("own", lambda s, k, v: v.heard[v.observer])
    monkeypatch.setattr(protocol, "flood_dominator", lambda: own)
    with pytest.raises(LemmaFalsified, match="01201"):
        flood_solve(c5, 2, parse_inputs("01201", 5, 2))
    # at k >= 10 the message shows the inputs as a list
    with pytest.raises(LemmaFalsified, match=re.escape("failed on inputs [10, 9, 8, 7, 6, 5, "
                                                       "4, 3, 2, 1, 0]: outputs (10, 9,")):
        flood_solve(directed_cycle(11), 10, tuple(range(10, -1, -1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_flood_solve_always_valid_and_agreeing(seed, k):
    # random sequences may be permanently disconnected, so draw from
    # families where the bound is known to exist
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    spec = complete_graph(n) if rng.random() < 0.5 else directed_cycle(n)
    cfg = tuple(rng.randrange(k + 1) for _ in range(n))
    rep = flood_solve(spec, k, cfg)
    assert rep.valid and rep.agreeing


def test_builtin_decides():
    view = View(observer=2, budget=1, heard={1: 2, 2: 1, 3: 1})
    spec = directed_cycle(5)
    assert MIN_HEARD.decide(spec, 2, view) == 1
    assert MAX_HEARD.decide(spec, 2, view) == 2
    assert MAJORITY_HEARD.decide(spec, 2, view) == 1
    tie = View(observer=2, budget=1, heard={1: 2, 2: 0, 3: 0, 4: 2})
    assert MAJORITY_HEARD.decide(spec, 2, tie) == 0  # ties to the smaller value


def test_majority_heard_matches_a_counter_reference():
    # the most frequent value, ties going to the smallest: every value
    # tuple over 0..3 of length 1..6, and over 0..9 (the digits a
    # configuration holds) of length 1..3, where a set of values such as
    # {8, 0} need not iterate in increasing order
    spec = directed_cycle(6)
    tuples = 0
    for top, longest in ((4, 6), (10, 3)):
        for values in (v for length in range(1, longest + 1)
                       for v in product(range(top), repeat=length)):
            counts = Counter(values)
            expected = min(counts, key=lambda v: (-counts[v], v))
            view = View(observer=1, budget=1, heard=dict(enumerate(values, start=1)))
            assert MAJORITY_HEARD.decide(spec, 9, view) == expected, values
            tuples += 1
    assert tuples == 5460 + 1110


def test_flood_dominator_below_budget_falls_back(c5):
    # at budget 1 node 5 hears {4, 5} and no member of D = {1, 3}
    cfg = parse_inputs("21100", 5, 2)
    out = flood_dominator().decide(c5, 2, view_of(c5, cfg, 5, 1))
    assert out == 0  # own input
    out = flood_dominator().decide(c5, 2, view_of(c5, cfg, 3, 2))
    assert out == 2  # hears dominator 1


def test_algorithm_registry():
    names = [alg.name for alg in builtin_algorithms()]
    assert names == ["flood_dominator", "min_heard", "max_heard", "majority_heard"]
    assert algorithm_by_name("min_heard") is MIN_HEARD
    with pytest.raises(ValueError):
        algorithm_by_name("nope")


def test_records_compare_hash_print_and_copy_by_value(c5):
    # the result records show what a frozen dataclass of the same fields
    # would, refuse assignment, and survive copying and pickling
    report = run(c5, 2, MIN_HEARD, (0, 0, 1, 2, 2), 1)
    witness = refute(c5, 2, flood_dominator(), 1)
    records = [report, exhaustive_check(c5, 2, MIN_HEARD, 1), witness.simplex, witness]
    assert repr(report) == ("OutcomeReport(outputs=(0, 0, 0, 1, 2), valid=True, agreeing=False, "
                            "distinct_count=3)")
    assert repr(witness.simplex) == "PrimitiveSimplex(base=(3, 1), perm=(1, 2))"
    assert repr(witness).startswith("Witness(kind=<WitnessKind.AGREEMENT_VIOLATION: ")
    for record in records:
        fields = record.__slots__
        twin = type(record)(*(getattr(record, name) for name in fields))
        assert twin == record and hash(twin) == hash(record) and twin is not record
        assert record != tuple(getattr(record, name) for name in fields)
        for made in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(made) is type(record) and made == record
        for name in (fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert report != replaced(report, valid=False)


def test_builtins_are_a_name_and_a_decision():
    # flooding derives everything else from the instance it is bound to
    for alg in builtin_algorithms():
        assert [f.name for f in dataclasses.fields(alg)] == ["name", "decide"], alg.name
    assert inspect.signature(flood_dominator).parameters == {}


def test_bound_function_equals_decide_on_every_view():
    # decide(spec, k, view) is the oracle for what bind(Instance(spec, k), budget) returns
    reads_spec_and_k = AlgorithmSpec(
        "reads_spec_and_k", lambda spec, k, view: (sum(view.heard.values()) + spec.n) % (k + 1))
    for name, spec, k in standard_family():
        for alg in (*builtin_algorithms(), reads_spec_and_k):
            for budget in range(min_rounds(spec, k) + 1):
                bound = alg.bind(Instance(spec, k), budget)
                for node, senders in enumerate(closure_at(spec, budget).senders, start=1):
                    for digits in product(range(k + 1), repeat=len(senders)):
                        view = View(node, budget, dict(zip(senders, digits)))
                        assert bound(view) == alg.decide(spec, k, view), (name, alg.name, view)


def test_flooding_binds_without_reading_a_closure(c5, monkeypatch):
    # bind needs only the dominating set; the reads per node are for tables
    def no_closure(spec, r):
        raise AssertionError("closure_at called")

    monkeypatch.setattr(protocol, "closure_at", no_closure)
    view = View(3, 1, {2: 1, 3: 2})  # node 3 hears node 2 and itself at budget 1
    # D = {1, 3} at the bound 2
    assert flood_dominator().bind(Instance(c5, 2), 1)(view) == 2


def test_flooding_with_no_bound_raises_when_bound():
    # flooding reads the dominating set of H_r when it is bound, not at a view,
    # so a table that would decide nothing still raises
    islands = DynamicGraphSpec(2, (frozenset(),))
    for bind in (lambda: flood_dominator().bind(Instance(islands, 1), 0),
                 lambda: ViewTable(Instance(islands, 1), flood_dominator(), 0),
                 lambda: sample_check(islands, 1, flood_dominator(), 0, samples=0),
                 lambda: run(islands, 1, flood_dominator(), (0, 1), 0)):
        with pytest.raises(NeverDominated, match="^no round suffices"):
            bind()
