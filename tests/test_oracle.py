from __future__ import annotations

import random
import tracemalloc
from contextlib import nullcontext
from itertools import combinations, product

import pytest

from knowall import (
    MAJORITY_HEARD,
    MAX_HEARD,
    AlgorithmSpec,
    CapExceeded,
    DynamicGraphSpec,
    ExhaustiveReport,
    Extension,
    Instance,
    KnowAllError,
    NeverDominated,
    ViewTable,
    closure,
    complete_graph,
    directed_cycle,
    exhaustive_check,
    flood_dominator,
    min_dominating_set,
    min_rounds,
    refute,
    run,
    sample_check,
)
from knowall import check, protocol
from knowall.dyngraph import EXHAUSTIVE_CONFIG_CAP
from knowall.kuhn import algorithm_coloring
from knowall.oracle import (
    brute_domination,
    brute_panchromatic,
    carrier,
    check_sperner,
    find_panchromatic,
    vertices,
    view_of,
)
from knowall.protocol import MIN_HEARD

from conftest import counting_min, flooding_of_round, random_spec, standard_family


def test_exhaustive_check_counts(c5):
    report = exhaustive_check(c5, 2, flood_dominator(), 2)
    assert report.total_configs == 243 and report.passed

    # the sweep counts the configurations run scores as failing, and keeps the first
    configs = list(product(range(3), repeat=5))
    report = exhaustive_check(c5, 2, MIN_HEARD, 1)
    assert report == _report(243, _naive_sweep(c5, 2, MIN_HEARD, 1, configs))
    assert (report.failure_count, report.first_failure) == (45, (0, 0, 1, 2, 2))

    # min_heard converges too slowly: at the tight budget it still breaks
    report = exhaustive_check(c5, 2, MIN_HEARD, 2)
    assert not report.passed
    assert report == _report(243, _naive_sweep(c5, 2, MIN_HEARD, 2, configs))

    # consensus on K4 in one round
    report = exhaustive_check(complete_graph(4), 1, flood_dominator(), 1)
    assert report.total_configs == 16 and report.passed


def test_exhaustive_sweep_keeps_no_failure_list():
    # 3^12 configurations, 342,272 of them failing: the sweep holds a count
    # and the first failure, never a list of the failing configurations
    spec = directed_cycle(12)
    min_rounds(spec, 2)  # the closures and the bound, grown before tracing
    tracemalloc.start()
    try:
        report = exhaustive_check(spec, 2, MIN_HEARD, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.failure_count, report.first_failure) == (342272, (0,) * 9 + (1, 2, 2))
    assert peak < 1 << 20, peak


def test_exhaustive_check_cap(c5, monkeypatch):
    with pytest.raises(CapExceeded):
        exhaustive_check(complete_graph(20), 2, flood_dominator(), 1)
    # the cap is inclusive: 3^5 configurations run at a cap of 243 only
    monkeypatch.setattr(check, "EXHAUSTIVE_CONFIG_CAP", 243)
    assert exhaustive_check(c5, 2, MIN_HEARD, 1).total_configs == 243
    monkeypatch.setattr(check, "EXHAUSTIVE_CONFIG_CAP", 242)
    with pytest.raises(CapExceeded,
                       match="^exhaustive check needs 243 configurations, cap is 242$"):
        exhaustive_check(c5, 2, MIN_HEARD, 1)


def test_sample_check_seeded(c5):
    a = sample_check(c5, 2, MIN_HEARD, 1, samples=200, seed=5)
    b = sample_check(c5, 2, MIN_HEARD, 1, samples=200, seed=5)
    assert a == b and a.total_configs == 200
    assert sample_check(c5, 2, flood_dominator(), 2, samples=200, seed=5).passed


def test_sweeps_refuse_k_below_1_and_negative_samples(c5):
    for call in (lambda: exhaustive_check(c5, 0, MIN_HEARD, 1),
                 lambda: sample_check(c5, 0, MIN_HEARD, 1, samples=10)):
        with pytest.raises(ValueError, match="^k must be positive, got 0$"):
            call()
    with pytest.raises(ValueError, match="^samples must be >= 0, got -3$"):
        sample_check(c5, 2, MIN_HEARD, 1, samples=-3)
    assert sample_check(c5, 2, MIN_HEARD, 1, samples=0) == ExhaustiveReport(0, 0, None)


# run's reports on each configuration, up to the error it raises, keyed by
# (spec, k, algorithm name, budget, configurations); filled by _naive_sweep
# when it is asked to cache, for tests whose algorithm names each name one
# decision function
_RUN_LOOPS: dict = {}


def _run_loop(spec, k, alg, budget, configs):
    """`run`'s report on each configuration in order, and the KnowAllError
    it raises on the next one, or None."""
    reports = []
    try:
        for cfg in configs:
            reports.append(run(spec, k, alg, cfg, budget))
    except KnowAllError as exc:
        return reports, exc
    return reports, None


def _naive_sweep(spec, k, alg, budget, configs, cached=False):
    """The configurations `run` scores as failing, in order.

    Each configuration's outputs are also read through one ViewTable,
    which must give `run`'s outputs, so the sweeps' outputs stay covered
    although their reports name only configurations.  With `cached`, run's
    reports are computed once per spec, k, algorithm name, budget and
    configurations; they depend on neither VIEW_MEMO_CAP nor BLOCK_BITS.
    """
    configs = tuple(configs)
    if not cached:
        reports, error = _run_loop(spec, k, alg, budget, configs)
    else:
        key = (spec, k, alg.name, budget, configs)
        if key not in _RUN_LOOPS:
            _RUN_LOOPS[key] = _run_loop(spec, k, alg, budget, configs)
        reports, error = _RUN_LOOPS[key]
    table = ViewTable(Instance(spec, k), alg, budget)
    failures = []
    for cfg, report in zip(configs, reports):
        assert table.outputs(cfg) == report.outputs, (alg.name, cfg)
        if not (report.valid and report.agreeing):
            failures.append(cfg)
    if error is not None:
        raise error
    return tuple(failures)


def _report(total, failures):
    """The report of a sweep of `total` configurations whose failing ones,
    in sweep order, are `failures`: their count and the first."""
    return ExhaustiveReport(total, len(failures), failures[0] if failures else None)


def _outcome(fn):
    """The report, or the type and text of the error the call raised."""
    try:
        return fn()
    except KnowAllError as exc:
        return type(exc).__name__, str(exc)


# BLOCK_BITS values that make the exhaustive sweep settle every case below
# in one block, put every digit but the last above the block, or split the digits
BLOCK_WIDTHS = {"whole": EXHAUSTIVE_CONFIG_CAP, "one_digit": 1, "split": 16}


def _across_block_widths(name: str, values):
    """Parametrize `name` over values and block_bits over BLOCK_WIDTHS; a
    whole-space case keeps the bare value as its id."""
    return pytest.mark.parametrize((name, "block_bits"), [
        pytest.param(value, bits, id=str(value) if width == "whole" else f"{value}-{width}")
        for value in values for width, bits in BLOCK_WIDTHS.items()])


# leaves 0..k on views whose heard inputs sum past k, so sweeps must raise
# at the same configuration and node as the naive loop
SUM_HEARD = AlgorithmSpec("sum_heard", lambda spec, k, view: sum(view.heard.values()))
# stays in 0..k but outputs values nobody may hold, so validity can fail
FLIP_OWN = AlgorithmSpec("flip_own", lambda spec, k, view: k - view.heard[view.observer])


@_across_block_widths("memo_cap", [protocol.VIEW_MEMO_CAP, 3])
def test_sweeps_equal_naive_run_loop(memo_cap, block_bits, monkeypatch):
    monkeypatch.setattr(protocol, "VIEW_MEMO_CAP", memo_cap)
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    rng = random.Random(20261017)
    extensions = set()
    for _ in range(20):
        spec = random_spec(rng, max_n=5)
        extensions.add(spec.extension)
        k = rng.randint(1, 2)
        budget = rng.randint(0, 3)
        # the int stands for flooding with the dominators of that round
        algs = [flood_dominator(), MIN_HEARD, MAX_HEARD, MAJORITY_HEARD,
                rng.randint(1, 3), SUM_HEARD, FLIP_OWN]
        for entry in algs:
            with flooding_of_round(entry) if type(entry) is int else nullcontext(entry) as alg:
                total = (k + 1) ** spec.n
                expected = _outcome(lambda: _report(total, _naive_sweep(
                    spec, k, alg, budget, product(range(k + 1), repeat=spec.n), cached=True)))
                assert _outcome(lambda: exhaustive_check(spec, k, alg, budget)) == expected

                seed = rng.randrange(1000)
                sampler = random.Random(seed)
                configs = [tuple(sampler.randrange(k + 1) for _ in range(spec.n))
                           for _ in range(60)]
                expected = _outcome(lambda: _report(60, _naive_sweep(
                    spec, k, alg, budget, configs, cached=True)))
                assert _outcome(lambda: sample_check(
                    spec, k, alg, budget, samples=60, seed=seed)) == expected
    assert len(extensions) == 2


def _backward_spec(n: int, arcs, extension=Extension.REPEAT_LAST) -> DynamicGraphSpec:
    return DynamicGraphSpec(n=n, rounds=(frozenset(arcs),), extension=extension)


def _backward_cases(rng: random.Random) -> list[tuple[DynamicGraphSpec, int, int]]:
    """(spec, k, budget) where nodes hear higher nodes: due out of node order, or gapped."""
    cases = [
        (_backward_spec(6, {(6, 1)}), 3, 1),                  # node 1 hears only 1 and 6
        (_backward_spec(5, {(5, 1), (4, 2)}), 3, 1),          # node 3 is due before 1 and 2
        (_backward_spec(6, {(v + 1, v) for v in range(1, 6)}, Extension.CYCLE), 2, 2),
        (_backward_spec(4, {(4, 1), (3, 1), (2, 4)}), 3, 2),
    ]
    while len(cases) < 8:
        n = rng.randint(3, 6)
        arcs = {(u, v) for u in range(2, n + 1) for v in range(1, u)
                if rng.random() < 0.25}
        if arcs:
            spec = _backward_spec(n, arcs, rng.choice(list(Extension)))
            k = rng.choice([k for k in (1, 2, 3) if (k + 1) ** n <= 4096])
            cases.append((spec, k, rng.randint(1, 2)))
    return cases


@_across_block_widths("memo_cap", [protocol.VIEW_MEMO_CAP, 3])
def test_depth_first_sweep_equals_naive_run_loop_out_of_node_order(memo_cap, block_bits,
                                                                   monkeypatch):
    # a node's output is due, fixed, once the input of the highest node it
    # hears is set; here that order differs from node order
    monkeypatch.setattr(protocol, "VIEW_MEMO_CAP", memo_cap)
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    for spec, k, budget in _backward_cases(random.Random(20261018)):
        for alg in (flood_dominator(), MIN_HEARD, MAJORITY_HEARD, SUM_HEARD, FLIP_OWN):
            total = (k + 1) ** spec.n
            expected = _outcome(lambda: _report(total, _naive_sweep(
                spec, k, alg, budget, product(range(k + 1), repeat=spec.n), cached=True)))
            assert _outcome(lambda: exhaustive_check(spec, k, alg, budget)) == expected


def _flooding_cases():
    """(spec, k, top budget): the standard family up to its bound r, and the
    backward cases up to r, or up to their own budget where no r exists."""
    cases = [(spec, k, min_rounds(spec, k)) for _, spec, k in standard_family()]
    for spec, k, budget in _backward_cases(random.Random(20261018)):
        try:
            cases.append((spec, k, min_rounds(spec, k)))
        except NeverDominated:
            cases.append((spec, k, budget))
    return cases


@_across_block_widths("memo_cap", [protocol.VIEW_MEMO_CAP, 3])
def test_flooding_sweeps_on_read_views_equal_naive_run_loop(memo_cap, block_bits, monkeypatch):
    # a flooding table decides once per value of the one sender a node
    # reads, where `run` decides every full view; at every budget up to the
    # bound, the failing ones below it included, and with the dominators of
    # a round below, at and above the budget, the sweeps report what `run` scores
    monkeypatch.setattr(protocol, "VIEW_MEMO_CAP", memo_cap)
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    failing = 0
    for spec, k, top in _flooding_cases():
        for budget in range(top + 1):
            rounds = sorted({max(budget - 1, 0), budget, budget + 1})
            for r in (None, *rounds):
                with flooding_of_round(r) as alg:
                    total = (k + 1) ** spec.n
                    expected = _outcome(lambda: _report(total, _naive_sweep(
                        spec, k, alg, budget, product(range(k + 1), repeat=spec.n),
                        cached=True)))
                    report = _outcome(lambda: exhaustive_check(spec, k, alg, budget))
                    assert report == expected, (spec, k, alg.name, budget)
                    if isinstance(report, ExhaustiveReport):
                        failing += not report.passed

                    seed = budget * 101 + k
                    sampler = random.Random(seed)
                    configs = [tuple(sampler.randrange(k + 1) for _ in range(spec.n))
                               for _ in range(40)]
                    expected = _outcome(lambda: _report(40, _naive_sweep(
                        spec, k, alg, budget, configs, cached=True)))
                    assert _outcome(lambda: sample_check(
                        spec, k, alg, budget, samples=40, seed=seed)) == expected
    assert failing  # flooding below its bound fails on some configurations


@_across_block_widths("trigger", [0, 1])
def test_range_error_parity_when_a_higher_node_is_due_first(trigger, block_bits, monkeypatch):
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    # node 1 hears {1, 4} and is due at the last digit, node 3 hears {1, 3}
    # and is due one digit earlier; both leave 0..k first on the
    # configuration (trigger, 0, 0, 0), where `run` meets node 1 first
    spec = _backward_spec(4, {(4, 1), (1, 3)})
    alg = AlgorithmSpec("off_range", lambda spec, k, view: k + 1 if view.observer in (1, 3)
                        and view.heard[1] == trigger and view.heard.get(4, 0) == 0 else 0)
    expected = ("AlgorithmRangeError", "off_range returned 3 at node 1, outside 0..2")
    assert _outcome(lambda: run(spec, 2, alg, (trigger, 0, 0, 0), 1)) == expected
    assert _outcome(lambda: _naive_sweep(
        spec, 2, alg, 1, product(range(3), repeat=4))) == expected
    assert _outcome(lambda: exhaustive_check(spec, 2, alg, 1)) == expected


# node 1 hears {1, 3, 5} and is due at the last digit, inside every block;
# node 2 hears {2, 3} and is due at digit 2, above the block while the block
# is at most two digits wide
_TWO_DUE_SPEC = _backward_spec(5, {(3, 1), (5, 1), (3, 2)})


@pytest.mark.parametrize("width", range(1, 6))
@pytest.mark.parametrize("node1_view, node2_view, first, node", [
    ((0, 1, 2), (1, 0), (0, 0, 1, 0, 2), 1),  # node 1 first, past the start of its block
    ((1, 0, 1), (2, 1), (0, 2, 1, 0, 0), 2),  # node 2 first
    ((0, 1, 0), (0, 1), (0, 0, 1, 0, 0), 1),  # both at once, and `run` meets node 1 first
], ids=["block_node_first", "walk_node_first", "same_configuration"])
def test_error_parity_inside_a_later_block(width, node1_view, node2_view, first, node,
                                           monkeypatch):
    # each node leaves 0..k on one view only, first met past the all-zero
    # configuration; at every block width the sweep raises what `run`
    # raises on the first configuration in `product` order with such a view
    monkeypatch.setattr(check, "BLOCK_BITS", 3 ** width)
    bad = {1: node1_view, 2: node2_view}
    alg = AlgorithmSpec("off_range", lambda spec, k, view: k + 1 if tuple(
        view.heard.values()) == bad.get(view.observer) else 0)
    expected = ("AlgorithmRangeError", f"off_range returned 3 at node {node}, outside 0..2")
    assert _outcome(lambda: run(_TWO_DUE_SPEC, 2, alg, first, 1)) == expected
    assert _outcome(lambda: _naive_sweep(
        _TWO_DUE_SPEC, 2, alg, 1, product(range(3), repeat=5))) == expected
    assert _outcome(lambda: exhaustive_check(_TWO_DUE_SPEC, 2, alg, 1)) == expected


def test_sweeps_and_coloring_decide_each_view_once(monkeypatch):
    spec = directed_cycle(5)
    for budget in (0, 1, 2):
        for width, block_bits in BLOCK_WIDTHS.items():
            monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
            decided = []
            exhaustive_check(spec, 2, counting_min(decided), budget)
            # node v hears budget+1 inputs, each one of k+1 = 3 values
            assert len(decided) == len(set(decided)) == 5 * 3 ** (budget + 1), width

        decided = []
        sample_check(spec, 2, counting_min(decided), budget, samples=300, seed=1)
        assert len(decided) == len(set(decided))

    # nodes 1 and 2 hear {1, 5} and {2, 4}, so node 3 is due before them
    for width, block_bits in BLOCK_WIDTHS.items():
        monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
        decided = []
        exhaustive_check(_backward_spec(5, {(5, 1), (4, 2)}), 2, counting_min(decided), 1)
        assert len(decided) == len(set(decided)) == 2 * 3 ** 2 + 3 * 3, width

    decided = []
    check_sperner(5, 2, algorithm_coloring(spec, 2, 1, counting_min(decided)))
    assert len(decided) == len(set(decided)) == 10

    # refute's pass decides each view once; only the re-simulation of the
    # witness, one decision per node, comes after it
    decided = []
    witness = refute(spec, 2, counting_min(decided), 1)
    swept, rerun = decided[:-5], decided[-5:]
    assert swept and len(swept) == len(set(swept))
    assert rerun == [(node, tuple(view_of(spec, witness.config, node, 1).heard.items()))
                     for node in range(1, 6)]


def test_one_block_sweep_decides_each_view_once_and_replays_nothing(monkeypatch):
    # every configuration in one block and no memo emptied: node i's
    # (k+1)^|H_i| views are each decided once, and no configuration is
    # read through ViewTable.outputs
    def outputs(self, cfg):
        raise AssertionError(f"ViewTable.outputs({cfg}) called")

    monkeypatch.setattr(ViewTable, "outputs", outputs)
    rng = random.Random(20261019)
    for _ in range(30):
        spec = random_spec(rng, max_n=7)
        k = rng.choice([k for k in (1, 2, 3) if (k + 1) ** spec.n <= check.BLOCK_BITS])
        budget = rng.randint(0, 3)
        heard = [len(view_of(spec, (0,) * spec.n, node, budget).heard)
                 for node in range(1, spec.n + 1)]
        assert (k + 1) ** max(heard) <= protocol.VIEW_MEMO_CAP
        decided = []
        exhaustive_check(spec, k, counting_min(decided), budget)
        assert len(decided) == len(set(decided)) == sum((k + 1) ** h for h in heard)


# a backward relay in which node v hears v and v+1, and node 5 also hears
# 1, 2 and 3; with a block of w digits, 5-w digits lie above the block
_RELAY_SPEC = _backward_spec(5, {(2, 1), (3, 2), (4, 3), (5, 4), (1, 5), (2, 5), (3, 5)})
# BLOCK_BITS, and the nodes that hear every digit above the block: node 5
# once three digits or fewer lie above it, node 1 once two or fewer do
_RELAY_WIDTHS = [pytest.param(3, set(), id="one_digit"), pytest.param(9, {5}, id="two_digits"),
                 pytest.param(27, {1, 5}, id="three_digits"),
                 pytest.param(243, {1, 2, 3, 4, 5}, id="whole")]


@pytest.mark.parametrize("block_bits, memo_free", _RELAY_WIDTHS)
def test_nodes_whose_views_never_repeat_keep_no_memo(block_bits, memo_free, monkeypatch):
    # every read of such a node meets a view not met before, so it is
    # decided without reading its memo; the others still decide each view once
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    for alg in (flood_dominator(), MIN_HEARD, MAJORITY_HEARD, FLIP_OWN):
        assert exhaustive_check(_RELAY_SPEC, 2, alg, 1) == _report(3 ** 5, _naive_sweep(
            _RELAY_SPEC, 2, alg, 1, product(range(3), repeat=5)))
    decided = []
    table = ViewTable(Instance(_RELAY_SPEC, 2), counting_min(decided), 1)
    memo_read = set()
    output = table.output

    def recording_output(node, cfg):
        memo_read.add(node)
        return output(node, cfg)

    table.output = recording_output
    check._depth_first(table, 5)
    heard = [len(view_of(_RELAY_SPEC, (0,) * 5, node, 1).heard) for node in range(1, 6)]
    assert len(decided) == len(set(decided)) == sum(3 ** h for h in heard)
    assert set(range(1, 6)) - memo_read == memo_free


@pytest.mark.parametrize("block_bits", [3, 9, 27, 243],
                         ids=["one_digit", "two_digits", "three_digits", "whole"])
@pytest.mark.parametrize("bad, node", [
    ({5: (0, 0, 1, 2), 2: (1, 0)}, 5),  # node 5 first, at (0, 0, 1, 0, 2)
    ({1: (0, 1), 2: (1, 1)}, 1),        # node 1 first, at (0, 1, 0, 0, 0)
    ({5: (0, 1, 0, 0), 1: (0, 1)}, 1),  # both at (0, 1, 0, 0, 0), and `run` meets node 1 first
    ({5: (0, 1, 0, 0), 2: (1, 0)}, 2),  # likewise with node 2, memoized while a digit is above the block
], ids=["block_node_first", "walk_node_first", "same_configuration",
        "memo_node_same_configuration"])
def test_error_parity_at_nodes_without_a_memo(bad, node, block_bits, monkeypatch):
    # each node in `bad` leaves 0..k on one view only; the sweep raises what
    # `run` raises on the first configuration in `product` order with one
    monkeypatch.setattr(check, "BLOCK_BITS", block_bits)
    alg = AlgorithmSpec("off_range", lambda spec, k, view: k + 1 if tuple(
        view.heard.values()) == bad.get(view.observer) else 0)
    expected = ("AlgorithmRangeError", f"off_range returned 3 at node {node}, outside 0..2")
    assert _outcome(lambda: _naive_sweep(
        _RELAY_SPEC, 2, alg, 1, product(range(3), repeat=5))) == expected
    assert _outcome(lambda: exhaustive_check(_RELAY_SPEC, 2, alg, 1)) == expected


def _cycling_spec(rng: random.Random, n: int, period: int, density: float) -> DynamicGraphSpec:
    """A cycling sequence whose rounds hold a Hamiltonian cycle between them,
    plus arcs drawn at `density` in every round."""
    order = rng.sample(range(1, n + 1), n)
    rounds = [set() for _ in range(period)]
    for i in range(n):
        rounds[rng.randrange(period)].add((order[i], order[(i + 1) % n]))
    for arcs in rounds:
        arcs |= {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if u != v and rng.random() < density}
    return DynamicGraphSpec(n=n, rounds=tuple(map(frozenset, rounds)),
                            extension=Extension.CYCLE)


def test_exhaustive_check_equals_naive_run_loop_on_check_benchmark_shapes():
    # the shapes of the check benchmark: n 6-7, k=2; flooding passes at its
    # bound r, and min_heard or majority_heard fails one round short
    rng = random.Random(20261020)
    for i, (n, density) in enumerate(product((6, 7), (0.05, 0.12, 0.25))):
        spec = _cycling_spec(rng, n, 1 + i % 3, density)
        r = min_rounds(spec, 2)
        for alg, budget in ((flood_dominator(), r), ((MIN_HEARD, MAJORITY_HEARD)[i % 2], r - 1)):
            report = exhaustive_check(spec, 2, alg, budget)
            assert report == _report(3 ** n, _naive_sweep(
                spec, 2, alg, budget, product(range(3), repeat=n)))
            assert report.passed == (budget == r)


def test_brute_domination_values(c5):
    assert [brute_domination(5, closure(c5, r)) for r in (1, 2, 3, 4)] == [3, 2, 2, 1]
    assert brute_domination(4, closure(complete_graph(4), 1)) == 1
    assert brute_domination(4, closure(complete_graph(4), 0)) == 4


def test_brute_domination_cap():
    with pytest.raises(CapExceeded):
        brute_domination(21, frozenset((i, i) for i in range(1, 22)))


def test_exact_search_matches_brute_on_random_closures():
    # the lex-smallest minimum set is the first dominating combination of
    # the brute-force size, since combinations come in lexicographic order
    rng = random.Random(20260817)
    for _ in range(60):
        spec = random_spec(rng, max_n=9)
        r = rng.randint(0, 3)
        H = closure(spec, r)
        size = brute_domination(spec.n, H)
        first = next(combo for combo in combinations(range(1, spec.n + 1), size)
                     if set(combo) | {v for u, v in H if u in combo}
                     == set(range(1, spec.n + 1)))
        assert min_dominating_set(spec, r) == first, (spec, r)


def _random_coloring(rng, n, k, kind):
    if kind == "sperner":
        return {v: rng.choice(sorted(carrier(v, n))) for v in vertices(n, k)}
    if kind == "palette":
        return {v: rng.randrange(k + 1) for v in vertices(n, k)}
    # colors below 0 and above k, which no panchromatic cell may use
    return {v: rng.randrange(-1, k + 3) for v in vertices(n, k)}


def test_brute_panchromatic_matches_streaming_search():
    # the one pass returns the earlier, in base order, of check_sperner's
    # first violation and brute force's first cell, the violation winning
    # a tie at the cell's base; a violation inside the cell's span, after
    # the base and up to its top corner, loses to the cell
    rng = random.Random(99)
    outcomes = set()
    ties = 0
    for k in range(1, 5):
        for n in range(1, 7):
            rank = {v: i for i, v in enumerate(vertices(n, k))}
            for kind in ("sperner", "palette", "wild"):
                for _ in range(2 if k == 4 else 4):
                    coloring = _random_coloring(rng, n, k, kind).__getitem__
                    cells = brute_panchromatic(n, k, coloring)
                    violations = check_sperner(n, k, coloring).violations
                    assert cells or violations, \
                        "Sperner colorings always have a panchromatic cell"
                    first_is_violation = bool(violations) and (
                        not cells or rank[violations[0][0]] <= rank[cells[0].base])
                    expected = violations[0][:2] if first_is_violation else cells[0]
                    found = find_panchromatic(n, k, coloring)
                    assert found == expected, (n, k, kind)
                    inside = bool(cells and violations) and (
                        rank[cells[0].base] < rank[violations[0][0]]
                        <= rank[cells[0].vertices()[-1]])
                    outcomes.add((kind, bool(cells), first_is_violation, inside))
                    ties += bool(cells and violations) and violations[0][0] == cells[0].base
    assert outcomes == {
        ("sperner", True, False, False),
        ("palette", True, False, False), ("palette", True, False, True),
        ("palette", True, True, False), ("palette", False, True, False),
        ("wild", True, False, False), ("wild", True, True, False), ("wild", False, True, False)}
    assert ties > 0


def test_brute_panchromatic_cap():
    with pytest.raises(CapExceeded):
        brute_panchromatic(2, 1, lambda v: 0, cap=1)
