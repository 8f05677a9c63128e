from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from knowall import (
    AlgorithmSpec,
    DynamicGraphSpec,
    Extension,
    Instance,
    LemmaFalsified,
    WitnessKind,
    algorithm_by_name,
    algorithm_coloring,
    builtin_algorithms,
    complete_graph,
    directed_cycle,
    parse_inputs,
    refute,
    run,
    save_graph_file,
)
from knowall import domination, dyngraph, protocol
from knowall import cli
from knowall.cli import main
from knowall.dyngraph import closure_at
from knowall.oracle import vertices

import golden
from conftest import replaced


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_k2(capsys, c5_file):
    code, out, err = run_cli(capsys, "bound", "--graph", c5_file, "--k", "2")
    assert code == 0 and err == ""
    assert out == '{"dominating_set":[1,3],"gamma_by_round":[3,2],"r":2}\n'


def test_bound_k1(capsys, c5_file):
    code, out, _ = run_cli(capsys, "bound", "--graph", c5_file, "--k", "1")
    assert code == 0
    assert json.loads(out) == {
        "r": 4, "dominating_set": [1], "gamma_by_round": [3, 2, 2, 1]}


def test_bound_reversed_relay_beyond_64_rounds(capsys, tmp_path):
    # arc (j, j+1) comes one round before arc (j-1, j) in each period of 9,
    # so a token needs a whole period less one round per hop
    spec = DynamicGraphSpec(10, tuple(frozenset({(j, j + 1)}) for j in range(9, 0, -1)),
                            Extension.CYCLE)
    path = tmp_path / "relay10.json"
    save_graph_file(spec, str(path))
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["r"] == 73 and payload["dominating_set"] == [1]
    assert len(payload["gamma_by_round"]) == 73 and payload["gamma_by_round"][-2:] == [2, 1]
    code, out, _ = run_cli(capsys, "bound", "--graph", str(path), "--k", "2")
    assert code == 0 and json.loads(out)["r"] == 33


def test_bound_never_dominated_exits_2(capsys, tmp_path):
    path = tmp_path / "islands.json"
    save_graph_file(DynamicGraphSpec(2, (frozenset(),)), str(path))
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert code == 2 and out == ""
    assert err == ("error: no round suffices: H_r is fixed from round 0 on "
                   "and its domination number is 2 > k = 1\n")


def test_solve(capsys, c5_file):
    code, out, _ = run_cli(capsys, "solve", "--graph", c5_file,
                           "--k", "2", "--inputs", "01201")
    assert code == 0
    assert json.loads(out) == {
        "outputs": "00022", "r": 2, "dominating_set": [1, 3],
        "valid": True, "agreeing": True}


def test_refute_emits_witness_and_exit_1(capsys, c5_file):
    code, out, err = run_cli(capsys, "refute", "--graph", c5_file, "--k", "2",
                             "--alg", "flood_dominator", "--budget", "1")
    assert code == 1 and err == ""
    assert out == ('{"budget":1,"config":"21100","kind":"AgreementViolation",'
                   '"nodes":[5,3,1],"outputs":[0,1,2],'
                   '"simplex":{"base":[3,1],"perm":[1,2]},"verified":true}\n')


def test_refute_budget_at_bound_is_an_error(capsys, c5_file):
    code, out, err = run_cli(capsys, "refute", "--graph", c5_file, "--k", "2",
                             "--alg", "flood_dominator", "--budget", "2")
    assert (code, out, err) == (2, "", "error: budget 2 is not below the tight bound 2\n")


def test_k_at_least_n_needs_no_round(capsys, tmp_path):
    path = tmp_path / "c3.json"
    save_graph_file(directed_cycle(3), str(path))
    graph = ("--graph", str(path), "--k", "3")
    assert run_cli(capsys, "bound", *graph) == (
        0, '{"dominating_set":[1,2,3],"gamma_by_round":[],"r":0}\n', "")
    code, out, err = run_cli(capsys, "solve", *graph, "--inputs", "302")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"outputs": "302", "r": 0, "dominating_set": [1, 2, 3],
                               "valid": True, "agreeing": True}
    for alg in [a.name for a in builtin_algorithms()]:
        code, out, err = run_cli(capsys, "check", *graph, "--alg", alg,
                                 "--budget", "0", "--exhaustive")
        assert (code, err) == (0, ""), alg
        assert json.loads(out) == {"mode": "exhaustive", "configs_checked": 64,
                                   "failure_count": 0, "first_failure": None,
                                   "passed": True}, alg
        assert run_cli(capsys, "refute", *graph, "--alg", alg, "--budget", "0") == (
            2, "", "error: budget 0 is not below the tight bound 0\n"), alg


def test_refute_sequence_with_no_bound(capsys, tmp_path):
    spec = DynamicGraphSpec(4, (frozenset({(1, 2), (3, 4)}),))
    path = tmp_path / "islands.json"
    save_graph_file(spec, str(path))
    graph = ("--graph", str(path), "--k", "1")
    for alg in ("min_heard", "max_heard", "majority_heard"):
        for budget in range(4):
            code, out, err = run_cli(capsys, "refute", *graph, "--alg", alg,
                                     "--budget", str(budget))
            assert (code, err) == (1, ""), (alg, budget)
            witness = json.loads(out)
            assert witness["kind"] == "AgreementViolation" and witness["verified"]
            report = run(spec, 1, algorithm_by_name(alg), parse_inputs(witness["config"], 4, 1),
                         budget)
            assert [report.outputs[i - 1] for i in witness["nodes"]] == witness["outputs"]
            assert not report.agreeing
    code, out, err = run_cli(capsys, "refute", *graph, "--alg", "flood_dominator",
                             "--budget", "1")
    assert (code, out) == (2, "") and err.startswith("error: no round suffices")


def test_unknown_algorithm(capsys, c5_file):
    code, _, err = run_cli(capsys, "refute", "--graph", c5_file, "--k", "2",
                           "--alg", "psychic", "--budget", "1")
    assert code == 2 and "psychic" in err


def test_closure_json(capsys, c5_file):
    code, out, _ = run_cli(capsys, "closure", "--graph", c5_file, "--r", "1")
    assert code == 0
    assert out == ('{"arcs":[[1,1],[1,2],[2,2],[2,3],[3,3],[3,4],'
                   '[4,4],[4,5],[5,1],[5,5]],"n":5,"r":1}\n')


def test_closure_dot(capsys, c5_file):
    code, out, _ = run_cli(capsys, "closure", "--graph", c5_file,
                           "--r", "1", "--dot")
    assert code == 0
    assert out == ("digraph {\n"
                   "  1 -> 1;\n  1 -> 2;\n  2 -> 2;\n  2 -> 3;\n  3 -> 3;\n"
                   "  3 -> 4;\n  4 -> 4;\n  4 -> 5;\n  5 -> 1;\n  5 -> 5;\n"
                   "}\n")


def test_unassignable_vertex_is_an_internal_error(capsys, c5_file, monkeypatch):
    # a refutability decision claiming no two nodes dominate H_2 of the
    # 5-cycle leaves the vertex (3, 1), whose senders 1 and 3 reach
    # everyone, without a node.  refute makes that decision first; the
    # decisions after it, flooding's bound walk among them, answer truly
    find_cover = dyngraph.find_cover
    lies = []

    def no_cover_once(covers, dom, uncovered, avail, slots, widest):
        full = (1 << len(covers)) - 1
        if (uncovered, avail, slots) == (full, full, 2) and not lies:
            lies.append(covers)
            return None
        return find_cover(covers, dom, uncovered, avail, slots, widest)

    monkeypatch.setattr(dyngraph, "find_cover", no_cover_once)
    # the Sperner walk meets that vertex under either algorithm
    for alg in ("flood_dominator", "max_heard"):
        lies.clear()
        code, out, err = run_cli(capsys, "refute", "--graph", c5_file, "--k", "2",
                                 "--alg", alg, "--budget", "2")
        assert code == 2 and out == "", alg
        assert err.startswith("internal error: LemmaFalsified: the positive coordinates of (3, 1)")
        assert lies == [closure_at(directed_cycle(5), 2).reach], alg


def test_an_undominated_fixed_closure_that_gamma_dominates_is_an_internal_error(
        capsys, c5_file, monkeypatch):
    # cover decisions claiming no k nodes dominate any closure of the
    # 5-cycle walk the bound to H_4, complete and fixed, whose one exact
    # search finds a single dominator: the walk names both answers instead
    # of calling the sequence never dominated.  bound's own route proves
    # domination numbers, which need no such decision
    find_cover = dyngraph.find_cover

    def no_cover(covers, dom, uncovered, avail, slots, widest):
        full = (1 << len(covers)) - 1
        if (uncovered, avail) == (full, full):
            return None
        return find_cover(covers, dom, uncovered, avail, slots, widest)

    monkeypatch.setattr(dyngraph, "find_cover", no_cover)
    def message(k):
        return (f"a {k}-slot cover decision found no dominating set of H_r, fixed from round "
                f"4 on, but its domination number is 1 <= k = {k}")

    for k in (1, 2):
        with pytest.raises(LemmaFalsified, match=f"^{re.escape(message(k))}$"):
            Instance(directed_cycle(5), k).bound()
    for argv in (("solve", "--inputs", "01201"),
                 ("refute", "--alg", "flood_dominator", "--budget", "1"),
                 ("check", "--alg", "flood_dominator", "--budget", "2", "--exhaustive")):
        code, out, err = run_cli(capsys, *argv[:1], "--graph", c5_file, "--k", "2", *argv[1:])
        assert (code, out, err) == (2, "", f"internal error: LemmaFalsified: {message(2)}\n"), argv
    code, out, _ = run_cli(capsys, "bound", "--graph", c5_file, "--k", "2")
    assert code == 0 and json.loads(out)["r"] == 2


def test_refutability_is_decided_once_per_command(monkeypatch):
    # refute and a coloring decide refutability once, and decode witness
    # corners and vertices with the closure that decision returned; a
    # refutability decision offers k slots to cover all n nodes with all n
    # (a dominating set's rebuild offers fewer nodes, and the domination
    # numbers are proven without find_cover)
    decide = dyngraph.find_cover
    calls = []

    def counting(covers, dom, uncovered, avail, slots, widest):
        full = (1 << len(covers)) - 1
        if (uncovered, avail, slots) == (full, full, 2):
            calls.append(slots)
        return decide(covers, dom, uncovered, avail, slots, widest)

    monkeypatch.setattr(dyngraph, "find_cover", counting)
    const_zero = AlgorithmSpec("const0", lambda spec, k, view: 0)
    for alg, kind in ((algorithm_by_name("min_heard"), WitnessKind.AGREEMENT_VIOLATION),
                      (const_zero, WitnessKind.VALIDITY_VIOLATION)):
        calls.clear()
        assert refute(directed_cycle(5), 2, alg, 1).kind is kind
        assert len(calls) == 1, alg.name
    # a caller reading every vertex's node and color makes one decision too
    for n in (5, 8):
        calls.clear()
        coloring = algorithm_coloring(directed_cycle(n), 2, 1, algorithm_by_name("min_heard"))
        for v in vertices(n, 2):
            coloring.node(v)
            coloring(v)
        assert len(calls) == 1, n


def test_failed_dominating_set_rebuild_is_an_internal_error(capsys, tmp_path, monkeypatch):
    order = domination._order

    def rebuild_fails(dom, uncovered, avail):
        # the size decisions offer every node and answer truly, so the bound
        # is found; only the lex-min rebuild, which offers fewer, fails
        return order(dom, uncovered, avail) if avail == (1 << len(dom)) - 1 else None

    monkeypatch.setattr(domination, "_order", rebuild_fails)
    spec = DynamicGraphSpec(n=6, rounds=(frozenset({(1, 2), (3, 4), (5, 6)}),
                                         frozenset({(2, 3), (6, 1)})),
                            extension=Extension.CYCLE)
    path = tmp_path / "g.json"
    save_graph_file(spec, str(path))
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("internal error: LemmaFalsified: a dominating set of size")


def test_bound_beyond_the_exact_search_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "c33.json"
    save_graph_file(directed_cycle(33), str(path))
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: exact dominating-set search capped at n <= 32, got n = 33\n"


def test_huge_n_is_refused_before_any_mask_is_built(capsys, tmp_path):
    # the masks of H_0 alone would take about 100 MiB at n = 40000, and a
    # view table would scan n^2 bits
    n = 40000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "rounds": [[[1, 2]]]}))
    refusal = f"error: exact dominating-set search capped at n <= 32, got n = {n}\n"
    tracemalloc.start()
    try:
        dyngraph.load_graph_file(str(path))
        assert tracemalloc.get_traced_memory()[1] < 4 * 2 ** 20
        for argv in (("bound", "--k", "1"),
                     ("solve", "--k", "1", "--inputs", "0" * n),
                     ("refute", "--k", "1", "--alg", "min_heard", "--budget", "0")):
            assert run_cli(capsys, *argv, "--graph", str(path)) == (2, "", refusal), argv
            assert tracemalloc.get_traced_memory()[1] < 4 * 2 ** 20, argv
    finally:
        tracemalloc.stop()


def test_check_exhaustive_pass(capsys, c5_file):
    code, out, _ = run_cli(capsys, "check", "--graph", c5_file, "--k", "2",
                           "--alg", "flood_dominator", "--budget", "2",
                           "--exhaustive")
    assert code == 0
    assert out == ('{"configs_checked":243,"failure_count":0,'
                   '"first_failure":null,"mode":"exhaustive","passed":true}\n')


def test_check_exhaustive_fail(capsys, c5_file):
    code, out, _ = run_cli(capsys, "check", "--graph", c5_file, "--k", "2",
                           "--alg", "min_heard", "--budget", "1",
                           "--exhaustive")
    assert code == 1
    payload = json.loads(out)
    assert payload["failure_count"] == 45 and not payload["passed"]
    assert payload["first_failure"] == {"config": "00122",
                                        "outputs": [0, 0, 0, 1, 2],
                                        "valid": True, "agreeing": False}


def test_check_failure_that_run_passes_is_an_internal_error(capsys, c5_file, tmp_path,
                                                            monkeypatch):
    # the first failure is re-simulated through protocol.run; a sweep that
    # fails a configuration run scores as a pass is a bug in the package.
    # At k >= 10 the message shows the configuration as a list
    real_run = protocol.run

    def passing_run(*args):
        return replaced(real_run(*args), valid=True, agreeing=True)

    monkeypatch.setattr(protocol, "run", passing_run)
    c32_file = str(tmp_path / "c32.json")
    save_graph_file(directed_cycle(32), c32_file)
    for graph, k, budget, mode, shown in ((c5_file, "2", "1", (), "22021, "),
                                          (c5_file, "2", "1", ("--exhaustive",), "00122, "),
                                          (c32_file, "12", "0", (), "[")):
        code, out, err = run_cli(capsys, "check", "--graph", graph, "--k", k,
                                 "--alg", "min_heard", "--budget", budget, *mode)
        assert (code, out) == (2, "")
        assert err.startswith(f"internal error: LemmaFalsified: the sweep failed {shown}")


def _listed(config, n: int, k: int) -> bool:
    """Whether a printed configuration is the k >= 10 form: a list of n ints in 0..k."""
    return type(config) is list and len(config) == n and \
        all(type(x) is int and 0 <= x <= k for x in config)


def test_refute_and_check_at_large_k_print_lists_that_re_simulate(capsys, tmp_path, monkeypatch):
    # the golden replay's k >= 10 queries: every built-in's witness at
    # k = 10, 12 and 16 on n = 24 and 32, and check's sweeps, print each
    # configuration as a list that run re-simulates to the printed outputs
    monkeypatch.chdir(tmp_path)
    specs = golden.large_k_specs()
    seen = {"refute": 0, "passed": 0, "failed": 0}
    for argv in golden.large_k_queries(tmp_path):
        command, args = cli._parse(argv)
        spec, k, budget = specs[args["graph"]], args["k"], args["budget"]
        alg = algorithm_by_name(args["alg"])
        code, out, err = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert err == "" and k >= 10, argv
        if command == "refute":
            assert code == 1 and _listed(payload["config"], spec.n, k), argv
            report = run(spec, k, alg, payload["config"], budget)
            outputs = [report.outputs[v - 1] for v in payload["nodes"]]
            assert outputs == payload["outputs"] and len(set(outputs)) == k + 1, argv
            assert payload["kind"] == "AgreementViolation" and not report.agreeing, argv
            assert payload["verified"] and len(payload["simplex"]["base"]) == k, argv
            seen["refute"] += 1
            continue
        first = payload["first_failure"]
        if payload["passed"]:
            assert (code, first, payload["failure_count"]) == (0, None, 0), argv
            seen["passed"] += 1
            continue
        assert code == 1 and _listed(first["config"], spec.n, k), argv
        report = run(spec, k, alg, first["config"], budget)
        assert list(report.outputs) == first["outputs"], argv
        assert (report.valid, report.agreeing) == (first["valid"], first["agreeing"]), argv
        assert not (report.valid and report.agreeing), argv
        seen["failed"] += 1
    assert seen == {"refute": 36, "passed": 2, "failed": 1}


def test_exhaustive_check_at_k_10_prints_its_first_failure_as_a_list(capsys, tmp_path,
                                                                    monkeypatch):
    # on 5 nodes at k = 10 no built-in can fail (each outputs a heard input,
    # and 5 nodes output at most 5 values), so a node that outputs k minus
    # its input stands in; the first failure is all zeros, a list at k >= 10
    flipped = AlgorithmSpec("flipped", lambda spec, k, view: k - view.heard[view.observer])
    monkeypatch.setattr(protocol, "algorithm_by_name", lambda name: flipped)
    spec = directed_cycle(5)
    path = tmp_path / "c5.json"
    save_graph_file(spec, str(path))
    code, out, err = run_cli(capsys, "check", "--graph", str(path), "--k", "10",
                             "--alg", "flipped", "--budget", "1", "--exhaustive")
    payload = json.loads(out)
    assert (code, err, payload["configs_checked"]) == (1, "", 11 ** 5)
    first = payload["first_failure"]
    assert first == {"config": [0, 0, 0, 0, 0], "outputs": [10] * 5,
                     "valid": False, "agreeing": True}
    assert not run(spec, 10, flipped, first["config"], 1).valid


def test_flooding_looks_up_its_dominators_once_per_bind(capsys, c5_file, monkeypatch):
    # the instance reads the bound and the dominating set from the spec's memo
    calls = {"bound": 0, "min_dominating_set": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def counting(*args):
            calls[name] += 1
            return fn(*args)
        return counting

    monkeypatch.setattr(dyngraph.Instance, "bound", counted(dyngraph.Instance, "bound"))
    monkeypatch.setattr(dyngraph, "min_dominating_set",
                        counted(dyngraph, "min_dominating_set"))

    def counts_of(action):
        calls.update(dict.fromkeys(calls, 0))
        action()
        return calls["bound"], calls["min_dominating_set"]

    c5 = directed_cycle(5)
    flooding = algorithm_by_name("flood_dominator")
    assert counts_of(lambda: run_cli(capsys, "check", "--graph", c5_file, "--k", "2", "--alg",
                                     "flood_dominator", "--budget", "2", "--exhaustive")) == (1, 1)
    assert counts_of(lambda: run(c5, 2, flooding, (0, 1, 2, 0, 1), 2)) == (1, 1)
    # one bind colors the triangulation, and one re-simulates the witness
    assert counts_of(lambda: refute(c5, 2, flooding, 1)) == (2, 2)


def test_flooding_answers_without_its_decide(capsys, c5_file, monkeypatch):
    # bind is the only path to an algorithm: flooding's binding never calls decide
    def no_decide(spec, k, view):
        raise AssertionError("decide called")

    flooding = algorithm_by_name("flood_dominator")
    bound_only = dataclasses.replace(flooding, decide=no_decide)
    c5 = directed_cycle(5)
    for budget in (1, 2):
        for cfg in ((0, 1, 2, 0, 1), (2, 2, 1, 0, 0)):
            assert run(c5, 2, bound_only, cfg, budget) == run(c5, 2, flooding, cfg, budget)
    assert refute(c5, 2, bound_only, 1) == refute(c5, 2, flooding, 1)
    commands = [("check", "--budget", "2", "--exhaustive"), ("check", "--budget", "1"),
                ("check", "--budget", "1", "--exhaustive"), ("refute", "--budget", "1")]
    expected = [run_cli(capsys, *argv, "--graph", c5_file, "--k", "2",
                        "--alg", "flood_dominator") for argv in commands]
    monkeypatch.setattr(protocol, "algorithm_by_name", lambda name: bound_only)
    assert [run_cli(capsys, *argv, "--graph", c5_file, "--k", "2", "--alg", "flood_dominator")
            for argv in commands] == expected
    assert [code for code, _out, _err in expected] == [0, 1, 1, 1]


def test_flooding_refusals_keep_their_messages(capsys, tmp_path):
    # flooding now derives its dominators when a table is bound, before any view
    islands = tmp_path / "islands.json"
    save_graph_file(DynamicGraphSpec(2, (frozenset(),)), str(islands))
    c33 = tmp_path / "c33.json"
    save_graph_file(directed_cycle(33), str(c33))
    never = ("error: no round suffices: H_r is fixed from round 0 on "
             "and its domination number is 2 > k = 1\n")
    capped = "error: exact dominating-set search capped at n <= 32, got n = 33\n"
    for path, mode, err in ((islands, ("--exhaustive",), never), (islands, (), never),
                            (c33, (), capped)):
        assert run_cli(capsys, "check", "--graph", str(path), "--k", "1", "--alg",
                       "flood_dominator", "--budget", "0", *mode) == (2, "", err), (path, mode)
    assert run_cli(capsys, "refute", "--graph", str(islands), "--k", "1", "--alg",
                   "flood_dominator", "--budget", "0") == (2, "", never)


def test_check_sampled_is_seed_deterministic(capsys, c5_file):
    args = ("check", "--graph", c5_file, "--k", "2",
            "--alg", "min_heard", "--budget", "1", "--seed", "3")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first[1])["mode"] == "sampled"
    assert json.loads(first[1])["configs_checked"] == 1000


def test_check_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "k20.json"
    save_graph_file(complete_graph(20), str(path))
    code, out, err = run_cli(capsys, "check", "--graph", str(path), "--k", "2",
                             "--alg", "flood_dominator", "--budget", "1",
                             "--exhaustive")
    assert code == 2 and out == "" and "error:" in err


def test_repeated_invocations_are_byte_identical(capsys, c5_file):
    args = ("refute", "--graph", c5_file, "--k", "2",
            "--alg", "max_heard", "--budget", "1")
    assert run_cli(capsys, *args) == run_cli(capsys, *args)


def test_calls_share_one_parser_and_leak_nothing(capsys, c5_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    bound = ("bound", "--graph", c5_file, "--k", "2")
    expected = run_cli(capsys, *bound)

    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--graph", c5_file, "--k", "0"])
    assert exc.value.code == 2 and "usage:" in capsys.readouterr().err
    assert run_cli(capsys, *bound) == expected

    # nor does an option given once: --seed falls back to its default 0
    check = ("check", "--graph", c5_file, "--k", "2", "--alg", "min_heard", "--budget", "1")
    seeded = run_cli(capsys, *check, "--seed", "3")
    assert run_cli(capsys, *check) == run_cli(capsys, *check, "--seed", "0") != seeded

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    help_page = capsys.readouterr()
    assert help_page.err == ""
    assert help_page.out.startswith("usage: knowall [-h] {bound,solve,refute,closure,check} ...\n")
    for command, (_run, line, _options) in cli._COMMANDS.items():
        assert f"  {command} " in help_page.out and line in help_page.out, command
    assert built == []  # no call builds an argparse parser


def test_import_builds_no_parser_and_the_script_entry_runs(c5_file):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = "import sys, knowall.cli; print('argparse' in sys.modules)"
    probed = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (probed.returncode, probed.stdout, probed.stderr) == (0, "False\n", "")

    command = "knowall bound --graph c5.json --k 2"
    readme = (root / "README.md").read_text().splitlines()
    expected = readme[readme.index(f"$ {command}") + 1] + "\n"
    ran = subprocess.run([sys.executable, "-S", "-m", "knowall.cli", *command.split()[1:]],
                         cwd=Path(c5_file).parent, env=env,
                         capture_output=True, text=True, timeout=60)
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, expected, "")
    # the script entry calls main() with argv=None, which reads sys.argv
    helped = subprocess.run([sys.executable, "-S", "-m", "knowall.cli", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: knowall [-h] {bound,solve,refute,closure,check}")
    bare = subprocess.run([sys.executable, "-S", "-m", "knowall.cli"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (bare.returncode, bare.stdout) == (2, "")
    assert bare.stderr.endswith(
        "knowall: error: the following arguments are required: command\n")


def test_each_command_imports_only_what_it_runs(c5_file):
    # a cold process: importing the CLI loads five package modules and none
    # of the heavier standard modules; bound loads nothing more, and check
    # and refute load their own modules when they run; no command loads the
    # argument parser of the standard library or what it imports
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    readme = (root / "README.md").read_text().splitlines()
    commands = [
        "knowall bound --graph c5.json --k 2",
        "knowall check --graph c5.json --k 2 --alg min_heard --budget 1 --exhaustive",
        "knowall refute --graph c5.json --k 2 --alg flood_dominator --budget 1",
    ]
    probe = textwrap.dedent("""
        import json
        import sys

        def loaded():
            watched = ("knowall", "dataclasses", "inspect", "typing", "random",
                       "argparse", "gettext", "locale", "shutil")
            return sorted(m for m in sys.modules if m.partition(".")[0] in watched)

        seen = [loaded()]
        import knowall.cli
        seen.append(loaded())
        for argv in json.loads(sys.argv[1]):
            seen.append([knowall.cli.main(argv), loaded()])
        print(json.dumps(seen), file=sys.stderr)
    """)
    ran = subprocess.run(
        [sys.executable, "-S", "-c", probe, json.dumps([c.split()[1:] for c in commands])],
        cwd=Path(c5_file).parent, env=env, capture_output=True, text=True, timeout=60)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == "".join(readme[readme.index(f"$ {c}") + 1] + "\n" for c in commands)
    cli = ["knowall", "knowall.cli", "knowall.domination", "knowall.dyngraph", "knowall.errors"]
    before, imported, bound, check, refuted = json.loads(ran.stderr)
    assert before == [] and imported == cli and bound == [0, cli]
    assert check[0] == 1 and "random" not in check[1]
    assert [m for m in check[1] if m.startswith("knowall")] == sorted(
        [*cli, "knowall.check", "knowall.protocol"])
    assert refuted[0] == 1 and [m for m in refuted[1] if m.startswith("knowall")] == sorted(
        [*cli, "knowall.check", "knowall.kuhn", "knowall.protocol", "knowall.refuter"])
    for _code, modules in (check, refuted):
        assert not {"argparse", "gettext", "locale", "shutil"} & set(modules)


def test_missing_graph_file(capsys):
    code, _, err = run_cli(capsys, "bound", "--graph", "/no/such/file.json",
                           "--k", "1")
    assert code == 2 and "error:" in err


def test_malformed_graph_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3}')
    code, _, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert code == 2 and "error:" in err
    # a non-integer n or endpoint is refused, not truncated to n=5, arc (1, 2)
    path.write_text('{"n": 5.9, "rounds": [[[1, 2.7]]]}')
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert (code, out) == (2, "") and err.startswith("error: n and arc endpoints must be integers")
    # nesting deeper than the parser's recursion limit, and bytes that are
    # not UTF-8, are format errors naming the file, not tracebacks
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: maximum recursion depth")
    path.write_bytes(b'{"n": 3, "rounds": [[[1, 2]]], "extension": "\xff"}')
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: 'utf-8' codec")
    # an integer literal too long for int() names the file too
    path.write_text('{"n": 1%s, "rounds": [[[1, 2]]]}' % ("0" * sys.get_int_max_str_digits()))
    code, out, err = run_cli(capsys, "bound", "--graph", str(path), "--k", "1")
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: Exceeds the limit")


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where no x.json exists
    check = ["check", "--graph", "x.json", "--k", "2", "--alg", "min_heard", "--budget", "1"]
    for argv in ([],
                 ["bound", "--graph", "x.json", "--k", "0"],
                 ["bound", "--graph", "x.json", "--k", "1", "--threads", "0"],
                 # integers are ASCII digits only: no other script's digits,
                 # underscores or surrounding spaces, all of which int() takes
                 ["bound", "--graph", "x.json", "--k", "\u0662"],
                 ["bound", "--graph", "x.json", "--k", "1_0"],
                 ["bound", "--graph", "x.json", "--k", " 2"],
                 ["bound", "--graph", "x.json", "--k", "2 "],
                 ["refute", "--graph", "x.json", "--k", "2", "--alg", "min_heard",
                  "--budget", "\u0661"],
                 check[:-1] + ["-1"],
                 check + ["--seed", "\u0663"],
                 check + ["--seed", "1_0"],
                 check + ["--seed", " 3"],
                 check + ["--seed", "+3"],
                 check + ["--seed", "-"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv
    # refute and check take any positive k, as bound does: past the
    # parser, a missing graph file is an operational error
    for argv in (["refute", "--graph", "x.json", "--k", "10", "--alg", "min_heard",
                  "--budget", "0"],
                 ["check", "--graph", "x.json", "--k", "12", "--alg", "min_heard",
                  "--budget", "1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == \
            "error: [Errno 2] No such file or directory: 'x.json'\n", argv


def test_the_cli_offers_exactly_its_five_commands(capsys):
    # the triangulation is read through the library (algorithm_coloring),
    # so no command dumps it
    with pytest.raises(SystemExit) as exc:
        main(["triangulate", "--n", "2", "--k", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'triangulate'" in err
    assert err.splitlines()[0] == "usage: knowall [-h] {bound,solve,refute,closure,check} ..."
    assert list(cli._COMMANDS) == ["bound", "solve", "refute", "closure", "check"]


def test_negative_seed_is_accepted(capsys, c5_file):
    code, out, _ = run_cli(capsys, "check", "--graph", c5_file, "--k", "2",
                           "--alg", "min_heard", "--budget", "1", "--seed", "-3")
    assert code == 1 and json.loads(out)["mode"] == "sampled"


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI read its arguments with before `cli._COMMANDS`.

    It is the grammar's oracle: its converters raise argparse's own error
    type with the messages of the CLI's converters, and their names give
    argparse's "invalid _positive value" message.
    """
    def _integer(text: str) -> int:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
        return int(text)

    def _positive(text: str) -> int:
        value = _integer(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def _nonnegative(text: str) -> int:
        value = _integer(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="knowall",
        description="Round-optimal k-set agreement on known dynamic graphs: "
                    "compute the tight bound, solve at it, refute below it.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="tight round bound and a witnessing dominating set")
    p.add_argument("--graph", required=True, help="graph sequence JSON file")
    p.add_argument("--k", type=_positive, required=True)

    p = sub.add_parser("solve", parents=[common],
                       help="run the optimal flooding algorithm on given inputs")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--inputs", required=True, help="digit string, node 1 first")

    p = sub.add_parser("refute", parents=[common],
                       help="counterexample against an algorithm run below the bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--alg", required=True, help="builtin algorithm name")
    p.add_argument("--budget", type=_nonnegative, required=True)

    p = sub.add_parser("closure", parents=[common],
                       help="information-flow closure H_r of the sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=_nonnegative, required=True)
    p.add_argument("--dot", action="store_true", help="DOT text instead of JSON")

    p = sub.add_parser("check", parents=[common],
                       help="validity/agreement sweep of an algorithm at a budget")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--alg", required=True)
    p.add_argument("--budget", type=_nonnegative, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help="all (k+1)^n configurations (cap 1000000)")
    p.add_argument("--seed", type=_integer, default=0, help="seed for the sampled mode")
    return parser


# int() refuses a digit string this long, which argparse reports as a usage error
LONG_DIGITS = "1" + "0" * sys.get_int_max_str_digits()
INTEGERS = ["0", "1", "2", "3", "9", "10", "12", "-1", "-3", "٢", "١", "٣",
            "1_0", " 2", "2 ", " 3", "+3", "-", LONG_DIGITS]
VALUES = {"--graph": ["c5.json", "-", "-3", "", "x y", "-1.5", "-x", "--pretty"],
          "--inputs": ["01201", "-1", ""], "--alg": ["min_heard", "flood_dominator", "-"],
          "--n": ["2"]}
COMMAND_OPTIONS = {
    "bound": ["--pretty", "--graph", "--k"],
    "solve": ["--pretty", "--graph", "--k", "--inputs"],
    "refute": ["--pretty", "--graph", "--k", "--alg", "--budget"],
    "closure": ["--pretty", "--graph", "--r", "--dot"],
    "check": ["--pretty", "--graph", "--k", "--alg", "--budget", "--exhaustive", "--seed"],
    "triangulate": ["--n", "--k"],
}
FLAGS = ("--pretty", "--dot", "--exhaustive")
ODD_TOKENS = ["--", "-h", "--he", "--help", "-hh", "-hx", "--help=1", "--threads", "--=x",
              "stray", "-5", "-", ""]


def random_argv(rng: random.Random) -> list[str]:
    """A command line near the grammar's edges, mostly over a real command."""
    argv = []
    while rng.random() < 0.1:
        argv.append(rng.choice(ODD_TOKENS))
    command = rng.choice(list(COMMAND_OPTIONS))
    if rng.random() < 0.97:
        argv.append(command)
    names = list(COMMAND_OPTIONS[command])
    rng.shuffle(names)
    names += rng.sample(names, rng.choice((0, 0, 0, 1, 2)))  # repeats
    if rng.random() < 0.1:
        names.insert(rng.randrange(len(names) + 1), "--threads")
    for name in names:
        if rng.random() < 0.08:  # a missing option
            continue
        spelling = name if rng.random() < 0.6 else name[:rng.randint(3, len(name))]
        if name in FLAGS:
            argv.append(spelling if rng.random() < 0.95 else spelling + "=1")
            continue
        pool = VALUES.get(name, INTEGERS)
        value = rng.choice(pool[:2]) if rng.random() < 0.6 else rng.choice(pool)
        # argparse drops "--" from `--name=--` and stores an empty list; the
        # table's parser keeps it as the value, so that join is left out
        if rng.random() < 0.25 and value != "--":
            argv.append(f"{spelling}={value}")
        elif rng.random() < 0.03:
            argv.append(spelling)  # its value is left out
        else:
            argv += [spelling, value]
    for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD_TOKENS))
    return argv


def outcome(parse, argv: list[str]):
    """(command, values) of an accepted argv, else (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def test_the_table_parser_reads_argv_as_argparse_did():
    reference = reference_parser()

    def argparse_parse(argv):
        values = vars(reference.parse_args(argv))
        return values.pop("command"), values

    rng = random.Random(35)
    seen = {"accepted": 0, "refused": 0, "help": 0, "converter or choice": 0}
    for _ in range(2500):
        argv = random_argv(rng)
        expected, got = outcome(argparse_parse, argv), outcome(cli._parse, argv)
        if isinstance(expected[0], str):
            assert got == expected, argv
            seen["accepted"] += 1
            continue
        code, out, err = got
        assert code == expected[0], argv
        if code == 0:
            assert err == "" and out.startswith("usage: knowall"), argv
            seen["help"] += 1
            continue
        assert code == 2 and out == "" and err.startswith("usage: knowall"), argv
        seen["refused"] += 1
        line = expected[2].splitlines()[-1]
        message = line.partition(": error: ")[2]
        if "invalid choice: '" in message or message.startswith(
                ("argument --k: ", "argument --r: ", "argument --budget: ", "argument --seed: ")
        ) and not message.endswith("expected one argument"):
            assert err.splitlines()[-1] == line, argv
            seen["converter or choice"] += 1
        else:
            assert err.splitlines()[-1].endswith(f": error: {message}"), argv
    assert min(seen.values()) >= 150, seen
