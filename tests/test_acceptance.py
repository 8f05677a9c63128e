"""End-to-end acceptance checks, one test per the seven shipping criteria.

Each test prints a single PASS line with the measured facts; run with
`pytest tests/test_acceptance.py -v -rP` to see the lines for passing
tests as well.
"""
from __future__ import annotations

import json
import math
import random
import time

from knowall import (
    MIN_HEARD,
    WitnessKind,
    algorithm_coloring,
    builtin_algorithms,
    closure,
    exhaustive_check,
    flood_dominator,
    format_inputs,
    inp,
    min_dominating_set,
    min_rounds,
    refute,
    save_graph_file,
)
from knowall.cli import main
from knowall.oracle import (
    brute_domination,
    brute_panchromatic,
    carrier,
    check_sperner,
    find_panchromatic,
    primitive_simplices,
    vertices,
    view_of,
)

from conftest import random_spec, standard_family


def test_criterion_1_cycle_bound_via_cli(capsys, c5, tmp_path):
    path = str(tmp_path / "c5.json")
    save_graph_file(c5, path)
    start = time.perf_counter()
    assert main(["bound", "--graph", path, "--k", "2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert main(["bound", "--graph", path, "--k", "1"]) == 0
    one = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    assert two["r"] == 2 and two["gamma_by_round"] == [3, 2]
    assert one["r"] == 4
    assert elapsed < 1.0
    print(f"PASS criterion 1: 5-cycle bound r=2 at k=2 (gammas [3,2]) "
          f"and r=4 at k=1, via the CLI in {elapsed:.3f}s")


def test_criterion_2_flooding_solves_at_the_bound():
    start = time.perf_counter()
    configs = 0
    for name, spec, k in standard_family():
        r = min_rounds(spec, k)
        report = exhaustive_check(spec, k, flood_dominator(), r)
        assert (report.failure_count, report.first_failure) == (0, None), \
            f"{name} k={k} failed at budget {r}"
        configs += report.total_configs
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: flooding at the bound has 0 failures in all "
          f"{configs} input configurations across the 11-member family, "
          f"{elapsed:.2f}s")


def test_criterion_3_refutation_below_the_bound():
    start = time.perf_counter()
    count = 0
    for name, spec, k in standard_family():
        r = min_rounds(spec, k)
        for alg in builtin_algorithms():
            witness = refute(spec, k, alg, r - 1)
            assert witness.kind is WitnessKind.AGREEMENT_VIOLATION, (name, alg.name)
            assert witness.verified and witness.budget == r - 1
            assert len(set(witness.outputs)) == k + 1
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: all {count} (family member, algorithm) pairs "
          f"refuted one round below the bound with verified agreement "
          f"violations, {elapsed:.2f}s")


def test_criterion_4_anchored_micro_facts(c5):
    assert format_inputs(inp((3, 3, 1), 5)) == "32200"
    assert sum(1 for _ in primitive_simplices(5, 2)) == 25
    cube = [s for s in primitive_simplices(3, 3) if s.base == (2, 1, 0)]
    assert len(cube) == 6
    node = algorithm_coloring(c5, 2, 1, MIN_HEARD).node
    assert node((3, 1)) == 5
    assert node((4, 2)) == 1
    print("PASS criterion 4: inp((3,3,1))=32200, 25 cells for n=5 k=2, "
          "6 cells per unit cube at k=3, forced assignments (3,1)->5 and "
          "(4,2)->1 on the 5-cycle at budget 1")


def test_criterion_5_simplex_lemma_suite():
    # (a) consecutive corners differ at exactly one node
    # (b) difference-set chain, in the form the construction provides:
    #     V_i is exactly the set of nodes changed by the first i steps,
    #     grows by at most one per step, and |V_i| = i precisely on cells
    #     whose changed nodes are pairwise distinct (cells stepping tied
    #     coordinates revisit a node, e.g. (1,1)->(2,1)->(2,2) collapses
    #     to V_1 = V_2 = {2})
    cells = 0
    collapsed = 0
    for n in range(1, 6):
        for k in range(1, 4):
            for s in primitive_simplices(n, k):
                corners = s.vertices()
                base_cfg = inp(corners[0], n)
                changed = [corners[i][j - 1] + 1 for i, j in enumerate(s.perm)]
                prev: set[int] = set()
                for i in range(1, k + 1):
                    cfg = inp(corners[i], n)
                    diff = {x + 1 for x in range(n) if cfg[x] != base_cfg[x]}
                    step = {x + 1 for x in range(n)
                            if cfg[x] != inp(corners[i - 1], n)[x]}
                    assert len(step) == 1  # (a)
                    assert diff == set(changed[:i])  # (b)
                    assert prev <= diff and len(diff - prev) <= 1
                    prev = diff
                if len(set(changed)) == k:
                    assert len(prev) == k
                else:
                    collapsed += 1
                cells += 1
    assert collapsed > 0  # the tied-cell collapse is real, not hypothetical

    # (c) one round below the bound, the node assigned to corner y_i has
    #     identical views in inp(y_i) and inp(y_0)
    # (d) the coloring induced by any built-in algorithm is Sperner
    pairs = 0
    for name, spec, k in standard_family():
        budget = min_rounds(spec, k) - 1
        algs = builtin_algorithms()
        colorings = [algorithm_coloring(spec, k, budget, alg) for alg in algs]
        for s in primitive_simplices(spec.n, k):
            corners = s.vertices()
            base_cfg = inp(corners[0], spec.n)
            for i in range(1, k + 1):
                node = colorings[0].node(corners[i])
                cfg = inp(corners[i], spec.n)
                assert view_of(spec, cfg, node, budget) == \
                    view_of(spec, base_cfg, node, budget)
        for alg, coloring in zip(algs, colorings):
            assert check_sperner(spec.n, k, coloring).is_sperner, (name, alg.name)
            pairs += 1
    print(f"PASS criterion 5: adjacency and chain laws on {cells} cells "
          f"(n<=5, k<=3; {collapsed} tied cells collapse as constructed), "
          f"view equality below the bound and Sperner colorings for all "
          f"{pairs} (family member, algorithm) pairs")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(2026)
    for _ in range(200):
        spec = random_spec(rng, max_n=10)
        r = rng.randint(0, 3)
        assert len(min_dominating_set(spec, r)) == brute_domination(spec.n, closure(spec, r))

    rng = random.Random(53)
    for _ in range(50):
        n, k = rng.randint(1, 6), rng.randint(1, 2)
        coloring = {v: rng.choice(sorted(carrier(v, n))) for v in vertices(n, k)}.__getitem__
        assert find_panchromatic(n, k, coloring) == brute_panchromatic(n, k, coloring)[0]
    print("PASS criterion 6: exact dominating sets match the brute-force "
          "oracle on 200 random closures (n<=10); the reference panchromatic "
          "scan returns the enumeration minimum on 50 random Sperner "
          "colorings (n<=6, k<=2)")


def test_criterion_7_counting_identities():
    for n in range(1, 7):
        for k in range(1, 4):
            assert len(list(vertices(n, k))) == math.comb(n + k, k)
            assert sum(1 for _ in primitive_simplices(n, k)) == n ** k
    print("PASS criterion 7: |vertices| = C(n+k,k) and |cells| = n^k for "
          "all n<=6, k<=3")
