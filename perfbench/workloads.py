"""Seeded query sets for the three workloads.

A workload is a fixed list of CLI queries. Everything that shapes the
cost of a query (node count, period, k, arc density, algorithm) follows a
fixed schedule that is the same for every seed; the seed only draws the
graph structure. That keeps the mix, and so the totals, comparable
between seeds. Every spec is distinct, because the package caches derived
data by spec equality and a repeated spec would measure cache lookups.

The program sees only the graph files and the argv lists written here.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from reference import tight_bound

WORKLOADS = ("bound", "check", "refute")
ALGORITHMS = ("flood_dominator", "min_heard", "max_heard", "majority_heard")

# (period, k, density) combinations cycled through by the bound workload;
# density 0 leaves only the Hamiltonian cycle, whose long horizons reach
# past the CLI's 64-round default cap on some specs
BOUND_DENSITIES = (0.0, 0.01, 0.03, 0.08)
BOUND_QUERIES = 320
CHECK_QUERIES = 120
CHECK_K = 2
CHECK_DENSITIES = (0.05, 0.12, 0.25)
REFUTE_DENSITIES = (0.0, 0.02, 0.05)
# (n, k) cells of the refute workload. The k=4 cells, all on
# majority_heard, are the costliest quarter of the queries, so the 90th
# percentile falls inside one homogeneous group; there are 30 of them
# because where the scan meets its panchromatic cell varies from spec to
# spec. k=4 stays at n=14 so that a run holds over a hundred queries, the
# least that gives a 90th percentile.
REFUTE_SIZES = (
    [(n, 2) for n in range(14, 25)] * 5
    + [(n, 3) for n in range(14, 21, 2)] * 9
    + [(14, 4)] * 30)


@dataclass(frozen=True)
class Query:
    """One CLI invocation plus what the verifier needs to judge its answer."""

    argv: tuple[str, ...]
    graph: str
    k: int
    alg: str | None = None
    budget: int | None = None
    bound: int | None = None


def cycle_doc(rng: random.Random, n: int, period: int, density: float) -> dict:
    """Cycling sequence whose union of rounds contains a Hamiltonian cycle."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rounds = [set() for _ in range(period)]
    for i in range(n):
        rounds[rng.randrange(period)].add((order[i], order[(i + 1) % n]))
    for rnd in rounds:
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and rng.random() < density:
                    rnd.add((u, v))
    return {"n": n, "rounds": [[list(a) for a in sorted(rnd)] for rnd in rounds],
            "extension": "cycle"}


def distinct_doc(rng: random.Random, seen: set, n: int, period: int, density: float) -> dict:
    """A cycle_doc unlike every earlier one of the workload; small sparse
    specs repeat by chance, and a repeat would hit the package's caches."""
    while True:
        doc = cycle_doc(rng, n, period, density)
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            return doc


def _bound_queries(rng: random.Random) -> list[tuple[dict, Query]]:
    out, seen = [], set()
    for i in range(BOUND_QUERIES):
        combo = i % 64
        period, k = 1 + combo % 4, 1 + combo // 4 % 4
        density = BOUND_DENSITIES[combo // 16]
        n = 20 + i * 5 % 13
        doc = distinct_doc(rng, seen, n, period, density)
        name = f"q{i:03d}.json"
        out.append((doc, Query(("bound", "--graph", name, "--k", str(k)), name, k)))
    return out


def _check_queries(rng: random.Random) -> list[tuple[dict, Query]]:
    # even queries run flooding at its bound, which passes every
    # configuration; odd ones run min/majority one round short, which fail.
    # A third of the specs have 7 nodes, so that neither the median nor
    # the 90th percentile falls between the two sizes.
    out, seen = [], set()
    for i in range(CHECK_QUERIES):
        n = 7 if i % 3 == 2 else 6
        doc = distinct_doc(rng, seen, n, 1 + i // 8 % 3, CHECK_DENSITIES[i // 24 % 3])
        r = tight_bound(doc, CHECK_K)
        if i % 2 == 0:
            alg, budget = "flood_dominator", r
        else:
            alg, budget = ("min_heard", "majority_heard")[i // 4 % 2], r - 1
        name = f"q{i:03d}.json"
        argv = ("check", "--graph", name, "--k", str(CHECK_K), "--alg", alg,
                "--budget", str(budget), "--exhaustive")
        out.append((doc, Query(argv, name, CHECK_K, alg, budget, r)))
    return out


def _refute_queries(rng: random.Random) -> list[tuple[dict, Query]]:
    out, seen = [], set()
    for i, (n, k) in enumerate(REFUTE_SIZES):
        alg = "majority_heard" if k == 4 else ALGORITHMS[i % 4]
        doc = distinct_doc(rng, seen, n, 1 + i // 4 % 3, REFUTE_DENSITIES[i // 12 % 3])
        r = tight_bound(doc, k)
        name = f"q{i:03d}.json"
        argv = ("refute", "--graph", name, "--k", str(k), "--alg", alg,
                "--budget", str(r - 1))
        out.append((doc, Query(argv, name, k, alg, r - 1, r)))
    return out


_BUILDERS = {"bound": _bound_queries, "check": _check_queries, "refute": _refute_queries}


def build(workload: str, seed: int) -> list[tuple[dict, Query]]:
    """Graph documents and queries of one workload; pure function of the seed."""
    rng = random.Random(f"knowall-{workload}-{seed}")
    return _BUILDERS[workload](rng)


def write(workload: str, seed: int, directory: Path) -> tuple[list[dict], list[Query]]:
    """Write the graph files into `directory`; argv name them relative to it."""
    docs, queries = [], []
    for doc, query in build(workload, seed):
        (directory / query.graph).write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
        docs.append(doc)
        queries.append(query)
    return docs, queries


def vertex_count(n: int, k: int) -> int:
    """Lattice vertices of the refute triangulation, C(n+k, k)."""
    return math.comb(n + k, k)
