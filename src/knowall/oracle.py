"""Configuration sweeps, and brute-force baselines for the test suite.

`exhaustive_check` and `sample_check` are the production sweeps behind
the `check` command and `certify`; they score every configuration
through a ViewTable.  `brute_domination` and `brute_panchromatic` are
deliberately independent re-implementations of the production searches,
used only by tests to cross-examine them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterable

from .dyngraph import Digraph, DynamicGraphSpec
from .errors import CapExceeded
from .kuhn import Coloring, PrimitiveSimplex
from .protocol import AlgorithmSpec, InputConfig, OutcomeReport, ViewTable

EXHAUSTIVE_CONFIG_CAP = 10 ** 6
BRUTE_DOMINATION_CAP = 20
BRUTE_SIMPLEX_CAP = 10 ** 6


@dataclass(frozen=True)
class ExhaustiveReport:
    total_configs: int
    failures: tuple[tuple[InputConfig, OutcomeReport], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _sweep(table: ViewTable, configs: Iterable[InputConfig]
           ) -> tuple[tuple[InputConfig, OutcomeReport], ...]:
    """Score each configuration as `run` would; keep the failing ones in order."""
    k = table.k
    failures = []
    for cfg in configs:
        outputs = table.outputs(cfg)
        decided = set(outputs)
        valid = decided.issubset(cfg)
        if not valid or len(decided) > k:
            failures.append((cfg, OutcomeReport(
                outputs=outputs, valid=valid, agreeing=len(decided) <= k,
                distinct_count=len(decided))))
    return tuple(failures)


def exhaustive_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec,
                     budget: int, cap: int = EXHAUSTIVE_CONFIG_CAP) -> ExhaustiveReport:
    """Run every input configuration and collect validity/agreement failures."""
    total = (k + 1) ** spec.n
    if total > cap:
        raise CapExceeded(
            f"exhaustive check needs {total} configurations, cap is {cap}")
    failures = _sweep(ViewTable(spec, k, alg, budget),
                      product(range(k + 1), repeat=spec.n))
    return ExhaustiveReport(total_configs=total, failures=failures)


def sample_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, budget: int,
                 samples: int = 1000, seed: int = 0) -> ExhaustiveReport:
    """Seeded random configurations; same report shape as the exhaustive run."""
    rng = random.Random(seed)
    configs = (tuple(rng.randrange(k + 1) for _ in range(spec.n))
               for _ in range(samples))
    failures = _sweep(ViewTable(spec, k, alg, budget), configs)
    return ExhaustiveReport(total_configs=samples, failures=failures)


def brute_domination(H: Digraph, cap: int = BRUTE_DOMINATION_CAP) -> int:
    """Domination number by subset enumeration in increasing size."""
    if H.n > cap:
        raise CapExceeded(f"brute domination capped at n <= {cap}, got n = {H.n}")
    covers = {u: {u} for u in range(1, H.n + 1)}
    for u, v in H.arcs:
        covers[u].add(v)
    everyone = set(range(1, H.n + 1))
    for size in range(1, H.n + 1):
        for combo in combinations(range(1, H.n + 1), size):
            seen = set()
            for u in combo:
                seen |= covers[u]
            if seen == everyone:
                return size
    raise AssertionError("the full node set always dominates")


def brute_panchromatic(n: int, k: int, coloring: Coloring,
                       cap: int = BRUTE_SIMPLEX_CAP) -> list[PrimitiveSimplex]:
    """All panchromatic cells, enumerated here from scratch.

    Bases are scanned as raw k-tuples filtered for monotonicity and
    permutations lexicographically, which reproduces the production
    enumeration order without sharing its code; the first list entry is
    therefore what the streaming search must return.
    """
    if n ** k > cap:
        raise CapExceeded(f"brute panchromatic scan capped at {cap} cells")
    fn = coloring if callable(coloring) else coloring.__getitem__
    target = set(range(k + 1))
    found = []
    for base in product(range(n + 1), repeat=k):
        if any(a < b for a, b in zip(base, base[1:])):
            continue
        for perm in permutations(range(1, k + 1)):
            pts = [base]
            for j in perm:
                cur = list(pts[-1])
                cur[j - 1] += 1
                pts.append(tuple(cur))
            good = all(
                p[0] <= n and p[-1] >= 0 and all(a >= b for a, b in zip(p, p[1:]))
                for p in pts)
            if good and {fn(p) for p in pts} == target:
                found.append(PrimitiveSimplex(base=base, perm=perm))
    return found
