"""The exhaustive and sampled configuration sweeps behind `check`.

Both score configurations as `run` would, through one ViewTable, so
`decide` runs once per distinct view.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .dyngraph import DynamicGraphSpec
from .errors import CapExceeded
from .protocol import AlgorithmSpec, InputConfig, OutcomeReport, ViewTable

EXHAUSTIVE_CONFIG_CAP = 10 ** 6


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
