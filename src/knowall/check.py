"""The exhaustive and sampled configuration sweeps behind `check`.

Both find the failing configurations, in sweep order: those where some
output is a value no node holds, or where more than k distinct values are
output.  They read outputs through one ViewTable, so `decide` runs once
per distinct view, and report configurations only; `run` gives the
outcome of any of them, and `check` re-simulates the first failure
through it.  The sampled sweep reads all n outputs of each configuration.
The exhaustive sweep walks the (k+1)^n configurations depth first over
the input digits, in `product` order: a node's output is fixed once the
digit of the highest node it hears is set, so setting a digit re-reads
only the nodes due there.  Each depth carries the bitmasks of the outputs
read and the inputs set above it, which decide validity and k-agreement
at a leaf without building any set.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .dyngraph import EXHAUSTIVE_CONFIG_CAP, DynamicGraphSpec
from .errors import CapExceeded
from .protocol import AlgorithmSpec, InputConfig, ViewTable

Failures = tuple[InputConfig, ...]


@dataclass(frozen=True)
class ExhaustiveReport:
    total_configs: int
    failures: Failures

    @property
    def passed(self) -> bool:
        return not self.failures


def _sweep(table: ViewTable, configs: Iterable[InputConfig]) -> Failures:
    """The configurations whose outputs are not valid and k-agreeing, in order."""
    k = table.k
    failures = []
    for cfg in configs:
        decided = set(table.outputs(cfg))
        if len(decided) > k or not decided.issubset(cfg):
            failures.append(cfg)
    return tuple(failures)


def _depth_first(table: ViewTable, n: int) -> Failures:
    """All (k+1)^n configurations in `product` order; the failing ones in order.

    An explicit stack: digit p is node p+1's input, and out_mask[p] and
    held[p] are the bitmasks of the outputs read and the inputs set at
    digits 0..p-1.  Going down from p reads the nodes due at p; the last
    digit is a loop of its own.  A view whose decision raises, whatever
    the error, is first met at the current prefix followed by zeros, so
    that configuration is replayed in node order, where the error raised
    is the one `run` raises first.
    """
    k = table.k
    decide = table.decide
    due = table.due_nodes()
    last = n - 1
    leaf = due[last]
    value_bits = [(value, 1 << value) for value in range(k + 1)]
    cfg = [0] * n
    out_mask = [0] * n
    held = [0] * n
    failures = []
    p = 0
    try:
        while True:
            while p < last:
                mask = out_mask[p]
                for node, key_of, memo in due[p]:
                    key = key_of(cfg)
                    out = memo.get(key)
                    if out is None:
                        out = decide(node, cfg, memo, key)
                    mask |= 1 << out
                out_mask[p + 1] = mask
                held[p + 1] = held[p] | 1 << cfg[p]
                p += 1
                cfg[p] = 0
            above, held_above = out_mask[last], held[last]
            for value, bit in value_bits:
                cfg[last] = value
                mask = above
                for node, key_of, memo in leaf:
                    key = key_of(cfg)
                    out = memo.get(key)
                    if out is None:
                        out = decide(node, cfg, memo, key)
                    mask |= 1 << out
                if mask & ~(held_above | bit) or mask.bit_count() > k:
                    failures.append(tuple(cfg))
            p = last - 1
            while p >= 0 and cfg[p] == k:
                p -= 1
            if p < 0:
                return tuple(failures)
            cfg[p] += 1
    except Exception:
        cfg[p + 1:] = [0] * (last - p)
        table.outputs(tuple(cfg))
        raise


def exhaustive_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec,
                     budget: int, cap: int = EXHAUSTIVE_CONFIG_CAP) -> ExhaustiveReport:
    """Run every input configuration and list those failing validity or agreement."""
    total = (k + 1) ** spec.n
    if total > cap:
        raise CapExceeded(
            f"exhaustive check needs {total} configurations, cap is {cap}")
    failures = _depth_first(ViewTable(spec, k, alg, budget), spec.n)
    return ExhaustiveReport(total_configs=total, failures=failures)


def sample_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, budget: int,
                 samples: int = 1000, seed: int = 0) -> ExhaustiveReport:
    """Seeded random configurations; same report shape as the exhaustive run."""
    import random  # only the sampled mode draws, so only it loads the module

    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rng = random.Random(seed)
    configs = (tuple(rng.randrange(k + 1) for _ in range(spec.n))
               for _ in range(samples))
    failures = _sweep(ViewTable(spec, k, alg, budget), configs)
    return ExhaustiveReport(total_configs=samples, failures=failures)
