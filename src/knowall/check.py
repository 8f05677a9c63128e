"""The exhaustive and sampled configuration sweeps behind `check`.

Both count the failing configurations and keep the first in sweep
order: those where some output is a value no node holds, or where more
than k distinct values are output.  Each reads outputs through the one
ViewTable it builds, so `decide` runs once per distinct read view (one
sender's digit per node for flooding), and reports configurations only;
`run`, which decides full views, gives the outcome of any of them, and
`check` re-simulates the first failure through it.  The sampled sweep
reads all n outputs of each configuration.  The exhaustive sweep goes
through the (k+1)^n configurations in `product` order, bit-parallel over
blocks of up to BLOCK_BITS configurations (n <= 7 at k=2 make one
block), so that validity and k-agreement take a few int operations per
block (_depth_first).
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import and_, or_

from .dyngraph import EXHAUSTIVE_CONFIG_CAP, DynamicGraphSpec, Instance, checked_round
from .errors import CapExceeded
from .protocol import AlgorithmSpec, InputConfig, ViewTable

# configurations settled at once by the exhaustive sweep: one bit each in
# an int per output value, so this bounds the width of those ints
BLOCK_BITS = 4096


@dataclass(frozen=True)
class ExhaustiveReport:
    total_configs: int
    failure_count: int
    first_failure: InputConfig | None

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def _sweep(table: ViewTable, configs: Iterable[InputConfig]) -> tuple[int, InputConfig | None]:
    """How many configurations have outputs not valid and k-agreeing, and the first."""
    k = table.k
    count, first = 0, None
    for cfg in configs:
        decided = set(table.outputs(cfg))
        if len(decided) > k or not decided.issubset(cfg):
            count += 1
            if first is None:
                first = cfg
    return count, first


def _digit_masks(base: int, width: int) -> list[list[int]]:
    """masks[t][v] has bit i set when digit t of block configuration i is v.

    A block numbers its configurations in `product` order over `width`
    digits of `base` values, so digit t takes each value for runs of
    base^(width-1-t) configurations in turn.
    """
    size = base ** width
    masks = []
    for t in range(width):
        run = base ** (width - 1 - t)
        # one bit at the start of every period of base runs
        starts = ((1 << size) - 1) // ((1 << run * base) - 1)
        masks.append([((1 << run) - 1 << value * run) * starts for value in range(base)])
    return masks


def _depth_first(table: ViewTable, n: int) -> tuple[int, InputConfig | None]:
    """All (k+1)^n configurations in `product` order: how many fail, and the first.

    The last `width` digits form a block of base^width configurations,
    base = k+1, with width the most digits whose block fits in BLOCK_BITS
    (one at least), and each setting of the `top` digits above it, taken
    in `product` order, is one block.  A block is settled a bit per
    configuration: outs[v] holds the configurations in which some node
    outputs v.  A node has one read view per value of the block digits it
    reads (table.reads), met on the AND of those digits' masks (all of
    the block when it reads none), and ORs it into outs[output].  A
    configuration fails where a node outputs a v that no node holds, or
    where all k+1 values are output, as more than k distinct outputs
    must be.  A node that reads every digit above the block meets a new
    read view on every read, so it is decided directly; the others are
    read through their memos.

    A view whose decision raises, whatever the error, is first met in the
    current block, since every view of the blocks before it was decided,
    so the block is replayed in `product` and node order until a
    configuration raises the error `run` raises first.
    """
    k = table.k
    base = k + 1
    width = 1
    while width < n and base ** (width + 1) <= BLOCK_BITS:
        width += 1
    top = n - width
    ones = (1 << base ** width) - 1
    masks = _digit_masks(base, width)
    # the block configurations in which no block digit holds v
    unheld = [ones & ~reduce(or_, (digit[value] for digit in masks)) for value in range(base)]
    # (node, read, the block digits its output reads) per node
    nodes = [(node, table.decide if sum(j <= top for j in reads) == top else table.output,
              [j - 1 for j in reads if j > top])
             for node, reads in enumerate(table.reads, start=1)]
    block = [range(base)] * width
    count, first = 0, None
    try:
        for prefix in product(range(base), repeat=top):
            digits = [(value,) for value in prefix] + [(0,)] * width
            outs = [0] * base
            for node, read, low in nodes:
                views = digits.copy()
                cylinders = [ones]
                for j in low:
                    views[j] = range(base)
                    cylinders = [c & m for c in cylinders for m in masks[j - top]]
                for view, cylinder in zip(product(*views), cylinders):
                    outs[read(node, view)] |= cylinder
            failing = reduce(and_, outs)
            for value in range(base):
                if value not in prefix:
                    failing |= outs[value] & unheld[value]
            count += failing.bit_count()
            if failing and first is None:
                # the first failure is the block configuration at the lowest set bit
                i = (failing & -failing).bit_length() - 1
                first = prefix + next(islice(product(*block), i, None))
    except Exception:
        for config in product(*digits[:top], *block):
            table.outputs(config)
        raise
    return count, first


def exhaustive_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec,
                     budget: int) -> ExhaustiveReport:
    """Run every input configuration; count those failing validity or agreement."""
    instance = Instance(spec, k)
    checked_round(budget)
    total = (k + 1) ** spec.n
    if total > EXHAUSTIVE_CONFIG_CAP:
        raise CapExceeded(f"exhaustive check needs {total} configurations, "
                          f"cap is {EXHAUSTIVE_CONFIG_CAP}")
    return ExhaustiveReport(total, *_depth_first(ViewTable(instance, alg, budget), spec.n))


def sample_check(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, budget: int,
                 samples: int = 1000, seed: int = 0) -> ExhaustiveReport:
    """Seeded random configurations; same report shape as the exhaustive run."""
    import random  # only the sampled mode draws, so only it loads the module

    instance = Instance(spec, k)
    if type(samples) is not int:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"samples is {samples!r}, not an integer")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rng = random.Random(seed)
    configs = (tuple(rng.randrange(k + 1) for _ in range(spec.n))
               for _ in range(samples))
    return ExhaustiveReport(samples, *_sweep(ViewTable(instance, alg, budget), configs))
