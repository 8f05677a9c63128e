"""The exhaustive and sampled configuration sweeps behind `check`.

Both find the failing configurations, in sweep order: those where some
output is a value no node holds, or where more than k distinct values are
output.  They read outputs through one ViewTable, so `decide` runs once
per distinct view, and report configurations only; `run` gives the
outcome of any of them, and `check` re-simulates the first failure
through it.  The sampled sweep reads all n outputs of each configuration.
The exhaustive sweep goes through the (k+1)^n configurations in
`product` order, bit-parallel over the last input digits: the
configurations those digits span form a block, kept as one int per
output value with a bit per configuration, and it walks the digits above
the block depth first.  A node's output is fixed once the digit of the
highest node it hears is set, so a node due above the block is read once
per walk prefix, and a node due inside it once per prefix and view, which
ORs the block configurations with that view into the int of its output.
Validity and k-agreement then take a few int operations per block.  Up
to BLOCK_BITS configurations (n <= 7 at k=2) make one block and no walk.
A node due at walk digit p that hears all of digits 0..p, and a node due
inside the block that hears every walk digit, meet a new view on every
read, so they skip the memo: `decide` is called with no key, lookup or
store.  With no walk, that is every node.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import compress, product
from operator import and_, or_

from .dyngraph import EXHAUSTIVE_CONFIG_CAP, DynamicGraphSpec
from .errors import CapExceeded
from .protocol import AlgorithmSpec, InputConfig, ViewTable

Failures = tuple[InputConfig, ...]

# configurations settled at once by the exhaustive sweep: one bit each in
# an int per output value, so this bounds the width of those ints
BLOCK_BITS = 4096
# bytes.translate table from the digits of bin() to false and true bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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


def _depth_first(table: ViewTable, n: int) -> Failures:
    """All (k+1)^n configurations in `product` order; the failing ones in order.

    The last `width` digits form a block of base^width configurations,
    base = k+1, with width the most digits whose block fits in BLOCK_BITS
    (one at least).  The digits above the block are walked depth first
    with an explicit stack: digit p is node p+1's input, and out_mask[p]
    and held[p] are the bitmasks of the outputs read and the inputs set at
    digits 0..p-1; going down from p reads the nodes due at p.  Each prefix
    the walk reaches is one block, settled a bit per configuration:
    outs[v] holds the configurations in which some node outputs v.  A
    node due inside the block has one view per value of its heard block
    digits, met on the AND of those digits' masks, and ORs it into
    outs[output].  A configuration fails where a node outputs a v that no
    node holds, or where all k+1 values are output, as more than k
    distinct outputs must be.

    A view whose decision raises, whatever the error, is first met in the
    current block (the digits below a walk depth are 0 on the way down),
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
    decide = table.decide
    # walk[p]: the nodes due at walk digit p, as (node, key, memo); block:
    # the nodes due inside the block, each with the block digits it hears.
    # A node that hears every walk digit up to the one it is due at meets a
    # new view on every read, so its memo is None and it is decided directly.
    walk = [[] for _ in range(top)]
    block = []
    for (node, key_of, memo), senders in zip(table.entries, table.senders):
        p = senders[-1] - 1  # the digit of the highest node it hears
        if sum(j <= top for j in senders) == min(p + 1, top):
            memo = None
        if p < top:
            walk[p].append((node, key_of, memo))
        else:
            block.append((node, key_of, memo, [j - 1 for j in senders if j > top]))
    cfg = [0] * n  # digits 0..top-1 of the walk; the block's stay 0
    out_mask = [0] * (top + 1)
    held = [0] * (top + 1)
    failures = []
    p = 0
    try:
        while True:
            while p < top:
                mask = out_mask[p]
                for node, key_of, memo in walk[p]:
                    if memo is None:
                        out = decide(node, cfg)
                    else:
                        key = key_of(cfg)
                        out = memo.get(key)
                        if out is None:
                            out = decide(node, cfg, memo, key)
                    mask |= 1 << out
                out_mask[p + 1] = mask
                held[p + 1] = held[p] | 1 << cfg[p]
                p += 1
            mask = out_mask[top]
            outs = [ones if mask >> value & 1 else 0 for value in range(base)]
            digits = [(value,) for value in cfg]
            for node, key_of, memo, low in block:
                views = digits.copy()
                cylinders = [ones]
                for j in low:
                    views[j] = range(base)
                    cylinders = [c & m for c in cylinders for m in masks[j - top]]
                if memo is None:
                    for view, cylinder in zip(product(*views), cylinders):
                        outs[decide(node, view)] |= cylinder
                    continue
                get = memo.get
                for view, cylinder in zip(product(*views), cylinders):
                    key = key_of(view)
                    out = get(key)
                    if out is None:
                        out = decide(node, view, memo, key)
                    outs[out] |= cylinder
            failing = reduce(and_, outs)
            for value in range(base):
                if not held[top] >> value & 1:
                    failing |= outs[value] & unheld[value]
            if failing:
                # bit i of failing selects the block's i-th configuration
                selectors = bin(failing)[:1:-1].encode().translate(_BIT_BYTES)
                failures.extend(compress(
                    product(*digits[:top], *[range(base)] * width), selectors))
            p = top - 1
            while p >= 0 and cfg[p] == k:
                cfg[p] = 0
                p -= 1
            if p < 0:
                return tuple(failures)
            cfg[p] += 1
    except Exception:
        for config in product(*([value] for value in cfg[:top]), *[range(base)] * width):
            table.outputs(config)
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
