"""Round-based execution over a known graph sequence.

The sequence itself is common knowledge; the only unknowns are the other
nodes' inputs.  After flooding for `budget` rounds a node's entire
usable knowledge is therefore the restriction of the input vector to its
in-neighborhood in the closure H_budget.  That restriction is the View,
and a candidate algorithm is any pure function of (sequence, k, view).

A query is a dyngraph.Instance: the sequence and k, checked once.  An
algorithm is reached through one entry point,
AlgorithmSpec.bind(instance, budget), which returns a function of the
View alone; per-instance data such as flooding's dominating set, the
instance's own at its tight bound, is read there, once.  `run` binds once
per call, and a ViewTable once when it is built; nothing else calls an
algorithm.  Purity is a contract, not a convention: the bound function
must return the same value whenever it is given the same view.  `run`
calls it on every node's full view of the one configuration it executes,
but configuration sweeps and the triangulation coloring go through a
ViewTable, which calls it once per distinct read view it meets and
replays the remembered output afterwards.  A node's read view is the
inputs of the senders its output depends on, which the binding declares
alongside the bound function: by default every sender the node hears,
and for flooding one, its first heard dominator or else itself.  `run`
never reads that declaration, so it stays an independent check of it.
`run` and ViewTable are the package's only builders of views; the tests'
independent one, over plain reach sets, is oracle.view_of.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .dyngraph import DynamicGraphSpec, Instance, checked_k, closure_at
from .errors import AlgorithmRangeError, LemmaFalsified

InputConfig = tuple[int, ...]

# decided views a ViewTable keeps per node; a node that hears many inputs
# has up to (k+1)^|heard| views, so the memo is emptied when it fills
VIEW_MEMO_CAP = 4096


def validate_inputs(values, n: int, k: int) -> InputConfig:
    """The n inputs as a tuple, each exactly an int in 0..k: never truncated or parsed."""
    checked_k(k)
    vals = tuple(values)
    if len(vals) != n:
        raise ValueError(f"expected {n} inputs, got {len(vals)}")
    for i, v in enumerate(vals, start=1):
        if type(v) is not int:  # bool is a subclass of int, so test the exact type
            raise ValueError(f"input of node {i} is {v!r}, not an integer")
        if not 0 <= v <= k:
            raise ValueError(f"input of node {i} is {v}, outside 0..{k}")
    return vals


def parse_inputs(text: str, n: int, k: int) -> InputConfig:
    """Digit-string form, node 1 first; ASCII digits only, none above k."""
    if len(text) != n or not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected {n} digits, got {text!r}")
    return validate_inputs((int(ch) for ch in text), n, k)


def format_inputs(values: InputConfig) -> str:
    """Digit-string form, node 1 first, format_config's up to k = 9: one digit per node,
    so ValueError unless every value is exactly an int in 0..9, as parse_inputs reads."""
    for v in values:
        if type(v) is not int or v < 0:  # bool is a subclass of int: refuse it too
            raise ValueError(f"{values} has {v!r}, which is not a digit")
        if v > 9:
            raise ValueError(f"{values} has a value above 9, which one digit per node cannot show")
    return "".join(str(v) for v in values)


def format_config(values: InputConfig, k: int) -> str | list[int]:
    """How a configuration of inputs 0..k prints, node 1 first: format_inputs's digit
    string for k <= 9, else a list of the n ints.  The form follows k, not the values."""
    return format_inputs(values) if k <= 9 else list(values)


View = namedtuple("View", ("observer", "budget", "heard"))
View.__doc__ = """Everything a node knows after `budget` rounds: the inputs it heard.

`heard` maps sender to input over the observer's in-neighborhood in
H_budget and always contains the observer itself.  Treat it as
read-only.  A View is an immutable named tuple (observer, budget,
heard), so it compares equal to a plain 3-tuple of the same items, and
dataclasses.fields and asdict do not apply to it.
"""


@dataclass(frozen=True)
class AlgorithmSpec:
    """Named candidate algorithm: a pure decision function of the view.

    `decide(spec, k, view)` is the algorithm itself; the package calls it
    only through bind, whose default closes over the instance's spec and k.
    """

    name: str
    decide: Callable[[DynamicGraphSpec, int, View], int]

    def bind(self, instance: Instance, budget: int) -> Callable[[View], int]:
        """The algorithm on this instance, as a function of the View alone."""
        return partial(self.decide, instance.spec, instance.k)

    def _bind_reads(self, instance: Instance, budget: int) -> tuple[Callable[[View], int],
                                                                    Sequence[tuple[int, ...]]]:
        """bind's function and, per node, the heard senders whose inputs it reads:
        by default every sender of the node in H_budget."""
        return self.bind(instance, budget), closure_at(instance.spec, budget).senders


@dataclass(frozen=True)
class OutcomeReport:
    outputs: tuple[int, ...]
    valid: bool
    agreeing: bool
    distinct_count: int


def _checked_output(alg: AlgorithmSpec, k: int, node: int, out) -> int:
    """`out` if it is exactly an int in 0..k, as inputs are; AlgorithmRangeError if not."""
    if type(out) is not int or not 0 <= out <= k:  # bool is an int subclass: refuse it too
        raise AlgorithmRangeError(f"{alg.name} returned {out!r} at node {node}, outside 0..{k}")
    return out


def run(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, inputs,
        budget: int) -> OutcomeReport:
    """Execute one configuration and score validity and k-agreement.

    Valid means every output equals some node's input; agreeing means at
    most k distinct outputs.  Raises AlgorithmRangeError if the
    algorithm returns anything but an int in 0..k at any node.
    """
    vals = validate_inputs(inputs, spec.n, k)  # tests k as building an Instance does
    heard_by = closure_at(spec, budget).senders
    decide = alg.bind(Instance(spec, k), budget)
    outputs = []
    for node, senders in enumerate(heard_by, start=1):
        view = View(node, budget, {j: vals[j - 1] for j in senders})
        outputs.append(_checked_output(alg, k, node, decide(view)))
    distinct = len(set(outputs))
    held = set(vals)
    return OutcomeReport(
        outputs=tuple(outputs),
        valid=all(out in held for out in outputs),
        agreeing=distinct <= k,
        distinct_count=distinct,
    )


class ViewTable:
    """Outputs of one algorithm at one budget, decided once per distinct read view.

    A node's output is fixed by the inputs of the senders it reads,
    `reads[v-1]`: the binding declares them, every sender of v in H_budget
    by default and one for flooding, and the table refuses with ValueError
    a read of a sender the node does not hear.  So each node keeps a memo
    from those read digits to its output.  The algorithm is bound once,
    when the table is built, so an error of the binding (flooding's
    NeverDominated or CapExceeded) is raised there.  `output` is the one
    memoized read: it calls the bound function only on a memo miss,
    through `decide`, which builds the same full View from every heard
    sender and makes the same range check as `run` and remembers nothing,
    so a caller that reads each read view of a node once may call it
    directly.  Configurations passed in must already be valid (see
    validate_inputs).  Each memo holds at most VIEW_MEMO_CAP views, and
    `senders` is H_budget's own, shared by every table at that budget.
    """

    def __init__(self, instance: Instance, alg: AlgorithmSpec, budget: int) -> None:
        self.k, self.alg, self.budget = instance.k, alg, budget
        self.senders = closure_at(instance.spec, budget).senders
        self._decide, self.reads = alg._bind_reads(instance, budget)
        for node, (reads, senders) in enumerate(zip(self.reads, self.senders, strict=True), 1):
            # the default declaration is the senders themselves, which need no test
            if reads is not senders and not set(reads) <= set(senders):
                raise ValueError(f"node {node} reads {reads}, beyond its senders {senders}")
        # (read-digit key of a configuration, memo) per node
        self._memos = [(itemgetter(*(j - 1 for j in reads)), {}) for reads in self.reads]

    def decide(self, node: int, cfg: Sequence[int]) -> int:
        """Decide `node`'s view of `cfg` afresh: nothing is looked up or remembered."""
        view = tuple.__new__(View, (node, self.budget,
                                    {j: cfg[j - 1] for j in self.senders[node - 1]}))
        out = self._decide(view)
        if type(out) is not int or not 0 <= out <= self.k:
            _checked_output(self.alg, self.k, node, out)  # raises AlgorithmRangeError
        return out

    def output(self, node: int, cfg: Sequence[int]) -> int:
        """Output of `node` on configuration `cfg`, decided once per distinct view."""
        if not 1 <= node <= len(self._memos):
            raise ValueError(f"node {node} outside 1..{len(self._memos)}")
        key_of, memo = self._memos[node - 1]
        key = key_of(cfg)
        out = memo.get(key)
        if out is None:
            out = self.decide(node, cfg)
            if len(memo) >= VIEW_MEMO_CAP:
                memo.clear()
            memo[key] = out
        return out

    def outputs(self, cfg: InputConfig) -> tuple[int, ...]:
        """Outputs of nodes 1..n on `cfg`, read in node order."""
        return tuple([self.output(node, cfg) for node in range(1, len(self._memos) + 1)])


# ---------------------------------------------------------------------------
# built-in algorithms
# ---------------------------------------------------------------------------


def _first_heard(members: tuple[int, ...], view: View) -> int:
    heard = view.heard
    for j in members:
        if j in heard:
            return heard[j]
    return heard[view.observer]


class _Flooding(AlgorithmSpec):
    """flood_dominator's spec, whose binding looks up the dominators once
    and declares one read per node."""

    def bind(self, instance: Instance, budget: int) -> Callable[[View], int]:
        return partial(_first_heard, instance.dominating_set())

    def _bind_reads(self, instance: Instance, budget: int) -> tuple[Callable[[View], int],
                                                                    Sequence[tuple[int, ...]]]:
        members = instance.dominating_set()
        # a node reads its first heard member, or its own input if it hears none
        reads = []
        for node, heard in enumerate(closure_at(instance.spec, budget).into, start=1):
            for j in members:
                if heard >> j - 1 & 1:
                    reads.append((j,))
                    break
            else:
                reads.append((node,))
        return partial(_first_heard, members), reads


def _decide_flooding(spec: DynamicGraphSpec, k: int, view: View) -> int:
    return _first_heard(Instance(spec, k).dominating_set(), view)


def flood_dominator() -> AlgorithmSpec:
    """Optimal flooding: output the input of the smallest heard dominator.

    The dominating set is the exact minimum one of H_r at the tight bound
    r of the instance at hand.  Run below r some nodes hear no dominator;
    they fall back to their own input, which keeps the algorithm
    validity-respecting at every budget.  Binding reads the set once, so
    a spec with no bound raises NeverDominated there; `decide` reads it
    on every call.
    """
    return _Flooding("flood_dominator", _decide_flooding)


def _decide_min_heard(spec: DynamicGraphSpec, k: int, view: View) -> int:
    return min(view.heard.values())


def _decide_max_heard(spec: DynamicGraphSpec, k: int, view: View) -> int:
    return max(view.heard.values())


def _decide_majority_heard(spec: DynamicGraphSpec, k: int, view: View) -> int:
    values = list(view.heard.values())
    return max(sorted(set(values)), key=values.count)  # ties go to the smallest value


MIN_HEARD = AlgorithmSpec("min_heard", _decide_min_heard)
MAX_HEARD = AlgorithmSpec("max_heard", _decide_max_heard)
MAJORITY_HEARD = AlgorithmSpec("majority_heard", _decide_majority_heard)


def builtin_algorithms() -> list[AlgorithmSpec]:
    """All shipped algorithms; every one outputs a heard value or its own input."""
    return [flood_dominator(), MIN_HEARD, MAX_HEARD, MAJORITY_HEARD]


def algorithm_by_name(name: str) -> AlgorithmSpec:
    for alg in builtin_algorithms():
        if alg.name == name:
            return alg
    known = ", ".join(a.name for a in builtin_algorithms())
    raise ValueError(f"unknown algorithm {name!r}; known: {known}")


def flood_solve(spec: DynamicGraphSpec, k: int, inputs) -> OutcomeReport:
    """Solve k-set agreement in exactly the optimal number of rounds."""
    vals = validate_inputs(inputs, spec.n, k)  # before the bound search, which may raise
    r = Instance(spec, k).bound()
    report = run(spec, k, flood_dominator(), vals, budget=r)
    if not (report.valid and report.agreeing):
        raise LemmaFalsified(
            f"flooding at the tight bound {r} failed on inputs "
            f"{format_config(vals, k)}: outputs {report.outputs}")
    return report
