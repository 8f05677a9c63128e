"""Dynamic graph sequences and their information-flow closures.

A sequence of digraphs on a fixed node set [n] says which messages can
travel when: round t uses the arcs of G_t.  The r-round closure H_r has
an arc (u, v) whenever a token starting at u can, in each of rounds
1..r, either stay put or follow an arc of that round's graph and end at
v.  H_0 is the identity relation and every closure contains all
self-arcs.

Dominating sets of closures are what the rest of the package consumes.
A set D dominates H when every node is a member or has an in-arc from a
member, so after flooding for r rounds every node has heard the input
of at least one member of any dominating set of H_r.  The smallest r
whose closure admits a dominating set of size at most k is the exact
number of rounds needed to solve k-set agreement on the sequence.

Of the package, the module imports only its errors and the cover search
below it (domination).  Every answer is derived from one Closure object
per H_r.  Its reach masks are its cover masks: entry u is the bitmask of
nodes u's token can occupy after rounds 1..r.  Its in-masks are its
dominator masks: entry v is the bitmask of nodes v has heard from, the
nodes that dominate v.  Each spec keeps its closures (grown by _grow) in
a private memo that is freed with the spec; each closure keeps its
dominating set and an interval lower <= gamma(H_r) <= upper, which every
search and decision narrows, so what one k learns serves every k.  A
sequence is ring-shaped when the union of its round graphs is one cycle
through all n nodes or has at most one arc out of and into each node and
no cycle: every reach mask is then a forward arc of that ring (_ring, kept
on the memo), and each exact search is one circle-cover pass.  Other
modules read H_r through closure_at, or through an Instance, the query
(spec, k), which keeps nothing else: building one is the package's one
test of k, and its closure_below_bound first checks with one k-slot
cover decision that no k nodes dominate H_r, the package's one
refutability test.  Its bound decides too, one such decision per round
its interval leaves open; only the bound command, which prints each
round's domination number, counts (gamma_by_round).  Building a spec
builds no n-bit mask, and every exact search tests its round
(checked_round), then EXACT_SEARCH_CAP, before it grows any.  The spec
is a plain __slots__ class, as protocol's Records are;
protocol.AlgorithmSpec is the one dataclass left, because the
benchmark's tracer rebuilds it with dataclasses.replace.
"""
from __future__ import annotations

import json
from enum import Enum

from .domination import domination_number, find_cover
from .errors import (
    BudgetNotBelowBound, CapExceeded, GraphFormatError, LemmaFalsified, NeverDominated)

Arc = tuple[int, int]

EXACT_SEARCH_CAP = 32
# configurations an exhaustive check may sweep; kept here so that the CLI
# can print it without importing the sweeps
EXHAUSTIVE_CONFIG_CAP = 10 ** 6


class Extension(str, Enum):
    """Rule producing G_t beyond the stored prefix."""

    REPEAT_LAST = "repeat_last"
    CYCLE = "cycle"


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


class Closure:
    """H_r as its reach masks, its in-masks and, built on first use, its senders.

    senders[v] lists the nodes of into[v] 1-based and increasing, so a
    search that reads masks only builds none.  `dominating` is None until
    min_dominating_set rebuilds the closure's set, which every round
    sharing the closure then reads.  lower <= gamma(H) <= upper always
    holds: (1, n) at first, (n, n) for H_0.  A failed k-slot cover
    decision raises lower to k + 1, a cover found lowers upper to its
    size, and the one exact search (_exact) closes the interval.  A
    closure never refers to its spec.
    """

    __slots__ = ("reach", "into", "_senders", "dominating", "lower", "upper")

    def __init__(self, reach: tuple[int, ...], into: tuple[int, ...], lower: int = 1) -> None:
        self.reach, self.into, self._senders, self.dominating = reach, into, None, None
        self.lower, self.upper = lower, len(reach)

    @property
    def senders(self) -> tuple[tuple[int, ...], ...]:
        if self._senders is None:
            senders = []
            for heard in self.into:
                nodes = []
                while heard:
                    low = heard & -heard
                    nodes.append(low.bit_length())
                    heard ^= low
                senders.append(tuple(nodes))
            self._senders = tuple(senders)
        return self._senders


class _Memo:
    """A spec's closures, which keep what is derived from them; it never refers to the spec."""

    __slots__ = ("graphs", "closures", "quiet", "ring")

    def __init__(self, graphs: tuple[tuple[tuple[int, list[int]], ...], ...]) -> None:
        self.graphs = graphs  # (target, sources) in-neighbour lists of each stored round graph
        self.closures: list[Closure] = []  # H_0, H_1, ... until they are fixed (see _grow)
        self.quiet = 0  # trailing stored rounds that added nothing
        self.ring: tuple[int, ...] | None = None  # _ring's places, set with H_0


class DynamicGraphSpec:
    """Known communication sequence: a finite prefix plus an extension rule.

    Round graphs hold communication arcs only, so self-loops are rejected
    here; staying put is always possible and is modelled by the closure.
    n and every arc endpoint must be exactly int, never truncated; values
    are checked in the order given, all types before any range.
    A spec is immutable: assigning or deleting an attribute raises
    AttributeError.  The derived data lives in `_memo`, which equality,
    hashing, repr, pickling and copying leave out: they see only n,
    rounds and extension.
    """

    __slots__ = ("n", "rounds", "extension", "_memo", "__weakref__")

    n: int
    rounds: tuple[frozenset[Arc], ...]
    extension: Extension

    def __init__(self, n: int, rounds, extension: Extension = Extension.REPEAT_LAST) -> None:
        self._build(n, tuple([(u, v) for u, v in rnd] for rnd in rounds), extension)

    def _build(self, n: int, rounds: tuple[list[Arc], ...], extension: Extension) -> None:
        # __init__ on rounds already copied into lists of (u, v) pairs
        for x in (n, *(x for rnd in rounds for arc in rnd for x in arc)):
            if type(x) is not int:  # bool is a subclass of int, so test the exact type
                raise ValueError(f"n and arc endpoints must be integers, got {x!r}")
        if n < 2:
            raise ValueError(f"need at least two nodes, got n={n}")
        if not rounds:
            raise ValueError("need at least one round graph")
        graphs = []
        for t, rnd in enumerate(rounds, start=1):
            senders: dict[int, list[int]] = {}
            for u, v in rnd:
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"round {t}: arc ({u}, {v}) outside 1..{n}")
                if u == v:
                    raise ValueError(f"round {t}: self-loop ({u}, {v}) not allowed")
                senders.setdefault(v - 1, []).append(u - 1)
            graphs.append(tuple(senders.items()))
        init = object.__setattr__
        init(self, "n", n)
        init(self, "rounds", tuple(frozenset(rnd) for rnd in rounds))
        init(self, "extension", Extension(extension))
        init(self, "_memo", _Memo(tuple(graphs)))

    def _key(self) -> tuple:
        return self.n, self.rounds, self.extension

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(n={self.n!r}, rounds={self.rounds!r}, "
                f"extension={self.extension!r})")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, so a copy starts with an empty memo
        return self.__class__, self._key()


# ---------------------------------------------------------------------------
# sequence access and closures
# ---------------------------------------------------------------------------


def checked_round(r: int) -> int:
    """r if it is exactly an int of at least 0, else ValueError: the package's one
    test of a round number, made before any memo keyed by it is read and any cap."""
    if type(r) is not int:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"closure needs an integer r, got {r!r}")
    if r < 0:
        raise ValueError(f"closure needs r >= 0, got {r}")
    return r


def _round_index(spec: DynamicGraphSpec, t: int) -> int:
    """Index into spec.rounds of G_t, applying the extension rule past the prefix."""
    if t < 1:
        raise ValueError(f"rounds are numbered from 1, got t={t}")
    m = len(spec.rounds)
    if t > m and spec.extension is Extension.REPEAT_LAST:
        return m - 1
    return (t - 1) % m


def graph_at(spec: DynamicGraphSpec, t: int) -> frozenset[Arc]:
    """Arc set of the round graph G_t for t >= 1, applying the extension rule past the prefix.

    t must be exactly an int, as a round count must be (see checked_round).
    """
    if type(t) is not int:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"rounds are numbered by integers, got t={t!r}")
    return spec.rounds[_round_index(spec, t)]


def _ring(n: int,
          graphs: tuple[tuple[tuple[int, list[int]], ...], ...]) -> tuple[int, ...] | None:
    """Each node's place on a ring along which every token only moves forward, or None.

    The union of the round graphs must give every node at most one
    out-neighbour and at most one in-neighbour, and be either one cycle
    through all n nodes or free of cycles.  Its paths are then laid end to
    end, in order of their first nodes.  A token moves at most one arc a
    round, so every reach mask of every closure is a forward arc of the ring.
    """
    succ, pred = [-1] * n, [-1] * n
    for graph in graphs:
        for v, senders in graph:
            for u in senders:
                if succ[u] not in (-1, v) or pred[v] not in (-1, u):
                    return None
                succ[u], pred[v] = v, u
    order = []
    # with no first node the union is a permutation: start the cycle at node 1
    for head in [v for v in range(n) if pred[v] < 0] or [0]:
        v = head
        while True:
            order.append(v)
            v = succ[v]
            if v in (-1, head):
                break
    if len(order) < n:  # a cycle beside the paths, or more than one cycle
        return None
    ring = [0] * n
    for place, v in enumerate(order):
        ring[v] = place
    return tuple(ring)


def _grow(spec: DynamicGraphSpec, r: int) -> int:
    """The stored round whose closure is H_r, once the memo's closures reach it.

    H_t is H_{t-1} followed by one round of G_t, so v hears what it heard
    in H_{t-1} and what its in-neighbours in G_t heard: one OR per arc.
    The senders v newly hears are exactly the nodes whose token newly
    reaches v, so each closure arc is added to the reach masks once, and
    the reach masks are never transposed.  A round that adds nothing
    shares the closure object of the round before.

    Any m = len(spec.rounds) consecutive rounds use every round graph that
    occurs later, and H_t depends only on H_{t-1} and G_t.  So once m
    consecutive rounds add nothing, the closures are fixed for good: no
    round is stored after them, and every later H_r is the last stored
    one.  Each window that adds something adds an arc, so at most about
    n^2 * m rounds are ever stored, whatever r is asked for.
    """
    checked_round(r)
    memo = spec._memo
    closures = memo.closures
    if not closures:
        identity = tuple(1 << i for i in range(spec.n))
        closures.append(Closure(identity, identity, spec.n))
        memo.ring = _ring(spec.n, memo.graphs)
    period = len(spec.rounds)
    while len(closures) <= r and memo.quiet < period:
        prev = closures[-1]
        heard = prev.into
        into_t = reach_t = None
        for v, senders in memo.graphs[_round_index(spec, len(closures))]:
            m = heard[v]
            for w in senders:
                m |= heard[w]
            new = m & ~heard[v]
            if new:
                if into_t is None:
                    into_t, reach_t = list(heard), list(prev.reach)
                into_t[v] = m
                bit = 1 << v
                while new:
                    low = new & -new
                    reach_t[low.bit_length() - 1] |= bit
                    new ^= low
        if into_t is None:
            closures.append(prev)
            memo.quiet += 1
        else:
            closures.append(Closure(tuple(reach_t), tuple(into_t)))
            memo.quiet = 0
    return min(r, len(closures) - 1)


def closure_at(spec: DynamicGraphSpec, r: int) -> Closure:
    """The closure H_r, memoized on the spec; ValueError unless r is an int >= 0."""
    return spec._memo.closures[_grow(spec, r)]


def closure(spec: DynamicGraphSpec, r: int) -> frozenset[Arc]:
    """Arc set of the information-flow closure H_r, read from its senders.

    H_0 is the identity relation, and every closure has all n self-arcs.
    """
    return frozenset(
        (u, v) for v, heard in enumerate(closure_at(spec, r).senders, start=1) for u in heard)


def to_dot(arcs: frozenset[Arc]) -> str:
    """Graphviz DOT text of an arc set, one line per arc in sorted order."""
    return "digraph {\n" + "".join(f"  {u} -> {v};\n" for u, v in sorted(arcs)) + "}\n"


# ---------------------------------------------------------------------------
# dominating sets
# ---------------------------------------------------------------------------


def _search_round(spec: DynamicGraphSpec, r: int) -> int:
    """The stored round whose closure is H_r, grown for an exact search."""
    # every exact search starts here, so this is where the cap is enforced,
    # after the round is tested and before any mask is grown
    checked_round(r)
    if spec.n > EXACT_SEARCH_CAP:
        raise CapExceeded(
            f"exact dominating-set search capped at n <= {EXACT_SEARCH_CAP}, got n = {spec.n}")
    return _grow(spec, r)


def _exact(memo: _Memo, t: int) -> int:
    """Domination number of H_t, searched at most once per closure.

    Closures only grow, so a set dominating the round before dominates
    this one: the search starts from the smaller of the two uppers, and
    leaves the closure's interval closed.  On a ring-shaped sequence it is
    one circle-cover pass.  Its caller has grown the closures through
    _search_round.
    """
    closures = memo.closures
    h = closures[t]
    if h.lower < h.upper:  # H_0 is known, so t >= 1 here
        h.upper = h.lower = domination_number(h.reach, h.into,
                                              min(closures[t - 1].upper, h.upper), memo.ring)
    return h.upper


def domination_numbers(spec: DynamicGraphSpec, r: int) -> tuple[int, ...]:
    """Domination numbers of H_1, ..., H_r, each searched in round order.

    Rounds past the one from which the closures are fixed share its
    number.  Raises CapExceeded when n > EXACT_SEARCH_CAP, and ValueError
    when r is past what a tuple can index.
    """
    last = _search_round(spec, r)  # tests r, checks the cap, grows the closures
    memo = spec._memo
    head = tuple([_exact(memo, t) for t in range(1, last + 1)])
    try:
        return head + (memo.closures[last].upper,) * (r - last)
    except OverflowError:  # r is past what a tuple can index
        raise ValueError(f"r = {r} is too large to list one number per round") from None


def min_dominating_set(spec: DynamicGraphSpec, r: int) -> tuple[int, ...]:
    """Sorted members of the lex-smallest minimum dominating set of H_r.

    The size is the domination number of H_r, searched once (_exact) if
    its closure does not know it yet.  Each position of the sorted member
    list then takes the smallest node that still allows completion with
    larger ids only, one find_cover decision per node tried.  The answer
    is kept on the closure, so rounds that share a closure share it.
    Raises CapExceeded when n > EXACT_SEARCH_CAP.
    """
    last = _search_round(spec, r)  # tests r, checks the cap, grows the closures
    h = spec._memo.closures[last]
    if h.dominating is not None:
        return h.dominating
    covers, dom = h.reach, h.into
    size = _exact(spec._memo, last)
    widest = max(map(int.bit_count, covers))
    uncovered = full = (1 << spec.n) - 1
    members: list[int] = []
    u = -1  # the last member taken
    for remaining in range(size, 0, -1):
        for u in range(u + 1, spec.n):
            if find_cover(covers, dom, uncovered & ~covers[u], full & ~((1 << (u + 1)) - 1),
                          remaining - 1, widest) is not None:
                break
        else:
            raise LemmaFalsified(
                f"a dominating set of size {size} exists but none was rebuilt")
        members.append(u + 1)
        uncovered &= ~covers[u]
    h.dominating = tuple(members)
    return h.dominating


def checked_k(k: int) -> int:
    """k if it is exactly an int of at least 1, else ValueError: the package's one
    test of k, made by building an Instance and by validate_inputs, which has no spec."""
    if type(k) is not int:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"k is {k!r}, not an integer")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return k


class Instance:
    """One query of the model: a known sequence and the k it is asked for.

    Building one tests k and nothing else, so every entry point refuses a
    bad k with the same ValueError first.  The instance keeps nothing but
    the two: its bound and dominating set are read from the spec's
    closures, and each refutability decision is made afresh when asked
    for.
    """

    __slots__ = ("spec", "k")

    def __init__(self, spec: DynamicGraphSpec, k: int) -> None:
        self.spec, self.k = spec, checked_k(k)

    def bound(self) -> int:
        """Smallest r >= 0 with a dominating set of H_r no larger than k.

        r is 0 exactly when n <= k.  Gamma never increases with r, so the
        walk starts at the last stored closure whose `lower` exceeds k,
        or at H_0.  Past it, a closure whose `lower` exceeds k is skipped,
        the walk stops at the first whose `upper` is at most k, and any
        other closure takes one k-slot cover decision, which narrows its
        interval either way.  Once m = len(spec.rounds) consecutive
        rounds change no reach mask, H_r is fixed for good (see _grow):
        NeverDominated, by at most one exact search.  So the walk ends
        within about n^2 * m rounds.
        """
        spec, k = self.spec, min(self.k, self.spec.n)  # every k >= n has bound 0
        _search_round(spec, 0)  # checks the cap
        closures = spec._memo.closures
        r = len(closures) - 1
        while r and closures[r].lower <= k:
            r -= 1
        full = (1 << spec.n) - 1
        while closures[r].upper > k:
            if _grow(spec, r + 1) == r:  # H_r is the last stored closure: it is fixed
                g = _exact(spec._memo, r)
                if g <= k:
                    raise LemmaFalsified(
                        f"a {k}-slot cover decision found no dominating set of H_r, fixed "
                        f"from round {r - len(spec.rounds)} on, but its domination number "
                        f"is {g} <= k = {k}")
                raise NeverDominated(
                    f"no round suffices: H_r is fixed from round {r - len(spec.rounds)} on "
                    f"and its domination number is {g} > k = {k}")
            r += 1
            h = closures[r]
            if h.lower <= k < h.upper:
                found = find_cover(h.reach, h.into, full, full, k, max(map(int.bit_count, h.reach)))
                if found is None:
                    h.lower = k + 1
                else:
                    h.upper = len(found)
        return r

    def gamma_by_round(self) -> tuple[int, ...]:
        """Domination numbers of H_1, ..., H_r at the bound r, which they find.

        The bound command's route, since it prints them: each round's
        number is searched in turn (_exact) until one is at most k or H_r
        is fixed, and bound() then reads r from the closed intervals.
        """
        spec, k = self.spec, min(self.k, self.spec.n)
        r = _search_round(spec, 0)  # checks the cap
        while _exact(spec._memo, r) > k and _grow(spec, r + 1) != r:
            r += 1
        return domination_numbers(spec, self.bound())

    def dominating_set(self) -> tuple[int, ...]:
        """min_dominating_set of H_r at the bound r."""
        return min_dominating_set(self.spec, self.bound())

    def closure_below_bound(self, budget: int) -> Closure:
        """H_budget, once one k-slot cover decision shows no k nodes dominate it.

        The package's one refutability test, made on every call.  A failed
        decision raises the closure's `lower` past k, which every later
        bound() at k or below reads.  Gamma never increases with r, so it
        holds exactly below the bound, or always if none exists, and
        BudgetNotBelowBound's message cannot raise.
        Raises CapExceeded when n > EXACT_SEARCH_CAP.
        """
        spec = self.spec
        last = _search_round(spec, budget)  # tests budget first
        h = spec._memo.closures[last]
        full = (1 << spec.n) - 1
        found = find_cover(h.reach, h.into, full, full, self.k, max(map(int.bit_count, h.reach)))
        if found is not None:
            h.upper = min(h.upper, len(found))  # so that bound() need not decide it again
            raise BudgetNotBelowBound(
                f"budget {budget} is not below the tight bound {self.bound()}")
        # k slots would cover n <= k nodes, so self.k < n here
        h.lower = max(h.lower, self.k + 1)
        return h


def min_rounds(spec: DynamicGraphSpec, k: int) -> int:
    """The tight bound for k-set agreement on spec: Instance(spec, k).bound()."""
    return Instance(spec, k).bound()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def spec_from_dict(obj: object) -> DynamicGraphSpec:
    """Build a spec from the JSON shape {"n", "rounds", "extension"}.

    The loader checks the shape; the spec rejects a bool, float or string
    n or arc endpoint, and its ValueError becomes a GraphFormatError.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError(f"graph document must be an object, got {type(obj).__name__}")
    try:
        n = obj["n"]
        rounds_raw = obj["rounds"]
    except KeyError as exc:
        raise GraphFormatError(f"graph document missing key {exc}") from None
    extension = obj.get("extension", Extension.REPEAT_LAST.value)
    if not isinstance(rounds_raw, list) or not all(isinstance(r, list) for r in rounds_raw):
        raise GraphFormatError("rounds must be a list of arc lists")
    try:
        rounds = tuple([(u, v) for u, v in rnd] for rnd in rounds_raw)
        ext = Extension(extension)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph document: {exc}") from None
    # the pairs are the spec's one copy of the arcs
    spec = object.__new__(DynamicGraphSpec)
    try:
        spec._build(n, rounds, ext)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    return spec


def spec_to_dict(spec: DynamicGraphSpec) -> dict:
    return {
        "n": spec.n,
        "rounds": [[list(arc) for arc in sorted(rnd)] for rnd in spec.rounds],
        "extension": spec.extension.value,
    }


def load_graph_file(path: str) -> DynamicGraphSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and an over-long integer literal
        # are all ValueErrors; deep nesting raises RecursionError
        except (ValueError, RecursionError) as exc:
            raise GraphFormatError(f"{path}: {exc}") from None
    return spec_from_dict(obj)


def save_graph_file(spec: DynamicGraphSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
