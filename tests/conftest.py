from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager

import pytest

from knowall import (
    AlgorithmSpec,
    DynamicGraphSpec,
    Extension,
    Instance,
    complete_graph,
    directed_cycle,
    directed_path,
    flood_dominator,
    min_dominating_set,
    save_graph_file,
    staggered_relay,
)


@pytest.fixture(scope="session")
def c5() -> DynamicGraphSpec:
    return directed_cycle(5)


@pytest.fixture(scope="session")
def p4() -> DynamicGraphSpec:
    return directed_path(4)


@pytest.fixture(scope="session")
def k4() -> DynamicGraphSpec:
    return complete_graph(4)


@pytest.fixture(scope="session")
def relay() -> DynamicGraphSpec:
    return staggered_relay()


@pytest.fixture
def c5_file(c5, tmp_path) -> str:
    path = tmp_path / "c5.json"
    save_graph_file(c5, str(path))
    return str(path)


def random_spec(rng: random.Random, max_n: int = 10, max_prefix: int = 3) -> DynamicGraphSpec:
    """Seeded random sequence for oracle-equivalence sweeps."""
    n = rng.randint(2, max_n)
    prob = rng.choice((0.1, 0.2, 0.35))
    rounds = []
    for _ in range(rng.randint(1, max_prefix)):
        arcs = frozenset(
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < prob)
        rounds.append(arcs)
    ext = rng.choice((Extension.REPEAT_LAST, Extension.CYCLE))
    return DynamicGraphSpec(n=n, rounds=tuple(rounds), extension=ext)


def standard_family() -> list[tuple[str, DynamicGraphSpec, int]]:
    """(name, spec, k) triples the acceptance, kuhn, protocol and refuter tests sweep."""
    family: list[tuple[str, DynamicGraphSpec, int]] = []
    c5 = directed_cycle(5)
    for k in (1, 2):
        family.append((f"cycle5/k={k}", c5, k))
    for n in (3, 4, 5):
        kn = complete_graph(n)
        for k in (1, 2):
            family.append((f"complete{n}/k={k}", kn, k))
    p4 = directed_path(4)
    for k in (1, 2):
        family.append((f"path4/k={k}", p4, k))
    family.append(("staggered_relay/k=1", staggered_relay(), 1))
    return family


def counting_min(decided: list) -> AlgorithmSpec:
    """min_heard that appends each view it decides to `decided`, as
    (observer, heard items)."""
    def decide(spec, k, view):
        decided.append((view.observer, tuple(view.heard.items())))
        return min(view.heard.values())
    return AlgorithmSpec("counting_min", decide)


def replaced(record, **changes):
    """A copy of a package record (protocol.Record) with the named fields changed."""
    return type(record)(*(changes.pop(name, value)
                          for name, value in zip(record.__slots__, record._values())))


@contextmanager
def flooding_of_round(r: int | None):
    """flood_dominator(), named flood_dominator(r), whose dominators are the
    minimum dominating set of H_r instead of the bound's while the context
    lasts; None leaves flooding as it is."""
    if r is None:
        yield flood_dominator()
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Instance, "dominating_set",
                      lambda instance: min_dominating_set(instance.spec, r))
        yield dataclasses.replace(flood_dominator(), name=f"flood_dominator({r})")
