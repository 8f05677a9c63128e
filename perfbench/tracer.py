"""Outside-in per-layer tracer for the knowall package.

The tracer wraps named layer functions from the benchmark's side: it finds
each function by name across every loaded knowall submodule and rebinds
every module attribute that refers to it, because modules import these
names directly (kuhn holds its own reference to protocol.view_of, for
instance). A function that no longer exists is reported as absent.

Hot functions are aggregated into counters and self time instead of one
span per call. A span's self time is its wall time minus the wall time of
the traced spans it called.
"""
from __future__ import annotations

import dataclasses
import importlib
import os
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Target:
    """A traced function: `label` names its metrics, `name` is looked up.

    `only_in` restricts rebinding to one module, which gives calls from
    that module their own label. `distinct` counts distinct arguments.
    `count_in` adds one to `<label>.<counter>` of an enclosing span per
    call (or per yielded item for generators). `observe` names a Tracer
    method that sees each result.
    """

    label: str
    name: str
    only_in: str | None = None
    distinct: bool = False
    count_in: tuple[str, str] | None = None
    generator: bool = False
    observe: str | None = None


# `refuter.resim` comes before `protocol.run` so that refuter's reference
# to run gets the resim wrapper and the remaining references get run's
TARGETS = (
    Target("cli.main", "main"),
    Target("cli.load_graph_file", "load_graph_file"),
    Target("dyngraph.min_rounds", "min_rounds"),
    Target("dyngraph.closure", "closure", distinct=True),
    Target("dyngraph.min_dominating_set", "min_dominating_set", distinct=True),
    Target("protocol.view_of", "view_of", observe="_note_view"),
    Target("refuter.resim", "run", only_in="refuter"),
    Target("protocol.run", "run"),
    Target("oracle.exhaustive_check", "exhaustive_check", observe="_note_failures"),
    Target("kuhn.assign_node", "assign_node"),
    Target("kuhn.color", "color", count_in=("kuhn.check_sperner", "vertices")),
    Target("kuhn.inp", "inp"),
    Target("kuhn.carrier", "carrier"),
    Target("kuhn.check_sperner", "check_sperner"),
    Target("kuhn.find_panchromatic", "find_panchromatic"),
    Target("kuhn.primitive_simplices", "primitive_simplices",
           count_in=("kuhn.find_panchromatic", "cells"), generator=True),
)
# candidate algorithms are values, not module attributes: their decide
# functions are wrapped on the objects algorithm_by_name returns
DECIDE_LABEL = "protocol.decide"
DECIDE_FACTORY = "algorithm_by_name"


def knowall_modules() -> list:
    """The knowall package and all of its submodules, imported."""
    package = importlib.import_module("knowall")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"knowall.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "knowall" or name.startswith("knowall.")]


def _find(modules: list, name: str, home: str):
    """The knowall function called `name`, preferring the `home` module's."""
    found = []
    for module in modules:
        obj = module.__dict__.get(name)
        if callable(obj) and str(getattr(obj, "__module__", "")).startswith("knowall") \
                and all(obj is not f for f in found):
            found.append(obj)
    for obj in found:
        if obj.__module__ == f"knowall.{home}":
            return obj
    return found[0] if found else None


def _module_of(fn) -> str:
    return str(getattr(fn, "__module__", "knowall.?")).rpartition(".")[2]


class Tracer:
    """Counters and self time per label, plus per-query module self time."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.active: Counter = Counter()
        self.absent: list[str] = []
        self.views: set = set()
        self.module_self: defaultdict = defaultdict(float)
        self.query_module_self: list[dict] = []
        self.query_calls: list[int] = []
        self._calls_at_start = 0
        # one [child wall time] cell per open span
        self._stack: list[list[float]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        modules = knowall_modules()
        for target in TARGETS:
            home = target.only_in or target.label.partition(".")[0]
            fn = _find(modules, target.name, home)
            if fn is None:
                self.absent.append(target.label)
                continue
            scope = [m for m in modules
                     if target.only_in is None or m.__name__ == f"knowall.{target.only_in}"]
            wrapper = self._wrap(target, fn)
            bound = False
            for module in scope:
                for attr, value in list(module.__dict__.items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        bound = True
            if not bound:
                self.absent.append(target.label)
        factory = _find(modules, DECIDE_FACTORY, "protocol")
        if factory is None:
            self.absent.append(DECIDE_LABEL)
            return
        wrapped = self._wrap_factory(factory)
        for module in modules:
            for attr, value in list(module.__dict__.items()):
                if value is factory:
                    setattr(module, attr, wrapped)

    def _span(self, label: str, module: str, fn, args, kwargs):
        self.calls[label] += 1
        self.active[label] += 1
        cell = [0.0]
        self._stack.append(cell)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            own = elapsed - cell[0]
            self.self_s[label] += own
            self.module_self[module] += own
            if self._stack:
                self._stack[-1][0] += elapsed
            self.active[label] -= 1

    def _wrap(self, target: Target, fn):
        label, module = target.label, _module_of(fn)
        count_in = target.count_in
        observe = getattr(self, target.observe) if target.observe else None

        if target.generator:
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if count_in and self.active[count_in[0]]:
                        self.extra[f"{count_in[0]}.{count_in[1]}"] += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if target.distinct:
                try:
                    self.distinct[label].add((args, tuple(sorted(kwargs.items()))))
                except TypeError:  # unhashable arguments: count calls only
                    pass
            if count_in and self.active[count_in[0]]:
                self.extra[f"{count_in[0]}.{count_in[1]}"] += 1
            result = self._span(label, module, fn, args, kwargs)
            if observe:
                observe(result)
            return result

        return wrapper

    def _wrap_factory(self, factory):
        def wrapped_factory(*args, **kwargs):
            alg = factory(*args, **kwargs)
            decide = alg.decide
            module = _module_of(decide)

            def traced_decide(*a, **kw):
                return self._span(DECIDE_LABEL, module, decide, a, kw)

            return dataclasses.replace(alg, decide=traced_decide)

        return wrapped_factory

    def _note_failures(self, report) -> None:
        self.extra["oracle.failures"] += len(getattr(report, "failures", ()))

    def _note_view(self, view) -> None:
        heard = getattr(view, "heard", None)
        if heard is not None:
            self.views.add((view.observer, view.budget, tuple(heard.items())))

    # -- query boundaries ---------------------------------------------------

    def begin_query(self) -> None:
        self.module_self = defaultdict(float)
        self._calls_at_start = sum(self.calls.values())

    def end_query(self) -> None:
        # distinct views are counted per query, since views of different
        # specs never coincide in meaning
        self.extra["protocol.view_distinct"] += len(self.views)
        self.views = set()
        self.query_module_self.append(dict(self.module_self))
        self.query_calls.append(sum(self.calls.values()) - self._calls_at_start)

    # -- results --------------------------------------------------------------

    def counters(self) -> dict:
        out: dict = {}
        for label in sorted(self.calls):
            out[f"{label}.calls"] = self.calls[label]
        for label in sorted(self.self_s):
            out[f"{label}.self_s"] = self.self_s[label]
        for label in sorted(self.distinct):
            out[f"{label}.distinct"] = len(self.distinct[label])
        out.update(sorted(self.extra.items()))
        views = self.calls["protocol.view_of"]
        if views:
            out["protocol.view_reuse"] = self.extra["protocol.view_distinct"] / views
        return out


def module_tottime(stats: dict, package_dir: str) -> dict[str, float]:
    """cProfile tottime per knowall module.

    Time in functions outside the package (builtins, the standard library,
    generated dataclass methods) goes to the knowall module that called
    them, split by the caller edges' own time.
    """
    prefix = os.path.join(package_dir, "")

    def module(filename: str) -> str | None:
        if filename.startswith(prefix) and filename.endswith(".py"):
            return filename[len(prefix):-3].replace(os.sep, ".")
        return None

    share: dict[str, float] = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        home = module(filename)
        if home is not None:
            share[home] += tt
            continue
        for (caller_file, _l, _n), edge in callers.items():
            caller = module(caller_file)
            if caller is not None:
                share[caller] += edge[2]
    return dict(share)
