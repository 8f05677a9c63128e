"""End-to-end refutation pipeline.

refute() takes any candidate algorithm claimed to work in fewer rounds
than the tight bound and produces a concrete, re-simulated
counterexample: either a configuration where some node outputs a value
nobody holds, or one where k+1 nodes output k+1 distinct values,
whichever kuhn.sperner_walk meets first on its door-to-door path from
the origin.  Both kinds are verified the same way, by one `protocol.run`
of the witness configuration: the outputs at the nodes decoded by the
coloring's closure H_budget must be the colors the walk gave them.  The
closure comes from the coloring's one refutability decision, so the
budget is tested once.  Verification deliberately goes back through the
protocol module only, so a bug in the triangulation machinery cannot
vouch for itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .dyngraph import DynamicGraphSpec
from .errors import LemmaFalsified
from .kuhn import PrimitiveSimplex, algorithm_coloring, inp, sperner_walk
from .protocol import AlgorithmSpec, InputConfig, format_inputs, run


class WitnessKind(Enum):
    AGREEMENT_VIOLATION = "AgreementViolation"
    VALIDITY_VIOLATION = "ValidityViolation"


@dataclass(frozen=True)
class Witness:
    """Verified counterexample; re-running the algorithm on `config` at
    `budget` reproduces outputs[i] at nodes[i]."""

    kind: WitnessKind
    config: InputConfig
    budget: int
    nodes: tuple[int, ...]
    outputs: tuple[int, ...]
    simplex: PrimitiveSimplex | None
    verified: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "config": format_inputs(self.config),
            "budget": self.budget,
            "nodes": list(self.nodes),
            "outputs": list(self.outputs),
            "simplex": None if self.simplex is None else {
                "base": list(self.simplex.base),
                "perm": list(self.simplex.perm),
            },
            "verified": self.verified,
        }


def refute(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, budget: int) -> Witness:
    """Build and verify a counterexample against `alg` run at `budget`.

    The budget is refutable exactly when no k nodes dominate H_budget, so
    below the tight bound and on sequences with no bound; otherwise
    algorithm_coloring raises BudgetNotBelowBound (ValueError when
    negative).  The Sperner walk colors only the vertices on its path from
    the origin, each once, and stops at the first witness on it: a vertex
    colored outside its carrier gives a validity witness, the panchromatic
    cell the path ends at an agreement witness, so validity broken only off
    the path is refuted by that cell.  Both kinds are one run of the first
    corner's configuration, which must give each corner's color at its
    node.
    LemmaFalsified is a tripwire: it fires only if direct re-simulation
    disagrees with the combinatorial argument, which means a bug in this
    package, not in the algorithm under test.
    """
    n = spec.n
    coloring = algorithm_coloring(spec, k, budget, alg)
    found, colors = sperner_walk(coloring)
    simplex = found if isinstance(found, PrimitiveSimplex) else None
    corners = (found,) if simplex is None else simplex.vertices()
    config = inp(corners[0], n)
    nodes = tuple(map(coloring.node, corners))
    report = run(spec, k, alg, config, budget)
    outputs = tuple(report.outputs[w - 1] for w in nodes)
    # only a tripwire formats the configuration: at k >= 10 it has no digit string
    if outputs != colors:
        raise LemmaFalsified(f"witness corners {corners} colored {colors} re-simulated to "
                             f"outputs {outputs} at nodes {nodes} in configuration "
                             f"{format_inputs(config)}")
    if simplex is None:
        kind = WitnessKind.VALIDITY_VIOLATION
        if outputs[0] in config or report.valid:
            raise LemmaFalsified(f"validity witness at vertex {corners[0]} did not re-simulate: "
                                 f"node {nodes[0]} output {outputs[0]} on {format_inputs(config)}")
    else:
        kind = WitnessKind.AGREEMENT_VIOLATION
        if len(set(outputs)) != k + 1:
            raise LemmaFalsified(f"panchromatic cell {simplex} decoded to outputs {outputs} in "
                                 f"configuration {format_inputs(config)}; expected k+1 distinct")
        if report.agreeing:
            raise LemmaFalsified(f"re-simulation of {format_inputs(config)} reported agreement "
                                 f"although nodes {nodes} output {outputs}")
    return Witness(kind=kind, config=config, budget=budget, nodes=nodes,
                   outputs=outputs, simplex=simplex, verified=True)
