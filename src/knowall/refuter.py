"""End-to-end refutation pipeline.

refute() takes any candidate algorithm claimed to work in fewer rounds
than the tight bound and produces a concrete, re-simulated
counterexample: a configuration where some node outputs a value nobody
holds, or one where k+1 nodes output k+1 distinct values.  Both kinds
are verified by one `protocol.run` of the witness configuration, through
the protocol module only, so a bug in the triangulation machinery cannot
vouch for itself.
"""
from __future__ import annotations

from enum import Enum

from .dyngraph import DynamicGraphSpec, Instance
from .errors import LemmaFalsified
from .kuhn import AlgorithmColoring, PrimitiveSimplex, inp, sperner_walk
from .protocol import AlgorithmSpec, InputConfig, Record, format_config, run


class WitnessKind(Enum):
    AGREEMENT_VIOLATION = "AgreementViolation"
    VALIDITY_VIOLATION = "ValidityViolation"


class Witness(Record):
    """Verified counterexample; re-running the algorithm on `config` at
    `budget` reproduces outputs[i] at nodes[i]."""

    __slots__ = ("kind", "config", "k", "budget", "nodes", "outputs", "simplex", "verified")

    def __init__(self, kind: WitnessKind, config: InputConfig, k: int, budget: int,
                 nodes: tuple[int, ...], outputs: tuple[int, ...],
                 simplex: PrimitiveSimplex | None, verified: bool) -> None:
        super().__init__(kind, config, k, budget, nodes, outputs, simplex, verified)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "config": format_config(self.config, self.k),
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
    below the tight bound and on sequences with no bound; otherwise the
    query instance's one refutability decision raises BudgetNotBelowBound
    (ValueError when negative).  The Sperner walk colors only the vertices
    on its path from the origin, each once, and stops at the first witness
    on it: a vertex colored outside its carrier gives a validity witness,
    the panchromatic cell the path ends at an agreement witness, so
    validity broken only off the path is refuted by that cell.  Both kinds
    are one run of the first corner's configuration, which must give each
    corner's color at the node that decision's closure decodes for it.
    LemmaFalsified is a tripwire: it fires only if direct re-simulation
    disagrees with the combinatorial argument, which means a bug in this
    package, not in the algorithm under test.
    """
    coloring = AlgorithmColoring(Instance(spec, k), budget, alg)
    found, colors = sperner_walk(coloring)
    simplex = found if isinstance(found, PrimitiveSimplex) else None
    corners = (found,) if simplex is None else simplex.vertices()
    config = inp(corners[0], spec.n)
    nodes = tuple(map(coloring.node, corners))
    report = run(spec, k, alg, config, budget)
    outputs = tuple(report.outputs[w - 1] for w in nodes)
    if outputs != colors:
        raise LemmaFalsified(f"witness corners {corners} colored {colors} re-simulated to "
                             f"outputs {outputs} at nodes {nodes} in configuration "
                             f"{format_config(config, k)}")
    if simplex is None:
        kind = WitnessKind.VALIDITY_VIOLATION
        if outputs[0] in config or report.valid:
            raise LemmaFalsified(f"validity witness at vertex {corners[0]} did not re-simulate: "
                                 f"node {nodes[0]} output {outputs[0]} on "
                                 f"{format_config(config, k)}")
    else:
        kind = WitnessKind.AGREEMENT_VIOLATION
        if len(set(outputs)) != k + 1:
            raise LemmaFalsified(f"panchromatic cell {simplex} decoded to outputs {outputs} in "
                                 f"configuration {format_config(config, k)}; "
                                 "expected k+1 distinct")
        if report.agreeing:
            raise LemmaFalsified(f"re-simulation of {format_config(config, k)} reported agreement "
                                 f"although nodes {nodes} output {outputs}")
    return Witness(kind=kind, config=config, k=k, budget=budget, nodes=nodes,
                   outputs=outputs, simplex=simplex, verified=True)
