"""End-to-end refutation pipeline and the positive-direction certifier.

refute() takes any candidate algorithm claimed to work in fewer rounds
than the tight bound and produces a concrete, re-simulated
counterexample: either a configuration where some node outputs a value
nobody holds, or one where k+1 nodes output k+1 distinct values,
whichever kuhn.find_panchromatic meets first.  Verification deliberately
goes back through the protocol module only, so a bug in the
triangulation machinery cannot certify itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .check import EXHAUSTIVE_CONFIG_CAP, exhaustive_check, sample_check
from .dyngraph import DynamicGraphSpec
from .errors import BudgetNotBelowBound, LemmaFalsified
from .kuhn import (
    PrimitiveSimplex,
    algorithm_coloring,
    assign_node,
    find_panchromatic,
    inp,
)
from .protocol import AlgorithmSpec, InputConfig, OutcomeReport, format_inputs, run


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
    simplex: Optional[PrimitiveSimplex]
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
    negative).  One ordered pass over the lazily colored bases ends at the
    first witness: a base colored outside its carrier gives a validity
    witness, a panchromatic cell an agreement witness, so validity broken
    only past the first cell's base is refuted by that cell.
    LemmaFalsified is a tripwire: it fires only if direct re-simulation
    disagrees with the combinatorial argument, which means a bug in this
    package, not in the algorithm under test.
    """
    n = spec.n
    found = find_panchromatic(n, k, algorithm_coloring(spec, k, budget, alg))

    if not isinstance(found, PrimitiveSimplex):
        v, col = found
        config = inp(v, n)
        node = assign_node(spec, k, budget, v)
        report = run(spec, k, alg, config, budget)
        if report.outputs[node - 1] != col or col in set(config) or report.valid:
            raise LemmaFalsified(
                f"validity witness at vertex {v} did not re-simulate: "
                f"color {col}, node {node}, outputs {report.outputs}")
        return Witness(
            kind=WitnessKind.VALIDITY_VIOLATION,
            config=config,
            budget=budget,
            nodes=(node,),
            outputs=(col,),
            simplex=None,
            verified=True,
        )

    simplex = found
    corners = simplex.vertices()
    config = inp(corners[0], n)
    nodes = tuple(assign_node(spec, k, budget, v) for v in corners)
    report = run(spec, k, alg, config, budget)
    outputs = tuple(report.outputs[w - 1] for w in nodes)
    if len(set(outputs)) != k + 1:
        raise LemmaFalsified(
            f"panchromatic cell {simplex} decoded to outputs {outputs} "
            f"in configuration {format_inputs(config)}; expected k+1 distinct")
    if report.agreeing:
        raise LemmaFalsified(
            f"re-simulation of {format_inputs(config)} reported agreement "
            f"although nodes {nodes} output {outputs}")
    return Witness(
        kind=WitnessKind.AGREEMENT_VIOLATION,
        config=config,
        budget=budget,
        nodes=nodes,
        outputs=outputs,
        simplex=simplex,
        verified=True,
    )


@dataclass(frozen=True)
class OutcomeSummary:
    """Either a correctness check (exhaustive/sampled) or a refutation."""

    mode: str
    checked: int
    failure_count: int
    first_failure: Optional[tuple[InputConfig, OutcomeReport]]
    witness: Optional[Witness]
    passed: bool


def certify(spec: DynamicGraphSpec, k: int, alg: AlgorithmSpec, budget: int,
            config_cap: int = EXHAUSTIVE_CONFIG_CAP,
            samples: int = 1000, seed: int = 0) -> OutcomeSummary:
    """Refute when the budget is refutable, else check correctness.

    Asks refute first and wraps its witness, so sequences with no bound
    are refuted too.  When refute raises BudgetNotBelowBound, runs the
    exhaustive configuration sweep when it fits under the cap and a seeded
    random sample otherwise.
    """
    try:
        witness = refute(spec, k, alg, budget)
    except BudgetNotBelowBound:
        pass
    else:
        return OutcomeSummary(mode="refuted", checked=0, failure_count=1,
                              first_failure=None, witness=witness, passed=False)
    if (k + 1) ** spec.n <= config_cap:
        report = exhaustive_check(spec, k, alg, budget, cap=config_cap)
        mode = "exhaustive"
    else:
        report = sample_check(spec, k, alg, budget, samples=samples, seed=seed)
        mode = "sampled"
    first = report.failures[0] if report.failures else None
    return OutcomeSummary(mode=mode, checked=report.total_configs,
                          failure_count=len(report.failures),
                          first_failure=first, witness=None,
                          passed=report.passed)
