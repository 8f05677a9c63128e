"""Command-line front end.

JSON goes to stdout (byte-identical across identical invocations),
diagnostics to stderr.  Exit codes: 0 clean, 1 mathematical finding
(witness produced or check failed), 2 operational error (bad usage,
unreadable graph, cap exceeded, budget not below the bound).

`main(argv)` returns the exit code instead of exiting (usage errors and
`--help` still raise SystemExit), so it can be called repeatedly in one
process.  Those calls share one parser, built on the first call and never
at import; `build_parser()` returns a fresh one to any other caller.

Importing this module loads only the graph, cover-search and error
modules, which `bound` and `closure` need.  Each other command imports
the protocol, the sweeps or the refuter when it runs, so a process pays
only for what its command uses.  The triangulation is a library matter:
for a vertex v, kuhn.inp(v, n) is its configuration, and an
algorithm_coloring gives its node (.node(v)) and its color (called on v).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .dyngraph import (
    EXHAUSTIVE_CONFIG_CAP, Instance, closure, domination_numbers, load_graph_file, to_dot)
from .errors import (
    AlgorithmRangeError,
    BudgetNotBelowBound,
    CapExceeded,
    GraphFormatError,
    KnowAllError,
    LemmaFalsified,
    NeverDominated,
)

def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _integer(text: str) -> int:
    # int() would also take other scripts' digits, underscores and spaces
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _digit_k(text: str) -> int:
    # refute and check print configurations one digit per node
    value = _positive(text)
    if value > 9:
        raise argparse.ArgumentTypeError(
            f"must be <= 9, since configurations print one digit per node, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_bound(args: argparse.Namespace) -> int:
    query = Instance(load_graph_file(args.graph), args.k)
    r = query.bound()
    _emit({"r": r, "dominating_set": list(query.dominating_set()),
           "gamma_by_round": list(domination_numbers(query.spec, r))}, args.pretty)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    from .protocol import flood_solve, format_inputs, parse_inputs

    query = Instance(load_graph_file(args.graph), args.k)
    inputs = parse_inputs(args.inputs, query.spec.n, query.k)
    report = flood_solve(query.spec, query.k, inputs)
    _emit({
        "outputs": format_inputs(report.outputs),
        "r": query.bound(),  # derived by flood_solve, read from the spec
        "dominating_set": list(query.dominating_set()),
        "valid": report.valid,
        "agreeing": report.agreeing,
    }, args.pretty)
    return 0


def cmd_refute(args: argparse.Namespace) -> int:
    from .protocol import algorithm_by_name
    from .refuter import refute

    spec = load_graph_file(args.graph)
    alg = algorithm_by_name(args.alg)
    witness = refute(spec, args.k, alg, args.budget)
    _emit(witness.to_dict(), args.pretty)
    return 1


def cmd_closure(args: argparse.Namespace) -> int:
    spec = load_graph_file(args.graph)
    arcs = closure(spec, args.r)
    if args.dot:
        sys.stdout.write(to_dot(arcs))
    else:
        _emit({"n": spec.n, "r": args.r, "arcs": [list(a) for a in sorted(arcs)]}, args.pretty)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .check import exhaustive_check, sample_check
    from .protocol import algorithm_by_name, format_inputs, run

    spec = load_graph_file(args.graph)
    alg = algorithm_by_name(args.alg)
    if args.exhaustive:
        report = exhaustive_check(spec, args.k, alg, args.budget)
        mode = "exhaustive"
    else:
        report = sample_check(spec, args.k, alg, args.budget, seed=args.seed)
        mode = "sampled"
    first = None
    if report.first_failure is not None:
        # the sweeps count configurations and keep the first; `run` alone scores it
        cfg = report.first_failure
        outcome = run(spec, args.k, alg, cfg, args.budget)
        if outcome.valid and outcome.agreeing:
            raise LemmaFalsified(
                f"the sweep failed {format_inputs(cfg)}, but run scored its outputs "
                f"{outcome.outputs} valid and agreeing")
        first = {"config": format_inputs(cfg),
                 "outputs": list(outcome.outputs),
                 "valid": outcome.valid,
                 "agreeing": outcome.agreeing}
    _emit({"mode": mode, "configs_checked": report.total_configs,
           "failure_count": report.failure_count,
           "first_failure": first, "passed": report.passed}, args.pretty)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowall",
        description="Round-optimal k-set agreement on known dynamic graphs: "
                    "compute the tight bound, solve at it, refute below it.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indented JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="tight round bound and a witnessing dominating set")
    p.add_argument("--graph", required=True, help="graph sequence JSON file")
    p.add_argument("--k", type=_positive, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("solve", parents=[common],
                       help="run the optimal flooding algorithm on given inputs")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--inputs", required=True, help="digit string, node 1 first")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("refute", parents=[common],
                       help="counterexample against an algorithm run below the bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_digit_k, required=True)
    p.add_argument("--alg", required=True, help="builtin algorithm name")
    p.add_argument("--budget", type=_nonnegative, required=True)
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("closure", parents=[common],
                       help="information-flow closure H_r of the sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=_nonnegative, required=True)
    p.add_argument("--dot", action="store_true", help="DOT text instead of JSON")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("check", parents=[common],
                       help="validity/agreement sweep of an algorithm at a budget")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_digit_k, required=True)
    p.add_argument("--alg", required=True)
    p.add_argument("--budget", type=_nonnegative, required=True)
    p.add_argument("--exhaustive", action="store_true",
                   help=f"all (k+1)^n configurations (cap {EXHAUSTIVE_CONFIG_CAP})")
    p.add_argument("--seed", type=_integer, default=0,
                   help="seed for the sampled mode")
    p.set_defaults(func=cmd_check)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one tree serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, CapExceeded, NeverDominated, BudgetNotBelowBound,
            AlgorithmRangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KnowAllError as exc:
        # LemmaFalsified / NoPanchromaticCell: internal inconsistency, be loud
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
