"""Command-line front end.

JSON goes to stdout (byte-identical across identical invocations),
diagnostics to stderr.  Exit codes: 0 clean, 1 mathematical finding
(witness produced or check failed), 2 operational error (bad usage,
unreadable graph, cap exceeded, budget not below the bound).

`main(argv)` returns the exit code instead of exiting (usage errors and
`--help` still raise SystemExit), so it can be called repeatedly in one
process.  The command line is read in one pass against `_COMMANDS`, the
table of each command's options, with argparse's grammar: `--name value`
or `--name=value`, a unique prefix of a name, options in any order with
the last repeat winning, and `-h`/`--help` on the program and on each
command.  The usage and help text is built from the same table when it
is printed.  `--k` takes any positive k, and configurations print in
protocol.format_config's form, a digit string for k <= 9, else a JSON list.

Importing this module loads only the graph, cover-search and error
modules, which `bound` and `closure` need.  Each other command imports
the protocol, the sweeps or the refuter when it runs, so a process pays
only for what its command uses.  The triangulation is a library matter:
for a vertex v, kuhn.inp(v, n) is its configuration, and an
algorithm_coloring gives its node (.node(v)) and its color (called on v).
"""
from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .dyngraph import EXHAUSTIVE_CONFIG_CAP, Instance, closure, load_graph_file, to_dot
from .errors import (
    AlgorithmRangeError,
    BudgetNotBelowBound,
    CapExceeded,
    GraphFormatError,
    KnowAllError,
    LemmaFalsified,
    NeverDominated,
)


class _UsageError(Exception):
    """A command line the grammar refuses; main reports it and exits 2."""


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _integer(text: str) -> int:
    # int() would also take other scripts' digits, underscores and spaces
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise _UsageError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise _UsageError(f"must be >= 1, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise _UsageError(f"must be >= 0, got {value}")
    return value


def cmd_bound(args: SimpleNamespace) -> int:
    query = Instance(load_graph_file(args.graph), args.k)
    # the printed numbers find r themselves, cheaper than cover decisions first
    numbers = query.gamma_by_round()
    _emit({"r": len(numbers), "dominating_set": list(query.dominating_set()),
           "gamma_by_round": list(numbers)}, args.pretty)
    return 0


def cmd_solve(args: SimpleNamespace) -> int:
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


def cmd_refute(args: SimpleNamespace) -> int:
    from .protocol import algorithm_by_name
    from .refuter import refute

    spec = load_graph_file(args.graph)
    alg = algorithm_by_name(args.alg)
    witness = refute(spec, args.k, alg, args.budget)
    _emit(witness.to_dict(), args.pretty)
    return 1


def cmd_closure(args: SimpleNamespace) -> int:
    spec = load_graph_file(args.graph)
    arcs = closure(spec, args.r)
    if args.dot:
        sys.stdout.write(to_dot(arcs))
    else:
        _emit({"n": spec.n, "r": args.r, "arcs": [list(a) for a in sorted(arcs)]}, args.pretty)
    return 0


def cmd_check(args: SimpleNamespace) -> int:
    from .check import exhaustive_check, sample_check
    from .protocol import algorithm_by_name, format_config, run

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
                f"the sweep failed {format_config(cfg, args.k)}, but run scored its outputs "
                f"{outcome.outputs} valid and agreeing")
        first = {"config": format_config(cfg, args.k),
                 "outputs": list(outcome.outputs),
                 "valid": outcome.valid,
                 "agreeing": outcome.agreeing}
    _emit({"mode": mode, "configs_checked": report.total_configs,
           "failure_count": report.failure_count,
           "first_failure": first, "passed": report.passed}, args.pretty)
    return 0 if report.passed else 1


_DESCRIPTION = ("Round-optimal k-set agreement on known dynamic graphs: "
                "compute the tight bound, solve at it, refute below it.")
_HELP_NAMES = ("-h", "--help")
# each option maps to (converter, default, help): converter None marks a
# flag, default None a required option; the option's name without its
# dashes is the attribute its handler reads
_COMMON = {"--pretty": (None, False, "indented JSON"),
           "--graph": (str, None, "graph sequence JSON file")}
_K = (_positive, None, "at most k distinct outputs")
_ALG = (str, None, "builtin algorithm name")
_BUDGET = (_nonnegative, None, "rounds the algorithm may run")
_COMMANDS = {
    "bound": (cmd_bound, "tight round bound and a witnessing dominating set", {
        **_COMMON, "--k": _K}),
    "solve": (cmd_solve, "run the optimal flooding algorithm on given inputs", {
        **_COMMON, "--k": _K, "--inputs": (str, None, "digit string, node 1 first")}),
    "refute": (cmd_refute, "counterexample against an algorithm run below the bound", {
        **_COMMON, "--k": _K, "--alg": _ALG, "--budget": _BUDGET}),
    "closure": (cmd_closure, "information-flow closure H_r of the sequence", {
        **_COMMON, "--r": (_nonnegative, None, "round of the closure"),
        "--dot": (None, False, "DOT text instead of JSON")}),
    "check": (cmd_check, "validity/agreement sweep of an algorithm at a budget", {
        **_COMMON, "--k": _K, "--alg": _ALG, "--budget": _BUDGET,
        "--exhaustive": (None, False,
                         f"all (k+1)^n configurations (cap {EXHAUSTIVE_CONFIG_CAP})"),
        "--seed": (_integer, 0, "seed for the sampled mode")}),
}


def _spelling(name: str, convert) -> str:
    return name if convert is None else f"{name} {name[2:].upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: knowall [-h] {{{','.join(_COMMANDS)}}} ...\n"
    words = [f"knowall {command} [-h]"]
    for name, (convert, default, _line) in _COMMANDS[command][2].items():
        word = _spelling(name, convert)
        words.append(word if default is None else f"[{word}]")
    return f"usage: {' '.join(words)}\n"


def _rows(rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _line in rows) + 2
    return "".join(f"  {left:<{width}}{line}\n" for left, line in rows)


def _help(command: str | None) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = f"{_DESCRIPTION}\n\ncommands:\n" + _rows(
            [(name, line) for name, (_run, line, _options) in _COMMANDS.items()])
    else:
        text = _COMMANDS[command][1] + "\n"
        rows += [(_spelling(name, convert), line)
                 for name, (convert, _default, line) in _COMMANDS[command][2].items()]
    return f"{_usage(command)}\n{text}\noptions:\n{_rows(rows)}"


def _option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How argparse reads one token against a parser's option strings.

    None is a value.  Otherwise (name, attached value or None) names an
    option, where `name` is None for an option-like token no name fits.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in names:
        return token, None
    head, equals, attached = token.partition("=")
    if equals and head in names:
        return head, attached
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], attached if equals else None
    elif token[1] == "h":
        return "-h", token[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None
    return None, token


def _help_exit(command: str | None, name: str, attached: str | None) -> None:
    # `-hh` asks twice; any other text attached to -h or --help is refused
    if attached is not None:
        rest = attached if name == "--help" else attached.lstrip("h")
        if rest or not attached:
            raise _UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its handler's attributes; a usage error or --help exits."""
    command = None
    try:
        extras = []
        at = 0
        # before the command only -h/--help is an option; the first value is the command
        while at < len(argv) and argv[at] != "--" and (found := _option(argv[at], _HELP_NAMES)):
            if found[0] is not None:
                _help_exit(None, *found)
            extras.append(argv[at])
            at += 1
        if argv[at:] in ([], ["--"]):
            raise _UsageError("the following arguments are required: command")
        if argv[at] not in _COMMANDS:
            raise _UsageError(f"argument command: invalid choice: {argv[at]!r} "
                              f"(choose from {', '.join(map(repr, _COMMANDS))})")
        command = argv[at]
        options = _COMMANDS[command][2]
        values = {name[2:]: default for name, (_convert, default, _line) in options.items()}
        rest = argv[at + 1:]
        # argparse reads every token before "--" up front; "--" ends the
        # options and, like an unknown option, is never an option's value
        end = rest.index("--") if "--" in rest else len(rest)
        names = (*_HELP_NAMES, *options)
        found = [_option(token, names) for token in rest[:end]]
        found += [(None, "--"), *[None] * (len(rest) - end - 1)]
        at = 0
        while at < len(rest):
            if found[at] is None or found[at][0] is None:
                extras.append(rest[at])
                at += 1
                continue
            name, attached = found[at]
            at += 1
            if name in _HELP_NAMES:
                _help_exit(command, name, attached)
            convert = options[name][0]
            if convert is None:
                if attached is not None:
                    raise _UsageError(f"argument {name}: ignored explicit argument {attached!r}")
                values[name[2:]] = True
                continue
            if attached is None:
                if found[at] is not None:
                    raise _UsageError(f"argument {name}: expected one argument")
                attached = rest[at]
                at += 1
            try:
                values[name[2:]] = convert(attached)
            except _UsageError as exc:
                raise _UsageError(f"argument {name}: {exc}") from None
            except ValueError:  # int() refuses a digit string longer than its limit
                raise _UsageError(f"argument {name}: invalid {convert.__name__} "
                                  f"value: {attached!r}") from None
        missing = [name for name in options if values[name[2:]] is None]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError as exc:
        prog = "knowall" if command is None else f"knowall {command}"
        sys.stderr.write(f"{_usage(command)}{prog}: error: {exc}\n")
        raise SystemExit(2) from None
    return command, values


def main(argv: list[str] | None = None) -> int:
    command, values = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _COMMANDS[command][0](SimpleNamespace(**values))
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
