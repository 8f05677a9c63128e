"""Golden replay: every benchmark query's stdout, stderr and exit code, pinned by digest.

Usage (from the repository root, standard library only):

  python3 tests/golden.py --check   # compare against tests/golden.json
  python3 tests/golden.py --write   # rewrite tests/golden.json

The replay regenerates the benchmark's graph files for seeds 1-3 into a
temporary directory, with perfbench/workloads.py imported as is, and runs
every `bound`, `check` and `refute` query of them through knowall.cli.main
in this process. It also runs `closure` with and without `--dot` on a few
of those files, `refute` and `check` at k >= 10 (large_k_queries), the
README's CLI examples and a fixed list of usage errors. Each query is one
short digest of its argv, exit code, stdout and stderr, and the digests
are grouped by (workload, seed), so a difference names the first argv
that differs. A change that alters output on purpose
rewrites the file and names each changed argv in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = (1, 2, 3)
# files of each workload's first seed that `closure` is replayed on
CLOSURE_FILES = ("q000.json", "q001.json", "q002.json")
CLOSURE_OPTIONS = (("--r", "0"), ("--r", "1"), ("--r", "2", "--dot"), ("--r", "1", "--pretty"))
_CHECK = ["check", "--graph", "x.json", "--k", "2", "--alg", "min_heard", "--budget", "1"]
USAGE_ERRORS = (
    [],
    ["bound", "--graph", "x.json", "--k", "0"],
    ["bound", "--graph", "x.json", "--k", "1", "--threads", "0"],
    ["bound", "--graph", "x.json", "--k", "\u0662"],
    ["bound", "--graph", "x.json", "--k", "1_0"],
    ["bound", "--graph", "x.json", "--k", " 2"],
    ["bound", "--graph", "x.json", "--k", "2 "],
    ["refute", "--graph", "x.json", "--k", "2", "--alg", "min_heard", "--budget", "\u0661"],
    _CHECK[:-1] + ["-1"],
    _CHECK + ["--seed", "\u0663"],
    _CHECK + ["--seed", "1_0"],
    _CHECK + ["--seed", " 3"],
    _CHECK + ["--seed", "+3"],
    _CHECK + ["--seed", "-"],
)
# the k of the k >= 10 refute queries, one round below the bound
LARGE_K = (10, 12, 16)


def _workloads():
    """perfbench/workloads.py, which imports its sibling `reference` by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def large_k_specs() -> dict:
    """The sequences of the k >= 10 queries by file name: directed cycles of 5,
    24 and 32 nodes and a seeded random 32-node sequence of two rounds, cycled."""
    from knowall import DynamicGraphSpec, Extension, directed_cycle

    rng = random.Random(24)
    rounds = tuple(frozenset((u, v) for u in range(1, 33) for v in range(1, 33)
                             if u != v and rng.random() < 0.03) for _ in range(2))
    return {"c5.json": directed_cycle(5), "c24.json": directed_cycle(24),
            "c32.json": directed_cycle(32),
            "r32.json": DynamicGraphSpec(32, rounds, extension=Extension.CYCLE)}


def large_k_queries(directory: Path) -> list[list[str]]:
    """Write large_k_specs into `directory`; the argv of the k >= 10 queries.

    Every built-in is refuted one round below the bound at each k of LARGE_K
    on the 24- and 32-node sequences.  `check` sweeps the 5-cycle
    exhaustively at k = 10, and samples the 32-cycle at k = 12 with
    min_heard at budget 0 and the random sequence with flooding at its bound.
    """
    from knowall import builtin_algorithms, min_rounds, save_graph_file

    specs = large_k_specs()
    for name, spec in specs.items():
        save_graph_file(spec, str(directory / name))
    argvs = [["refute", "--graph", name, "--k", str(k), "--alg", alg.name,
              "--budget", str(min_rounds(spec, k) - 1)]
             for name, spec in specs.items() if spec.n > 5
             for k in LARGE_K for alg in builtin_algorithms()]
    check = ["check", "--graph"]
    return argvs + [
        check + ["c5.json", "--k", "10", "--alg", "min_heard", "--budget", "1", "--exhaustive"],
        check + ["c32.json", "--k", "12", "--alg", "min_heard", "--budget", "0"],
        check + ["r32.json", "--k", "12", "--alg", "flood_dominator",
                 "--budget", str(min_rounds(specs["r32.json"], 12))]]


def _readme(directory: Path) -> list[list[str]]:
    """Write the README's graph files into `directory`; its `$ knowall` commands, pipes cut."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for name, graph in re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", text, re.S):
        (directory / name).write_text(graph + "\n", encoding="utf-8")
    return [shlex.split(line[2:].split("|")[0])[1:] for line in text.splitlines()
            if line.startswith("$ knowall ")]


def _groups(root: Path) -> list[tuple[str, Path, list[list[str]]]]:
    """(group, directory the argv are run in, argv lists), graph files written."""
    workloads = _workloads()
    groups = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            directory = root / f"{name}-{seed}"
            directory.mkdir()
            _, queries = workloads.write(name, seed, directory)
            groups.append((f"{name}/{seed}", directory, [list(q.argv) for q in queries]))
    for name in workloads.WORKLOADS:
        groups.append((f"closure/{name}", root / f"{name}-{SEEDS[0]}",
                       [["closure", "--graph", graph, *options]
                        for graph in CLOSURE_FILES for options in CLOSURE_OPTIONS]))
    large = root / "large_k"
    large.mkdir()
    groups.append(("large_k", large, large_k_queries(large)))
    readme = root / "readme"
    readme.mkdir()
    groups.append(("readme", readme, _readme(readme)))
    groups.append(("usage", root, [list(argv) for argv in USAGE_ERRORS]))
    return groups


def _digest(argv: list[str]) -> str:
    """Digest of one in-process CLI call: argv, exit code, stdout and stderr."""
    from knowall.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()[:16]


def replay() -> dict[str, list[tuple[list[str], str]]]:
    """Every query's (argv, digest), by group, in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            result = {}
            for group, directory, argvs in _groups(Path(tmp)):
                os.chdir(directory)
                result[group] = [(argv, _digest(argv)) for argv in argvs]
        finally:
            os.chdir(cwd)
    return result


def differences(replayed: dict, golden: dict) -> list[str]:
    """Per group, the first argv whose digest differs from `golden`; groups
    missing on either side, and lengths that differ."""
    found = [f"{group}: not in the golden file" for group in replayed if group not in golden]
    found += [f"{group}: not replayed" for group in golden if group not in replayed]
    for group, queries in replayed.items():
        expected = golden.get(group)
        if expected is None:
            continue
        for i, (argv, digest) in enumerate(queries):
            if i >= len(expected) or digest != expected[i]:
                found.append(f"{group}: query {i} differs: knowall {shlex.join(argv)}")
                break
        else:
            if len(expected) != len(queries):
                found.append(f"{group}: {len(queries)} queries replayed, "
                             f"{len(expected)} in the golden file")
    return found


def main(argv: list[str]) -> int:
    if argv not in (["--check"], ["--write"]):
        print("usage: golden.py --check | --write", file=sys.stderr)
        return 2
    replayed = replay()
    total = sum(len(queries) for queries in replayed.values())
    if argv == ["--write"]:
        digests = {group: [d for _, d in queries] for group, queries in replayed.items()}
        GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {total} digests in {len(replayed)} groups to {GOLDEN.name}")
        return 0
    found = differences(replayed, json.loads(GOLDEN.read_text(encoding="utf-8")))
    for line in found:
        print(line)
    print(f"{total} queries replayed, {len(found)} groups differ "
          f"(Python {sys.version.split()[0]})")
    return 1 if found else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
