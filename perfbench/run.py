"""knowall benchmark: cold CLI time-to-answer on bound, check and refute.

Usage (from the repository root):

  python3 perfbench/run.py --workload bound --seed 1 --seconds 30 --trace 0

The run writes the workload's seeded graph files, then starts fresh worker
processes one after another, each of which answers every query of the
workload through knowall.cli.main in-process. Every worker is a cold
process, so each query pays for its own derived data, as a CLI call
does. Workers repeat until --seconds are used up (at least three). Times
are scaled to the host's fast speed by a reference work timed around each
query (see scaled_times), and a query counts its fastest cold run.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced worker, the
tracing overhead and a cross-check of the tracer against cProfile. The
line before it is a report with the details behind the numbers.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402

MIN_WORKERS = 3
# nominal time of the workers' reference work at the host's fast speed, and
# the reference timings on each side of a query that set its scale
REFERENCE_S = 0.36e-3
WINDOW = 3
# extra processes per run that only import knowall, for a steadier setup_s
SETUP_PROBES = 7
# a run must end within 180 s; leave room for verification
DEADLINE_S = 165
PER_LAYER = (
    "dyngraph.closure.calls", "dyngraph.closure.distinct", "dyngraph.closure.self_s",
    "dyngraph.min_dominating_set.calls", "dyngraph.min_dominating_set.distinct",
    "dyngraph.min_dominating_set.self_s",
    "dyngraph.min_rounds.calls", "dyngraph.min_rounds.self_s",
    "protocol.view_of.calls", "protocol.view_of.self_s", "protocol.view_reuse",
    "protocol.decide.calls", "protocol.decide.self_s",
    "protocol.run.calls", "protocol.run.self_s",
    "oracle.exhaustive_check.self_s", "oracle.failures",
    "kuhn.assign_node.calls", "kuhn.assign_node.self_s",
    "kuhn.color.calls", "kuhn.color.self_s", "kuhn.inp.calls",
    "kuhn.carrier.calls", "kuhn.carrier.self_s",
    "kuhn.check_sperner.self_s", "kuhn.check_sperner.vertices",
    "kuhn.find_panchromatic.self_s", "kuhn.find_panchromatic.cells",
    "refuter.resim.calls", "refuter.resim.self_s",
    "cli.load_graph_file.self_s",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


END_TO_END_UNITS = {"setup_s": "s", "query_s_p50": "s", "query_s_p90": "s", "total_s": "s",
                    "ok_ratio": "1", "peak_rss_mb": "MiB"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_reuse") or name.endswith("_gap"):
        return "1"
    return "count"


def start_worker(job: dict, job_file: Path, deadline: float) -> dict:
    job_file.write_text(json.dumps(job), encoding="utf-8")
    # one hash seed gives every worker the same dict and set layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic()
    remaining = deadline - spawn
    if remaining <= 0:
        raise BenchError("out of time before a worker could start")
    # -S: knowall needs only the standard library; skipping site keeps an
    # installed copy of knowall and unrelated .pth imports out of set-up
    try:
        proc = subprocess.run(
            [sys.executable, "-S", str(HERE / "worker.py"), str(SRC), str(job_file), repr(spawn)],
            capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {job['mode']} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def verify_one(knowall, workload: str, doc: dict, query, code: int, out: str) -> tuple[str, str]:
    try:
        if workload == "bound":
            return verify.verify_bound(doc, query.k, code, out)
        if workload == "check":
            return verify.verify_check(knowall, doc, query, code, out)
        return verify.verify_refute(knowall, doc, query, code, out)
    except Exception as exc:  # the program under test failed while re-simulating
        return verify.WRONG, f"verification raised {type(exc).__name__}: {exc}"


def verify_all(knowall, workload: str, docs: list, queries: list, result: dict) -> list:
    return [verify_one(knowall, workload, doc, query, code, out)
            for doc, query, code, out in zip(docs, queries, result["codes"], result["stdout"])]


def same_answers(first: dict, other: dict, statuses: list) -> list:
    """A query whose stdout or exit code differs between workers is wrong."""
    return [(verify.WRONG, "answer differs between processes")
            if (a, b) != (c, d) else status
            for status, a, b, c, d in zip(statuses, first["codes"], first["stdout"],
                                          other["codes"], other["stdout"])]


def properties(workload: str, docs: list, queries: list, result: dict, statuses: list) -> dict:
    """Share of the workload with the property an optimisation depends on."""
    count = len(queries)
    if workload == "bound":
        # a refusal counts as refused only when the true bound exceeds 64
        refused = sum(s == verify.REFUSED for s, _ in statuses)
        long = sum(json.loads(out)["r"] > 16
                   for (s, _), out in zip(statuses, result["stdout"]) if s == verify.OK)
        return {"share_r_above_16": (long + refused) / count,
                "share_r_above_64": refused / count}
    if workload == "check":
        failing = sum((verify.parse(out) or {}).get("passed") is False
                      for out in result["stdout"])
        return {"share_failing": failing / count}
    sizes = sorted(workloads.vertex_count(d["n"], q.k) for d, q in zip(docs, queries))
    return {"vertices_min": sizes[0], "vertices_median": statistics.median(sizes),
            "vertices_max": sizes[-1]}


def scaled_times(run: dict) -> list[float]:
    """A worker's query times at the reference speed.

    The host runs in speed phases of 5-20 s in which all Python code is up
    to 1.7 times slower. The worker times a fixed reference work before
    and after every query; each query's wall time is multiplied by
    REFERENCE_S over the median reference time in a window around it.
    """
    times, ref = run["times"], run["reference_s"]
    return [t * REFERENCE_S / statistics.median(ref[max(0, i - WINDOW):i + WINDOW + 2])
            for i, t in enumerate(times)]


def percentile_90(samples: list[float]) -> tuple[float, int]:
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90, sum(1 for s in samples if s > p90)


def module_shares(seconds: dict) -> dict:
    total = sum(seconds.values()) or 1.0
    return {m: s / total for m, s in sorted(seconds.items())}


def measure(args, knowall, docs, queries, job_base, work: Path, deadline: float):
    job_file = work / "job.json"
    probes = [start_worker(dict(job_base, mode="setup"), job_file, deadline)
              for _ in range(SETUP_PROBES)]
    started = time.monotonic()
    runs = []
    while True:
        runs.append(start_worker(dict(job_base, mode="plain"), job_file, deadline))
        elapsed = time.monotonic() - started
        if len(runs) >= MIN_WORKERS and elapsed * (len(runs) + 1) / len(runs) > args.seconds:
            break
    statuses = verify_all(knowall, args.workload, docs, queries, runs[0])
    for other in runs[1:]:
        statuses = same_answers(runs[0], other, statuses)
    per_query = [min(times) for times in zip(*(scaled_times(r) for r in runs))]
    raw = [min(times) for times in zip(*(r["times"] for r in runs))]
    p90, beyond = percentile_90(per_query)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["setup_reference_s"]
                                     for r in probes + runs),
        "query_s_p50": statistics.median(per_query),
        "query_s_p90": p90,
        "total_s": sum(per_query),
        "ok_ratio": sum(s == verify.OK for s, _ in statuses) / len(queries),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    report = {"workers": len(runs), "queries": len(queries),
              "p90_samples": len(per_query), "p90_beyond": beyond,
              "worker_total_s": [sum(r["times"]) for r in runs],
              "reference_s_median": statistics.median(x for r in runs for x in r["reference_s"]),
              "wall": {"setup_s": statistics.median(r["setup_s"] for r in probes + runs),
                       "query_s_p50": statistics.median(raw),
                       "query_s_p90": percentile_90(raw)[0], "total_s": sum(raw)},
              "properties": properties(args.workload, docs, queries, runs[0], statuses)}
    return metrics, statuses, report


def measure_traced(args, knowall, docs, queries, job_base, work: Path, deadline: float):
    job_file = work / "job.json"
    plain = start_worker(dict(job_base, mode="plain"), job_file, deadline)
    traced = start_worker(dict(job_base, mode="trace"), job_file, deadline)
    statuses = same_answers(plain, traced, verify_all(knowall, args.workload, docs, queries, plain))
    index = max(range(len(queries)), key=lambda i: traced["query_calls"][i])
    profiled = start_worker(dict(job_base, mode="profile", index=index), job_file, deadline)
    traced_share = module_shares(traced["query_module_s"][index])
    profile_share = module_shares(profiled["module_s"])
    modules = sorted(set(traced_share) | set(profile_share))
    gap = max(abs(traced_share.get(m, 0.0) - profile_share.get(m, 0.0)) for m in modules)
    counters = traced["counters"]
    metrics = {name: counters.get(name, 0) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = sum(scaled_times(traced)) / sum(scaled_times(plain))
    metrics["trace.cprofile_gap"] = gap
    totals: dict = {}
    for per_query in traced["query_module_s"]:
        for m, s in per_query.items():
            totals[m] = totals.get(m, 0.0) + s
    report = {"absent": traced["absent"], "module_share": module_shares(totals),
              "cross_check": {"query": queries[index].argv, "tracer": traced_share,
                              "cprofile": profile_share, "max_gap": gap},
              "properties": properties(args.workload, docs, queries, plain, statuses)}
    return metrics, statuses, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "knowall" / "__init__.py").is_file():
        print(f"error: no knowall package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knowall

    if not Path(knowall.__file__).resolve().is_relative_to(SRC):
        print(f"error: knowall was imported from {knowall.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        docs, queries = workloads.write(args.workload, args.seed, work)
        job_base = {"dir": str(work), "queries": [list(q.argv) for q in queries]}
        measure_fn = measure_traced if args.trace else measure
        metrics, statuses, report = measure_fn(args, knowall, docs, queries, job_base,
                                               work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wrong = [(q.argv, note) for q, (s, note) in zip(queries, statuses) if s == verify.WRONG]
    refused = [(q.argv, note) for q, (s, note) in zip(queries, statuses) if s == verify.REFUSED]
    report.update(workload=args.workload, seed=args.seed, wrong=wrong[:10], refused=refused)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(queries),
        "failed": len(wrong) + len(refused),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
