"""One fresh process that runs a workload's queries through knowall.cli.main.

Usage: worker.py SRC_DIR JOB_FILE SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process. CLOCK_MONOTONIC is system-wide on Linux, so the time from then
until knowall and knowall.cli are imported is the set-up time. The job
file names the query directory, the argv lists and the mode:

  "setup"   nothing beyond the imports
  "plain"   time every query, keeping its stdout and exit code
  "trace"   the same under the per-layer tracer
  "profile" one query under cProfile; reports tottime per knowall module

Every mode times a fixed reference work right after the imports; plain
and trace also time it after every query. run.py scales times by it.
One JSON object is written to stdout at the end.
"""
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def reference_work() -> int:
    """Fixed arithmetic that allocates no containers and never calls knowall."""
    acc = 0
    for i in range(2000):
        acc = (acc ^ i * 2654435761) & 0xFFFFF
        acc += (acc & -acc).bit_length()
    return acc


def reference_s() -> float:
    """Fastest of three timings of reference_work, with the collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def run_query(main, argv: list[str]) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a wrong answer, not a benchmark error
            code = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import knowall.cli

    setup_s = time.monotonic() - float(sys.argv[3])
    if not os.path.abspath(knowall.__file__).startswith(os.path.abspath(sys.argv[1])):
        sys.exit(f"knowall was imported from {knowall.__file__}, not {sys.argv[1]}")
    with open(sys.argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    os.chdir(job["dir"])
    queries = job["queries"]
    # the reference right after the imports scales the set-up time
    result: dict = {"setup_s": setup_s, "setup_reference_s": reference_s()}

    if job["mode"] == "profile":
        import cProfile
        import pstats

        from tracer import module_tottime

        profiler = cProfile.Profile()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            profiler.runcall(knowall.cli.main, queries[job["index"]])
        stats = pstats.Stats(profiler).stats
        result["module_s"] = module_tottime(stats, os.path.dirname(knowall.__file__))
    elif job["mode"] in ("plain", "trace"):
        tracer = None
        if job["mode"] == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        times, codes, outs = [], [], []
        reference = [result["setup_reference_s"]]
        for argv in queries:
            if tracer:
                tracer.begin_query()
            elapsed, code, out = run_query(knowall.cli.main, argv)
            if tracer:
                tracer.end_query()
            reference.append(reference_s())
            times.append(elapsed)
            codes.append(code)
            outs.append(out)
        result.update(times=times, reference_s=reference, codes=codes, stdout=outs)
        if tracer:
            result.update(counters=tracer.counters(), absent=tracer.absent,
                          query_module_s=tracer.query_module_self,
                          query_calls=tracer.query_calls)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
