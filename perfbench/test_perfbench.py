"""Self-tests of the benchmark. Run from the repository root:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import knowall  # noqa: E402
import knowall.cli  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


class WorkDir:
    """A scratch directory under the benchmark's own work directory."""

    def __enter__(self) -> Path:
        run.WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=run.WORK))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()


def answer(directory: Path, query: workloads.Query) -> tuple[int, str]:
    argv = [str(directory / a) if a == query.graph else a for a in query.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = knowall.cli.main(argv)
    return code, out.getvalue()


class Generation(unittest.TestCase):
    def test_same_seed_gives_identical_files_and_argv(self):
        for name in workloads.WORKLOADS:
            with WorkDir() as a, WorkDir() as b:
                _, qa = workloads.write(name, 7, a)
                _, qb = workloads.write(name, 7, b)
                self.assertEqual([q.argv for q in qa], [q.argv for q in qb])
                for q in qa:
                    self.assertEqual((a / q.graph).read_bytes(), (b / q.graph).read_bytes())

    def test_other_seed_gives_other_graphs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual([d for d, _ in workloads.build(name, 1)],
                                [d for d, _ in workloads.build(name, 2)])

    def test_specs_are_distinct(self):
        for name in workloads.WORKLOADS:
            docs = [json.dumps(d, sort_keys=True) for d, _ in workloads.build(name, 3)]
            self.assertEqual(len(docs), len(set(docs)))

    def test_enough_queries_for_a_90th_percentile(self):
        for name in workloads.WORKLOADS:
            self.assertGreaterEqual(len(workloads.build(name, 1)), 100)


class Tracing(unittest.TestCase):
    def test_two_traced_runs_give_identical_counters(self):
        for name in workloads.WORKLOADS:
            with WorkDir() as d:
                _, queries = workloads.write(name, 5, d)
                # the first and the last queries cover each workload's size range
                picked = queries[:3] + queries[-3:]
                job = {"dir": str(d), "mode": "trace", "queries": [list(q.argv) for q in picked]}
                deadline = time.monotonic() + 120
                first = run.start_worker(job, d / "job.json", deadline)
                second = run.start_worker(job, d / "job.json", deadline)
            counts = {k: v for k, v in first["counters"].items() if not k.endswith("_s")}
            self.assertTrue(counts)
            self.assertEqual(counts, {k: v for k, v in second["counters"].items()
                                      if not k.endswith("_s")})
            self.assertEqual(first["absent"], [])
            self.assertEqual(first["stdout"], second["stdout"])

    def test_tracer_leaves_answers_unchanged(self):
        with WorkDir() as d:
            _, queries = workloads.write("refute", 5, d)
            job = {"dir": str(d), "queries": [list(q.argv) for q in queries[:4]]}
            deadline = time.monotonic() + 120
            plain = run.start_worker(dict(job, mode="plain"), d / "job.json", deadline)
            traced = run.start_worker(dict(job, mode="trace"), d / "job.json", deadline)
        self.assertEqual(plain["stdout"], traced["stdout"])
        self.assertEqual(traced["counters"]["refuter.resim.calls"], 4)


class Verifiers(unittest.TestCase):
    """Each verifier accepts the real answer and rejects altered ones."""

    def first_answer(self, name: str, pick=lambda q: True):
        work = WorkDir()
        directory = work.__enter__()
        self.addCleanup(work.__exit__)
        docs, queries = workloads.write(name, 11, directory)
        doc, query = next((d, q) for d, q in zip(docs, queries) if pick(q))
        code, out = answer(directory, query)
        return doc, query, code, json.loads(out)

    def judge(self, name, doc, query, code, out) -> str:
        text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        if name == "bound":
            return verify.verify_bound(doc, query.k, code, text)[0]
        if name == "check":
            return verify.verify_check(knowall, doc, query, code, text)[0]
        return verify.verify_refute(knowall, doc, query, code, text)[0]

    def assert_rejects(self, name, doc, query, code, out, alterations):
        self.assertEqual(self.judge(name, doc, query, code, out), verify.OK)
        for alter in alterations:
            wrong = json.loads(json.dumps(out))
            alter(wrong)
            with self.subTest(name=name, alteration=alter):
                self.assertEqual(self.judge(name, doc, query, code, wrong), verify.WRONG)

    def test_bound(self):
        doc, query, code, out = self.first_answer("bound", lambda q: q.k >= 2)

        def drop_member(o):
            o["dominating_set"].pop()
            o["gamma_by_round"][-1] -= 1

        def later_round(o):
            o["r"] += 1
            o["gamma_by_round"].append(o["gamma_by_round"][-1])

        def earlier_round(o):
            o["r"] -= 1
            o["gamma_by_round"].pop()

        def outside(o):
            o["dominating_set"][0] = doc["n"] + 1

        self.assertGreater(out["r"], 1)
        self.assert_rejects("bound", doc, query, code, out,
                            [drop_member, later_round, earlier_round, outside])
        self.assertEqual(verify.verify_bound(doc, query.k, 2, "")[0], verify.WRONG)

    def test_check(self):
        for pick in (lambda q: q.budget == q.bound, lambda q: q.budget < q.bound):
            doc, query, code, out = self.first_answer("check", pick)

            def count(o):
                o["configs_checked"] -= 1

            def flip(o):
                o["passed"] = not o["passed"]

            def first_passes(o):
                o["failure_count"], o["passed"] = 1, False
                o["first_failure"] = {"config": "0" * doc["n"], "outputs": [0] * doc["n"],
                                      "valid": True, "agreeing": False}

            self.assert_rejects("check", doc, query, code, out, [count, flip, first_passes])

    def test_refute(self):
        doc, query, code, out = self.first_answer("refute")

        def output(o):
            o["outputs"][0] = (o["outputs"][0] + 1) % (query.k + 1)

        def node(o):
            o["nodes"][-1] = o["nodes"][0]

        def config(o):
            o["config"] = "0" * doc["n"]

        self.assert_rejects("refute", doc, query, code, out, [output, node, config])


if __name__ == "__main__":
    unittest.main()
