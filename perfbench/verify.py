"""Verifiers for the answers of the three CLI queries.

Each verifier returns OK, REFUSED or WRONG plus a note. REFUSED is an
honest operational refusal (the CLI's 64-round default cap on a spec
whose true bound lies beyond it); WRONG is a false or malformed answer,
an unexpected exit code or a crash. Both count against `ok_ratio`.

`bound` answers are checked against closures and dominating sets that
reference.py computes from the JSON rounds. `check` failures and `refute`
witnesses are re-simulated through knowall's protocol.run alone, never
through the oracle or kuhn layers that produced them.
"""
from __future__ import annotations

import json
import random

from reference import dominated_within, reach_sets, tight_bound

OK, REFUSED, WRONG = "ok", "refused", "wrong"
CLI_DEFAULT_MAX_ROUNDS = 64
# flooding at its bound is re-run on this many sampled configurations
PASS_SAMPLES = 4


def parse(stdout: str) -> dict | None:
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def verify_bound(doc: dict, k: int, code: int, stdout: str) -> tuple[str, str]:
    n = doc["n"]
    if code == 2 and not stdout:
        r = tight_bound(doc, k)
        if r > CLI_DEFAULT_MAX_ROUNDS:
            return REFUSED, f"true bound {r}"
        return WRONG, f"refused although the bound {r} is within the default cap"
    out = parse(stdout)
    if code != 0 or out is None:
        return WRONG, f"exit {code}"
    r, members, gammas = out.get("r"), out.get("dominating_set"), out.get("gamma_by_round")
    if not (isinstance(r, int) and r >= 1 and isinstance(members, list)
            and isinstance(gammas, list) and len(gammas) == r
            and all(isinstance(g, int) for g in gammas)):
        return WRONG, "malformed answer"
    if any(a < b for a, b in zip(gammas, gammas[1:])):
        return WRONG, "gamma_by_round increases"
    if gammas[-1] > k or (r > 1 and gammas[-2] <= k):
        return WRONG, "gamma_by_round does not cross k at r"
    if len(set(members)) != len(members) or len(members) != gammas[-1] \
            or not all(isinstance(d, int) and 1 <= d <= n for d in members):
        return WRONG, "dominating set is not a set of gamma_r nodes"
    reach = reach_sets(doc, r)
    if set().union(*(reach[d - 1] for d in members)) != set(range(1, n + 1)):
        return WRONG, "set does not dominate H_r"
    if r > 1 and dominated_within(reach_sets(doc, r - 1), k):
        return WRONG, "H_(r-1) is already dominated by k nodes"
    return OK, f"r={r}"


def verify_check(knowall, doc: dict, query, code: int, stdout: str) -> tuple[str, str]:
    n, k = doc["n"], query.k
    out = parse(stdout)
    if code not in (0, 1) or out is None:
        return WRONG, f"exit {code}"
    count, passed = out.get("failure_count"), out.get("passed")
    if out.get("mode") != "exhaustive" or out.get("configs_checked") != (k + 1) ** n:
        return WRONG, "configs_checked is not (k+1)^n"
    if not isinstance(count, int) or passed is not (count == 0) or code != (0 if passed else 1):
        return WRONG, "inconsistent pass/fail fields"
    spec = knowall.spec_from_dict(doc)
    alg = knowall.algorithm_by_name(query.alg)
    if query.budget >= query.bound:
        if not passed:
            return WRONG, "flooding failed at its bound"
        rng = random.Random(query.graph)
        for _ in range(PASS_SAMPLES):
            cfg = [rng.randrange(k + 1) for _ in range(n)]
            report = knowall.run(spec, k, alg, cfg, query.budget)
            if not (report.valid and report.agreeing):
                return WRONG, f"passing check, but {cfg} fails on re-simulation"
        return OK, "passed"
    first = out.get("first_failure")
    if passed or not isinstance(first, dict):
        return WRONG, "passed below the bound, where every algorithm fails"
    config = first.get("config")
    if not isinstance(config, str) or len(config) != n or not all(ch.isdigit() and int(ch) <= k for ch in config):
        return WRONG, "malformed first_failure"
    report = knowall.run(spec, k, alg, [int(ch) for ch in config], query.budget)
    if report.valid and report.agreeing:
        return WRONG, f"first_failure {config} passes on re-simulation"
    if [list(report.outputs), report.valid, report.agreeing] != \
            [first.get("outputs"), first.get("valid"), first.get("agreeing")]:
        return WRONG, f"first_failure {config} re-simulates to other outputs"
    return OK, f"{count} failures"


def verify_refute(knowall, doc: dict, query, code: int, stdout: str) -> tuple[str, str]:
    n, k = doc["n"], query.k
    out = parse(stdout)
    if code != 1 or out is None:
        return WRONG, f"exit {code}"
    config, nodes, outputs = out.get("config", ""), out.get("nodes"), out.get("outputs")
    if out.get("budget") != query.budget or out.get("verified") is not True \
            or not isinstance(config, str) or len(config) != n \
            or not all(ch.isdigit() and int(ch) <= k for ch in config) \
            or not isinstance(nodes, list) or not isinstance(outputs, list) \
            or len(nodes) != len(outputs) \
            or not all(isinstance(w, int) and 1 <= w <= n for w in nodes):
        return WRONG, "malformed witness"
    values = [int(ch) for ch in config]
    report = knowall.run(knowall.spec_from_dict(doc), k, knowall.algorithm_by_name(query.alg),
                         values, query.budget)
    if [report.outputs[w - 1] for w in nodes] != outputs:
        return WRONG, "witness outputs do not re-simulate"
    kind = out.get("kind")
    if kind == "AgreementViolation" and len(nodes) == k + 1 and len(set(outputs)) == k + 1:
        return OK, kind
    if kind == "ValidityViolation" and len(nodes) == 1 and outputs[0] not in values:
        return OK, kind
    return WRONG, f"{kind} witness does not violate its property"
