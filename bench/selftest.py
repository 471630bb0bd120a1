"""Self-test of the benchmark at tiny sizes (n <= 5, a few dozen queries).

Usage (from the repository root): python3 bench/selftest.py

Checks that every metric declared in BENCHMARK.json is printed with its
unit, in both the untraced and the traced mode, that the tiny workloads
report no failures, that a corrupted pinned digest, count or population
is counted in fail_frac, and that a wrong chain or fast verdict in the
query stream is rejected by its check.  Exits 0 when every check holds.  It
takes a few seconds and is not part of the package's test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "chain-5": {
        "job": "poset", "kind": "chain", "n": 5, "limit": 5,
        "digest": "070233f794e420f1a3ea47a5e030d846c4277734614defe02d47358c221283ae",
        "counts": {"orders.chain_leq_pairs": 177, "orders.hasse_edges": 46},
    },
    "duflo-5": {
        "job": "poset", "kind": "duflo", "n": 5, "limit": 5,
        "digest": "b18ae161e44ccc750a0a2dd0229bba239e8de8b904096efa9e1c24e5459dd44e",
        "counts": {"orders.duflo_base_pairs": 175, "orders.duflo_leq_pairs": 177,
                   "orders.hasse_edges": 46},
    },
    "twocol-5": {
        "job": "twocol", "n": 5, "limit": 5, "suite": "thm311", "population": 100,
        "digest": "f2fda45e4f10f18a967e5354c717b0f343f8d3261a1710a342694c57902f4b4e",
    },
    "query-mix": {"job": "queries", "n": 5, "queries": 40, "pool": 4, "reuse": 0.5},
}

CORRUPTED = {
    "chain-5": {**TINY["chain-5"], "digest": "0" * 64},
    "duflo-5": {**TINY["duflo-5"], "counts": {"orders.duflo_base_pairs": 176}},
    "twocol-5": {**TINY["twocol-5"], "population": 99},
}


def run_one(workloads: dict, name: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1",
                         "--trace", str(trace)], workloads=workloads)
    if code != 0:
        raise SystemExit(f"selftest: {name} exited {code}")
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def wrong_verdicts_accepted() -> list[str]:
    """Queries of the tiny stream whose check accepts a wrong verdict."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import child

    wrong = {"Less": "Greater", "Greater": "Less", "Incomparable": "Less", "Equal": "Incomparable"}
    queries = [q for q in run.make_queries(TINY["query-mix"], 7) if q.startswith(("chain", "fast"))]
    accepted = [q for q in queries if child.query_ok(q, wrong[child.answer(q)])]
    return accepted if queries else ["the tiny stream has no chain or fast queries"]


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for name in TINY:
            lines, result = run_one(TINY, name, trace)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} failed")
            if set(result["metrics"]) != {m["name"] for m in declared[group]}:
                problems.append(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            for metric in declared[group]:
                key, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(key, {})
                printed = any(line.startswith(f"{name}: {key} = ") and line.endswith(f" {unit}")
                              for line in lines)
                if got.get("unit") != unit or not printed:
                    problems.append(f"{name} trace={trace}: {key} not reported in {unit}")
    for name in CORRUPTED:
        _, result = run_one(CORRUPTED, name, 0)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"corrupted {name}: fail_frac stayed 0")
    problems += [f"wrong verdict accepted: {q}" for q in wrong_verdicts_accepted()]
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
