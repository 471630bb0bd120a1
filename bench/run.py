"""Benchmark of the tableaux package: cold poset builds, a two-column verify
and a seeded query stream.

Usage (from the repository root):

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --workload duflo-8 --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload query-mix --trace 1

Each job runs in a fresh, single-threaded child process (``child.py``), one
child at a time, so the package's caches start cold.  Jobs repeat until the
next one would end after ``--seconds``; every run makes at least one.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
jobs run under the outside-in tracer and the per-layer metrics are
reported.  The last line of standard output is one JSON object; the lines
before it give every metric by name with its unit.  NOTES.md says why each
workload was chosen and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import combinatorics as comb

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 15
RUN_BUDGET_S = 170.0

# Pinned work per workload.  Limits and suite names are explicit, so later
# changes to the package's defaults do not change what a workload does.
# Digests and counts were recorded at the commit that added this benchmark.
WORKLOADS = {
    "chain-8": {
        "job": "poset", "kind": "chain", "n": 8, "limit": 8,
        "digest": "e867518fefeb9d17b6c75b1543bc9d7bddb9baaf4149e82306f12476882f0420",
        "counts": {"orders.chain_leq_pairs": 40983, "orders.hasse_edges": 2460},
    },
    "duflo-8": {
        "job": "poset", "kind": "duflo", "n": 8, "limit": 8,
        "digest": "ec4253d9bbe4209b45dc59d0264b5e456fd5d24c53cac365a95a16098a37ba07",
        "counts": {"orders.duflo_base_pairs": 35779, "orders.duflo_leq_pairs": 39787,
                   "orders.hasse_edges": 2498},
    },
    "twocol-9": {
        "job": "twocol", "n": 9, "limit": 9, "suite": "thm311", "population": 15876,
        "digest": "9b70d7c7a53143f8bf071ef68cfb07ccabbd0a3653edcc0a4ad4552de7f7f288",
    },
    "query-mix": {
        "job": "queries", "n": 14, "queries": 8000, "pool": 48, "reuse": 0.5,
    },
}

QUERY_KINDS = ("rs", "chain", "fast", "word", "cover", "project")


def make_queries(spec: dict, seed: int) -> list[str]:
    """The query stream of one session, from the seed alone.

    Tableaux are uniform random standard tableaux (hook walk) of a uniform
    random shape.  Half of the tableau arguments come from a fixed pool, so
    the package's caches see repeated and distinct inputs.
    """
    rng = random.Random(seed)
    n = spec["n"]
    shapes = comb.partitions(n)
    narrow = comb.two_column_shapes(n)

    def fresh(family):
        return comb.row_text(comb.hook_walk(rng.choice(family), rng))

    pools = {id(f): [fresh(f) for _ in range(spec["pool"])] for f in (shapes, narrow)}

    def draw(family):
        if rng.random() < spec["reuse"]:
            return rng.choice(pools[id(family)])
        return fresh(family)

    queries = []
    for _ in range(spec["queries"]):
        kind = rng.choice(QUERY_KINDS)
        if kind == "rs":
            word = rng.sample(range(1, n + 1), n)
            queries.append("rs [" + ",".join(map(str, word)) + "]")
        elif kind == "chain":
            queries.append(f"chain {draw(shapes)} | {draw(shapes)}")
        elif kind == "fast":
            queries.append(f"fast {draw(narrow)} | {draw(narrow)}")
        elif kind in ("word", "cover"):
            queries.append(f"{kind} {draw(narrow)}")
        else:
            s = rng.randint(1, n - 1)
            e = rng.randint(s + 1, n)
            queries.append(f"project {draw(shapes)} | {s} {e}")
    return queries


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TABLEAUX_LIMIT_N", "PYTHONOPTIMIZE")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_child(spec: dict, stdin: str, timeout: float) -> dict:
    """Start one child, wait for it, and return its JSON line plus the spawn
    time; a child that fails is returned as one failed operation."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        input=stdin, capture_output=True, text=True, env=child_env(),
        timeout=max(timeout, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": True, "ops": 1, "failed": 1,
                "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    result = json.loads(lines[-1])
    result["setup_s"] = result["import_done"] - spawned
    return result


def tail(values: list[float], q: float = 0.99, beyond: int = 10) -> float:
    """Nearest-rank q-th percentile, lowered until at least ``beyond``
    samples lie above it, but never below the median: with a few cold jobs
    per run the slowest job says more about the host than the program."""
    ordered = sorted(values)
    rank = min(math.ceil(q * len(ordered)), len(ordered) - beyond)
    return ordered[max(rank, len(ordered) // 2 + 1) - 1]


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result with every metric."""
    start = time.monotonic()
    base = {"root": str(ROOT), "name": name, "trace": trace, "out_dir": str(OUT_DIR)}
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child({**base, "job": "probe"}, "", RUN_BUDGET_S)
            if probe.get("crashed"):
                raise SystemExit(f"{name}: the package does not import: {probe['problems'][0]}")
            setups.append(probe["setup_s"])
    stdin = json.dumps(make_queries(spec, seed)) if spec["job"] == "queries" else ""
    job_spec = {**base, **spec}
    jobs = []
    measured = time.monotonic()
    while True:
        job_start = time.monotonic()
        remaining = RUN_BUDGET_S - (job_start - start)
        try:
            jobs.append(run_child({**job_spec, "first": not jobs}, stdin, remaining))
        except subprocess.TimeoutExpired:
            jobs.append({"crashed": True, "ops": 1, "failed": 1,
                         "problems": [f"job exceeded {remaining:.0f} s"]})
            break
        if jobs[-1].get("crashed"):
            break
        last = time.monotonic() - job_start
        if time.monotonic() - measured + last > seconds:
            break
    done = [j for j in jobs if not j.get("crashed")]
    for j in done[1:]:
        if j["info"] != done[0]["info"]:
            j["failed"] = j["ops"]
            j["problems"].append(f"answers differ from the run's first job: {j['info']}")
    attempted = sum(j["ops"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    problems = [p for j in jobs for p in j["problems"]]
    result = {
        "workload": name, "seed": seed, "jobs": len(jobs),
        "correct": failed == 0 and len(done) == len(jobs),
        "attempted": attempted, "failed": failed, "problems": problems[:10],
        "info": done[0]["info"] if done else {},
    }
    if not done:
        result["metrics"] = {}
    elif trace:
        layers = [j["layers"] for j in done]
        result["metrics"] = {key: statistics.median(layer[key] for layer in layers)
                             for key in layers[0]}
    else:
        latencies = [x for j in done for x in j["latencies"]]
        busy = sum(j["wall_s"] for j in done)
        setups += [j["setup_s"] for j in done]
        result["samples"] = {"setup": len(setups), "jobs": len(done),
                             "latencies": len(latencies)}
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(j["wall_s"] for j in done),
            "peak_rss_mb": statistics.median(j["rss_kb"] for j in done) / 1024,
            "queries_per_s": len(latencies) / busy,
            "query_p50_us": statistics.median(latencies) * 1e6,
            "query_p99_us": tail(latencies) * 1e6,
        }
    return result


def units() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}


def report(result: dict, unit_of: dict) -> dict:
    """Print one workload's metrics by name and unit; return the contract line."""
    name = result["workload"]
    for key, value in result["metrics"].items():
        print(f"{name}: {key} = {value:.6g} {unit_of.get(key, '')}")
    frac = result["failed"] / result["attempted"]
    print(f"{name}: fail_frac = {frac:.6g} ({result['failed']} of {result['attempted']} "
          f"operations failed or refused)")
    if "samples" in result:
        print(f"{name}: samples = {json.dumps(result['samples'])}")
    print(f"{name}: seed = {result['seed']}, answers = {json.dumps(result['info'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"{name}: FAILED {problem}")
    return {key: result[key] for key in ("correct", "attempted", "failed")} | {
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in result["metrics"].items()}
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tableaux" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'tableaux'}", file=sys.stderr)
        return 2
    unit_of = units()
    names = list(workloads) if args.workload == "all" else [args.workload]
    lines, records = {}, {}
    for name in names:
        result = measure(name, workloads[name], args.seed, args.seconds, bool(args.trace))
        lines[name] = report(result, unit_of)
        records[name] = {**lines[name], "answers": result["info"],
                         "samples": result.get("samples", {"jobs": result["jobs"]})}
    if args.workload == "all":
        print(json.dumps({"environment": environment(), "seconds": args.seconds,
                          "seed": args.seed, "trace": args.trace, "workloads": records}))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
