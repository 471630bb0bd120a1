"""One cold job of a benchmark workload, run in a fresh process.

Usage: python child.py SPEC_JSON < QUERIES_JSON

``run.py`` starts this script once per job, one at a time, so every
``lru_cache`` in the package starts empty, as on every CLI invocation.  The
package is imported first, so the time until the import returns is the
process's set-up time.  The job's answers are checked after the timed
region, with tracing switched off; the last line of standard output is one
JSON object for ``run.py``.
"""

import time

import tableaux as T

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import combinatorics as comb  # noqa: E402
from tracer import Tracer, calibrate, clock  # noqa: E402

# Per-layer self time: metric -> span name.
LAYER_SELF_S = {
    "words.enumerate_s": "words.enumerate_words",
    "rsjdt.all_cells_s": "rsjdt.all_cells",
    "tableau.enumerate_s": "tableau.enumerate_tableaux",
    "orders.chain_relation_s": "orders.chain_poset",
    "orders.chain_profile_s": "orders.chain_profile",
    "orders.duflo_build_s": "orders.duflo_poset",
    "orders.hasse_s": "orders.hasse_reduce",
    "orders.export_s": "orders.poset_to_json",
    "twocol.canonical_word_s": "twocol.canonical_word",
    "twocol.fast_leq_s": "twocol.fast_leq",
    "verify.thm311_s": "verify.run_suite",
}

# Median duration of the benchmark's direct calls: metric -> span names.
LAYER_CALL_US = {
    "rsjdt.rs_us": ("rsjdt.rs_tableau",),
    "rsjdt.project_us": ("rsjdt.project_tableau",),
    "orders.chain_us": ("orders.chain_leq",),
    "twocol.fast_us": ("twocol.fast_leq",),
    "twocol.word_us": ("twocol.canonical_word",),
    "twocol.cover_us": ("twocol.cover",),
    "textio.parse_us": ("textio.parse_tableau", "textio.parse_word"),
    "textio.format_us": ("textio.format_tableau", "textio.format_word"),
}

# Exact counts a job reports; 0 where the workload does not produce them.
JOB_COUNTS = (
    "orders.duflo_base_pairs", "orders.duflo_leq_pairs",
    "orders.closure_added_pairs", "orders.chain_leq_pairs",
    "orders.hasse_edges", "orders.export_bytes", "verify.thm311_population",
)


def popcount_rows(rows) -> int:
    return sum(row.bit_count() for row in rows)


def shape_counts_ok(nodes, shapes) -> bool:
    """Per-shape counts of ``nodes`` equal the hook-length formula on ``shapes``."""
    found = Counter(t.shape for t in nodes)
    return found == Counter({s: comb.hook_count(s) for s in shapes})


# ---------------------------------------------------------------- jobs
# A job returns what the timed region produced; its check, run after the
# timed region, returns (operations, failures, info).


def poset_job(spec):
    build = T.chain_poset if spec["kind"] == "chain" else T.duflo_poset
    poset = build(spec["n"], limit=spec["limit"])
    text = T.poset_to_json(poset)
    return poset, text


def check_poset(answers, spec):
    poset, text = answers
    counts = {"orders.hasse_edges": len(poset.hasse),
              "orders.export_bytes": len(text.encode())}
    leq = popcount_rows(poset.leq_rows)
    if poset.kind == "duflo":
        base = popcount_rows(poset.base_rows)
        counts.update({"orders.duflo_base_pairs": base, "orders.duflo_leq_pairs": leq,
                       "orders.closure_added_pairs": leq - base})
    else:
        counts["orders.chain_leq_pairs"] = leq
    digest = hashlib.sha256(text.encode()).hexdigest()
    failures = []
    if not shape_counts_ok(poset.nodes, comb.partitions(spec["n"])):
        failures.append("node count differs from the hook-length formula")
    if digest != spec["digest"]:
        failures.append(f"export digest {digest} != pinned {spec['digest']}")
    for key, want in spec["counts"].items():
        if counts[key] != want:
            failures.append(f"{key} = {counts[key]} != pinned {want}")
    info = {"population": len(poset.nodes), "export_sha256": digest, **counts}
    return 1, failures, info


def twocol_job(spec):
    n = spec["n"]
    report = T.run_suite(n, spec["suite"])
    nodes = list(T.enumerate_tableaux(n, max_columns=2, limit=spec["limit"]))
    words = [T.canonical_word(t).word for t in nodes]
    leq = [[T.fast_leq(t, s) for s in nodes] for t in nodes]
    covers = [T.cover(t) for t in nodes]
    return report, nodes, words, leq, covers


def check_twocol(answers, spec):
    report, nodes, words, leq, covers = answers
    n = spec["n"]
    failures = []
    (check,) = report.checks
    if not (check.name == spec["suite"] and check.passed
            and check.population == spec["population"]):
        failures.append(f"suite result: {check.line()}")
    if not (shape_counts_ok(nodes, comb.two_column_shapes(n))
            and len(nodes) == math.comb(n, n // 2)):
        failures.append("two-column count differs from C(n, n//2) or the hook-length formula")
    index = {t: i for i, t in enumerate(nodes)}
    lines = []
    for i, t in enumerate(nodes):
        if T.rs_tableau(words[i]) != t:
            failures.append(f"rs_tableau(canonical_word) != T for {T.row_text(t)}")
        for c in covers[i]:
            j = index.get(c)
            if j is None or not leq[i][j] or leq[j][i]:
                failures.append(f"cover element not strictly above {T.row_text(t)}")
        lines.append("\t".join([
            T.row_text(t), T.format_word(words[i]),
            "".join("1" if x else "0" for x in leq[i]),
            " | ".join(map(T.row_text, covers[i])),
        ]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if digest != spec["digest"]:
        failures.append(f"sweep digest {digest} != pinned {spec['digest']}")
    info = {"population": len(nodes), "verify.thm311_population": check.population,
            "sweep_sha256": digest}
    return 1, failures, info


def answer(query: str) -> str:
    kind, _, rest = query.partition(" ")
    args = [part.strip() for part in rest.split("|")]
    if kind == "rs":
        return T.format_tableau(T.rs_tableau(T.parse_word(args[0])))
    if kind in ("chain", "fast"):
        leq = T.chain_leq if kind == "chain" else T.fast_leq
        return str(T.compare(T.parse_tableau(args[0]), T.parse_tableau(args[1]), leq))
    if kind == "word":
        return T.format_word(T.canonical_word(T.parse_tableau(args[0])).word)
    if kind == "cover":
        return " | ".join(T.format_tableau(c) for c in T.cover(T.parse_tableau(args[0])))
    if kind == "project":
        s, e = map(int, args[1].split())
        return T.format_tableau(T.project_tableau(T.parse_tableau(args[0]), s, e))
    raise ValueError(f"unknown query kind {kind!r}")


def query_job(spec):
    queries = spec["queries"]
    answers, latencies = [], []
    for query in queries:
        started = clock()
        try:
            result = answer(query)
        except Exception as exc:  # a refused or failed query is counted, not fatal
            result = f"error: {type(exc).__name__}: {exc}"
        latencies.append(clock() - started)
        answers.append(result)
    return queries, answers, latencies


@functools.lru_cache(maxsize=None)
def profile_of(text: str) -> dict:
    return comb.chain_profile(comb.parse_rows(text))


def chain_verdict(a: str, b: str) -> str:
    """The chain-order verdict on two tableau texts, by the benchmark's own
    profiles."""
    if a == b:
        return "Equal"
    ab = comb.chain_leq(profile_of(a), profile_of(b))
    ba = comb.chain_leq(profile_of(b), profile_of(a))
    return "Incomparable" if ab == ba else "Less" if ab else "Greater"


def query_ok(query: str, result: str) -> bool:
    """Check one answer through a second route."""
    if result.startswith("error:"):
        return False
    kind, _, rest = query.partition(" ")
    args = [part.strip() for part in rest.split("|")]
    if kind == "rs":
        word = [int(v) for v in args[0].strip("[]").split(",")]
        return comb.parse_rows(result) == comb.insertion_tableau(word)
    if kind in ("chain", "fast"):
        return result == chain_verdict(args[0], args[1])
    if kind == "word":
        return T.row_text(T.rs_tableau(T.parse_word(result))) == args[0]
    if kind == "cover":
        above = [part.strip() for part in result.split("|")] if result else []
        return all(chain_verdict(args[0], c) == "Less" for c in above)
    if kind == "project":
        s, e = map(int, args[1].split())
        return comb.parse_rows(result) == comb.rectified(comb.parse_rows(args[0]), s, e)
    return False


def check_queries(answers, spec):
    """Every answer of the run's first session is checked; later sessions
    replay the same stream, and ``run.py`` requires their answers' digest
    to equal the first session's."""
    queries, results, _ = answers
    failures = [f"{q} -> {r}" for q, r in zip(queries, results)
                if spec["first"] and not query_ok(q, r)]
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    return len(queries), failures, {"answers_sha256": digest}


JOBS = {"poset": (poset_job, check_poset),
        "twocol": (twocol_job, check_twocol),
        "queries": (query_job, check_queries)}

# lru caches whose hit ratio the traced run reports.
CACHES = {"orders.chain_profile_hit_ratio": T.orders.chain_profile,
          "twocol.canonical_word_hit_ratio": T.twocol.canonical_word}


# ---------------------------------------------------------------- tracing

def hit_ratios() -> dict:
    out = {}
    for metric, fn in CACHES.items():
        stats = fn.cache_info()
        calls = stats.hits + stats.misses
        out[metric] = stats.hits / calls if calls else 0.0
    return out


def layer_metrics(tracer: Tracer, root, info: dict) -> dict:
    spans = [s for s in tracer.spans if s.id != root.id]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in tracer.spans}
    out = {m: sum(s.self_time for s in by_name.get(name, ())) for m, name in LAYER_SELF_S.items()}
    for metric, span_names in LAYER_CALL_US.items():
        direct = [s.busy for name in span_names for s in by_name.get(name, ())
                  if names.get(s.parent, "").startswith("bench.")]
        out[metric] = statistics.median(direct) * 1e6 if direct else 0.0
    out["tableau.count"] = sum(s.items for s in by_name.get("tableau.enumerate_tableaux", ()))
    for key in JOB_COUNTS:
        out[key] = info.get(key, 0)
    per_call, per_item = calibrate()
    items = sum(s.items for s in spans)
    out["trace.overhead_s"] = len(spans) * per_call + items * per_item
    out["trace.coverage"] = sum(out[m] for m in LAYER_SELF_S) / root.busy
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(T.__file__).startswith(src + os.sep):
        print(f"tableaux imported from {T.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"import_done": IMPORT_DONE}
    if spec["job"] == "probe":
        print(json.dumps(result))
        return 0
    if spec["job"] == "queries":
        spec["queries"] = json.load(sys.stdin)
    job, check = JOBS[spec["job"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install(T)
    with tracer.span("bench.job") if tracer else contextlib.nullcontext() as root:
        started = clock()
        answers = job(spec)
        wall = clock() - started
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        ratios = hit_ratios()
    ops, failures, info = check(answers, spec)
    latencies = answers[2] if spec["job"] == "queries" else [wall]
    result.update(wall_s=wall, rss_kb=rss_kb, ops=ops, failed=min(len(failures), ops),
                  problems=failures[:5], info=info, latencies=latencies)
    if tracer:
        result["layers"] = {**layer_metrics(tracer, root, info), **ratios}
        os.makedirs(spec["out_dir"], exist_ok=True)
        path = os.path.join(spec["out_dir"], f"{spec['name']}.spans.jsonl")
        with open(path, "w") as fh:
            fh.writelines(json.dumps(s.record()) + "\n" for s in tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
