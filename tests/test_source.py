"""Guards on the package source itself."""

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import tableaux
from tableaux.config import CACHE_BOUND

SOURCES = sorted(Path(tableaux.__file__).parent.glob("*.py"))


def parsed_sources():
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in SOURCES]


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # Cross-checks must raise on their own: ``python -O`` strips ``assert``.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


ORACLES = {"cover_recursive", "_cover_rec", "fast_leq_criterion",
           "duflo_base_by_scan", "subspace_leq", "root_position_set"}


def test_oracles_defined_only_in_verify():
    # The independent routes re-derive production results; they live beside
    # the suites that run them, never in a production module.
    found = {
        (name, node.name)
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ORACLES
    }
    assert found == {("verify.py", oracle) for oracle in ORACLES}


def test_no_pass_over_all_words():
    # Only the definition and its re-export may name the n! word stream.
    found = sorted(
        path.name
        for path in SOURCES
        if path.name not in {"words.py", "__init__.py"}
        and re.search(r"\b(enumerate_words|permutations)\b", path.read_text())
    )
    assert found == []


def test_only_orders_names_base_rows():
    # The whole Duflo base relation is an on-demand read for oracles, so no
    # other module may put its full word sweep on a production path.
    found = sorted(path.name for path in SOURCES
                   if path.name != "orders.py" and re.search(r"\bbase_rows\b", path.read_text()))
    assert found == []


def test_only_the_lazy_base_sweeps_words():
    # The sweep over all n! words feeds only ``base_rows``, read on demand by
    # oracles; no build of either poset may call it.
    found = set()

    def visit(node, where, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if (isinstance(child, ast.Name) and child.id == "_up_set_sweep"
                    or isinstance(child, ast.Attribute) and child.attr == "_up_set_sweep"
                    or isinstance(child, ast.alias) and child.name == "_up_set_sweep"):
                found.add((name, where))
            visit(child, inner, name)

    for name, tree in parsed_sources():
        visit(tree, None, name)
    assert found == {("orders.py", "_duflo_base")}


def cached_functions():
    """(module, function, decorator text, parameters) of every cached function."""
    for name, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    text = ast.unparse(decorator)
                    if "cache" in text:
                        params = [(a.arg, a.annotation and ast.unparse(a.annotation))
                                  for a in node.args.args]
                        yield name, node.name, text, params


def test_caches_keyed_by_tableaux_are_bounded():
    # A cache keyed by a tableau grows with every fresh input, so it holds at
    # most CACHE_BOUND entries; only caches keyed by sizes may stay unbounded.
    # A cached property holds one value per instance and takes no key.
    bounded, unbounded, per_instance, other = set(), set(), set(), []
    for module, name, text, params in cached_functions():
        by_size = params[0][0] == "n" and all(ann in ("int", "int | None") for _, ann in params)
        if text == "functools.lru_cache(maxsize=CACHE_BOUND)":
            bounded.add(name)
        elif text == "functools.lru_cache(maxsize=None)" and by_size:
            unbounded.add(name)
        elif text == "functools.cached_property" and [p for p, _ in params] == ["self"]:
            per_instance.add(name)
        else:
            other.append(f"{module}:{name} {text}")
    assert other == []
    assert bounded == {"_chain_vector", "chain_profile", "canonical_word", "_inversions"}
    assert unbounded == {"_corner_tree", "_duflo_poset", "_duflo_base", "_chain_poset",
                         "_layout"}
    assert per_instance == {"hasse", "_index", "snapshots", "second_column"}
    for fn in (tableaux.orders._chain_vector, tableaux.orders.chain_profile,
               tableaux.twocol.canonical_word, tableaux.twocol._inversions):
        assert fn.cache_info().maxsize == CACHE_BOUND == 256


def test_criterion_reads_each_word_once():
    # The pair suites read each canonical word once, not once per pair, so
    # they stay linear in a family larger than the bounded cache.  They read
    # it through the inversion-mask cache, cleared too so each mask is built.
    for suite, n, limit, m in (("criterion", 9, None, 126), ("cor312", 8, 8, 70)):
        tableaux.twocol.canonical_word.cache_clear()
        tableaux.twocol._inversions.cache_clear()
        (check,) = tableaux.run_suite(n, suite, limit).checks
        assert check.passed and check.population == m ** 2
        for fn in (tableaux.twocol.canonical_word, tableaux.twocol._inversions):
            info = fn.cache_info()
            assert info.hits + info.misses == info.misses == m


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}".lstrip(".") for alias in node.names)


def test_only_front_ends_import_verify():
    importers = {
        name
        for name, tree in parsed_sources()
        if {"verify", "tableaux.verify"} & set(imported_modules(tree))
    }
    assert importers == {"cli.py", "__init__.py"}


def test_every_import_is_used():
    # A name a module imports must occur elsewhere in it; doctests count.
    # ``__init__`` imports are re-exports.
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations" and not re.search(rf"\b{name}\b", rest):
                    unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_doctests_pass():
    failed = attempted = 0
    for path in SOURCES:
        name = "tableaux" if path.stem == "__init__" else f"tableaux.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 7


def run_python(*args):
    env = dict(os.environ)
    src = str(Path(tableaux.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("TABLEAUX_LIMIT_N", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_optimized_mode_changes_nothing():
    cmd = ["-m", "tableaux.cli", "poset", "6", "--kind", "duflo", "--format", "json"]
    plain, optimized = run_python(*cmd), run_python("-O", *cmd)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert '"kind":"duflo"' in plain.stdout


def test_optimized_mode_still_rejects_non_orders():
    # The ``assert False`` line would stop the script unless -O strips it.
    code = ("import sys\n"
            "from tableaux import InvalidTableauError, hasse_reduce\n"
            "assert False, 'asserts run'\n"
            "for rows in ((0b10, 0b10), (0b11, 0b11), (0b011, 0b110, 0b100), (0b101,)):\n"
            "    try:\n"
            "        hasse_reduce(rows)\n"
            "    except InvalidTableauError:\n"
            "        continue\n"
            "    sys.exit(f'accepted {rows}')\n")
    result = run_python("-O", "-c", code)
    assert result.returncode == 0, result.stderr
