"""Verification suites reproducing the package's headline claims by
exhaustion, shared between the CLI and the acceptance tests, and the
independent routes they check production against.

Each suite examines a full population (all pairs of two-column tableaux,
all nodes of a poset, ...) and reports a pass/fail with a counterexample
when one exists; pair suites compare relations as rows of bitmasks, and
``thm311`` builds both of its rows with no pair loop.  ``SUITES`` records,
per suite, the sizes its claim covers (the orders coincide up to n = 5; a
proper extension is sought from n = 6 on); ``run_suite(n)`` runs and times
every suite whose claim covers n; it resolves the size cap once, from
``limit``, and the suites, functions of n alone, read the cached builds.

The independent routes re-derive a production result another way: the
two-column cover by recursion, the paper's membership criterion, the Duflo
base relation by a word-pair scan, and the weak order as containment of
root subspaces.  Only the suites and the tests call them: no module of the
package but the CLI and the package root imports this one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .config import effective_limit
from .errors import InvalidTableauError, InvalidWordError, LimitError
from .orders import _chain_poset, _chain_rows, _duflo_poset, _threshold_rows
from .rsjdt import all_cells, insert
from .tableau import (
    Tableau, _standard_tableaux, enumerate_tableaux, map_entries, relabel_tableau, row_text)
from .twocol import _inversions, _require_two_columns, cover, move_to_first_column
from .words import Word, weak_leq


@dataclass
class CheckResult:
    name: str
    n: int
    population: int
    passed: bool
    counterexample: str | None = None
    seconds: float = 0.0  # set by run_suite

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} n={self.n} population={self.population} ({self.seconds:.2f}s)"
        if self.counterexample:
            label = "witness" if self.passed else "counterexample"
            out += f"\n  {label}: {self.counterexample}"
        return out


@dataclass
class VerifyReport:
    n: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        verdict = "all checks passed" if self.passed else "FAILURES present"
        out.append(f"{verdict} in {self.elapsed:.2f}s")
        return out


def _first_pair(rows: list[int], nodes, order: str) -> str | None:
    """Label of the row-major first set bit of ``rows``, or None."""
    for i, row in enumerate(rows):
        if row:
            j = (row & -row).bit_length() - 1
            return f"T={row_text(nodes[i])} S={row_text(nodes[j])} order={order}"
    return None


def _compare_rows(name: str, n: int, nodes, left, right, order: str) -> CheckResult:
    """Compare two relations on ``nodes`` given as rows, on all ordered
    pairs; the counterexample is the row-major first pair they differ on."""
    bad = _first_pair([a ^ b for a, b in zip(left, right)], nodes, order)
    return CheckResult(name, n, len(nodes) ** 2, bad is None, bad)


def _word_rows(n: int, nodes) -> list[int]:
    """Canonical words compared as rows of their inversion sets, each word
    read once: a family past ``CACHE_BOUND`` costs one trace per node, not per pair."""
    pairs = n * (n - 1) // 2
    return _threshold_rows([format(_inversions(t), f"0{pairs}b") for t in nodes], "01")


def cover_recursive(t: Tableau) -> list[Tableau]:
    """The two-column cover by the recursive description, independent of
    the explicit run-top description ``cover``."""
    _require_two_columns(t)
    return sorted(_cover_rec(t), key=row_text)


def _cover_rec(t: Tableau) -> set[Tableau]:
    n = t.n
    if n <= 1:
        return set()
    if t.col_of(n) == 1:
        # n sits at the bottom of column 1, so restriction just drops it.
        inner = Tableau((t.column(1)[:-1], t.column(2)), check=False)
        return {insert(n, s) for s in _cover_rec(inner)}
    omega1 = t.bottom(1)
    core = Tableau(
        (t.column(1)[:-1], tuple(v for v in t.column(2) if v != n)),
        check=False,
    )
    alphabet = sorted(core.entry_set())
    back = {k: v for k, v in enumerate(alphabet, start=1)}
    found = {
        insert(omega1, insert(n, map_entries(s, back)))
        for s in _cover_rec(relabel_tableau(core))
    }
    found.add(move_to_first_column(t, n))
    return found


def fast_leq_criterion(t: Tableau, s: Tableau) -> bool:
    """The paper's membership criterion (see ``twocol``), equivalent to
    ``fast_leq`` but needing only t's column sets and the values s's
    second-column entries push out, replayed here rather than read from the
    cached trace of ``canonical_word``."""
    if t.n != s.n:
        raise InvalidTableauError(f"size mismatch: {t.n} vs {s.n}")
    _require_two_columns(t)
    _require_two_columns(s)
    return set(s.column(2)) <= set(t.column(2)) and all(v in t.column(1) for v in _pushed(s))


def _pushed(s: Tableau) -> Iterator[int]:
    # The deletion trace down to the last second-column entry: the foot of
    # column 2, when it is the maximum, replaces the foot of column 1.
    first, second = list(s.column(1)), list(s.column(2))
    while second:
        if second[-1] > first[-1]:
            yield first[-1]
            first[-1] = second.pop()
        else:
            first.pop()


def duflo_base_by_scan(n: int) -> tuple[int, ...]:
    """The Duflo base relation by a direct word-pair scan over the cells,
    independent of the layered word sweep in ``orders``."""
    nodes = tuple(enumerate_tableaux(n))
    node_index = {t: i for i, t in enumerate(nodes)}
    cells = all_cells(n)
    rows = [0] * len(nodes)
    for t, ws in cells.items():
        i = node_index[t]
        for s, ys in cells.items():
            j = node_index[s]
            if any(weak_leq(w, y) for w in ws for y in ys):
                rows[i] |= 1 << j
    return tuple(rows)


def root_position_set(w: Word) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i < j, with i placed before j; the complement of the
    inversion set.  Encodes which upper-triangular root spaces survive."""
    pos = w.positions
    return frozenset(
        (i, j)
        for j in range(2, w.n + 1)
        for i in range(1, j)
        if pos[i - 1] < pos[j - 1]
    )


def subspace_leq(w: Word, y: Word) -> bool:
    """Containment of generating subspaces; equivalent to the weak order."""
    if w.n != y.n:
        raise InvalidWordError(f"size mismatch: {w.n} vs {y.n}")
    return root_position_set(y) <= root_position_set(w)


def thm311_check(n: int) -> CheckResult:
    """Chain order equals the canonical-word comparison on two-column pairs."""
    nodes = _standard_tableaux(n, 2)
    chain_rows = _chain_rows(nodes)
    return _compare_rows("thm311", n, nodes, chain_rows, _word_rows(n, nodes), "chain-vs-word")


def cor312_check(n: int) -> CheckResult:
    """The induced weak order restricted to two-column nodes equals the
    canonical-word comparison."""
    poset = _duflo_poset(n).restrict(lambda t: len(t.columns) <= 2)
    return _compare_rows("cor312", n, poset.nodes, poset.leq_rows,
                         _word_rows(n, poset.nodes), "duflo-vs-word")


def criterion_check(n: int) -> CheckResult:
    """The paper's membership criterion equals the canonical-word
    comparison on two-column pairs."""
    nodes = _standard_tableaux(n, 2)
    rows = [sum(1 << j for j, s in enumerate(nodes) if fast_leq_criterion(t, s)) for t in nodes]
    return _compare_rows("criterion", n, nodes, rows, _word_rows(n, nodes), "criterion-vs-word")


def prop316_check(n: int) -> CheckResult:
    """Explicit cover = recursive cover = brute-force poset cover on the
    two-column family."""
    poset = _duflo_poset(n).restrict(lambda t: len(t.columns) <= 2)
    bad = next((f"T={row_text(t)} order=cover" for t in poset.nodes
                if not cover(t) == cover_recursive(t) == sorted(poset.cover_of(t), key=row_text)),
               None)
    return CheckResult("prop316", n, len(poset.nodes), bad is None, bad)


def _both_posets(n: int):
    dp = _duflo_poset(n)
    cp = _chain_poset(n)
    if cp.nodes != dp.nodes:
        raise RuntimeError(f"chain and Duflo posets list different nodes at n={n}")
    return dp, cp


def coincide_check(n: int) -> CheckResult:
    """The induced weak order and the chain order agree on all tableaux."""
    dp, cp = _both_posets(n)
    return _compare_rows("coincide", n, dp.nodes, dp.leq_rows, cp.leq_rows, "duflo-vs-chain")


def extension_check(n: int) -> CheckResult:
    """The chain order properly extends the induced weak order: every pair
    related in the induced order is related in the chain order, and some
    pair related in the chain order is not.  A pair missing from the chain
    order is the counterexample, otherwise the witness pair or its absence."""
    dp, cp = _both_posets(n)
    missing = _first_pair([d & ~c for c, d in zip(cp.leq_rows, dp.leq_rows)],
                          dp.nodes, "duflo-not-chain")
    witness = _first_pair([c & ~d for c, d in zip(cp.leq_rows, dp.leq_rows)],
                          dp.nodes, "chain-not-duflo")
    return CheckResult("extension", n, len(dp.nodes) ** 2, missing is None and witness is not None,
                       missing or witness or "no chain-not-duflo pair")


# name -> (check, (first, last or None) size its claim covers)
SUITES = {
    "thm311": (thm311_check, (1, None)),
    "cor312": (cor312_check, (1, None)),
    "prop316": (prop316_check, (1, None)),
    "coincide": (coincide_check, (1, 5)),
    "extension": (extension_check, (6, None)),
    "criterion": (criterion_check, (1, None)),
}


def run_suite(n: int, suite: str = "all", limit: int | None = None) -> VerifyReport:
    if suite == "all":
        selected = [name for name, (_, (first, last)) in SUITES.items()
                    if first <= n <= (last or n)]
        if not selected:
            raise LimitError(f"no verification suite applies at n={n}")
    elif suite in SUITES:
        selected = [suite]
    else:
        raise LimitError(f"unknown suite {suite!r}")
    # The builds the suites read are uncapped, and grow without end below 0.
    cap = effective_limit(limit)
    if not 0 <= n <= cap:
        raise LimitError(f"no verification suite applies at n={n} under the limit {cap}")
    report = VerifyReport(n=n)
    start = time.perf_counter()
    for name in selected:
        began = time.perf_counter()
        report.checks.append(SUITES[name][0](n))
        report.checks[-1].seconds = time.perf_counter() - began
    report.elapsed = time.perf_counter() - start
    return report
