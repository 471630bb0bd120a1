"""The row bitmasks the pair suites compare, against pairwise scans."""

import random

import pytest

from conftest import two_column
from tableaux import (
    canonical_word, chain_leq, duflo_poset, orders, row_text, tableau, weak_leq)
from tableaux.orders import _chain_rows as chain_rows
from tableaux.verify import _compare_rows, _first_pair, _word_rows, run_suite


def pairwise_rows(nodes, leq):
    return [sum(1 << j for j, s in enumerate(nodes) if leq(t, s)) for t in nodes]


def row_major_scan(nodes, left, right, order):
    """The first ordered pair, row-major, on which two relations differ."""
    for i, t in enumerate(nodes):
        for j, s in enumerate(nodes):
            if (left[i] >> j & 1) != (right[i] >> j & 1):
                return f"T={row_text(t)} S={row_text(s)} order={order}"
    return None


@pytest.mark.parametrize("n", range(1, 9))
class TestRowsMatchPairScans:
    def test_chain_rows(self, n):
        nodes = two_column(n)
        assert chain_rows(nodes) == pairwise_rows(nodes, chain_leq)

    def test_word_rows(self, n):
        nodes = two_column(n)
        words = {t: canonical_word(t).word for t in nodes}
        assert _word_rows(n, nodes) == pairwise_rows(
            nodes, lambda t, s: weak_leq(words[t], words[s]))

    def test_cor312_rows(self, n):
        poset = duflo_poset(n, limit=8)
        family = poset.restrict(lambda t: len(t.columns) <= 2)
        assert family.nodes == tuple(two_column(n))
        assert list(family.leq_rows) == pairwise_rows(family.nodes, poset.leq)


class TestFirstPair:
    @pytest.mark.parametrize("seed", range(8))
    def test_forced_disagreement_matches_row_major_scan(self, seed):
        rng = random.Random(seed)
        nodes = two_column(6)
        rows = chain_rows(nodes)
        broken = list(rows)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(len(nodes)), rng.randrange(len(nodes))
            broken[i] ^= 1 << j
        if broken == rows:
            broken[0] ^= 1
        want = row_major_scan(nodes, rows, broken, "chain-vs-word")
        assert want is not None
        assert _first_pair([a ^ b for a, b in zip(rows, broken)], nodes,
                           "chain-vs-word") == want
        result = _compare_rows("thm311", 6, nodes, rows, broken, "chain-vs-word")
        assert not result.passed
        assert result.counterexample == want
        assert result.population == len(nodes) ** 2

    def test_agreement_has_no_pair(self):
        nodes = two_column(5)
        rows = chain_rows(nodes)
        assert _first_pair([0] * len(rows), nodes, "x") is None
        assert _compare_rows("thm311", 5, nodes, rows, rows, "x").passed


def test_thm311_at_9_grows_only_the_two_column_family(monkeypatch):
    # Reaching the family by filtering every standard tableau must not return.
    grown = tableau._corner_tree
    calls = []

    def spy(n, max_columns):
        calls.append((n, max_columns))
        return grown(n, max_columns)

    grown.cache_clear()
    # Every read of the family and every step of the growth's recursion go
    # through the module's cached corner tree.
    monkeypatch.setattr(tableau, "_corner_tree", spy)
    report = run_suite(9, "thm311", limit=9)
    assert report.passed and report.checks[0].population == 126 ** 2
    assert (9, 2) in calls
    assert {max_columns for _, max_columns in calls} == {2}
    assert {n for n, _ in calls} == set(range(10))


def test_run_suite_at_9_reduces_only_the_cover_restriction(monkeypatch):
    # Only prop316 reads a Hasse diagram, that of the two-column restriction;
    # the full posets are read as rows and never reduced.
    reduce, sizes = orders.hasse_reduce, []

    def spy(rows):
        sizes.append(len(rows))
        return reduce(rows)

    monkeypatch.setattr(orders, "hasse_reduce", spy)
    orders._duflo_poset.cache_clear()
    orders._chain_poset.cache_clear()
    report = run_suite(9)
    assert report.passed and [c.name for c in report.checks] == [
        "thm311", "cor312", "prop316", "extension", "criterion"]
    assert sizes == [126]
