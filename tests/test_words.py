import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import all_words, brute_inversions, brute_weak_leq
from tableaux import (
    InvalidWordError,
    LimitError,
    Word,
    colligate,
    enumerate_words,
    inversion_set,
    project_word,
    relabel_word,
    remove_value,
    reverse,
    tau_word,
    weak_leq,
)


def words(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(Word)


class TestMakeWord:
    """Validated construction: ``Word(entries)``."""

    def test_worked_word(self):
        w = Word([2, 5, 1, 4, 3])
        assert w.n == 5
        assert w.entries == (2, 5, 1, 4, 3)

    def test_singleton(self):
        assert Word([1]).n == 1

    def test_duplicate(self):
        with pytest.raises(InvalidWordError, match="duplicate"):
            Word([1, 1, 2])

    def test_not_covering(self):
        with pytest.raises(InvalidWordError, match="cover"):
            Word([1, 3])

    def test_empty(self):
        with pytest.raises(InvalidWordError, match="empty"):
            Word([])

    @pytest.mark.parametrize("entries", [[1.0, 2], [True, 2], [2, 1.0]])
    def test_non_integer_entry(self, entries):
        # Each equals an int, so only the type test tells it apart.
        with pytest.raises(InvalidWordError, match="integers"):
            Word(entries)

    def test_positions(self):
        w = Word([2, 5, 1, 4, 3])
        assert [w.position(v) for v in range(1, 6)] == [3, 1, 5, 4, 2]

    def test_read_only(self):
        w = Word([2, 1, 3])
        with pytest.raises(AttributeError):
            w.entries = (1, 2, 3)
        with pytest.raises(AttributeError):
            w.positions = (1, 2, 3)
        with pytest.raises(AttributeError):
            del w.entries
        assert w.inversion_mask() == 1  # the lazy mask cache still fills
        assert w.entries == (2, 1, 3) and w.positions == (2, 1, 3)


class TestInversions:
    def test_identity(self):
        assert inversion_set(Word([1, 2, 3, 4])).pairs == frozenset()

    def test_derived_pairs(self):
        # frozen from the brute-force oracle below
        expected = {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert inversion_set(Word([3, 4, 1, 2])).pairs == expected
        assert brute_inversions((3, 4, 1, 2)) == expected

    def test_reversed_word_has_all_pairs(self):
        got = inversion_set(Word([4, 3, 2, 1])).pairs
        assert got == {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}

    @given(words())
    def test_matches_brute_force(self, w):
        assert inversion_set(w).pairs == brute_inversions(w.entries)

    @given(words())
    def test_reverse_complements(self, w):
        everything = {(i, j) for j in range(2, w.n + 1) for i in range(1, j)}
        assert inversion_set(reverse(w)).pairs == everything - inversion_set(w).pairs

    def test_membership_and_subset(self):
        a = inversion_set(Word([3, 4, 1, 2]))
        b = inversion_set(Word([4, 3, 2, 1]))
        assert (1, 3) in a and (1, 2) not in a
        assert a.issubset(b) and not b.issubset(a)

    def test_triangular_bit_layout(self):
        from tableaux.words import pair_index

        # (i, j) -> (j-1)(j-2)/2 + i - 1, distinct bits covering the triangle
        assert pair_index(1, 2) == 0
        assert pair_index(1, 3) == 1
        assert pair_index(2, 3) == 2
        n = 7
        seen = {pair_index(i, j) for j in range(2, n + 1) for i in range(1, j)}
        assert seen == set(range(n * (n - 1) // 2))
        assert inversion_set(Word([2, 1])).mask == 0b1


class TestWeakOrder:
    def test_derived_pair(self):
        assert weak_leq(Word([3, 4, 1, 2]), Word([3, 4, 2, 1]))

    def test_reflexive(self):
        w = Word([2, 5, 1, 4, 3])
        assert weak_leq(w, w)

    def test_incomparable(self):
        assert not weak_leq(Word([2, 1, 3]), Word([1, 3, 2]))
        assert not weak_leq(Word([1, 3, 2]), Word([2, 1, 3]))

    def test_size_mismatch(self):
        with pytest.raises(InvalidWordError, match="mismatch"):
            weak_leq(Word([1, 2]), Word([1, 2, 3]))

    def test_extremes(self):
        for n in range(1, 6):
            bottom = Word(range(1, n + 1))
            top = Word(range(n, 0, -1))
            for w in all_words(n):
                assert weak_leq(bottom, w)
                assert weak_leq(w, top)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partial_order_axioms_exhaustive(self, n):
        ws = all_words(n)
        for w in ws:
            assert weak_leq(w, w)
        for w, y in itertools.combinations(ws, 2):
            assert not (weak_leq(w, y) and weak_leq(y, w))
        for w in ws:
            below = [y for y in ws if weak_leq(w, y)]
            for y in below:
                for z in ws:
                    if weak_leq(y, z):
                        assert weak_leq(w, z)

    @given(st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[st.permutations(range(1, n + 1)) for _ in range(3)])
    ))
    def test_partial_order_axioms_random(self, triple):
        w, y, z = (Word(p) for p in triple)
        assert weak_leq(w, y) == brute_weak_leq(w.entries, y.entries)
        if w != y:
            assert not (weak_leq(w, y) and weak_leq(y, w))
        if weak_leq(w, y) and weak_leq(y, z):
            assert weak_leq(w, z)


class TestTau:
    def test_worked_word(self):
        # derived by direct evaluation; cross-checked against the tableau
        # statistic in test_rsjdt
        assert tau_word(Word([2, 5, 1, 4, 3])) == {1, 3, 4}

    def test_identity_empty(self):
        assert tau_word(Word([1, 2, 3, 4, 5])) == frozenset()

    def test_reversal_full(self):
        assert tau_word(Word([5, 4, 3, 2, 1])) == {1, 2, 3, 4}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_monotone_along_weak_order(self, n):
        ws = all_words(n)
        for w in ws:
            tw = tau_word(w)
            for y in ws:
                if weak_leq(w, y):
                    assert tw <= tau_word(y)


class TestSurgeries:
    def test_reverse_paper_word(self):
        assert reverse(Word([2, 5, 1, 4, 3])).entries == (3, 4, 1, 5, 2)

    def test_reverse_singleton(self):
        assert reverse(Word([1])).entries == (1,)

    @given(words())
    def test_reverse_involution(self, w):
        assert reverse(reverse(w)) == w

    def test_remove_value(self):
        assert remove_value(Word([2, 5, 1, 4, 3]), 5) == (2, 1, 4, 3)
        assert remove_value(Word([1]), 1) == ()

    def test_remove_absent(self):
        with pytest.raises(InvalidWordError, match="absent"):
            remove_value(Word([2, 1]), 3)

    def test_colligate(self):
        assert colligate((3,), (1, 2)) == (3, 1, 2)
        assert colligate((), (1,)) == (1,)

    def test_colligate_overlap(self):
        with pytest.raises(InvalidWordError, match="overlap"):
            colligate((1, 2), (2, 3))

    def test_project_word(self):
        w = Word([2, 5, 1, 4, 3])
        assert project_word(w, 1, 4) == (2, 1, 4, 3)
        assert project_word(w, 2, 4) == (2, 4, 3)
        assert project_word(w, 1, 5) == (2, 5, 1, 4, 3)

    def test_project_bounds(self):
        with pytest.raises(InvalidWordError, match="bounds"):
            project_word(Word([1, 2, 3]), 2, 2)
        with pytest.raises(InvalidWordError, match="bounds"):
            project_word(Word([1, 2, 3]), 1, 4)

    def test_relabel(self):
        assert relabel_word((7, 4, 6)).entries == (3, 1, 2)
        with pytest.raises(InvalidWordError):
            relabel_word((2, 2))


class TestWeakOrderLemmas:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_prepend_fresh_maximal_letter(self, n):
        # adding the same fresh letter in front preserves and reflects order
        ws = all_words(n)
        for w in ws:
            for y in ws:
                lifted_w = Word((n + 1,) + w.entries)
                lifted_y = Word((n + 1,) + y.entries)
                assert weak_leq(w, y) == weak_leq(lifted_w, lifted_y)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_leading_maximum_dominates(self, n):
        # among words equal after deleting the letter n, the one starting
        # with n is the larger
        ws = all_words(n)
        for w in ws:
            if w.entries[0] != n:
                continue
            for y in ws:
                if y.entries[0] != n and remove_value(y, n) == remove_value(w, n):
                    assert weak_leq(y, w) and not weak_leq(w, y)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_reverse_antitone(self, n):
        ws = all_words(n)
        for w in ws:
            for y in ws:
                assert weak_leq(w, y) == weak_leq(reverse(y), reverse(w))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_projections_monotone(self, n):
        ws = all_words(n)
        windows = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for w in ws:
            for y in ws:
                if not weak_leq(w, y):
                    continue
                for i, j in windows:
                    pw = relabel_word(project_word(w, i, j))
                    py = relabel_word(project_word(y, i, j))
                    assert weak_leq(pw, py)


class TestEnumerateWords:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 6), (5, 120)])
    def test_counts(self, n, count):
        ws = all_words(n)
        assert len(ws) == count
        assert len(set(ws)) == count

    def test_lexicographic(self):
        assert [w.entries for w in enumerate_words(3)] == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_limit(self):
        with pytest.raises(LimitError,
                           match=r"^word enumeration at n=10 exceeds the limit 9$"):
            list(enumerate_words(10))
        with pytest.raises(LimitError):
            list(enumerate_words(12, limit=12))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "3")
        with pytest.raises(LimitError):
            list(enumerate_words(4))
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "9")
        assert sum(1 for _ in enumerate_words(4)) == 24
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "many")
        with pytest.raises(LimitError, match="integer"):
            list(enumerate_words(4))

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "-3")
        with pytest.raises(LimitError, match="non-negative"):
            list(enumerate_words(2))
        monkeypatch.setenv("TABLEAUX_LIMIT_N", "0")
        assert sum(1 for _ in enumerate_words(0)) == 1
