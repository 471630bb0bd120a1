import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import all_tableaux, brute_dominance_leq, brute_standard_tableaux
from tableaux import (
    Corner,
    InvalidTableauError,
    LimitError,
    Tableau,
    Word,
    conjugate,
    corners,
    dominance_leq,
    enumerate_tableaux,
    enumerate_words,
    make_tableau,
    relabel_tableau,
    row_text,
    rs_tableau,
    tau_tableau,
)
from tableaux.tableau import (
    EMPTY_TABLEAU, _corner_tree, _row_key, _standard_tableaux, map_entries, shape_corners,
    validate_shape)

INVOLUTIONS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232}


def partitions_of(n, largest=None):
    """Weakly decreasing tuples of positive parts summing to n."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in partitions_of(n - first, first)]


def hook_count(shape):
    """Standard fillings of a diagram by the hook-length formula."""
    conj = [sum(1 for part in shape if part > k) for k in range(shape[0])]
    hooks = math.prod(shape[i] - k + conj[k] - i - 1
                      for i in range(len(shape)) for k in range(shape[i]))
    return math.factorial(sum(shape)) // hooks


def partitions(max_total=10):
    @st.composite
    def build(draw):
        total = draw(st.integers(1, max_total))
        parts = []
        remaining = total
        while remaining:
            top = min(remaining, parts[-1] if parts else remaining)
            part = draw(st.integers(1, top))
            parts.append(part)
            remaining -= part
        return tuple(sorted(parts, reverse=True))

    return build()


class TestMakeTableau:
    def test_worked_tableau(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        assert t.n == 5
        assert row_text(t) == "1 3; 2 4; 5"

    def test_small(self):
        assert make_tableau([(1, 3), (2,)]).shape == (2, 1)

    def test_shape_not_decreasing(self):
        with pytest.raises(InvalidTableauError, match="decreasing"):
            make_tableau([(1, 2), (3, 4), (5, 6, 7)])

    def test_column_not_increasing(self):
        with pytest.raises(InvalidTableauError, match="column"):
            make_tableau([(2, 1)])

    def test_row_violation(self):
        with pytest.raises(InvalidTableauError, match="row"):
            make_tableau([(2, 3), (1, 4)])

    def test_nonstandard_entries(self):
        with pytest.raises(InvalidTableauError, match="exactly"):
            make_tableau([(1, 2), (4,)])
        # but the raw constructor accepts sub-alphabet tableaux
        assert Tableau([(1, 2), (4,)]).entry_set() == {1, 2, 4}

    def test_repeated_entry(self):
        with pytest.raises(InvalidTableauError, match="repeated"):
            make_tableau([(1, 2), (1,)])

    @pytest.mark.parametrize("build", [Tableau, make_tableau])
    @pytest.mark.parametrize("columns", [[[True, 2]], [[1], [2.0]], [[1, "a"]]])
    def test_non_integer_entry(self, build, columns):
        with pytest.raises(InvalidTableauError, match="positive integers"):
            build(columns)


class TestShape:
    def test_worked_shape(self):
        assert make_tableau([(1, 2, 5), (3, 4)]).shape == (3, 2)

    def test_single_column(self):
        assert make_tableau([tuple(range(1, 7))]).shape == (6,)

    def test_single_row(self):
        assert make_tableau([(i,) for i in range(1, 5)]).shape == (1, 1, 1, 1)


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 2)) == (2, 2, 1)
        assert conjugate((5,)) == (1, 1, 1, 1, 1)

    @given(partitions())
    def test_involution(self, shape):
        assert conjugate(conjugate(shape)) == shape

    def test_invalid(self):
        with pytest.raises(InvalidTableauError):
            validate_shape((1, 2))


class TestDominance:
    def test_derived_examples(self):
        assert dominance_leq((2, 2), (3, 1))
        assert dominance_leq((2, 2, 1), (3, 1, 1))
        assert not dominance_leq((3, 1, 1), (2, 2, 1))

    def test_reflexive(self):
        assert dominance_leq((3, 2, 1), (3, 2, 1))

    def test_box_count_mismatch(self):
        with pytest.raises(InvalidTableauError, match="mismatch"):
            dominance_leq((2,), (2, 1))

    def test_partial_order_on_shapes_of_8(self):
        shapes = sorted({t.shape for t in all_tableaux(8)})
        for a in shapes:
            assert dominance_leq(a, a)
            for b in shapes:
                assert dominance_leq(a, b) == brute_dominance_leq(a, b)
                if a != b:
                    assert not (dominance_leq(a, b) and dominance_leq(b, a))
                for c in shapes:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


class TestTau:
    def test_worked_tableau(self):
        # derived from the row statistic; agrees with tau of the word
        assert tau_tableau(make_tableau([(1, 2, 5), (3, 4)])) == {1, 3, 4}

    def test_single_row(self):
        assert tau_tableau(make_tableau([(i,) for i in range(1, 6)])) == frozenset()

    def test_single_column(self):
        assert tau_tableau(make_tableau([tuple(range(1, 6))])) == {1, 2, 3, 4}


class TestPlace:
    @pytest.mark.parametrize("n", range(7))
    def test_row_and_column_of_every_entry(self, n):
        for t in all_tableaux(n):
            for r, row in enumerate(t.rows(), start=1):
                for v in row:
                    assert t.row_of(v) == r
            for c, col in enumerate(t.columns, start=1):
                for v in col:
                    assert t.col_of(v) == c

    def test_absent_entry(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        with pytest.raises(InvalidTableauError, match="entry 99 absent"):
            t.row_of(99)
        with pytest.raises(InvalidTableauError, match="entry 99 absent"):
            t.col_of(99)


class TestTranspose:
    def test_worked_tableau(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        assert t.transpose().columns == ((1, 3), (2, 4), (5,))

    def test_row_column_swap(self):
        row = make_tableau([(i,) for i in range(1, 5)])
        col = make_tableau([tuple(range(1, 5))])
        assert row.transpose() == col
        assert col.transpose() == row

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involution_and_shape(self, n):
        for t in all_tableaux(n):
            tt = t.transpose()
            assert tt.transpose() == t
            assert tt.shape == conjugate(t.shape)


class TestCorners:
    def test_worked_figure(self):
        # diagram from the corner-marking figure, in column lengths
        assert shape_corners((4, 2, 2, 1)) == [
            Corner(4, 1), Corner(2, 3), Corner(1, 4),
        ]

    def test_single_row(self):
        t = make_tableau([(i,) for i in range(1, 6)])
        assert corners(t) == [Corner(1, 5)]

    def test_rectangle(self):
        t = make_tableau([(1, 2, 4), (3, 5, 6)])
        assert corners(t) == [Corner(3, 2)]


class TestRelabel:
    def test_relabel(self):
        t = Tableau([(2, 5), (4,)])
        assert relabel_tableau(t) == Tableau([(1, 3), (2,)])

    def test_map_entries(self):
        t = Tableau([(1, 2)])
        assert map_entries(t, {1: 3, 2: 7}) == Tableau([(3, 7)])


class TestRowText:
    @staticmethod
    def joined_rows(t):
        return "; ".join(" ".join(map(str, row)) for row in t.rows())

    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_the_joined_rows(self, n):
        for t in all_tableaux(n):
            assert row_text(t) == self.joined_rows(t)

    def test_non_standard_entries(self):
        t = Tableau([(3, 12, 40), (7, 15), (11,)])
        assert row_text(t) == self.joined_rows(t) == "3 7 11; 12 15; 40"
        assert row_text(Tableau(())) == ""


class TestEnumerate:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_matches_involutions(self, n):
        ts = all_tableaux(n)
        assert len(ts) == INVOLUTIONS[n]
        assert len(set(ts)) == len(ts)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_direct_recursive_generation(self, n):
        assert set(all_tableaux(n)) == set(brute_standard_tableaux(n))

    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_sorted_rs_images(self, n):
        images = {rs_tableau(w) for w in enumerate_words(n)}
        assert tuple(enumerate_tableaux(n)) == tuple(sorted(images, key=row_text))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_shape_counts_match_hook_length_formula(self, n):
        found = Counter(t.shape for t in enumerate_tableaux(n, limit=9))
        assert found == {shape: hook_count(shape) for shape in partitions_of(n)}

    def test_two_column_filter(self):
        # hook-length counts at n=4: shape (2,2) has 2 fillings, (3,1) has 3,
        # and the single column (4) is admitted as the degenerate case
        family = all_tableaux(4, max_columns=2)
        assert len(family) == 6
        assert sum(1 for t in family if len(t.columns) == 2) == 5
        assert {t.shape for t in family} == {(2, 2), (3, 1), (4,)}

    @pytest.mark.parametrize("max_columns", (1, 2, 3))
    @pytest.mark.parametrize("n", range(0, 9))
    def test_max_columns_grows_the_filtered_family(self, n, max_columns):
        everything = enumerate_tableaux(n)
        assert tuple(enumerate_tableaux(n, max_columns=max_columns)) == tuple(
            t for t in everything if len(t.columns) <= max_columns)

    def test_n3(self):
        assert len(all_tableaux(3)) == 4

    def test_sorted_by_row_text(self):
        texts = [row_text(t) for t in all_tableaux(5)]
        assert texts == sorted(texts)

    @pytest.mark.parametrize("max_columns", (None, 2))
    @pytest.mark.parametrize("n", range(0, 10))
    def test_row_key_gives_the_row_text_order(self, n, max_columns):
        grown = _standard_tableaux(n, max_columns)
        assert list(grown) == sorted(grown, key=row_text)

    @pytest.mark.parametrize("max_columns", (None, 2))
    @pytest.mark.parametrize("n", range(1, 10))
    def test_corner_tree_names_parent_and_column(self, n, max_columns):
        nodes, parent, column = _corner_tree(n, max_columns)
        smaller = _standard_tableaux(n - 1, max_columns)
        assert nodes == _standard_tableaux(n, max_columns)
        assert len(parent) == len(column) == len(nodes)
        for t, p, c in zip(nodes, parent, column):
            assert t.col_of(n) == c + 1
            assert smaller[p] == Tableau([[v for v in col if v != n] for col in t.columns])
        assert _corner_tree(0, max_columns) == ((EMPTY_TABLEAU,), (-1,), (-1,))

    def test_row_key_compares_entries_as_numbers(self):
        # As strings "1 10" < "1 9", and "1 10; 2" < "1 2; 3" by the digit 0.
        nine, ten = Tableau([(1,), (9,)]), Tableau([(1,), (10,)])
        assert row_text(ten) < row_text(nine)
        assert _row_key(nine) < _row_key(ten)
        assert "1 10; 2" == row_text(Tableau([(1, 2), (10,)])) < "1 2; 3"
        assert _row_key(make_tableau([(1, 3), (2,)])) < _row_key(Tableau([(1, 2), (10,)]))

    def test_row_key_continues_a_row_before_starting_the_next(self):
        # "1 2 3" before "1 2; 3", also when the continuing entry is larger.
        row, stacked = make_tableau([(1,), (2,), (3,)]), make_tableau([(1, 3), (2,)])
        assert _row_key(row) < _row_key(stacked)
        assert _row_key(Tableau([(1,), (2,), (10,)])) < _row_key(stacked)

    def test_limit(self):
        with pytest.raises(LimitError,
                           match=r"^tableau enumeration at n=10 exceeds the limit 9$"):
            list(enumerate_tableaux(10))

    def test_cached_tableaux_are_read_only(self):
        before = tuple(enumerate_tableaux(3))
        t = before[0]
        with pytest.raises(AttributeError):
            t.columns = ((1, 2, 3),)
        with pytest.raises(AttributeError):
            t._places = {}
        with pytest.raises(AttributeError):
            del t.columns
        assert t.col_of(3) == 3  # lookups leave the shared instance as it was
        assert tuple(enumerate_tableaux(3)) == before
        assert [row_text(s) for s in enumerate_tableaux(3)] == [
            "1 2 3", "1 2; 3", "1 3; 2", "1; 2; 3"]


class TestStoredSizeAndHash:
    def test_hash_is_the_columns_hash(self):
        for t in all_tableaux(5):
            assert hash(t) == hash(t.columns) == hash(t)

    def test_equal_tableaux_from_different_routes_hash_equal(self):
        columns = ((1, 2, 5), (3, 4))
        routes = [
            make_tableau(columns),
            Tableau(columns, check=False),
            Tableau([list(c) for c in columns] + [[], []], check=False),
            make_tableau(columns).transpose().transpose(),
            relabel_tableau(Tableau([(10, 20, 50), (30, 40)])),
            rs_tableau(Word([5, 2, 4, 1, 3])),
            next(t for t in enumerate_tableaux(5) if t.columns == columns),
        ]
        assert len({id(t) for t in routes}) == len(routes)
        assert all(t == routes[0] for t in routes)
        assert {hash(t) for t in routes} == {hash(columns)}
        assert len(set(routes)) == 1

    def test_size_is_read_only(self):
        t = make_tableau([(1, 3), (2,)])
        hash(t)
        for name in ("n", "_hash"):
            with pytest.raises(AttributeError):
                setattr(t, name, 5)
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert t.n == 3 and hash(t) == hash(t.columns)

    def test_unchecked_trailing_empty_columns(self):
        t = Tableau([(1, 3), (2,), (), ()], check=False)
        assert t.columns == ((1, 3), (2,)) and t.n == 3 and t.shape == (2, 1)
        assert t == make_tableau([(1, 3), (2,)])
        assert Tableau([(), ()], check=False).n == 0
