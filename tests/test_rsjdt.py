import math
import random

import pytest

from conftest import all_tableaux, all_words
from tableaux import (
    InvalidTableauError,
    Tableau,
    Word,
    cell,
    corners,
    delete_corner,
    enumerate_tableaux,
    insert,
    insert_into_column,
    jdt_remove,
    make_tableau,
    project_tableau,
    push_left_column,
    reverse,
    row_text,
    rs_steps,
    rs_tableau,
    tau_tableau,
    tau_word,
    weak_leq,
)
from tableaux.rsjdt import all_cells
from tableaux.tableau import map_entries


class TestColumnInsertion:
    def test_bump(self):
        assert insert_into_column(1, (2,)) == ((1,), 2)

    def test_append(self):
        assert insert_into_column(4, (1,)) == ((1, 4), None)

    def test_empty_column(self):
        assert insert_into_column(7, ()) == ((7,), None)

    def test_duplicate(self):
        with pytest.raises(InvalidTableauError, match="present"):
            insert_into_column(2, (1, 2))


class TestPushLeft:
    def test_basic(self):
        assert push_left_column((1, 3), 4) == ((1, 4), 3)

    def test_single_entry(self):
        assert push_left_column((1,), 2) == ((2,), 1)

    def test_below_top(self):
        with pytest.raises(InvalidTableauError, match="push"):
            push_left_column((2, 3), 1)

    def test_duplicate(self):
        with pytest.raises(InvalidTableauError, match="present"):
            push_left_column((1, 3), 3)


class TestInsert:
    def test_worked_step_3(self):
        # inserting 1 into the column pair holding 3 over 4
        t = Tableau([(3, 4)])
        assert insert(1, t).columns == ((1, 4), (3,))

    def test_worked_step_5(self):
        t = Tableau([(1, 4, 5), (3,)])
        assert insert(2, t).columns == ((1, 2, 5), (3, 4))

    def test_into_empty(self):
        assert insert(9, Tableau(())).columns == ((9,),)

    def test_present(self):
        with pytest.raises(InvalidTableauError, match="present"):
            insert(3, Tableau([(3, 4)]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_adds_one_corner(self, n):
        for t in all_tableaux(n):
            grown = insert(n + 1, t)
            old, new = list(t.shape), list(grown.shape)
            old += [0] * (len(new) - len(old))
            diffs = [a - b for a, b in zip(new, old)]
            assert sorted(diffs) == [0] * (len(diffs) - 1) + [1]


class TestRS:
    def test_worked_trace(self):
        steps = rs_steps(Word([2, 5, 1, 4, 3]))
        assert [row_text(s) for s in steps] == [
            "3", "3; 4", "1 3; 4", "1 3; 4; 5", "1 3; 2 4; 5",
        ]

    def test_worked_final(self):
        assert row_text(rs_tableau(Word([2, 5, 1, 4, 3]))) == "1 3; 2 4; 5"

    @pytest.mark.parametrize("rs", [rs_steps, rs_tableau])
    def test_repeated_letter_rejected(self, rs):
        with pytest.raises(InvalidTableauError, match="distinct"):
            rs([1, 1])

    @pytest.mark.parametrize("rs", [rs_steps, rs_tableau])
    @pytest.mark.parametrize("letters", [[0, -1], ["b", "a"], [True, 2], [2.0, 1]])
    def test_letters_a_tableau_cannot_hold_rejected(self, rs, letters):
        with pytest.raises(InvalidTableauError, match="positive integers"):
            rs(letters)

    def test_plain_sequence_on_a_sub_alphabet(self):
        assert rs_tableau([5, 3, 9]) == Tableau([(3, 5), (9,)])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_gives_single_row(self, n):
        t = rs_tableau(Word(range(1, n + 1)))
        assert t.shape == tuple([1] * n)
        assert t.rows() == (tuple(range(1, n + 1)),)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_reversal_gives_single_column(self, n):
        t = rs_tableau(Word(range(n, 0, -1)))
        assert t.columns == (tuple(range(1, n + 1)),)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_surjective_onto_tableaux(self, n):
        images = {rs_tableau(w) for w in all_words(n)}
        assert images == set(all_tableaux(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tau_preserved(self, n):
        for w in all_words(n):
            assert tau_tableau(rs_tableau(w)) == tau_word(w)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_transpose_of_reverse(self, n):
        for w in all_words(n):
            assert rs_tableau(reverse(w)) == rs_tableau(w).transpose()


class TestDeleteCorner:
    def test_worked_example(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        out = delete_corner(t, 2)
        assert row_text(out.tableau) == "1 3; 4; 5"
        assert out.pushed_out == 2

    def test_single_box(self):
        out = delete_corner(Tableau([(1,)]), 1)
        assert out.tableau.n == 0
        assert out.pushed_out == 1

    def test_single_column(self):
        out = delete_corner(Tableau([(1, 2, 3)]), 1)
        assert out.tableau.columns == ((1, 2),)
        assert out.pushed_out == 3

    def test_no_corner(self):
        with pytest.raises(InvalidTableauError, match="corner"):
            delete_corner(make_tableau([(1, 2), (3, 4)]), 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_delete_then_insert_restores(self, n):
        for t in all_tableaux(n):
            for corner in corners(t):
                smaller, pushed = delete_corner(t, corner.col)
                assert insert(pushed, smaller) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_insert_then_delete_restores(self, n):
        # insert each possible fresh value v by shifting larger entries up
        for t in all_tableaux(n):
            for v in range(1, n + 2):
                shifted = Tableau(
                    tuple(tuple(x if x < v else x + 1 for x in col) for col in t.columns),
                    check=False,
                )
                grown = insert(v, shifted)
                col = next(
                    c + 1 for c, length in enumerate(grown.shape)
                    if length != (shifted.shape[c] if c < len(shifted.shape) else 0)
                )
                back, pushed = delete_corner(grown, col)
                assert back == shifted
                assert pushed == v


class TestJdt:
    def test_worked_remove_6(self):
        t = make_tableau([(1, 3, 6), (2, 4), (5,)])
        assert row_text(jdt_remove(t, [6])) == "1 2 5; 3 4"

    def test_worked_remove_3(self):
        t = make_tableau([(1, 3, 6), (2, 4), (5,)])
        assert row_text(jdt_remove(t, [3])) == "1 2 5; 4; 6"

    def test_worked_remove_1_2(self):
        t = make_tableau([(1, 3, 6), (2, 4), (5,)])
        assert row_text(jdt_remove(t, [1, 2])) == "3 4 5; 6"

    def test_absent(self):
        with pytest.raises(InvalidTableauError, match="absent"):
            jdt_remove(make_tableau([(1, 2)]), [3])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_window_removal_order_independence(self, n):
        # Removing the complement of a value window is independent of the
        # removal order; this is the family the projections rely on.
        rng = random.Random(20050506 + n)
        for _ in range(200):
            w = Word(rng.sample(range(1, n + 1), n))
            t = rs_tableau(w)
            s = rng.randint(1, n - 1)
            e = rng.randint(s + 1, n)
            targets = [v for v in range(1, n + 1) if v < s or v > e]
            if not targets:
                continue
            bulk = jdt_remove(t, targets)
            for _ in range(2):
                order = targets[:]
                rng.shuffle(order)
                stepped = t
                for v in order:
                    stepped = jdt_remove(stepped, [v])
                assert stepped == bulk

    @pytest.mark.parametrize("n", range(2, 9))
    def test_down_set_and_up_set_order_independence(self, n):
        rng = random.Random(777 + n)
        for _ in range(100):
            w = Word(rng.sample(range(1, n + 1), n))
            t = rs_tableau(w)
            k = rng.randint(1, n - 1)
            for targets in ([*range(1, k + 1)], [*range(k + 1, n + 1)]):
                bulk = jdt_remove(t, targets)
                order = targets[:]
                rng.shuffle(order)
                stepped = t
                for v in order:
                    stepped = jdt_remove(stepped, [v])
                assert stepped == bulk

    def test_mixed_sets_are_order_dependent(self):
        # Documented boundary of the sliding procedure: removing {1, 3} from
        # the 2x2 square gives different results in the two orders, with
        # every slide forced.  Arbitrary-set removals are therefore taken in
        # ascending order as the canonical choice.
        t = make_tableau([(1, 3), (2, 4)])
        one_then_three = jdt_remove(jdt_remove(t, [1]), [3])
        three_then_one = jdt_remove(jdt_remove(t, [3]), [1])
        assert one_then_three.columns == ((2,), (4,))
        assert three_then_one.columns == ((2, 4),)
        assert jdt_remove(t, [1, 3]) == one_then_three


class TestProjection:
    def test_drop_top_value(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        assert row_text(project_tableau(t, 1, 4)) == "1 3; 2 4"

    def test_identity_window(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        assert project_tableau(t, 1, 5) == t

    def test_bounds(self):
        with pytest.raises(InvalidTableauError, match="bounds"):
            project_tableau(make_tableau([(1, 2)]), 2, 2)
        with pytest.raises(InvalidTableauError, match="bounds"):
            project_tableau(make_tableau([(1, 2)]), 1, 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_commutes_with_rs(self, n):
        windows = [(s, t) for s in range(1, n) for t in range(s + 1, n + 1)]
        for w in all_words(n):
            image = rs_tableau(w)
            for s, t in windows:
                projected_word = tuple(v for v in w.entries if s <= v <= t)
                assert project_tableau(image, s, t) == rs_tableau(projected_word)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_restriction_equals_jdt_removal(self, n):
        # The projection restricts to the entries <= e and slides from the
        # top-left cell; the general route slides out every outside entry.
        for t in all_tableaux(n):
            for s in range(1, n):
                for e in range(s + 1, n + 1):
                    outside = [v for v in range(1, n + 1) if v < s or v > e]
                    assert project_tableau(t, s, e) == jdt_remove(t, outside)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_result_passes_full_validation(self, n):
        # The projection is built unchecked from a validated tableau.
        for t in all_tableaux(n):
            for s in range(1, n):
                for e in range(s + 1, n + 1):
                    projected = project_tableau(t, s, e)
                    assert Tableau(projected.columns) == projected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_restriction_on_other_alphabets(self, n):
        # Windows reaching past the alphabet or holding no entry are fine
        # off the standard alphabet; the result stays unrelabeled.
        rng = random.Random(4100 + n)
        for t in all_tableaux(n):
            alphabet = sorted(rng.sample(range(1, 4 * n), n))
            sparse = map_entries(t, dict(zip(range(1, n + 1), alphabet)))
            top = alphabet[-1] + 1
            for s in range(1, top):
                for e in range(s + 1, top + 1):
                    outside = [v for v in alphabet if v < s or v > e]
                    assert project_tableau(sparse, s, e) == jdt_remove(sparse, outside)

    def test_worked_other_alphabet(self):
        t = Tableau([(2, 5, 9), (4, 7), (8,)])
        assert row_text(project_tableau(t, 3, 8)) == "4 7 8; 5"
        assert project_tableau(t, 10, 12) == Tableau(())

    @pytest.mark.parametrize("n", range(2, 7))
    def test_adjacent_window_is_domino(self, n):
        for t in all_tableaux(n):
            tau = tau_tableau(t)
            for i in range(1, n):
                domino = project_tableau(t, i, i + 1)
                if i in tau:
                    assert domino.columns == ((i, i + 1),)
                else:
                    assert domino.columns == ((i,), (i + 1,))


class TestCells:
    def test_single_box(self):
        assert cell(make_tableau([(1,)])) == [Word([1])]

    def test_n2(self):
        assert cell(make_tableau([(1, 2)])) == [Word([2, 1])]
        assert cell(make_tableau([(1,), (2,)])) == [Word([1, 2])]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cells_partition_words(self, n):
        groups = all_cells(n)
        total = sum(len(ws) for ws in groups.values())
        assert total == math.factorial(n)
        for t, ws in groups.items():
            for w in ws:
                assert rs_tableau(w) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_recursive_decomposition(self, n):
        # The corner decomposition against the RS filter over all words.
        words = all_words(n)
        for t in all_tableaux(n):
            assert cell(t) == [w for w in words if rs_tableau(w) == t]

    def test_hook_length_sizes_at_9(self):
        # One tableau per shape of 9 boxes; the hook-length formula is
        # symmetric under transposition, so column lengths serve as rows.
        first = {}
        for t in enumerate_tableaux(9, limit=9):
            first.setdefault(t.shape, t)
        assert len(first) == 30
        for shape, t in first.items():
            hooks = math.prod(
                part - j + sum(1 for below in shape[i + 1:] if below > j)
                for i, part in enumerate(shape)
                for j in range(part)
            )
            words = cell(t, limit=9)
            assert len(words) == math.factorial(9) // hooks
            assert all(rs_tableau(w) == t for w in words)

    def test_all_cells_is_read_only(self):
        t = make_tableau([(1, 2), (3,)])
        with pytest.raises(TypeError):
            all_cells(3)[t] = ()
        assert cell(t) == [Word([2, 1, 3]), Word([2, 3, 1])]

    def test_limit(self):
        from tableaux.errors import LimitError

        big = rs_tableau(Word(range(10, 0, -1)))
        with pytest.raises(LimitError,
                           match=r"^cell enumeration at n=10 exceeds the limit 9$"):
            cell(big)
        with pytest.raises(LimitError):
            cell(big, limit=10)
        assert cell(rs_tableau(Word(range(9, 0, -1)))) == [Word(range(9, 0, -1))]

    def test_all_cells_obeys_the_env_limit(self, monkeypatch):
        from tableaux.errors import LimitError

        monkeypatch.setenv("TABLEAUX_LIMIT_N", "5")
        with pytest.raises(LimitError, match=r"at n=6 exceeds the limit 5$"):
            all_cells(6)
        assert len(all_cells(5)) == 26


class TestWordMonotonicityThroughRS:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_insertion_preserves_order(self, n):
        # on cells: w <= y stays true after prepending a fresh maximal letter,
        # and the inserted tableaux stay related (checked at word level here)
        ws = all_words(n)
        for w in ws:
            for y in ws:
                if weak_leq(w, y):
                    lifted_w = Word((n + 1,) + w.entries)
                    lifted_y = Word((n + 1,) + y.entries)
                    assert weak_leq(lifted_w, lifted_y)
                    assert rs_tableau(lifted_w) == insert(n + 1, rs_tableau(w))
