import pytest

from conftest import all_tableaux, brute_inversions, restricted, two_column
from tableaux import (
    InvalidTableauError,
    Tableau,
    Word,
    canonical_word,
    cell,
    chain_leq,
    cover,
    delete_corner,
    duflo_poset,
    enumerate_tableaux,
    fast_leq,
    make_tableau,
    move_to_first_column,
    project_tableau,
    relabel_tableau,
    row_text,
    rs_tableau,
    runs,
    two_row_canonical_word,
    two_row_leq,
    weak_leq,
)
from tableaux.tableau import _standard_tableaux
from tableaux.twocol import _inversions
from tableaux.verify import cover_recursive, fast_leq_criterion, root_position_set

WORKED_T = [(1, 2, 4, 7), (3, 5, 6)]


def two_row(n):
    return [t for t in all_tableaux(n) if len(t.columns[0]) <= 2]


def trace_by_corner_deletion(t):
    """The maximal-entry deletion sequence rebuilt through ``delete_corner``:
    (emitted values, steps, snapshots, second-column records)."""
    n, current = t.n, t
    emitted, steps, snapshots, second = [], [], {n: t}, {}
    for i in range(n, 0, -1):
        col = max(range(1, len(current.columns) + 1), key=current.bottom)
        z = current.bottom(col)
        smaller, a = delete_corner(current, col)
        if col == 2:
            second[z] = (current, a)
        emitted.append(a)
        steps.append((i, z, a))
        if i > 1:
            snapshots[i - 1] = smaller
        current = smaller
    return emitted, steps, snapshots, second


class TestCanonicalWord:
    def test_worked_word(self):
        t = make_tableau(WORKED_T)
        assert canonical_word(t).word.entries == (7, 4, 6, 2, 5, 1, 3)

    def test_worked_snapshots(self):
        t = make_tableau(WORKED_T)
        trace = canonical_word(t).trace
        expected = {
            7: "1 3; 2 5; 4 6; 7",
            6: "1 3; 2 5; 4 6",
            5: "1 3; 2 5; 6",
            4: "1 3; 2 5",
            3: "1 3; 5",
            2: "1 3",
            1: "3",
        }
        assert {i: row_text(s) for i, s in trace.snapshots.items()} == expected

    def test_worked_step_values(self):
        t = make_tableau(WORKED_T)
        steps = canonical_word(t).trace.steps
        assert [(s.index, s.largest, s.emitted) for s in steps] == [
            (7, 7, 7), (6, 6, 4), (5, 6, 6), (4, 5, 2),
            (3, 5, 5), (2, 3, 1), (1, 3, 3),
        ]

    def test_worked_second_column_snapshots(self):
        t = make_tableau(WORKED_T)
        trace = canonical_word(t).trace
        assert set(trace.second_column) == {3, 5, 6}
        assert trace.second_column[6][0] == trace.snapshots[6]
        assert trace.second_column[5][0] == trace.snapshots[4]
        assert trace.second_column[3][0] == trace.snapshots[2]
        assert {x: pushed for x, (_, pushed) in trace.second_column.items()} == {
            6: 4, 5: 2, 3: 1,
        }

    def test_single_column(self):
        t = make_tableau([(1, 2, 3, 4, 5)])
        assert canonical_word(t).word.entries == (5, 4, 3, 2, 1)

    def test_square(self):
        assert canonical_word(make_tableau([(1, 3), (2, 4)])).word.entries == (3, 4, 1, 2)

    def test_rejects_three_columns(self):
        with pytest.raises(InvalidTableauError, match="columns"):
            canonical_word(make_tableau([(1,), (2,), (3,)]))

    def test_rejects_sub_alphabet(self):
        with pytest.raises(InvalidTableauError, match="standard"):
            canonical_word(Tableau([(2, 3)]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rs_round_trip(self, n):
        for t in two_column(n):
            assert rs_tableau(canonical_word(t).word) == t

    @pytest.mark.parametrize("n", range(1, 8))
    def test_maximal_in_cell(self, n):
        for t in two_column(n):
            top = canonical_word(t).word
            for y in cell(t):
                assert weak_leq(y, top)


    @pytest.mark.parametrize("n", range(0, 13))
    def test_trace_equals_corner_deletion(self, n):
        for t in _standard_tableaux(n, 2):
            emitted, steps, snapshots, second = trace_by_corner_deletion(t)
            word, trace = canonical_word(t)
            assert word.entries == tuple(emitted)
            assert trace.steps == tuple(steps)
            assert dict(trace.snapshots) == snapshots
            assert dict(trace.second_column) == second

    @pytest.mark.parametrize("n", range(0, 13))
    def test_mappings_are_replayed_on_first_read(self, n):
        # A fresh trace stores its input and steps; either mapping read first
        # replays the snapshots, and both are kept.
        for t in _standard_tableaux(n, 2):
            cached = canonical_word(t).trace
            trace = canonical_word.__wrapped__(t).trace
            assert trace.tableau is t and trace == cached
            assert not {"snapshots", "second_column"} & set(vars(trace))
            assert dict(trace.second_column) == dict(cached.second_column)
            assert dict(trace.snapshots) == dict(cached.snapshots)
            assert trace.snapshots is trace.snapshots
            with pytest.raises(AttributeError):
                trace.snapshots = {}

    def test_miss_builds_no_tableau(self, monkeypatch):
        t = make_tableau([(1, 2, 4, 7, 9, 10), (3, 5, 6, 8, 11)])
        built = []
        init = Tableau.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tableau, "__init__", spy)
        canonical_word.cache_clear()
        _inversions.cache_clear()
        word, trace = canonical_word(t)
        assert fast_leq(t, t)
        assert canonical_word.cache_info().misses == _inversions.cache_info().misses == 1
        assert built == []
        # The spy sees the snapshots replayed on first read.
        assert len(trace.snapshots) == t.n and len(built) == t.n - 1

    @pytest.mark.parametrize("n", range(0, 9))
    def test_snapshots_pass_full_validation(self, n):
        # Snapshots are built unchecked from a validated tableau.
        for t in enumerate_tableaux(n, max_columns=2, limit=n):
            for snapshot in canonical_word(t).trace.snapshots.values():
                assert Tableau(snapshot.columns) == snapshot

    @pytest.mark.parametrize("n", range(1, 10))
    def test_two_row_word_equals_corner_deletion(self, n):
        for t in enumerate_tableaux(n, max_columns=2, limit=n):
            emitted, *_ = trace_by_corner_deletion(t)
            assert two_row_canonical_word(t.transpose()).entries == tuple(reversed(emitted))

    def test_cached_trace_is_read_only(self):
        t = make_tableau([(1, 2, 4), (3, 5)])
        trace = canonical_word(t).trace
        with pytest.raises(TypeError):
            trace.second_column[5] = (t, 99)
        with pytest.raises(TypeError):
            trace.snapshots[5] = t
        assert canonical_word(t).trace.second_column[5][1] != 99
        assert fast_leq_criterion(t, t)


class TestFastComparison:
    def test_words_derived_pair(self):
        t = make_tableau([(1, 3), (2, 4)])
        s = make_tableau([(1, 2, 3), (4,)])
        assert fast_leq(t, s)

    def test_reflexive(self):
        t = make_tableau(WORKED_T)
        assert fast_leq(t, t)
        assert fast_leq_criterion(t, t)

    def test_same_shape_incomparable(self):
        t = make_tableau([(1, 2, 4), (3, 5)])
        s = make_tableau([(1, 2, 5), (3, 4)])
        assert not fast_leq(t, s) and not fast_leq(s, t)

    def test_size_mismatch(self):
        t, s = make_tableau([(1, 3), (2,)]), make_tableau([(1, 3), (2, 4)])
        for leq in (fast_leq, two_row_leq):
            with pytest.raises(InvalidTableauError, match="size mismatch"):
                leq(t, s)

    def test_criterion_subset_failure(self):
        t = make_tableau([(1, 3), (2, 4)])
        s = make_tableau([(1, 2, 4), (3,)])
        assert not fast_leq_criterion(t, s)

    def test_criterion_push_membership(self):
        t = make_tableau([(1, 3), (2, 4)])
        s = make_tableau([(1, 2, 3), (4,)])
        assert fast_leq_criterion(t, s)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_criterion_equals_word_comparison(self, n):
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                assert fast_leq_criterion(t, s) == fast_leq(t, s)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_entry_point_consistent(self, n):
        # the entry point against the brute-force weak order on the words
        inversions = {t: brute_inversions(canonical_word(t).word) for t in two_column(n)}
        for t, t_inv in inversions.items():
            for s, s_inv in inversions.items():
                assert fast_leq(t, s) == (t_inv <= s_inv)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_theorem_chain_equals_words(self, n):
        # fast_leq's masks against the words' weak order, and the two-row
        # order on the transposes, which reverses it.
        nodes = two_column(n)
        words = {t: canonical_word(t).word for t in nodes}
        for t in nodes:
            for s in nodes:
                assert chain_leq(t, s) == fast_leq(t, s) == weak_leq(words[t], words[s])
                assert two_row_leq(s.transpose(), t.transpose()) == fast_leq(t, s)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_corollary_duflo_equals_words(self, n):
        poset = duflo_poset(n)
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                assert poset.leq(t, s) == fast_leq(t, s)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orders_coincide_on_two_column_family(self, n):
        poset = duflo_poset(n)
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                assert poset.leq(t, s) == chain_leq(t, s)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_column_set_monotonicity(self, n):
        # strictly related pairs have strictly nested column sets
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                if t != s and fast_leq(t, s):
                    assert set(t.column(1)) < set(s.column(1))
                    assert set(s.column(2)) < set(t.column(2))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_subspace_containment_decides(self, n):
        nodes = two_column(n)
        words = {t: canonical_word(t).word for t in nodes}
        for t in nodes:
            for s in nodes:
                expected = root_position_set(words[s]) <= root_position_set(words[t])
                assert fast_leq(t, s) == expected


class TestStructureLemmas:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equal_top_placement_forces_equal_column_max(self, n):
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                if t != s and chain_leq(t, s) and t.col_of(n) == s.col_of(n):
                    assert t.bottom(1) == s.bottom(1)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_deleting_top_preserves_strict_chain_order(self, n):
        nodes = two_column(n)
        for t in nodes:
            for s in nodes:
                if t == s or not chain_leq(t, s):
                    continue
                if t.col_of(n) == 2 and s.col_of(n) == 2:
                    td = relabel_tableau(delete_corner(t, 2).tableau)
                    sd = relabel_tableau(delete_corner(s, 2).tableau)
                    assert chain_leq(td, sd)
                    assert td != sd or t == s


class TestRuns:
    def test_worked_tableau(self):
        assert runs(make_tableau(WORKED_T)) == [(3, 0), (5, 1)]

    def test_two_gaps(self):
        assert runs(make_tableau([(1, 3), (2, 4)])) == [(2, 0), (4, 0)]

    def test_solid_block(self):
        # a solid run {a..a+k} needs a >= 2r at each row, so {4,5,6} is the
        # smallest length-3 block
        assert runs(make_tableau([(1, 2, 3), (4, 5, 6)])) == [(4, 2)]

    def test_single_column_empty(self):
        assert runs(make_tableau([(1, 2, 3)])) == []


class TestMoveToFirstColumn:
    def test_worked_figure(self):
        t = make_tableau(WORKED_T)
        assert move_to_first_column(t, 6).columns == ((1, 2, 4, 6, 7), (3, 5))

    def test_max_of_second_column(self):
        t = make_tableau([(1, 2, 4), (3,)])
        assert move_to_first_column(t, 3).columns == ((1, 2, 3, 4),)

    def test_absent(self):
        with pytest.raises(InvalidTableauError, match="second column"):
            move_to_first_column(make_tableau([(1, 3), (2, 4)]), 3)

    def test_checks_its_input(self):
        with pytest.raises(InvalidTableauError, match="columns"):
            move_to_first_column(make_tableau([(1,), (2,), (3,)]), 2)
        with pytest.raises(InvalidTableauError, match="standard"):
            move_to_first_column(Tableau([(2,), (3,)]), 3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_results_pass_full_validation(self, n):
        # Results are built unchecked: any second-column entry, and so every
        # cover element, moves into a tableau.
        for t in _standard_tableaux(n, 2):
            moved = [move_to_first_column(t, x) for x in t.column(2)]
            for s in moved + cover(t):
                assert Tableau(s.columns) == s and s.is_standard and s.n == n


class TestCover:
    def test_worked_singleton(self):
        t = make_tableau(WORKED_T)
        assert [row_text(s) for s in cover(t)] == ["1 3; 2 5; 4; 6; 7"]

    def test_square_has_two(self):
        got = cover(make_tableau([(1, 3), (2, 4)]))
        assert got == sorted(
            [make_tableau([(1, 2, 3), (4,)]), make_tableau([(1, 3, 4), (2,)])],
            key=row_text,
        )

    def test_single_column_maximal(self):
        assert cover(make_tableau([(1, 2, 3, 4)])) == []

    def test_n2(self):
        assert cover(make_tableau([(1,), (2,)])) == [make_tableau([(1, 2)])]
        assert cover(make_tableau([(1, 2)])) == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape_law(self, n):
        for t in two_column(n):
            shape = t.shape + (0,) * (2 - len(t.shape))
            for s in cover(t):
                got = s.shape + (0,) * (2 - len(s.shape))
                assert got == (shape[0] + 1, shape[1] - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recursive_matches_explicit(self, n):
        for t in two_column(n):
            assert cover(t) == cover_recursive(t)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trace_index_rule_matches_projection(self, n):
        # ``cover`` keeps a run top x when x is deleted at step x: exactly when
        # x's trace snapshot still has x boxes, and when that snapshot is the
        # straight projection onto 1..x.  Checked for every second-column entry.
        for t in _standard_tableaux(n, 2):
            trace = canonical_word(t).trace
            for x, (snapshot, _) in trace.second_column.items():
                assert (snapshot.n == x) == (project_tableau(t, 1, x) == snapshot)
                assert (trace.steps[n - x].largest == x) == (snapshot.n == x)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_poset_cover(self, n):
        poset = restricted(duflo_poset(n), 2)
        for t in poset.nodes:
            assert cover(t) == sorted(poset.cover_of(t), key=row_text)


class TestTwoRow:
    def test_worked_transpose_word(self):
        s = make_tableau(WORKED_T).transpose()
        assert two_row_canonical_word(s).entries == (3, 1, 5, 2, 6, 4, 7)

    def test_single_row(self):
        t = make_tableau([(i,) for i in range(1, 6)])
        assert two_row_canonical_word(t).entries == (1, 2, 3, 4, 5)

    def test_rejects_three_rows(self):
        with pytest.raises(InvalidTableauError, match="rows"):
            two_row_canonical_word(make_tableau([(1, 2, 3)]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rs_round_trip(self, n):
        for t in two_row(n):
            assert rs_tableau(two_row_canonical_word(t)) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_anti_isomorphism(self, n):
        nodes = two_row(n)
        for t in nodes:
            for s in nodes:
                assert two_row_leq(t, s) == fast_leq(s.transpose(), t.transpose())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_comparison_decides_both_orders(self, n):
        nodes = two_row(n)
        poset = duflo_poset(n)
        words = {t: two_row_canonical_word(t) for t in nodes}
        for t in nodes:
            for s in nodes:
                expected = weak_leq(words[t], words[s])
                assert two_row_leq(t, s) == expected
                assert chain_leq(t, s) == expected
                assert poset.leq(t, s) == expected

    def test_equal(self):
        t = make_tableau([(1, 3), (2,)]).transpose()
        assert two_row_leq(t, t)
