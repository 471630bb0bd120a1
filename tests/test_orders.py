import collections
import dataclasses
import functools
import hashlib
import itertools
import random
import re
import sys
import types

import pytest
from hypothesis import given, strategies as st

from conftest import all_tableaux, all_words, componentwise_rows, two_column
from tableaux import (
    InvalidTableauError,
    Tableau,
    Verdict,
    Word,
    chain_leq,
    chain_poset,
    chain_profile,
    compare,
    dominance_leq,
    duflo_poset,
    hasse_reduce,
    inversion_set,
    make_tableau,
    poset_to_dot,
    poset_to_json,
    project_tableau,
    relabel_tableau,
    row_text,
    rs_tableau,
    tau_tableau,
    weak_leq,
)
from tableaux.errors import LimitError
from tableaux.rsjdt import insert
from tableaux import orders, rsjdt, tableau, verify
from tableaux.verify import (
    coincide_check,
    duflo_base_by_scan,
    extension_check,
    root_position_set,
    subspace_leq,
)


def mahonian(n):
    """Number of permutations of n with k inversions, for each k."""
    counts = [1]
    for m in range(1, n + 1):
        counts = [sum(counts[max(0, k - m + 1):k + 1]) for k in range(len(counts) + m - 1)]
    return counts


def relabel_and_insert_table(n):
    """up[k][i][r - 1]: tableau i of size k with its entries >= r raised by
    one and r inserted, as an index at size k + 1; RS commutes with
    order-preserving relabelling (Schensted 1961)."""
    up, grown = [], tableau._standard_tableaux  # enumerate_tableaux stops at the cap
    for k in range(n):
        index = {t: i for i, t in enumerate(grown(k + 1, None))}
        up.append([tuple(index[insert(r, Tableau([[v + (v >= r) for v in col]
                                                   for col in t.columns]))]
                         for r in range(1, k + 2))
                   for t in grown(k, None)])
    return up


def pair_loop_hasse(rows):
    """The pair-loop order check and Hasse reduction, kept as an oracle:
    reflexivity, antisymmetry over every pair, transitivity over every
    set bit, then each row's covers are its strict bits not below another."""
    m = len(rows)
    for i in range(m):
        if not rows[i] >> i & 1:
            raise InvalidTableauError(f"relation not reflexive at {i}")
    for i in range(m):
        for j in range(i + 1, m):
            if rows[i] >> j & 1 and rows[j] >> i & 1:
                raise InvalidTableauError(f"relation not antisymmetric at ({i}, {j})")
    for i in range(m):
        for k in range(m):
            if rows[i] >> k & 1 and rows[k] & ~rows[i]:
                raise InvalidTableauError(f"relation not transitive at ({i}, {k})")
    edges = []
    for i in range(m):
        strict = rows[i] & ~(1 << i)
        covered = 0
        for k in range(m):
            if strict >> k & 1:
                covered |= rows[k] & ~(1 << k)
        edges.extend((i, j) for j in range(m) if (strict & ~covered) >> j & 1)
    return sorted(edges)


def floyd_warshall_closure(rows):
    """Transitive closure by the k x i loop, kept as an oracle."""
    rows = list(rows)
    for k in range(len(rows)):
        for i in range(len(rows)):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def random_order(rng, m):
    """A random partial order on m nodes, labels shuffled so that index
    order is in general not a linear extension."""
    rows = [1 << i | sum(1 << j for j in range(i + 1, m) if rng.random() < 0.3)
            for i in range(m)]
    rows = floyd_warshall_closure(rows)
    label = list(range(m))
    rng.shuffle(label)
    out = [0] * m
    for i, row in enumerate(rows):
        out[label[i]] = sum(1 << label[j] for j in range(m) if row >> j & 1)
    return out


def as_extension(rng, rows):
    """``rows`` relabelled so that index order is a linear extension:
    decreasing up-set size, ties in random order."""
    m = len(rows)
    order = sorted(range(m), key=lambda i: (-rows[i].bit_count(), rng.random()))
    where = {old: new for new, old in enumerate(order)}
    return [sum(1 << where[b] for b in range(m) if rows[a] >> b & 1) for a in order]


def off_diagonal(rows):
    """The pairs (a, b), a != b, of a relation given as row bitmasks."""
    return {(a, b) for a, row in enumerate(rows) for b in range(len(rows))
            if a != b and row >> b & 1}


# Nodes to name random relations by: 76 tableaux with distinct row texts.
LABELS = tuple(all_tableaux(6))


def check_closure(rows):
    """``_closure`` on the off-diagonal pairs of ``rows`` against the
    Floyd-Warshall closure of the reflexive rows: equal when that closure is
    antisymmetric, else the antisymmetry error naming two mutually
    reachable nodes, lower index first.  Returns whether it raised."""
    nodes = LABELS[:len(rows)]
    closed = floyd_warshall_closure([row | 1 << i for i, row in enumerate(rows)])
    try:
        got = orders._closure(nodes, off_diagonal(rows))
    except RuntimeError as exc:
        named = re.fullmatch(r"antisymmetry violation in the induced order \((.*) / (.*)\)",
                             str(exc))
        index = {row_text(t): i for i, t in enumerate(nodes)}
        i, j = index[named[1]], index[named[2]]
        assert i < j and closed[i] >> j & 1 and closed[j] >> i & 1
        return True
    assert got == closed
    assert len(set(closed)) == len(closed)
    return False


def outcome(f, rows):
    try:
        return f(rows)
    except Exception as exc:  # the error class is compared, not raised
        return type(exc)


def windowwise_chain_leq(t, s):
    """The chain order by its definition: dominance_leq on every window."""
    pt, ps = chain_profile(t), chain_profile(s)
    return all(dominance_leq(pt[key], ps[key]) for key in pt)


def windowwise_rows(nodes):
    """Row bitmasks of the chain order by its definition, dominance_leq on
    every window, called once per pair of distinct shapes of a window: the
    nodes are grouped by their shape there."""
    profiles = [chain_profile(t) for t in nodes]
    rows = [(1 << len(nodes)) - 1] * len(nodes)
    for key in profiles[0]:
        holding = {}
        for k, profile in enumerate(profiles):
            holding[profile[key]] = holding.get(profile[key], 0) | 1 << k
        above = {a: sum(mask for b, mask in holding.items() if dominance_leq(a, b))
                 for a in holding}
        rows = [row & above[profile[key]] for row, profile in zip(rows, profiles)]
    return rows


@st.composite
def chain_pairs(draw):
    """A random tableau of size 10..14, one above it (the insertion tableau
    of its word after some ascent swaps, so chain-related), and one drawn
    independently."""
    n = draw(st.integers(10, 14))
    word = list(draw(st.permutations(range(1, n + 1))))
    other = draw(st.permutations(range(1, n + 1)))
    higher = list(word)
    for a in draw(st.lists(st.integers(0, n - 2), max_size=12)):
        if higher[a] < higher[a + 1]:
            higher[a], higher[a + 1] = higher[a + 1], higher[a]
    return (rs_tableau(Word(word)), rs_tableau(Word(higher)),
            rs_tableau(Word(other)))


def poset_pairs(poset):
    for i, t in enumerate(poset.nodes):
        for j, s in enumerate(poset.nodes):
            yield t, s, bool(poset.leq_rows[i] >> j & 1)


class TestChainProfile:
    def test_full_window_is_shape(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        assert chain_profile(t)[(1, 5)] == (3, 2)

    def test_adjacent_windows_are_dominoes(self):
        t = make_tableau([(1, 2, 5), (3, 4)])
        profile = chain_profile(t)
        tau = tau_tableau(t)
        for i in range(1, 5):
            assert profile[(i, i + 1)] == ((2,) if i in tau else (1, 1))

    def test_single_row(self):
        t = make_tableau([(i,) for i in range(1, 5)])
        profile = chain_profile(t)
        for (i, j), shape in profile.items():
            assert shape == tuple([1] * (j - i + 1))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_projection_shapes(self, n):
        for t in all_tableaux(n):
            profile = chain_profile(t)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert profile[(i, j)] == project_tableau(t, i, j).shape

    @given(chain_pairs())
    def test_matches_projection_shapes_at_large_n(self, pair):
        # Window by window through project_tableau: an oracle that shares
        # no vector with chain_leq.
        t = pair[0]
        profile = chain_profile(t)
        for i in range(1, t.n):
            for j in range(i + 1, t.n + 1):
                assert profile[(i, j)] == project_tableau(t, i, j).shape

    def test_batch_equals_one_at_a_time(self):
        # Sizes mixed and repeated in one batch, so its memo sees
        # sub-tableaux of every size.
        batch = [t for n in (6, 3, 5, 6, 1, 0, 4) for t in all_tableaux(n)]
        assert orders._chain_vectors(batch) == [orders._chain_vectors((t,))[0] for t in batch]

    def test_non_standard_rejected(self):
        with pytest.raises(InvalidTableauError, match="defined for standard tableaux"):
            chain_profile(Tableau([(2, 3)]))

    def test_cached_profile_is_read_only(self):
        t = make_tableau([(1, 3), (2, 4)])
        s = make_tableau([(1, 3, 4), (2,)])
        before = (chain_leq(t, s), chain_leq(s, t))
        with pytest.raises(TypeError):
            chain_profile(t)[(1, 4)] = (4,)
        assert chain_profile(t)[(1, 4)] == (2, 2)
        assert (chain_leq(t, s), chain_leq(s, t)) == before == (True, False)


class TestChainLeq:
    def test_reflexive(self):
        t = make_tableau([(1, 3), (2, 4)])
        assert chain_leq(t, t)

    def test_derived_pair(self):
        assert chain_leq(make_tableau([(1, 3), (2, 4)]),
                         make_tableau([(1, 3, 4), (2,)]))
        assert not chain_leq(make_tableau([(1, 3, 4), (2,)]),
                             make_tableau([(1, 3), (2, 4)]))

    def test_same_shape_two_column_incomparable(self):
        t = make_tableau([(1, 2, 4), (3, 5)])
        s = make_tableau([(1, 2, 5), (3, 4)])
        assert not chain_leq(t, s) and not chain_leq(s, t)

    def test_same_shape_wide_pair_can_compare(self):
        # three-column pair of equal shape that is strictly chain-related
        t = make_tableau([(1, 3, 6), (2, 4), (5,)])
        s = make_tableau([(1, 3, 4), (2, 6), (5,)])
        assert t.shape == s.shape
        assert chain_leq(t, s) and not chain_leq(s, t)

    def test_size_mismatch(self):
        with pytest.raises(InvalidTableauError, match="mismatch"):
            chain_leq(make_tableau([(1,)]), make_tableau([(1, 2)]))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_top_window_forces_shape_dominance(self, n):
        from tableaux import dominance_leq

        for t in all_tableaux(n):
            for s in all_tableaux(n):
                if chain_leq(t, s):
                    assert dominance_leq(t.shape, s.shape)

    @given(chain_pairs())
    def test_matches_windowwise_dominance(self, pair):
        t, higher, other = pair
        assert chain_leq(t, higher)
        for a, b in ((t, higher), (higher, t), (t, other), (other, t)):
            assert chain_leq(a, b) == windowwise_chain_leq(a, b)


def tuple_vector(t):
    """The chain vector as a tuple, window by window through project_tableau:
    the first j - i prefix sums of each window's column heights."""
    return tuple(itertools.chain.from_iterable(
        itertools.islice(itertools.accumulate(project_tableau(t, i, j).shape + (0,) * (j - i)),
                         j - i)
        for i, j in itertools.combinations(range(1, t.n + 1), 2)))


def tuple_leq(t, s):
    """The componentwise comparison of the vectors' fields, one pair at a time."""
    return not any(map(int.__gt__, orders._chain_vector(t), orders._chain_vector(s)))


class TestPackedVectors:
    @pytest.mark.parametrize("n", range(0, 10))
    def test_chain_rows_match_the_tuple_oracle(self, n):
        nodes = all_tableaux(n)
        assert orders._chain_rows(nodes) == componentwise_rows([tuple_vector(t) for t in nodes])

    @pytest.mark.parametrize("n", range(0, 13))
    def test_two_column_rows_match_the_tuple_oracle(self, n):
        nodes = tableau._standard_tableaux(n, 2)
        assert orders._chain_rows(nodes) == componentwise_rows([tuple_vector(t) for t in nodes])

    @pytest.mark.parametrize("n", range(0, 7))
    def test_chain_leq_matches_the_tuple_comparison(self, n):
        nodes = all_tableaux(n)
        for t in nodes:
            assert orders._chain_vector(t) == bytes(tuple_vector(t))
            for s in nodes:
                assert chain_leq(t, s) == tuple_leq(t, s)

    def test_chain_leq_matches_the_tuple_comparison_at_14(self):
        # Half the pairs are a tableau and one above it (ascents of its word
        # swapped), so both answers occur.
        rng, seen = random.Random(14), collections.Counter()
        for k in range(2000):
            word = rng.sample(range(1, 15), 14)
            other = list(word) if k % 2 else rng.sample(range(1, 15), 14)
            for _ in range(3 * (k % 2)):
                a = rng.randrange(13)
                if other[a] < other[a + 1]:
                    other[a], other[a + 1] = other[a + 1], other[a]
            t, s = rs_tableau(Word(word)), rs_tableau(Word(other))
            seen[chain_leq(t, s)] += 1
            assert chain_leq(t, s) == tuple_leq(t, s)
        assert seen[True] > 500 and seen[False] > 500

    def test_vectors_are_bytes(self):
        for t in all_tableaux(5):
            assert type(orders._chain_vector(t)) is bytes
        assert all(type(v) is bytes for v in orders._chain_vectors(all_tableaux(5)))

    def test_wide_fields_past_127(self):
        # A field reaches n (window (1, n) of one column), so n = 129 takes
        # two bytes a field; one byte would carry into the guard bits.
        n = 129
        row = make_tableau([(v,) for v in range(1, n + 1)])
        column = make_tableau([tuple(range(1, n + 1))])
        t = rs_tableau(Word(random.Random(n).sample(range(1, n + 1), n)))
        assert len(orders._chain_vector(t)) == 2 * (n + 1) * n * (n - 1) // 6
        assert chain_profile(column)[(1, n)] == (n,)
        assert orders._chain_vectors([row, t, column]) == [orders._chain_vector(u)
                                                           for u in (row, t, column)]
        assert chain_leq(row, t) and not chain_leq(t, row)
        assert chain_leq(t, column) and windowwise_chain_leq(t, column)
        assert not chain_leq(column, t) and not windowwise_chain_leq(column, t)

    def test_threshold_rows_past_one_byte(self):
        # Characters past 255, as two-byte fields give, with a shared suffix.
        rng = random.Random(3)
        vectors = [[rng.choice((1, 200, 300, 1000)) for _ in range(5)] for _ in range(40)]
        alphabet = "".join(map(chr, sorted({x for v in vectors for x in v})))
        texts = ["".join(map(chr, v)) for v in vectors]
        assert orders._threshold_rows(texts, alphabet, [2]) == componentwise_rows(vectors)


class TestChainPoset:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_match_windowwise_dominance(self, n):
        p = chain_poset(n)
        assert list(p.leq_rows) == windowwise_rows(p.nodes)

    def test_build_slides_once_per_sub_tableau(self, monkeypatch):
        # One slide per standard tableau of size 3..8 down the deletion
        # chains; a vector per tableau from scratch makes 5348.
        slide, calls = orders._slide_out, []

        def spy(*args):
            calls.append(1)
            return slide(*args)

        monkeypatch.setattr(orders, "_slide_out", spy)
        orders._chain_poset.cache_clear()
        p = orders._chain_poset(8)
        assert len(p.nodes) == 764 and len(p.hasse) == 2460
        assert len(calls) <= sum(len(all_tableaux(k)) for k in range(3, 9)) == 1112

    def test_default_limit(self):
        with pytest.raises(LimitError, match=r"^chain poset at n=10 exceeds the limit 9$"):
            chain_poset(10)
        assert chain_poset(9) is chain_poset(9, limit=9)

    def test_pinned_at_9(self):
        p = chain_poset(9, limit=9)
        assert sum(bin(r).count("1") for r in p.leq_rows) == 301573
        assert len(p.hasse) == 9788
        digest = hashlib.sha256(poset_to_json(p).encode()).hexdigest()
        assert digest == "70aae659fcf5ec95dd4129444a1c99c0a7dad960a1d012c44f5f342dc951945b"
        digest = hashlib.sha256(poset_to_dot(p).encode()).hexdigest()
        assert digest == "7897cf9cc0b4fd56989a9c13d732df4c994cb0de3493f4ba9f5c879c22fa9ca3"

    def test_pinned_at_8(self):
        digest = hashlib.sha256(poset_to_json(chain_poset(8)).encode()).hexdigest()
        assert digest == "e867518fefeb9d17b6c75b1543bc9d7bddb9baaf4149e82306f12476882f0420"


class TestDufloPoset:
    def test_n2(self):
        p = duflo_poset(2)
        row = make_tableau([(1,), (2,)])
        col = make_tableau([(1, 2)])
        assert p.leq(row, col) and not p.leq(col, row)
        assert p.hasse == ((0, 1),)

    def test_n3_structure(self):
        p = duflo_poset(3)
        assert len(p.nodes) == 4
        assert len(p.hasse) == 4
        # graded by shape dominance
        from tableaux import dominance_leq

        for t, s, related in poset_pairs(p):
            if related:
                assert dominance_leq(t.shape, s.shape)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_base_relation_matches_pair_scan(self, n):
        assert duflo_poset(n).base_rows == duflo_base_by_scan(n)

    def test_base_differs_from_closure_at_6(self):
        p = duflo_poset(6)
        assert p.base_rows != p.leq_rows

    def test_base_rows_only_on_full_duflo_posets(self):
        assert chain_poset(4).base_rows is None
        assert duflo_poset(4).restrict(lambda t: True).base_rows is None

    def test_build_sweeps_no_words(self, monkeypatch):
        # The build grows cover pairs on tableaux: no word sweep, and no
        # insertion, since the up-table follows the local rule on the growth
        # tree.  Only the lazy base_rows sweeps, all 8! words, once.
        sweep, sweep_layer, insert_columns = (orders._up_set_sweep, orders._sweep_layer,
                                              orders._insert_columns)
        sweeps, layers, inserted = [], [], []

        def sweep_spy(n, index):
            sweeps.append(n)
            return sweep(n, index)

        def layer_spy(n, layer, *args):
            layers.append(len(layer))
            return sweep_layer(n, layer, *args)

        def insert_spy(j, cols):
            inserted.append(j)
            return insert_columns(j, cols)

        monkeypatch.setattr(orders, "_up_set_sweep", sweep_spy)
        monkeypatch.setattr(orders, "_sweep_layer", layer_spy)
        monkeypatch.setattr(orders, "_insert_columns", insert_spy)
        monkeypatch.setattr(rsjdt, "_insert_columns", insert_spy)
        monkeypatch.setattr(orders, "_duflo_base",
                            functools.lru_cache(maxsize=None)(orders._duflo_base.__wrapped__))
        p = orders._duflo_poset.__wrapped__(8)
        assert len(p.hasse) == 2498
        assert sweeps == layers == []
        assert inserted == []
        assert p.base_rows == p.base_rows
        assert sweeps == [8]
        assert sum(layers) == sum(mahonian(8)) == 40320

    def test_up_table_matches_relabel_and_insert(self):
        # The local rule against the table's definition, level by level.
        table = relabel_and_insert_table(10)
        for n in range(11):
            assert orders._up_table(n) == table[:n]

    def test_pair_count_at_11(self):
        assert len(orders._duflo_edges(11)) == 469580

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edges_are_the_word_covers(self, n):
        # RS on every word: the pairs (T(w), T(w s_a)) with w_a < w_{a + 1}
        # and T(w) != T(w s_a).
        index = {t: i for i, t in enumerate(all_tableaux(n))}
        covers = set()
        for w in all_words(n):
            e = w.entries
            for a in range(n - 1):
                if e[a] < e[a + 1]:
                    swapped = e[:a] + (e[a + 1], e[a]) + e[a + 2:]
                    covers.add((index[rs_tableau(e)], index[rs_tableau(swapped)]))
        assert orders._duflo_edges(n) == {(a, b) for a, b in covers if a != b}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_partial_order(self, n):
        p = duflo_poset(n)
        rows = p.leq_rows
        m = len(rows)
        for i in range(m):
            assert rows[i] >> i & 1
            for j in range(m):
                if i != j:
                    assert not (rows[i] >> j & 1 and rows[j] >> i & 1)

    @pytest.mark.parametrize("n, base, leq, edges", [(7, 5513, 5865, 640),
                                                     (8, 35779, 39787, 2498)])
    def test_pair_and_edge_counts(self, n, base, leq, edges):
        p = duflo_poset(n, limit=n)
        assert sum(bin(r).count("1") for r in p.base_rows) == base
        assert sum(bin(r).count("1") for r in p.leq_rows) == leq
        assert len(p.hasse) == edges

    def test_pinned_at_9(self):
        p = duflo_poset(9, limit=9)
        assert sum(bin(r).count("1") for r in p.leq_rows) == 287595
        assert len(p.hasse) == 9826
        digest = hashlib.sha256(poset_to_json(p).encode()).hexdigest()
        assert digest == "b420425407f26fd476d5fea04dee3122e1385787a4dc68b8249b10c922d7943a"
        digest = hashlib.sha256(poset_to_dot(p).encode()).hexdigest()
        assert digest == "3df2aa8048396aabdbd049d1d82fa943fcdffc8bb1eac591d839b2edb63204a1"

    def test_cyclic_base_names_its_tableaux(self, monkeypatch):
        # The reverse of the pair (1 2 3, 1 2; 3): a 2-cycle.
        edges = orders._duflo_edges
        monkeypatch.setattr(orders, "_duflo_edges", lambda n: edges(n) | {(1, 0)})
        with pytest.raises(RuntimeError, match=r"induced order \(1 2 3 / 1 2; 3\)"):
            orders._duflo_poset.__wrapped__(3)

    def test_cycle_in_induced_order_names_its_tableaux(self, monkeypatch):
        # 0 -> 2 -> 1 -> 0 with the pair (0, 1) dropped: a 3-cycle, no
        # 2-cycle, and the named nodes are related only through the closure.
        pairs = orders._duflo_edges(3) - {(0, 1)} | {(2, 1), (1, 0)}
        assert not any((b, a) in pairs for a, b in pairs if a != b)
        monkeypatch.setattr(orders, "_duflo_edges", lambda n: pairs)
        with pytest.raises(RuntimeError, match=r"induced order \(1 2 3 / 1 2; 3\)"):
            orders._duflo_poset.__wrapped__(3)

    def test_closure_reads_each_pair_once(self, monkeypatch):
        # One pass, sinks first: each grown pair is read once, and no line of
        # the closure runs more than once per pair and node (764 at n = 8).
        # A sweep repeated until nothing changes runs its inner line once per
        # pair, or per closed pair (39787), on every sweep.
        edges, reads, lines = orders._duflo_edges, collections.Counter(), collections.Counter()

        class Spy(set):
            def __iter__(self):
                for pair in super().__iter__():
                    reads[pair] += 1
                    yield pair

        def count_lines(frame, event, arg):
            if event == "line":
                lines[frame.f_code, frame.f_lineno] += 1
            return count_lines

        code = orders._closure.__code__
        closure_code = {code, *(c for c in code.co_consts if isinstance(c, types.CodeType))}

        def trace(frame, event, arg):
            return count_lines if frame.f_code in closure_code else None

        monkeypatch.setattr(orders, "_duflo_edges", lambda n: Spy(edges(n)))
        before = sys.gettrace()
        sys.settrace(trace)
        try:
            p = orders._duflo_poset.__wrapped__(8)
        finally:
            sys.settrace(before)
        assert sum(reads.values()) == len(reads) == 5240
        assert all(a != b for a, b in reads)
        assert 5240 <= max(lines.values()) <= 5240 + 764
        assert p.leq_rows == duflo_poset(8, limit=8).leq_rows

    @pytest.mark.parametrize("n, nodes", [(8, 15), (9, 18)])
    def test_longest_pair_path(self, n, nodes):
        # The closure's recursion depth is at most this path's node count.
        succ = collections.defaultdict(list)
        for a, b in orders._duflo_edges(n):
            if a != b:
                succ[a].append(b)

        @functools.lru_cache(maxsize=None)
        def longest(a):
            return 1 + max(map(longest, succ[a]), default=0)

        assert max(map(longest, range(len(duflo_poset(n, limit=n).nodes)))) == nodes

    def test_limit(self):
        with pytest.raises(LimitError):
            duflo_poset(10, limit=10)
        with pytest.raises(LimitError, match=r"^Duflo poset at n=10 exceeds the limit 9$"):
            duflo_poset(10)
        with pytest.raises(LimitError, match=r"^Duflo poset at n=8 exceeds the limit 7$"):
            duflo_poset(8, limit=7)

    def test_cached_poset_is_read_only(self):
        p = duflo_poset(4)
        before = p.leq_rows
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.leq_rows = (0,) * len(p.nodes)
        with pytest.raises(TypeError):
            p._index[p.nodes[0]] = 1
        assert duflo_poset(4).leq_rows == before
        assert all(duflo_poset(4).leq(t, t) for t in p.nodes)


class TestOrderContainments:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_duflo_within_chain(self, n):
        dp = duflo_poset(n)
        cp = chain_poset(n)
        assert dp.nodes == cp.nodes
        for i in range(len(dp.nodes)):
            assert dp.leq_rows[i] & ~cp.leq_rows[i] == 0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_coincide_through_5(self, n):
        assert duflo_poset(n).leq_rows == chain_poset(n).leq_rows

    def test_proper_extension_at_6(self):
        dp = duflo_poset(6)
        cp = chain_poset(6)
        assert dp.leq_rows != cp.leq_rows

    @pytest.mark.parametrize("n", range(2, 7))
    def test_tau_monotone_both_orders(self, n):
        for poset in (duflo_poset(n), chain_poset(n)):
            for t, s, related in poset_pairs(poset):
                if related:
                    assert tau_tableau(t) <= tau_tableau(s)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_transpose_reverses_both_orders(self, n):
        # T <= S iff S^t <= T^t: relabel each pair through transposition,
        # swap its ends, and compare the whole relation.
        for poset in (duflo_poset(n, limit=n), chain_poset(n, limit=n)):
            tau = [poset.index_of(t.transpose()) for t in poset.nodes]
            reversed_rows = [0] * len(tau)
            for i, row in enumerate(poset.leq_rows):
                while row:
                    k = (row & -row).bit_length() - 1
                    row ^= 1 << k
                    reversed_rows[tau[k]] |= 1 << tau[i]
            assert tuple(reversed_rows) == poset.leq_rows

    @pytest.mark.parametrize("n", range(2, 6))
    def test_chain_respects_projections(self, n):
        cp = chain_poset(n)
        windows = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for t, s, related in poset_pairs(cp):
            if not related:
                continue
            for i, j in windows:
                pt = relabel_tableau(project_tableau(t, i, j))
                ps = relabel_tableau(project_tableau(s, i, j))
                assert chain_leq(pt, ps)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_duflo_respects_projections_and_insertion(self, n):
        dp = duflo_poset(n)
        windows = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        smaller = {m: duflo_poset(m) for m in range(1, n + 1)}
        bigger = duflo_poset(n + 1)
        for t, s, related in poset_pairs(dp):
            if not related:
                continue
            for i, j in windows:
                pt = relabel_tableau(project_tableau(t, i, j))
                ps = relabel_tableau(project_tableau(s, i, j))
                assert smaller[j - i + 1].leq(pt, ps)
            assert bigger.leq(insert(n + 1, t), insert(n + 1, s))


class TestVerifySuites:
    def test_extension_witness_at_6(self):
        result = extension_check(6)
        assert result.passed
        assert result.counterexample == "T=1 2 3; 4 5 6 S=1 2 5; 3 6; 4 order=chain-not-duflo"

    def test_extension_fails_on_duflo_pair_outside_chain(self, monkeypatch):
        dp, cp = duflo_poset(6), chain_poset(6)
        m = len(dp.nodes)
        i, j = next((i, j) for i in range(m) for j in range(m)
                    if not cp.leq_rows[i] >> j & 1)
        rows = list(dp.leq_rows)
        rows[i] |= 1 << j
        broken = dataclasses.replace(dp, leq_rows=tuple(rows))
        monkeypatch.setattr(verify, "_duflo_poset", lambda n: broken)
        result = extension_check(6)
        assert not result.passed
        assert result.counterexample == (
            f"T={row_text(dp.nodes[i])} S={row_text(dp.nodes[j])} order=duflo-not-chain")

    def test_coincide_counterexample_at_6(self):
        result = coincide_check(6)
        assert not result.passed
        assert result.counterexample == "T=1 2 3; 4 5 6 S=1 2 5; 3 6; 4 order=duflo-vs-chain"

    def test_criterion_reports_first_counterexample(self, monkeypatch):
        # A FAIL counts all pairs.
        monkeypatch.setattr(verify, "fast_leq_criterion", lambda t, s: t == s)
        result = verify.criterion_check(3)
        assert not result.passed and result.population == 9
        assert result.counterexample == "T=1 2; 3 S=1; 2; 3 order=criterion-vs-word"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_no_extension_through_5(self, n):
        assert coincide_check(n).passed
        assert not extension_check(n).passed

    def test_extension_without_a_pair_says_so(self):
        result = extension_check(5)
        assert not result.passed
        assert result.counterexample == "no chain-not-duflo pair"
        assert result.line().endswith("\n  counterexample: no chain-not-duflo pair")


class TestRootPositionSets:
    def test_identity_has_all_pairs(self):
        w = Word([1, 2, 3, 4])
        assert root_position_set(w) == {
            (i, j) for i in range(1, 5) for j in range(i + 1, 5)
        }

    def test_reversal_empty(self):
        assert root_position_set(Word([4, 3, 2, 1])) == frozenset()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_complement_of_inversions(self, n):
        for w in all_words(n):
            everything = {(i, j) for j in range(2, n + 1) for i in range(1, j)}
            assert root_position_set(w) == everything - inversion_set(w).pairs

    @pytest.mark.parametrize("n", range(2, 6))
    def test_subspace_leq_equals_weak_leq(self, n):
        for w in all_words(n):
            for y in all_words(n):
                assert subspace_leq(w, y) == weak_leq(w, y)

    def test_examples(self):
        assert subspace_leq(Word([1, 2, 3]), Word([2, 1, 3]))
        w = Word([2, 5, 1, 4, 3])
        assert subspace_leq(w, w)


class TestVerdicts:
    def test_equal(self):
        t = make_tableau([(1, 2)])
        assert compare(t, t, chain_leq) is Verdict.EQUAL

    def test_less_greater(self):
        t = make_tableau([(1, 3), (2, 4)])
        s = make_tableau([(1, 3, 4), (2,)])
        assert compare(t, s, chain_leq) is Verdict.LESS
        assert compare(s, t, chain_leq) is Verdict.GREATER

    def test_incomparable(self):
        t = make_tableau([(1, 2, 4), (3, 5)])
        s = make_tableau([(1, 2, 5), (3, 4)])
        assert compare(t, s, chain_leq) is Verdict.INCOMPARABLE

    def test_str(self):
        assert str(Verdict.LESS) == "Less"


class TestHasse:
    def test_chain(self):
        rows = (0b111, 0b110, 0b100)
        assert hasse_reduce(rows) == [(0, 1), (1, 2)]

    def test_antichain(self):
        rows = (0b001, 0b010, 0b100)
        assert hasse_reduce(rows) == []

    def test_rejects_non_order(self):
        with pytest.raises(InvalidTableauError, match="reflexive"):
            hasse_reduce((0b10, 0b10))
        with pytest.raises(InvalidTableauError, match="antisymmetric"):
            hasse_reduce((0b11, 0b11))
        with pytest.raises(InvalidTableauError, match="transitive"):
            hasse_reduce((0b011, 0b110, 0b100))
        with pytest.raises(InvalidTableauError, match="beyond"):
            hasse_reduce((0b101,))
        with pytest.raises(InvalidTableauError, match="beyond"):
            hasse_reduce((0b01, 0b110))

    def test_rejects_cycle_through_three_nodes(self):
        # Reflexive and without 2-cycles, but not transitive.
        with pytest.raises(InvalidTableauError, match="transitive"):
            hasse_reduce((0b011, 0b110, 0b101))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closure_of_hasse_restores_poset(self, n):
        for poset in (duflo_poset(n), chain_poset(n)):
            m = len(poset.nodes)
            rows = [1 << i for i in range(m)]
            for a, b in poset.hasse:
                rows[a] |= 1 << b
            assert tuple(floyd_warshall_closure(rows)) == poset.leq_rows


class TestFinishingLayerOracles:
    """``hasse_reduce`` and ``_closure`` against the pair-loop check and
    reduction and the Floyd-Warshall closure, on seeded random relations."""

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_partial_orders(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            rows = random_order(rng, rng.randrange(0, 14))
            assert hasse_reduce(rows) == pair_loop_hasse(rows)
            assert orders._closure(LABELS[:len(rows)], off_diagonal(rows)) == rows

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_orders_in_a_linear_extension(self, seed):
        rng = random.Random(400 + seed)
        for _ in range(100):
            rows = as_extension(rng, random_order(rng, rng.randrange(0, 14)))
            assert all(row & (1 << i + 1) - 1 == 1 << i for i, row in enumerate(rows))
            assert hasse_reduce(rows) == pair_loop_hasse(rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_bit_corruptions_in_a_linear_extension(self, seed):
        # A bit flipped above the diagonal keeps the rows upper-triangular,
        # so they are reduced as given; one on or below it sends them
        # through the re-index.  Both kinds raise and both pass.
        rng = random.Random(500 + seed)
        seen = collections.Counter()
        for _ in range(200):
            m = rng.randrange(1, 14)
            rows = as_extension(rng, random_order(rng, m))
            a, b = rng.randrange(m), rng.randrange(m)
            rows[a] ^= 1 << b
            expected = outcome(pair_loop_hasse, rows)
            assert outcome(hasse_reduce, rows) == expected
            seen[b > a, expected is InvalidTableauError] += 1
        assert min(seen[kind] for kind in itertools.product((True, False), repeat=2)) > 5

    @pytest.mark.parametrize("seed", range(4))
    def test_downward_paths(self, seed):
        # The path m - 1 -> ... -> 0 under random pairs that also point to
        # lower indices: a sweep from the last node needs a sweep per pair.
        # Labels flipped, the same holds for a sweep from the first node.
        rng = random.Random(300 + seed)
        for m in range(1, 14):
            rows = [1 << a | (a and 1 << a - 1)
                    | sum(1 << b for b in range(a) if rng.random() < 0.2) for a in range(m)]
            flipped = [sum(1 << m - 1 - b for b in range(m) if rows[a] >> b & 1)
                       for a in reversed(range(m))]
            assert check_closure(rows) is check_closure(flipped) is False
            assert orders._closure(LABELS[:m], off_diagonal(rows))[-1] == (1 << m) - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_single_bit_corruptions(self, seed):
        rng = random.Random(100 + seed)
        raised = 0
        for _ in range(150):
            rows = random_order(rng, rng.randrange(1, 14))
            m = len(rows)
            rows[rng.randrange(m)] ^= 1 << rng.randrange(m)
            expected = outcome(pair_loop_hasse, rows)
            assert outcome(hasse_reduce, rows) == expected
            raised += expected is InvalidTableauError
            check_closure(rows)
        assert raised > 50

    @pytest.mark.parametrize("seed", range(4))
    def test_cycles(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(100):
            m = rng.randrange(2, 14)
            rows = random_order(rng, m)
            cycle = rng.sample(range(m), rng.randrange(2, m + 1))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                rows[a] |= 1 << b
            assert check_closure(rows)
            closed = floyd_warshall_closure(rows)
            for relation in (rows, closed):
                assert outcome(hasse_reduce, relation) is InvalidTableauError
                assert outcome(pair_loop_hasse, relation) is InvalidTableauError

    @pytest.mark.parametrize("n", (8, 9))
    def test_builds_reduce_the_rows_as_given(self, n, monkeypatch):
        # The re-index is the one sort in a build: spied on, it never runs,
        # and the spy does see it on rows out of a linear extension.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(orders, "sorted", spy, raising=False)
        duflo, chain = orders._duflo_poset.__wrapped__(n), orders._chain_poset.__wrapped__(n)
        diagrams = [sub.hasse for poset in (duflo, chain)
                    for sub in (poset, poset.restrict(lambda t: len(t.columns) <= 2))]
        assert calls == [] and len(diagrams) == 4
        assert duflo.hasse == duflo_poset(n, limit=n).hasse
        assert chain.hasse == chain_poset(n, limit=n).hasse
        assert hasse_reduce((0b01, 0b11)) == [(1, 0)]
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_posets_match_oracles(self, n):
        # The closure of the swept base relation against the closure of the
        # grown cover pairs.
        dp, cp = duflo_poset(n, limit=n), chain_poset(n, limit=n)
        assert tuple(floyd_warshall_closure(dp.base_rows)) == dp.leq_rows
        for poset in (dp, cp):
            assert list(poset.hasse) == pair_loop_hasse(poset.leq_rows)


class TestCoverOf:
    def test_maximal_node_empty(self):
        p = duflo_poset(3)
        column = make_tableau([(1, 2, 3)])
        assert p.cover_of(column) == []

    def test_n2_row_covers_to_column(self):
        p = duflo_poset(2)
        row = make_tableau([(1,), (2,)])
        assert p.cover_of(row) == [make_tableau([(1, 2)])]

    def test_absent_node(self):
        p = duflo_poset(2)
        with pytest.raises(InvalidTableauError, match="node"):
            p.index_of(make_tableau([(1, 2, 3)]))


class TestRestriction:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_two_column_restriction_preserves_relation(self, n):
        full = duflo_poset(n)
        sub = full.restrict(lambda t: len(t.columns) <= 2)
        assert all(len(t.columns) <= 2 for t in sub.nodes)
        for t in sub.nodes:
            for s in sub.nodes:
                assert sub.leq(t, s) == full.leq(t, s)


class TestDerivedHasse:
    """A poset holds its nodes and relation; the Hasse diagram and the node
    index are derived from them on first read."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hasse_is_the_reduced_relation_read_once(self, n):
        for full in (duflo_poset(n), chain_poset(n)):
            for poset in (full, full.restrict(lambda t: len(t.columns) <= 2)):
                first = poset.hasse
                assert list(first) == hasse_reduce(poset.leq_rows)
                assert poset.hasse is first

    def test_hasse_cannot_be_assigned(self):
        poset = duflo_poset(4).restrict(lambda t: len(t.columns) <= 2)
        for _ in range(2):
            with pytest.raises(dataclasses.FrozenInstanceError):
                poset.hasse = ()
            assert poset.hasse == tuple(hasse_reduce(poset.leq_rows))

    def test_non_order_builds_and_fails_on_export(self, monkeypatch):
        # 0 < 1 < 2 without 0 < 2: the build takes the rows as given, and
        # the first read of the Hasse diagram checks them.
        rows = [0b0011, 0b0110, 0b0100, 0b1000]
        monkeypatch.setattr(orders, "_closure", lambda nodes, pairs: rows)
        poset = orders._duflo_poset.__wrapped__(3)
        assert poset.leq_rows == tuple(rows)
        with pytest.raises(InvalidTableauError, match="transitive"):
            poset_to_json(poset)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_chain_vectors_are_distinct(self, n):
        # The windows (1, j) are the shapes of T restricted to 1..j, T's own
        # chain of diagrams, so they alone tell tableaux apart; the chain
        # rows are then antisymmetric without a check.
        nodes = all_tableaux(n)
        vectors = orders._chain_vectors(nodes)
        assert len({v[:n * (n - 1) // 2] for v in vectors}) == len(nodes)
