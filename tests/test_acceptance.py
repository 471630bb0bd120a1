"""Acceptance gate: every headline claim checked at its stated size.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line (visible
with `pytest -s` or on failure).  All checks are exact; there are no
tolerances anywhere.
"""

import random

import pytest

from conftest import all_tableaux, all_words, restricted, two_column
from tableaux import (
    Word,
    canonical_word,
    cell,
    chain_leq,
    cover,
    delete_corner,
    duflo_poset,
    chain_poset,
    fast_leq,
    insert,
    jdt_remove,
    make_tableau,
    poset_to_dot,
    poset_to_json,
    reverse,
    row_text,
    rs_steps,
    rs_tableau,
    tau_tableau,
    tau_word,
    two_row_canonical_word,
    two_row_leq,
    weak_leq,
)
from tableaux.orders import _chain_poset, _duflo_poset
from tableaux.verify import cover_recursive, fast_leq_criterion
from tableaux.tableau import corners


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestCriterion1WorkedExamples:
    def test_rs_trace(self):
        steps = rs_steps(Word([2, 5, 1, 4, 3]))
        ok = [row_text(t) for t in steps] == [
            "3", "3; 4", "1 3; 4", "1 3; 4; 5", "1 3; 2 4; 5",
        ]
        report("criterion-1 rs worked example", ok)

    def test_corner_deletion(self):
        out = delete_corner(make_tableau([(1, 2, 5), (3, 4)]), 2)
        ok = row_text(out.tableau) == "1 3; 4; 5" and out.pushed_out == 2
        report("criterion-1 corner deletion", ok)

    def test_jdt_figures(self):
        t = make_tableau([(1, 3, 6), (2, 4), (5,)])
        ok = (
            row_text(jdt_remove(t, [6])) == "1 2 5; 3 4"
            and row_text(jdt_remove(t, [3])) == "1 2 5; 4; 6"
            and row_text(jdt_remove(t, [1, 2])) == "3 4 5; 6"
        )
        report("criterion-1 jdt figures", ok)

    def test_canonical_word_trace(self):
        t = make_tableau([(1, 2, 4, 7), (3, 5, 6)])
        got = canonical_word(t)
        snapshots = {i: row_text(s) for i, s in got.trace.snapshots.items()}
        ok = (
            got.word.entries == (7, 4, 6, 2, 5, 1, 3)
            and snapshots == {
                7: "1 3; 2 5; 4 6; 7",
                6: "1 3; 2 5; 4 6",
                5: "1 3; 2 5; 6",
                4: "1 3; 2 5",
                3: "1 3; 5",
                2: "1 3",
                1: "3",
            }
            and got.trace.second_column[6][0] == got.trace.snapshots[6]
            and got.trace.second_column[5][0] == got.trace.snapshots[4]
            and got.trace.second_column[3][0] == got.trace.snapshots[2]
        )
        report("criterion-1 canonical word trace", ok)

    def test_cover_figure(self):
        t = make_tableau([(1, 2, 4, 7), (3, 5, 6)])
        ok = [row_text(s) for s in cover(t)] == ["1 3; 2 5; 4; 6; 7"]
        report("criterion-1 cover figure", ok)


class TestCriterion2MainTheorem:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_equals_word_comparison(self, n):
        nodes = two_column(n)
        words = {t: canonical_word(t).word for t in nodes}
        bad = sum(
            1
            for t in nodes
            for s in nodes
            if chain_leq(t, s) != weak_leq(words[t], words[s])
        )
        report(f"criterion-2 thm311 n={n}", bad == 0,
               f"{len(nodes) ** 2} pairs")


class TestCriterion3InducedOrderAgreement:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_duflo_equals_word_comparison(self, n):
        poset = duflo_poset(n)
        nodes = two_column(n)
        bad = sum(
            1
            for t in nodes
            for s in nodes
            if poset.leq(t, s) != fast_leq(t, s)
        )
        report(f"criterion-3 cor312 n={n}", bad == 0,
               f"{len(nodes) ** 2} pairs")


class TestCriterion4Covers:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_three_route_cover_agreement(self, n):
        poset = restricted(duflo_poset(n), 2)
        bad = sum(
            1
            for t in poset.nodes
            if not cover(t) == cover_recursive(t)
            == sorted(poset.cover_of(t), key=row_text)
        )
        report(f"criterion-4 prop316 n={n}", bad == 0,
               f"{len(poset.nodes)} tableaux")


class TestCriterion5Coincidence:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_orders_coincide(self, n):
        dp, cp = duflo_poset(n), chain_poset(n)
        ok = dp.nodes == cp.nodes and dp.leq_rows == cp.leq_rows
        report(f"criterion-5 coincide n={n}", ok,
               f"{len(dp.nodes) ** 2} pairs")


class TestCriterion6ProperExtension:
    def test_chain_strictly_extends_at_6(self):
        dp, cp = duflo_poset(6), chain_poset(6)
        witness = next(
            (
                (t, s)
                for i, t in enumerate(dp.nodes)
                for j, s in enumerate(dp.nodes)
                if cp.leq_rows[i] >> j & 1 and not dp.leq_rows[i] >> j & 1
            ),
            None,
        )
        detail = ""
        if witness:
            detail = f"T={row_text(witness[0])} S={row_text(witness[1])}"
        report("criterion-6 extension n=6", witness is not None, detail)


class TestCriterion7StructuralSuites:
    def test_insertion_deletion_inverse(self):
        bad = 0
        for n in range(1, 8):
            for t in all_tableaux(n):
                for corner in corners(t):
                    smaller, pushed = delete_corner(t, corner.col)
                    if insert(pushed, smaller) != t:
                        bad += 1
        report("criterion-7 insertion/deletion inverse n<=7", bad == 0)

    def test_jdt_order_independence_random_subsets(self):
        # Literal form of the order-independence claim on arbitrary entry
        # sets.  It is false: removing {1,3} from the 2x2 square gives a
        # horizontal domino in one order and a vertical one in the other,
        # with every slide forced.  The claim holds for down-sets, up-sets
        # and window complements (tested in test_rsjdt), which is what the
        # projection machinery uses.
        first_bad = None
        for n in range(2, 9):
            rng = random.Random(1000 + n)
            for _ in range(200):
                t = rs_tableau(Word(rng.sample(range(1, n + 1), n)))
                targets = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
                results = set()
                for _ in range(2):
                    order = targets[:]
                    rng.shuffle(order)
                    stepped = t
                    for v in order:
                        stepped = jdt_remove(stepped, [v])
                    results.add(stepped)
                if len(results) > 1 and first_bad is None:
                    first_bad = (t, tuple(sorted(targets)))
        detail = ""
        if first_bad:
            detail = f"T={row_text(first_bad[0])} remove={first_bad[1]}"
        report("criterion-7 jdt order-independence (random subsets) n<=8",
               first_bad is None, detail)

    def test_projection_commutes_with_rs(self):
        bad = 0
        for n in range(2, 7):
            windows = [(s, e) for s in range(1, n) for e in range(s + 1, n + 1)]
            for w in all_words(n):
                image = rs_tableau(w)
                for s, e in windows:
                    projected = tuple(v for v in w.entries if s <= v <= e)
                    from tableaux import project_tableau

                    if project_tableau(image, s, e) != rs_tableau(projected):
                        bad += 1
        report("criterion-7 projection commutation n<=6", bad == 0)

    def test_tau_compatibility(self):
        bad = sum(
            1
            for n in range(1, 7)
            for w in all_words(n)
            if tau_tableau(rs_tableau(w)) != tau_word(w)
        )
        report("criterion-7 tau compatibility n<=6", bad == 0)

    def test_cell_maximality(self):
        bad = 0
        for n in range(1, 8):
            for t in two_column(n):
                top = canonical_word(t).word
                bad += sum(1 for y in cell(t) if not weak_leq(y, top))
        report("criterion-7 canonical word cell-maximality n<=7", bad == 0)

    def test_criterion_equals_word_comparison(self):
        bad = 0
        for n in range(1, 9):
            nodes = two_column(n)
            for t in nodes:
                for s in nodes:
                    if fast_leq_criterion(t, s) != fast_leq(t, s):
                        bad += 1
        report("criterion-7 membership criterion n<=8", bad == 0)

    def test_cover_shape_law(self):
        bad = 0
        for n in range(1, 9):
            for t in two_column(n):
                lam = t.shape + (0,) * (2 - len(t.shape))
                for s in cover(t):
                    got = s.shape + (0,) * (2 - len(s.shape))
                    if got != (lam[0] + 1, lam[1] - 1):
                        bad += 1
        report("criterion-7 cover shape law n<=8", bad == 0)

    def test_same_shape_incomparability_and_column_monotonicity(self):
        bad = 0
        for n in range(2, 8):
            nodes = two_column(n)
            for t in nodes:
                for s in nodes:
                    if t == s:
                        continue
                    related = fast_leq(t, s)
                    if t.shape == s.shape and (related or fast_leq(s, t)):
                        bad += 1
                    if related and not (
                        set(t.column(1)) < set(s.column(1))
                        and set(s.column(2)) < set(t.column(2))
                    ):
                        bad += 1
        report("criterion-7 same-shape incomparability + column sets n<=7",
               bad == 0)

    def test_transpose_reverse_identity(self):
        bad = sum(
            1
            for n in range(1, 8)
            for w in all_words(n)
            if rs_tableau(reverse(w)) != rs_tableau(w).transpose()
        )
        report("criterion-7 transpose-reverse identity n<=7", bad == 0)

    def test_two_row_translation(self):
        bad = 0
        for n in range(1, 7):
            nodes = [t for t in all_tableaux(n) if len(t.columns[0]) <= 2]
            poset = duflo_poset(n)
            words = {t: two_row_canonical_word(t) for t in nodes}
            for t in nodes:
                for s in nodes:
                    expected = weak_leq(words[t], words[s])
                    if two_row_leq(t, s) != expected:
                        bad += 1
                    if chain_leq(t, s) != expected:
                        bad += 1
                    if poset.leq(t, s) != expected:
                        bad += 1
        report("criterion-7 two-row translation n<=6", bad == 0)


class TestCriterion8Determinism:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exports_byte_identical_across_builds(self, n):
        ok = True
        for build in (_duflo_poset, _chain_poset):
            first = build.__wrapped__(n)
            second = build.__wrapped__(n)
            ok = ok and poset_to_dot(first) == poset_to_dot(second)
            ok = ok and poset_to_json(first) == poset_to_json(second)
        report(f"criterion-8 export determinism n={n}", ok,
               "2 kinds x 2 formats x 2 fresh builds")
