"""Column insertion, corner deletion by pushing left, jeu de taquin, and cells.

Insertion places a value into the first column, displacing the smallest
larger entry into the next column, and so on; a displaced value of ``None``
means the chain stopped by lengthening a column.  Corner deletion is the
exact inverse: the bottom entry of a corner column is pushed left through
the earlier columns, and the value pushed out of column 1 is emitted.

``jdt_remove`` deletes arbitrary entries by the sliding procedure; the
result is independent of the removal order for down-sets, up-sets and
window complements (the removals the projection machinery uses), and sets
are processed in ascending order as the canonical choice.  A projection
onto the values s..e needs no search: a slide never moves a smaller entry,
so removing the entries above e is a restriction, and each entry below s
is the minimum when its turn comes, so its slide starts at the top-left
cell.  All operations
accept tableaux on arbitrary alphabets; results on sub-alphabets are
intentionally left unrelabeled.

A cell (the words with a given insertion tableau) is built by corner
decomposition at the cost of its own size, never by a pass over n! words.
"""

from __future__ import annotations

from bisect import bisect_left
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import check_limit
from .errors import InvalidTableauError
from .tableau import Tableau, corners, enumerate_tableaux, row_text
from .words import Word, WordLike


class ColumnInsertion(NamedTuple):
    column: tuple[int, ...]
    bumped: int | None  # None when the value settled without displacing


class ColumnPush(NamedTuple):
    column: tuple[int, ...]
    pushed: int


class DeletionOutcome(NamedTuple):
    tableau: Tableau
    pushed_out: int


def insert_into_column(j: int, column: Sequence[int]) -> ColumnInsertion:
    """Replace the smallest entry above ``j``, or append ``j`` at the bottom.

    >>> insert_into_column(1, (2,))
    ColumnInsertion(column=(1,), bumped=2)
    >>> insert_into_column(4, (1,))
    ColumnInsertion(column=(1, 4), bumped=None)
    """
    col = tuple(column)
    pos = bisect_left(col, j)
    if pos < len(col) and col[pos] == j:
        raise InvalidTableauError(f"value {j} already present in column {col}")
    if pos == len(col):
        return ColumnInsertion(col + (j,), None)
    return ColumnInsertion(col[:pos] + (j,) + col[pos + 1:], col[pos])


def _insert_columns(j: int, cols: list[tuple[int, ...]]) -> None:
    # In-place insertion chain over a column list; assumes j is fresh.
    value: int | None = j
    for c, col in enumerate(cols):
        pos = bisect_left(col, value)
        if pos == len(col):
            cols[c] = col + (value,)
            return
        cols[c] = col[:pos] + (value,) + col[pos + 1:]
        value = col[pos]
    cols.append((value,))


def insert(j: int, t: Tableau) -> Tableau:
    """The insertion algorithm; the shape gains exactly one corner."""
    if j in t.entry_set():
        raise InvalidTableauError(f"value {j} already present in tableau")
    cols = list(t.columns)
    _insert_columns(j, cols)
    return Tableau(cols)


def _letters(w: Word | WordLike) -> tuple[int, ...]:
    # A Word is a permutation already; a plain sequence must hold distinct positive ints.
    if isinstance(w, Word):
        return w.entries
    entries = tuple(w)
    if len(set(entries)) != len(entries):
        raise InvalidTableauError(f"letters must be distinct: {entries}")
    if any(type(v) is not int or v < 1 for v in entries):
        raise InvalidTableauError(f"letters must be positive integers: {entries}")
    return entries


def rs_steps(w: Word | WordLike) -> list[Tableau]:
    """The intermediate tableaux of the RS procedure, built by insertions
    from the left: the first holds the last letter alone, the last is T(w)."""
    steps: list[Tableau] = []
    cols: list[tuple[int, ...]] = []
    for value in reversed(_letters(w)):
        _insert_columns(value, cols)
        steps.append(Tableau(cols, check=False))
    return steps


def rs_tableau(w: Word | WordLike) -> Tableau:
    """The insertion tableau T(w).

    >>> row_text(rs_tableau(Word([2, 5, 1, 4, 3])))
    '1 3; 2 4; 5'
    """
    cols: list[tuple[int, ...]] = []
    for value in reversed(_letters(w)):
        _insert_columns(value, cols)
    return Tableau(cols, check=False)


def push_left_column(column: Sequence[int], j: int) -> ColumnPush:
    """Replace the greatest entry below ``j`` with ``j``; emit that entry.

    >>> push_left_column((1, 3), 4)
    ColumnPush(column=(1, 4), pushed=3)
    """
    col = tuple(column)
    pos = bisect_left(col, j)
    if pos < len(col) and col[pos] == j:
        raise InvalidTableauError(f"value {j} already present in column {col}")
    if pos == 0:
        top = col[0] if col else None
        raise InvalidTableauError(f"cannot push {j} into column with top {top}")
    return ColumnPush(col[:pos - 1] + (j,) + col[pos:], col[pos - 1])


def delete_corner(t: Tableau, corner_col: int) -> DeletionOutcome:
    """Remove the corner of the given column and push its entry left.

    Inverse to insertion: re-inserting the pushed-out value restores the
    tableau.
    """
    shape = t.shape
    if not 1 <= corner_col <= len(shape):
        raise InvalidTableauError(f"no column {corner_col}")
    nxt = shape[corner_col] if corner_col < len(shape) else 0
    if shape[corner_col - 1] <= nxt:
        raise InvalidTableauError(f"column {corner_col} has no corner")
    cols = list(t.columns)
    carry = cols[corner_col - 1][-1]
    cols[corner_col - 1] = cols[corner_col - 1][:-1]
    for c in range(corner_col - 2, -1, -1):
        cols[c], carry = push_left_column(cols[c], carry)
    return DeletionOutcome(Tableau(cols), carry)


def _slide_out(cols: list[list[int]], r0: int, c0: int) -> None:
    # Jeu de taquin: migrate the hole at (r0, c0) to a corner, then erase it.
    while True:
        right = cols[c0 + 1][r0] if c0 + 1 < len(cols) and len(cols[c0 + 1]) > r0 else None
        below = cols[c0][r0 + 1] if len(cols[c0]) > r0 + 1 else None
        if right is None and below is None:
            cols[c0].pop()
            if not cols[c0]:
                cols.pop()
            return
        if right is None or (below is not None and below < right):
            cols[c0][r0] = below
            r0 += 1
        else:
            cols[c0][r0] = right
            c0 += 1


def jdt_remove(t: Tableau, entries: Iterable[int]) -> Tableau:
    """Remove a set of entries by jeu de taquin, in ascending order."""
    targets = sorted(set(entries))
    have = t.entry_set()
    for v in targets:
        if v not in have:
            raise InvalidTableauError(f"entry {v} absent")
    cols = [list(c) for c in t.columns]
    for v in targets:
        for c0, col in enumerate(cols):
            if v in col:
                _slide_out(cols, col.index(v), c0)
                break
    return Tableau(cols)


def project_tableau(t: Tableau, s: int, e: int) -> Tableau:
    """Jeu-de-taquin removal of every entry outside the value range s..e:
    the restriction to the entries <= e, then one slide from the top-left
    cell per entry below s.  Both keep a tableau valid, so the result is
    not checked again."""
    if not 1 <= s < e:
        raise InvalidTableauError(f"projection bounds ({s}, {e}) invalid")
    if t.is_standard and e > t.n:
        raise InvalidTableauError(f"projection bounds ({s}, {e}) invalid for n={t.n}")
    cols = [[v for v in col if v <= e] for col in t.columns]
    while cols and not cols[-1]:
        cols.pop()
    for _ in range(sum(v < s for col in cols for v in col)):
        _slide_out(cols, 0, 0)
    return Tableau(cols, check=False)


def cell(t: Tableau, limit: int | None = None) -> list[Word]:
    """All words whose insertion tableau is ``t``, in lexicographic order."""
    if not t.is_standard:
        raise InvalidTableauError("cells are enumerated for standard tableaux")
    check_limit(t.n, "cell enumeration", limit)
    return [Word(w, check=False) for w in sorted(_cell_words(t))]


def _cell_words(t: Tableau) -> list[tuple[int, ...]]:
    # Corner decomposition: T(w) is the insertion of w's first letter into
    # T(rest), so deleting each corner in turn yields every first letter.
    if t.n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    for corner in corners(t):
        smaller, first = delete_corner(t, corner.col)
        out.extend((first,) + rest for rest in _cell_words(smaller))
    return out


def all_cells(n: int) -> Mapping[Tableau, tuple[Word, ...]]:
    """Words of size n grouped by insertion tableau (lexicographic order),
    as a read-only mapping."""
    return MappingProxyType({t: tuple(cell(t)) for t in enumerate_tableaux(n)})
