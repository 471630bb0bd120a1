"""Young diagrams in the column convention, dominance order, and tableaux.

Shapes list COLUMN lengths: the shape (3, 2) is a diagram whose first
column holds three boxes and whose second holds two.  This is the
transpose of the more common row convention; every formula in this
package assumes it, so converting at any interior point would invite
sign errors in dominance comparisons.

A :class:`Tableau` stores its columns and may live on any alphabet of
distinct positive integers; ``is_standard`` singles out fillings by
exactly {1..n}.  ``make_tableau`` is the strict public constructor that
demands standardness, matching the package boundary convention (see
``words.relabel_word`` for the word-side counterpart).

The standard tableaux of size n are built directly by corner growth, not
as RS images of the n! words, so enumerating them costs one step per
tableau and this module depends on neither ``words`` nor ``rsjdt``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .config import ENUM_DEFAULT, check_limit
from .errors import InvalidTableauError

ColumnShape = tuple[int, ...]


def validate_shape(columns: Sequence[int]) -> ColumnShape:
    shape = tuple(columns)
    if any(length <= 0 for length in shape):
        raise InvalidTableauError(f"shape parts must be positive: {shape}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise InvalidTableauError(f"shape not weakly decreasing: {shape}")
    return shape


def conjugate(shape: Sequence[int]) -> ColumnShape:
    """Conjugate partition; an involution.

    >>> conjugate((3, 2))
    (2, 2, 1)
    """
    shape = validate_shape(shape)
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part >= i) for i in range(1, shape[0] + 1))


def dominance_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Dominance order on shapes of equal box count, by prefix sums."""
    a, b = validate_shape(a), validate_shape(b)
    if sum(a) != sum(b):
        raise InvalidTableauError(f"box count mismatch: {sum(a)} vs {sum(b)}")
    return all(map(int.__le__, itertools.accumulate(a), itertools.accumulate(b)))


class Corner(NamedTuple):
    """Coordinates (1-based) of a box with no neighbour to its right or below."""

    row: int
    col: int


def shape_corners(shape: Sequence[int]) -> list[Corner]:
    """Corners of a diagram, left to right; column i has one iff it is
    strictly longer than column i+1."""
    shape = validate_shape(shape)
    out = []
    for i, length in enumerate(shape, start=1):
        nxt = shape[i] if i < len(shape) else 0
        if length > nxt:
            out.append(Corner(row=length, col=i))
    return out


class Tableau:
    """Columns of strictly increasing entries, rows increasing left to right;
    read-only, since caches share the instances."""

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[Iterable[int]], check: bool = True):
        cols = [tuple(c) for c in columns]
        while cols and not cols[-1]:
            cols.pop()
        object.__setattr__(self, "columns", tuple(cols))
        if check:
            self._validate()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Tableau is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def _validate(self) -> None:
        seen: set[int] = set()
        for col in self.columns:
            if not col:
                raise InvalidTableauError("empty interior column")
            for a, b in zip(col, col[1:]):
                if a >= b:
                    raise InvalidTableauError(f"column not increasing: {col}")
            for v in col:
                if not isinstance(v, int) or v < 1:
                    raise InvalidTableauError(f"entries must be positive integers: {v!r}")
                if v in seen:
                    raise InvalidTableauError(f"repeated entry {v}")
                seen.add(v)
        for left, right in zip(self.columns, self.columns[1:]):
            if len(right) > len(left):
                raise InvalidTableauError(
                    f"shape not weakly decreasing: {tuple(map(len, self.columns))}"
                )
            for r in range(len(right)):
                if left[r] >= right[r]:
                    raise InvalidTableauError(
                        f"row {r + 1} not increasing: {left[r]} !< {right[r]}"
                    )

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.columns)

    @property
    def shape(self) -> ColumnShape:
        return tuple(len(c) for c in self.columns)

    @property
    def is_standard(self) -> bool:
        return self.entry_set() == frozenset(range(1, self.n + 1))

    def entry_set(self) -> frozenset[int]:
        return frozenset(v for col in self.columns for v in col)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        height = len(self.columns[0]) if self.columns else 0
        return tuple(
            tuple(col[r] for col in self.columns if len(col) > r)
            for r in range(height)
        )

    def column(self, i: int) -> tuple[int, ...]:
        """The i-th column, 1-based; empty beyond the shape."""
        return self.columns[i - 1] if 1 <= i <= len(self.columns) else ()

    def bottom(self, i: int) -> int:
        """Largest entry of column i."""
        col = self.column(i)
        if not col:
            raise InvalidTableauError(f"no column {i}")
        return col[-1]

    def _place(self, value: int) -> tuple[int, int]:
        for c, col in enumerate(self.columns, start=1):
            if value in col:
                return col.index(value) + 1, c
        raise InvalidTableauError(f"entry {value} absent")

    def row_of(self, value: int) -> int:
        return self._place(value)[0]

    def col_of(self, value: int) -> int:
        return self._place(value)[1]

    def transpose(self) -> "Tableau":
        """Exchange rows and columns; the shape conjugates."""
        return Tableau(self.rows(), check=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tableau) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"Tableau({list(map(list, self.columns))!r})"


EMPTY_TABLEAU = Tableau(())


def make_tableau(columns: Iterable[Iterable[int]]) -> Tableau:
    """Validated construction of a standard tableau (entries exactly {1..n})."""
    t = Tableau(columns)
    # Validated entries are distinct positive ints, so they are 1..n exactly
    # when the largest, at the foot of some column, is n.
    if max((col[-1] for col in t.columns), default=0) != t.n:
        raise InvalidTableauError(
            f"entries are not exactly 1..{t.n}: {sorted(t.entry_set())}"
        )
    return t


def row_text(t: Tableau) -> str:
    """Canonical row-form serialization, e.g. ``1 3; 2 4; 5``."""
    return "; ".join([" ".join([str(col[r]) for col in t.columns if len(col) > r])
                      for r in range(len(t.columns[0]) if t.columns else 0)])


def _row_key(t: Tableau) -> list[int]:
    """``row_text`` token by token, entries as numbers: a row separator (0)
    opens each row and a same-row one (-1) precedes each entry."""
    key: list[int] = []
    for r in range(len(t.columns[0]) if t.columns else 0):
        key.append(0)
        for col in t.columns:
            if len(col) <= r:
                break
            key += (-1, col[r])
    return key


def tau_tableau(t: Tableau) -> frozenset[int]:
    """The i such that i+1 sits in a strictly lower row than i."""
    entries = t.entry_set()
    return frozenset(
        v for v in entries if v + 1 in entries and t.row_of(v + 1) > t.row_of(v)
    )


def corners(t: Tableau) -> list[Corner]:
    return shape_corners(t.shape)


def relabel_tableau(t: Tableau) -> Tableau:
    """Map a tableau on an arbitrary alphabet onto the standard one {1..n}."""
    rank = {v: r for r, v in enumerate(sorted(t.entry_set()), start=1)}
    return map_entries(t, rank)


def map_entries(t: Tableau, mapping: dict[int, int]) -> Tableau:
    """Apply an order-preserving relabeling to every entry."""
    return Tableau(tuple(tuple(mapping[v] for v in col) for col in t.columns))


def enumerate_tableaux(
    n: int, max_columns: int | None = None, limit: int | None = None
) -> Iterator[Tableau]:
    """All standard tableaux with n boxes, sorted by row form, entries as numbers.

    With ``max_columns`` only tableaux of at most that many columns are
    grown (``max_columns=2`` gives the two-column family), at the cost of
    their own number; the result is cached per n and ``max_columns``.
    """
    check_limit(n, "tableau enumeration", limit, ENUM_DEFAULT)
    yield from _standard_tableaux(n, max_columns)


@functools.lru_cache(maxsize=None)
def _standard_tableaux(n: int, max_columns: int | None) -> tuple[Tableau, ...]:
    # Corner growth: n goes at the foot of every column shorter than its left
    # neighbour, and into a new last column, but never into column max_columns + 1.
    if n == 0:
        return (EMPTY_TABLEAU,)
    grown = []
    for t in _standard_tableaux(n - 1, max_columns):
        cols = t.columns
        width = len(cols) + 1 if max_columns is None else min(len(cols) + 1, max_columns)
        for c in range(width):
            if c == len(cols):
                grown.append(Tableau(cols + ((n,),), check=False))
            elif c == 0 or len(cols[c]) < len(cols[c - 1]):
                grown.append(Tableau(
                    cols[:c] + (cols[c] + (n,),) + cols[c + 1:], check=False))
    return tuple(sorted(grown, key=_row_key))
