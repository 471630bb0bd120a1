"""Permutation words, their statistics, surgeries, and the weak right order.

A word is a permutation of {1..n} written as the sequence of its values,
``[a_1, ..., a_n]``.  The weak right order compares words by containment of
their inversion sets, where an inversion is a value pair (i, j), i < j,
whose larger member occurs first in the word.

Words over a general alphabet {m_1 < ... < m_n} are handled at the
boundary: the surgery functions (``remove_value``, ``colligate``,
``project_word``) return plain tuples on a sub-alphabet, and
``relabel_word`` maps such a tuple back into the strict :class:`Word` type
via m_i -> i.  Keeping the two representations apart avoids silent
relabeling bugs.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .config import check_limit
from .errors import InvalidWordError

WordLike = Sequence[int]


def _entries_of(w: "Word | WordLike") -> tuple[int, ...]:
    return w.entries if isinstance(w, Word) else tuple(w)


class Word:
    """A permutation of {1..n} in one-line (word) form.

    >>> w = Word([2, 5, 1, 4, 3])
    >>> w.n, w.position(5)
    (5, 2)
    """

    __slots__ = ("entries", "positions", "_inv_mask")

    def __init__(self, entries: Iterable[int], check: bool = True):
        entries = tuple(entries)
        if check:
            _validate_word(entries)
        positions = [0] * len(entries)
        for idx, value in enumerate(entries, start=1):
            positions[value - 1] = idx
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "positions", tuple(positions))
        object.__setattr__(self, "_inv_mask", None)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"Word is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def n(self) -> int:
        return len(self.entries)

    def position(self, value: int) -> int:
        """1-based index of ``value`` in the word."""
        if not 1 <= value <= self.n:
            raise InvalidWordError(f"value {value} not in word of size {self.n}")
        return self.positions[value - 1]

    def inversion_mask(self) -> int:
        """Inversion set packed into a bitmask over the triangular pair index."""
        if self._inv_mask is None:
            mask = 0
            pos = self.positions
            for j in range(2, self.n + 1):
                base = (j - 1) * (j - 2) // 2 - 1
                pj = pos[j - 1]
                for i in range(1, j):
                    if pj < pos[i - 1]:
                        mask |= 1 << (base + i)
            object.__setattr__(self, "_inv_mask", mask)
        return self._inv_mask

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"Word([{', '.join(map(str, self.entries))}])"


def _validate_word(entries: tuple[int, ...]) -> None:
    if not entries:
        raise InvalidWordError("empty word")
    n = len(entries)
    # An exact type test: a bool or a float equal to an int passes the set checks.
    if set(map(type, entries)) != {int}:
        raise InvalidWordError(f"entries must be integers: {entries}")
    seen = set(entries)
    if len(seen) != n:
        dup = sorted(v for v in seen if entries.count(v) > 1)
        raise InvalidWordError(f"duplicate entries: {dup}")
    if seen != set(range(1, n + 1)):
        raise InvalidWordError(f"entries do not cover 1..{n}: {sorted(seen)}")


def pair_index(i: int, j: int) -> int:
    """Bit position of the value pair (i, j), i < j, in an inversion mask."""
    if not i < j:
        raise InvalidWordError(f"pair ({i}, {j}) needs i < j")
    return (j - 1) * (j - 2) // 2 + i - 1


class InversionSet:
    """Value pairs (i, j), i < j, appearing in reversed order in a word."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j)
            for j in range(2, self.n + 1)
            for i in range(1, j)
            if self.mask >> pair_index(i, j) & 1
        )

    def __contains__(self, pair: tuple[int, int]) -> bool:
        i, j = pair
        return bool(self.mask >> pair_index(i, j) & 1)

    def issubset(self, other: "InversionSet") -> bool:
        return self.mask & ~other.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InversionSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"InversionSet(n={self.n}, pairs={sorted(self.pairs)})"


def inversion_set(w: Word) -> InversionSet:
    """All pairs (i, j) with i < j such that j occurs before i in ``w``."""
    return InversionSet(w.n, w.inversion_mask())


def weak_leq(w: Word, y: Word) -> bool:
    """Weak right order: containment of inversion sets.

    ``[1, ..., n]`` is the global minimum and ``[n, ..., 1]`` the global
    maximum.
    """
    if w.n != y.n:
        raise InvalidWordError(f"size mismatch: {w.n} vs {y.n}")
    return w.inversion_mask() & ~y.inversion_mask() == 0


def tau_word(w: Word) -> frozenset[int]:
    """Left descents: the i in {1..n-1} such that i+1 occurs before i."""
    pos = w.positions
    return frozenset(i for i in range(1, w.n) if pos[i] < pos[i - 1])


def reverse(w: Word) -> Word:
    """The word read right to left; an involution."""
    return Word(w.entries[::-1], check=False)


def remove_value(w: Word | WordLike, m: int) -> tuple[int, ...]:
    """Delete the letter ``m``; the result stays on the punctured alphabet."""
    entries = _entries_of(w)
    if m not in entries:
        raise InvalidWordError(f"value {m} absent from word")
    return tuple(v for v in entries if v != m)


def colligate(x: Word | WordLike, y: Word | WordLike) -> tuple[int, ...]:
    """Concatenate two words on disjoint alphabets."""
    xe, ye = _entries_of(x), _entries_of(y)
    overlap = set(xe) & set(ye)
    if overlap:
        raise InvalidWordError(f"alphabet overlap: {sorted(overlap)}")
    return xe + ye


def project_word(w: Word, i: int, j: int) -> tuple[int, ...]:
    """Subword retaining only the values i..j, in their original order."""
    if not 1 <= i < j <= w.n:
        raise InvalidWordError(f"projection bounds ({i}, {j}) invalid for n={w.n}")
    return tuple(v for v in w.entries if i <= v <= j)


def relabel_word(seq: WordLike) -> Word:
    """Map a word on an arbitrary alphabet {m_1 < ... < m_k} onto {1..k}."""
    entries = tuple(seq)
    rank = {v: r for r, v in enumerate(sorted(entries), start=1)}
    if len(rank) != len(entries):
        raise InvalidWordError("cannot relabel a sequence with repeats")
    return Word((rank[v] for v in entries), check=False)


def enumerate_words(n: int, limit: int | None = None) -> Iterator[Word]:
    """All n! words of size n, in lexicographic order."""
    check_limit(n, "word enumeration", limit)
    for perm in itertools.permutations(range(1, n + 1)):
        yield Word(perm, check=False)
