"""Fast machinery for tableaux with at most two columns (or two rows).

Repeatedly deleting the corner that holds the current maximum of a
two-column tableau emits one value per step; read in emission order these
values form the canonical word of the tableau.  On two columns a step
needs no insertion machinery: when the foot of column 2 holds the maximum,
it replaces the foot of column 1, whose value is emitted; otherwise the
foot of column 1 is the maximum and is emitted itself.  The trace runs
on two plain lists and keeps only its steps; snapshots are replayed from
them on first read.  The canonical word maps back to the tableau under RS
insertion and is the unique weak-order maximum of its cell, so tableaux
compare by one AND of two cached inversion masks (``fast_leq``).  The
paper's membership criterion states the same comparison without the second word:

    T below S  iff  the second column of S is contained in the second
    column of T, and every second-column entry x of S pushes out (at the
    deletion step of x in S's trace) a value lying in T's first column.

The criterion and the recursive description of the cover are independent
routes, kept in ``verify`` beside the suites (``criterion``, ``prop316``)
that check this module against them by exhaustion.

On this family, the chain order and the induced weak order coincide, and
the cover of a tableau is given explicitly: move the top of a maximal run
of consecutive second-column entries into the first column, whenever no
entry below it has been emitted before its own step.

Two-row tableaux are handled through transposition, which reverses the
orders, so the comparison swaps its arguments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .config import CACHE_BOUND
from .errors import InvalidTableauError
from .tableau import Tableau, row_text
from .words import Word, reverse


class TraceStep(NamedTuple):
    index: int    # step number, from n down to 1
    largest: int  # maximum entry of the snapshot at this step
    emitted: int  # value pushed out by deleting its corner


@dataclass(frozen=True)
class DeletionTrace:
    """The maximal-entry deletion sequence of a tableau: its input and its
    ``steps``, from which both mappings are replayed on first read and kept.

    ``snapshots[i]`` is the i-box tableau seen before step i runs;
    ``snapshots[n]`` is the input.  ``second_column[x]`` holds, for each
    second-column entry x of the input, the snapshot in which x is the
    maximum and still sits in column 2, with the first-column value its
    deletion pushes out.  Traces are cached and shared, so both are read-only.
    """

    tableau: Tableau
    steps: tuple[TraceStep, ...]

    @functools.cached_property
    def snapshots(self) -> Mapping[int, Tableau]:
        first, second = list(self.tableau.column(1)), list(self.tableau.column(2))
        out = {len(self.steps): self.tableau}
        for i, z, a in self.steps[:-1]:
            if z == a:
                first.pop()
            else:
                second.pop()
                first[-1] = z
            # A deletion step keeps the validated input a tableau.
            out[i - 1] = Tableau((first, second), check=False)
        return MappingProxyType(out)

    @functools.cached_property
    def second_column(self) -> Mapping[int, tuple[Tableau, int]]:
        # A step deletes from column 2 exactly when it emits another value.
        return MappingProxyType({z: (self.snapshots[i], a) for i, z, a in self.steps if z != a})


class CanonicalWord(NamedTuple):
    word: Word
    trace: DeletionTrace


def _require_two_columns(t: Tableau) -> None:
    if len(t.columns) > 2:
        raise InvalidTableauError(
            f"more than two columns: shape {t.shape}"
        )
    if not t.is_standard:
        raise InvalidTableauError("two-column machinery needs standard tableaux")


def _require_two_rows(t: Tableau) -> None:
    if t.columns and len(t.columns[0]) > 2:
        raise InvalidTableauError(f"more than two rows: shape {t.shape}")
    if not t.is_standard:
        raise InvalidTableauError("two-row machinery needs standard tableaux")


@functools.lru_cache(maxsize=CACHE_BOUND)
def canonical_word(t: Tableau) -> CanonicalWord:
    """The canonical cell representative of a two-column tableau, with its
    deletion trace.  RS insertion of the word reproduces the tableau."""
    _require_two_columns(t)
    first, second = list(t.column(1)), list(t.column(2))
    steps: list[TraceStep] = []
    for i in range(t.n, 0, -1):
        if second and second[-1] > first[-1]:
            z = second.pop()
            a, first[-1] = first[-1], z
        else:
            z = a = first.pop()
        steps.append(TraceStep(index=i, largest=z, emitted=a))
    word = Word([step.emitted for step in steps], check=False)
    return CanonicalWord(word=word, trace=DeletionTrace(tableau=t, steps=tuple(steps)))


@functools.lru_cache(maxsize=CACHE_BOUND)
def _inversions(t: Tableau) -> int:
    """Inversion mask of the canonical word of a two-column tableau."""
    return canonical_word(t).word.inversion_mask()


def fast_leq(t: Tableau, s: Tableau) -> bool:
    """Containment of the canonical words' cached inversion masks; decides
    both the chain order and the induced weak order on the two-column family."""
    if t.n != s.n:
        raise InvalidTableauError(f"size mismatch: {t.n} vs {s.n}")
    return _inversions(t) & ~_inversions(s) == 0


def runs(t: Tableau) -> list[tuple[int, int]]:
    """Maximal consecutive runs of the second column's entries, ascending,
    as (start, extra) pairs covering {start, ..., start + extra}."""
    _require_two_columns(t)
    return _runs(t)


def _runs(t: Tableau) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for x in t.column(2):
        if out and out[-1][0] + out[-1][1] + 1 == x:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((x, 0))
    return out


def move_to_first_column(t: Tableau, x: int) -> Tableau:
    """Move the second-column entry x into the first column at its ordered
    position; always yields a tableau."""
    _require_two_columns(t)
    return _move_to_first_column(t, x)


def _move_to_first_column(t: Tableau, x: int) -> Tableau:
    col2 = t.column(2)
    if x not in col2:
        raise InvalidTableauError(f"entry {x} not in the second column")
    col1 = tuple(sorted(t.column(1) + (x,)))
    rest = tuple(v for v in col2 if v != x)
    # Always a tableau: inserting x lowers or keeps the r-th entry of column 1
    # and deleting it raises or keeps the r-th of column 2, so rows still increase.
    return Tableau((col1, rest), check=False)


def cover(t: Tableau) -> list[Tableau]:
    """Immediate successors in the (coincident) order on the two-column
    family, by the explicit run-top description."""
    # canonical_word checks two-columnness; a cached trace was checked when built.
    steps = canonical_word(t).trace.steps
    out = []
    for start, extra in _runs(t):
        x = start + extra
        # steps[n - x] is step x; it deletes x iff no entry below x went first.
        if steps[t.n - x].largest == x:
            out.append(_move_to_first_column(t, x))
    return sorted(out, key=row_text)


def two_row_canonical_word(s: Tableau) -> Word:
    """Canonical word of a two-row tableau: the reverse of the transposed
    tableau's canonical word.  RS insertion reproduces the tableau."""
    _require_two_rows(s)
    return reverse(canonical_word(s.transpose()).word)


def two_row_leq(t: Tableau, s: Tableau) -> bool:
    """Order on two-row tableaux; transposition reverses the comparison."""
    _require_two_rows(t)
    _require_two_rows(s)
    return fast_leq(s.transpose(), t.transpose())
