"""Independent combinatorics for the benchmark's inputs and checks.

Nothing here imports the package under test: the checks compare its
answers against these second routes.

* Hook-length formula (Frame, Robinson and Thrall, 1954): the number of
  standard tableaux of a shape is n! divided by the product of hook lengths.
* Hook walk (Greene, Nijenhuis and Wilf, 1979): a uniformly random standard
  tableau of a given shape.
* Schensted insertion, and Schützenberger's theorem that jeu-de-taquin
  rectification equals insertion of the row reading word: second routes to
  the package's RS images, projections and chain profiles.

Tableaux are tuples of columns and shapes tuples of column lengths, as in
the package.  The hook-length formula and the hook walk are symmetric under
transposition, so they treat a column-length tuple as a row-length tuple
without converting; insertion works on rows and converts its results.
"""

from __future__ import annotations

import bisect
import math
import random


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n into weakly decreasing parts, parts <= largest."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, largest), 0, -1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def hook_count(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shape, by the hook-length formula."""
    n = sum(shape)
    conj = [sum(1 for part in shape if part > i) for i in range(shape[0])] if shape else []
    product = 1
    for i, part in enumerate(shape):
        for j in range(part):
            product *= (part - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // product


def two_column_shapes(n: int) -> list[tuple[int, ...]]:
    """Shapes with at most two columns, as column lengths."""
    return [(a, n - a) if n - a else (a,) for a in range(n, (n + 1) // 2 - 1, -1)]


def hook_walk(shape: tuple[int, ...], rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A uniformly random standard tableau of the shape, as its columns."""
    lengths = list(shape)
    cells: list[list[int]] = [[0] * part for part in shape]
    for value in range(sum(shape), 0, -1):
        total = sum(lengths)
        pick = rng.randrange(total)
        i = 0
        while pick >= lengths[i]:
            pick -= lengths[i]
            i += 1
        j = pick
        while True:
            arm = lengths[i] - j - 1
            leg = sum(1 for k in range(i + 1, len(lengths)) if lengths[k] > j)
            if arm + leg == 0:
                break
            step = rng.randrange(arm + leg)
            if step < arm:
                j += step + 1
            else:
                i += step - arm + 1
        cells[i][j] = value
        lengths[i] -= 1
        while lengths and lengths[-1] == 0:
            lengths.pop()
    return tuple(tuple(col) for col in cells)


def row_text(columns: tuple[tuple[int, ...], ...]) -> str:
    """The package's row-form text (``1 3; 2 4; 5``) for a column tuple."""
    height = len(columns[0]) if columns else 0
    return "; ".join(
        " ".join(str(col[r]) for col in columns if len(col) > r)
        for r in range(height)
    )


def parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    """Columns of a row-form tableau text, without validation."""
    rows = [[int(v) for v in part.split()] for part in text.split(";") if part.strip()]
    width = len(rows[0]) if rows else 0
    return tuple(tuple(row[c] for row in rows if len(row) > c) for c in range(width))


def dominated(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Dominance of column-length shapes of equal size, by prefix sums."""
    ta = tb = 0
    for k in range(max(len(a), len(b))):
        ta += a[k] if k < len(a) else 0
        tb += b[k] if k < len(b) else 0
        if ta > tb:
            return False
    return True


# Chain profiles by Schensted insertion.  The jeu-de-taquin rectification of
# a skew tableau is the insertion tableau of its row reading word
# (Schützenberger), so the projection of a tableau onto the values i..j is
# the insertion tableau of the reading word of those entries.  This is a
# second route to the package's ``project_tableau`` and ``chain_profile``,
# which slide entries out one at a time.


def insertion_rows(word: list[int]) -> list[list[int]]:
    """Rows of the Schensted row-insertion tableau of a word of distinct values."""
    rows: list[list[int]] = []
    for v in word:
        for row in rows:
            k = bisect.bisect_left(row, v)
            if k == len(row):
                row.append(v)
                break
            row[k], v = v, row[k]
        else:
            rows.append([v])
    return rows


def window_word(columns: tuple[tuple[int, ...], ...], low: int, high: int) -> list[int]:
    """Row reading word (bottom row first, each row left to right) of the
    entries low..high."""
    height = len(columns[0]) if columns else 0
    return [col[r] for r in range(height - 1, -1, -1) for col in columns
            if len(col) > r and low <= col[r] <= high]


def insertion_tableau(word: list[int]) -> tuple[tuple[int, ...], ...]:
    """Columns of the Schensted insertion tableau of a word."""
    rows = insertion_rows(word)
    return tuple(tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0])))


def rectified(columns: tuple[tuple[int, ...], ...], low: int, high: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the projection onto the values low..high."""
    return insertion_tableau(window_word(columns, low, high))


def chain_profile(columns: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], tuple[int, ...]]:
    """Column lengths of the projection onto every window i..j, i < j."""
    n = sum(map(len, columns))
    profile = {}
    for i in range(1, n):
        rows = insertion_rows(window_word(columns, i, n))
        for j in range(i + 1, n + 1):
            # Rows of a straight tableau increase, so its entries <= j form a
            # straight shape: the projection onto i..j.
            parts = [k for k in (bisect.bisect_right(row, j) for row in rows) if k]
            profile[(i, j)] = tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))
    return profile


def chain_leq(a: dict, b: dict) -> bool:
    """The chain order on two chain profiles: dominance on every window."""
    return all(dominated(a[key], b[key]) for key in a)
