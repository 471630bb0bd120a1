"""Shared brute-force oracles, written independently of the package internals.

These recompute definitions from scratch on raw tuples so that package
results can be checked against a second route.
"""

from tableaux import Tableau, enumerate_tableaux, enumerate_words


def brute_inversions(entries):
    """Value pairs (i, j), i < j, with j placed before i; by double loop."""
    entries = tuple(entries)
    pos = {v: k for k, v in enumerate(entries)}
    values = sorted(entries)
    return {
        (values[a], values[b])
        for a in range(len(values))
        for b in range(a + 1, len(values))
        if pos[values[b]] < pos[values[a]]
    }


def brute_weak_leq(w, y):
    """Weak order on any pair of words over the same alphabet."""
    return brute_inversions(w) <= brute_inversions(y)


def brute_dominance_leq(a, b):
    """Dominance by prefix sums, padded to a common width."""
    width = max(len(a), len(b))
    pa = [sum(a[: i + 1]) for i in range(width)]
    pb = [sum(b[: i + 1]) for i in range(width)]
    return all(x <= y for x, y in zip(pa, pb))


def componentwise_rows(vectors):
    """Row bitmasks, with no pair loop: bit j of row k is set when
    ``vectors[k] <= vectors[j]`` on every coordinate (non-negative integers)."""
    bits = [1 << j for j in range(len(vectors))]
    rows = [(1 << len(vectors)) - 1] * len(vectors)
    for coord in zip(*vectors):
        # at_least[v]: the vectors whose value on this coordinate is >= v.
        at_least = [0] * (max(coord) + 1)
        for v, bit in zip(coord, bits):
            at_least[v] |= bit
        for v in range(len(at_least) - 1, 0, -1):
            at_least[v - 1] |= at_least[v]
        rows = [row & at_least[v] for row, v in zip(rows, coord)]
    return rows


def all_words(n):
    return list(enumerate_words(n))


def all_tableaux(n, max_columns=None):
    return list(enumerate_tableaux(n, max_columns=max_columns))


def two_column(n):
    return all_tableaux(n, max_columns=2)


def standard_relabel(entries):
    """Relabel a sequence on any alphabet to 1..k, independent implementation."""
    rank = {v: r for r, v in enumerate(sorted(entries), start=1)}
    return tuple(rank[v] for v in entries)


def brute_standard_tableaux(n):
    """Direct recursive generation: place n at every outer corner of a
    smaller tableau's shape.  The same algorithm as the package's own
    enumeration, written out again; the RS-image test in test_tableau.py
    is the independent check."""
    if n == 0:
        return [Tableau(())]
    out = []
    for smaller in brute_standard_tableaux(n - 1):
        cols = list(smaller.columns)
        for c in range(len(cols) + 1):
            length = len(cols[c]) if c < len(cols) else 0
            prev = len(cols[c - 1]) if c > 0 else None
            if prev is not None and length + 1 > prev:
                continue
            if c == len(cols):
                out.append(Tableau(cols + [(n,)]))
            else:
                out.append(Tableau(cols[:c] + [cols[c] + (n,)] + cols[c + 1:]))
    return out
