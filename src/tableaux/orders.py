"""The order relations at full generality, poset construction, and exports.

Chain order: T is below S when every jeu-de-taquin projection of T has a
shape dominance-below the matching projection of S.  Each tableau's window
shapes are flattened into one vector of prefix sums, so the chain order is
a componentwise comparison of vectors; ``componentwise_rows`` builds the
poset bit-sliced, one AND of a threshold bitmask per coordinate and node.
A vector is the windows (1, j) followed by the vector of the tableau left
by sliding 1 out, so a batch shares one slide per distinct sub-tableau.

Duflo order: the relation induced on tableaux from the weak right order on
words through their cells.  The base relation ("some word of the first cell
is below some word of the second") is not transitive from n = 5 on (175
against 177 pairs at n = 5, 953 against 987 at n = 6), and only its closure
is built.  The weak order is generated by its covers w < w s_a, where
w_a < w_{a+1}, so the Duflo order is the closure of the pairs
(T(w), T(w s_a)): each is a base pair, and a base pair from words w <= v is
joined by the pairs along a chain of covers from w to v.  These pairs need
no word.  Read w from the right: T(w) and T(w s_a) both arise from
T(w_{a+2} ... w_n), by inserting w_{a+1} then w_a, or w_a then w_{a+1}, and
then the same letters w_{a-1}, ..., w_1 into both.  RS commutes with
order-preserving relabelling (Schensted 1961), so every step is taken on
standard tableaux: inserting a letter of rank r among the letters so far
raises the entries >= r by one and inserts r.  A pair of size k is thus a
pair of size k - 1 with one rank inserted into both tableaux, or a seed,
ranks q then p (p < q) against p then q inserted into a tableau of size
k - 2.  Standardizing maps each word with an ascent to exactly one such
path, so the pairs of size n are exactly the cover pairs, grown at the cost
of the distinct pairs per level rather than of the n! words, and closed in
one pass, sinks first, one OR per pair.  The whole base relation is a lazy
read (``base_rows``) by a sweep over all the words, one inversion layer at a
time from the longest word down, carrying per word the tableaux whose cells
meet its weak-order up-set.  Both posets are checked and Hasse-reduced in
node order (a linear extension through n = 9), one bitset operation per cover.

The word-pair scan of the base relation and the subspace form of the weak
order are independent routes; they live in ``verify`` and the tests.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .config import CACHE_BOUND, CELL_DEFAULT, ENUM_DEFAULT, check_limit
from .errors import InvalidTableauError
from .rsjdt import _insert_columns, _slide_out
from .tableau import ColumnShape, Tableau, _standard_tableaux, enumerate_tableaux, row_text


class Verdict(enum.Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


def compare(t: Tableau, s: Tableau, leq: Callable[[Tableau, Tableau], bool]) -> Verdict:
    """Fold the comparisons of t with s and of s with t into a 4-way verdict."""
    below, above = leq(t, s), leq(s, t)
    if t == s:
        return Verdict.EQUAL
    if below and above:
        raise RuntimeError("antisymmetry violation: distinct elements below each other")
    if below:
        return Verdict.LESS
    if above:
        return Verdict.GREATER
    return Verdict.INCOMPARABLE


def _chain_vectors(tableaux: Sequence[Tableau]) -> list[tuple[int, ...]]:
    """``_chain_vector`` of each tableau, sharing the deletion chains."""
    if not all(t.is_standard for t in tableaux):
        raise InvalidTableauError("chain profiles are defined for standard tableaux")
    # below[cols], for a sub-tableau on lo..n (lo > 1): its windows (lo, j)
    # and the columns left by sliding lo out.
    below: dict[tuple[tuple[int, ...], ...], tuple] = {}
    vectors = []
    for t in tableaux:
        n, cols, vector = t.n, t.columns, []
        for lo in range(1, n):
            if cols in below:
                prefix, cols = below[cols]
                vector.extend(prefix)
                continue
            # lo is in the corner; the entries <= j fill a diagram, grown
            # here one box per j.
            start, key = len(vector), cols
            column_of = {v: c for c, col in enumerate(cols) for v in col}
            counts = [1] + [0] * (n - lo)
            for j in range(lo + 1, n + 1):
                counts[column_of[j]] += 1
                vector.extend(itertools.accumulate(counts[:j - lo]))
            if lo < n - 1:
                slid = [list(c) for c in cols]
                _slide_out(slid, 0, 0)
                cols = tuple(map(tuple, slid))
            if lo > 1:
                below[key] = (tuple(vector[start:]), cols)
        vectors.append(tuple(vector))
    return vectors


@functools.lru_cache(maxsize=CACHE_BOUND)
def _chain_vector(t: Tableau) -> tuple[int, ...]:
    """Window shapes flattened in sorted window order: for window (i, j),
    the first j - i prefix sums of its shape, held at the box count past
    the last column; the last sum, j - i + 1, is common and dropped.
    Dominance on every window is componentwise ``<=``.  Sliding out a
    down-set does not depend on the order, so the windows (i, j), i >= 2,
    are those of the tableau left by sliding 1 out: a vector is its windows
    (1, j) followed by that tableau's.  A batch shares these sub-tableaux
    for one call only; kept for good, they would add n - 2 entries for
    every fresh tableau."""
    return _chain_vectors((t,))[0]


@functools.lru_cache(maxsize=CACHE_BOUND)
def chain_profile(t: Tableau) -> Mapping[tuple[int, int], ColumnShape]:
    """Shapes of all projections onto value windows i..j, 1 <= i < j <= n,
    as a read-only mapping: the positive steps of their ``_chain_vector`` sums."""
    vector, profile = iter(_chain_vector(t)), {}
    for i, j in itertools.combinations(range(1, t.n + 1), 2):
        sums = [0, *itertools.islice(vector, j - i), j - i + 1]
        profile[(i, j)] = tuple(b - a for a, b in zip(sums, sums[1:]) if b > a)
    return MappingProxyType(profile)


def chain_leq(t: Tableau, s: Tableau) -> bool:
    """Dominance of every projected shape of t by the matching shape of s."""
    if t.n != s.n:
        raise InvalidTableauError(f"size mismatch: {t.n} vs {s.n}")
    return not any(map(int.__gt__, _chain_vector(t), _chain_vector(s)))


def hasse_reduce(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Transitive reduction of a finite partial order given as row bitmasks,
    checked on the way.  In a linear extension an order's rows have no bit
    below the diagonal, node i's covers come by taking the lowest strict bit
    k left and clearing row k, and it is transitive exactly when each row is
    {i} joined with its covers' rows: one bitset operation per cover, on the
    rows as given if each has bit i and none below (both posets' rows do
    for n <= 9), else after a re-index by decreasing up-set size, one per pair."""
    m = len(rows)
    order: Sequence[int] = range(m)
    ext = list(rows)
    if not all(row & (1 << i + 1) - 1 == 1 << i for i, row in enumerate(rows)):
        order = sorted(order, key=lambda i: (-rows[i].bit_count(), i))
        where = {old: new for new, old in enumerate(order)}
        for i, a in enumerate(order):
            rest, row = rows[a] & (1 << m) - 1, 0
            while rest:
                k = rest.bit_length() - 1
                row |= 1 << where[k]
                rest ^= 1 << k
            ext[i] = row
    edges: list[tuple[int, int]] = []
    for i in range(m - 1, -1, -1):
        a, row = order[i], ext[i]
        if rows[a] >> m:
            raise InvalidTableauError(f"relation row {a} names a node beyond the {m} rows")
        if row & ((1 << i + 1) - 1) != 1 << i:
            if not row >> i & 1:
                raise InvalidTableauError(f"relation not reflexive at {a}")
            # b sorts first yet lies above a: a 2-cycle, or row b is not in row a.
            b = order[(row & -row).bit_length() - 1]
            kind = "antisymmetric" if rows[b] >> a & 1 else "transitive"
            raise InvalidTableauError(f"relation not {kind} at ({a}, {b})")
        rest = row ^ 1 << i
        while rest:
            k = (rest & -rest).bit_length() - 1
            if ext[k] & ~row:
                raise InvalidTableauError(f"relation not transitive at ({a}, {order[k]})")
            rest &= ~ext[k]
            edges.append((a, order[k]))
    edges.sort()
    return edges


@dataclass(frozen=True, eq=False)
class TableauPoset:
    """A finite poset of same-size tableaux with its Hasse reduction.

    ``leq_rows[i]`` has bit j set when node i is below node j.  ``base_rows``
    is the Duflo relation before closure, computed on first read and cached
    per n; it is None for the chain kind and for restricted posets.
    Posets are cached and shared, so they are frozen.
    """

    kind: str
    n: int
    nodes: tuple[Tableau, ...]
    leq_rows: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]
    _base_of: Callable[[int], tuple[int, ...]] | None = field(default=None, repr=False)
    _index: Mapping[Tableau, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        index = MappingProxyType({t: i for i, t in enumerate(self.nodes)})
        object.__setattr__(self, "_index", index)

    @property
    def base_rows(self) -> tuple[int, ...] | None:
        return None if self._base_of is None else self._base_of(self.n)

    def index_of(self, t: Tableau) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise InvalidTableauError(f"tableau not a node: {row_text(t)}") from None

    def leq(self, t: Tableau, s: Tableau) -> bool:
        return bool(self.leq_rows[self.index_of(t)] >> self.index_of(s) & 1)

    def cover_of(self, t: Tableau) -> list[Tableau]:
        i = self.index_of(t)
        return [self.nodes[b] for a, b in self.hasse if a == i]

    def restrict(self, predicate: Callable[[Tableau], bool]) -> "TableauPoset":
        """Sub-poset on the nodes satisfying ``predicate``; the Hasse
        diagram is recomputed from the restricted relation."""
        keep = [i for i, t in enumerate(self.nodes) if predicate(t)]
        rows = [sum(1 << new_b for new_b, b in enumerate(keep) if self.leq_rows[a] >> b & 1)
                for a in keep]
        return TableauPoset(
            kind=self.kind,
            n=self.n,
            nodes=tuple(self.nodes[i] for i in keep),
            leq_rows=tuple(rows),
            hasse=tuple(hasse_reduce(rows)),
        )


def _closure(nodes: Sequence[Tableau], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Transitive closure of ``pairs`` (indices into ``nodes``) as reflexive
    rows in one pass, sinks first: a row is its node's bit OR the rows of its
    successors, closed before it; one OR per off-diagonal pair, in any order.
    A node reached while still open closes a cycle; two of its nodes are named."""
    succ: list[list[int]] = [[] for _ in nodes]
    for a, b in pairs:
        if a != b:
            succ[a].append(b)
    rows = [0] * len(nodes)  # 0 until a node is reached, -1 while it is open

    def close(a: int) -> int:
        # At most as deep as the longest pair path: 15 nodes at n = 8, 18 at n = 9.
        rows[a], row = -1, 1 << a
        for b in succ[a]:
            if rows[b] < 0:
                i, j = sorted((a, b))
                raise RuntimeError("antisymmetry violation in the induced order "
                                   f"({row_text(nodes[i])} / {row_text(nodes[j])})")
            row |= rows[b] or close(b)
        rows[a] = row
        return row

    for a in range(len(nodes)):
        if not rows[a]:
            close(a)
    return rows


def duflo_poset(n: int, limit: int | None = None) -> TableauPoset:
    """The induced weak-order poset on all standard tableaux of size n."""
    check_limit(n, "Duflo poset", limit, CELL_DEFAULT)
    return _duflo_poset(n)


def _sweep_layer(n: int, layer: dict[int, int], known: dict[int, int],
                 index: Mapping[tuple[int, ...], int], base: list[int],
                 descend: bool) -> dict[int, int]:
    """Fold one inversion layer of words into ``base`` and return the layer
    below when ``descend``.  A word is an int with one byte per letter.
    U(w) = {T(w)} plus U(w') for each cover w' of w (one ascent swapped):
    layer[w] gathers those U(w'), and known[w] holds T(w)'s index once a
    Knuth move from some w' has fixed it."""
    below: dict[int, int] = {}
    for w, up in layer.items():
        letters = w.to_bytes(n, "little")
        i = known.pop(w, -1)
        if i < 0:
            cols: list[tuple[int, ...]] = []
            for v in reversed(letters):
                _insert_columns(v, cols)
            i = index[tuple(cols)]
        up |= 1 << i
        base[i] |= up
        if not descend:
            continue
        for a in range(n - 1):
            q, p = letters[a], letters[a + 1]
            if q > p:
                x = w + (q - p) * (255 << 8 * a)
                below[x] = below.get(x, 0) | up
                # A neighbour valued between p and q makes the swap a
                # Knuth move, which keeps the insertion tableau.
                if (a > 0 and p < letters[a - 1] < q) or (a < n - 2 and p < letters[a + 2] < q):
                    known[x] = i
    return below


def _up_set_sweep(n: int, index: Mapping[tuple[int, ...], int]) -> list[int]:
    """Base pairs (T(w), T(v)), w <= v, over all n! words, swept one
    inversion layer at a time from the longest word down to the identity."""
    base = [0] * len(index)
    layer = {int.from_bytes(bytes(range(n, 0, -1)), "little"): 0}
    known: dict[int, int] = {}
    for inversions in range(n * (n - 1) // 2, -1, -1):
        layer = _sweep_layer(n, layer, known, index, base, inversions > 0)
    return base


@functools.lru_cache(maxsize=None)
def _duflo_base(n: int) -> tuple[int, ...]:
    """The whole base relation, read lazily through ``base_rows``: the one
    route that still sweeps the n! words, and no build calls it."""
    nodes = _duflo_poset(n).nodes
    return tuple(_up_set_sweep(n, {t.columns: i for i, t in enumerate(nodes)}))


def _duflo_edges(n: int) -> set[tuple[int, int]]:
    """The pairs (T(w), T(w s_a)) over the words w of size n with
    w_a < w_{a + 1}, as indices into the standard tableaux of size n, grown
    level by level on tableaux with no word; a pair with T(w) = T(w s_a)
    grows only into such pairs, and each level drops them."""
    # up[k][i][r - 1]: tableau i of size k with its entries >= r raised by
    # one and r inserted, as an index at size k + 1.
    up: list[list[tuple[int, ...]]] = []
    for k in range(n):
        index = {t.columns: i for i, t in enumerate(_standard_tableaux(k + 1, None))}
        level = []
        for t in _standard_tableaux(k, None):
            grown = []
            for r in range(1, k + 2):
                cols = [tuple(v + (v >= r) for v in col) for col in t.columns]
                _insert_columns(r, cols)
                grown.append(index[tuple(cols)])
            level.append(tuple(grown))
        up.append(level)
    pairs: set[tuple[int, int]] = set()
    for k in range(2, n + 1):
        # The same letter read in front of both words of a pair of size k - 1,
        # or a seed: q then p (p < q) into T(u), against p then q.
        last, before = up[k - 1], up[k - 2]
        pairs = {(c, d) for a, b in pairs for c, d in zip(last[a], last[b]) if c != d}
        for row in before:
            for q in range(2, k + 1):
                for p in range(1, q):
                    c, d = last[row[q - 2]][p - 1], last[row[p - 1]][q - 1]
                    if c != d:
                        pairs.add((c, d))
    return pairs


@functools.lru_cache(maxsize=None)
def _duflo_poset(n: int) -> TableauPoset:
    nodes = tuple(enumerate_tableaux(n, limit=n))
    rows = _closure(nodes, _duflo_edges(n))
    return TableauPoset(kind="duflo", n=n, nodes=nodes, leq_rows=tuple(rows),
                        hasse=tuple(hasse_reduce(rows)), _base_of=_duflo_base)


def componentwise_rows(vectors: Sequence[Sequence[int]]) -> list[int]:
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


def chain_poset(n: int, limit: int | None = None) -> TableauPoset:
    """The chain-order poset on all standard tableaux of size n."""
    check_limit(n, "chain poset", limit, ENUM_DEFAULT)
    return _chain_poset(n)


@functools.lru_cache(maxsize=None)
def _chain_poset(n: int) -> TableauPoset:
    nodes = tuple(enumerate_tableaux(n, limit=n))
    rows = componentwise_rows(_chain_vectors(nodes))
    return TableauPoset(kind="chain", n=n, nodes=nodes, leq_rows=tuple(rows),
                        hasse=tuple(hasse_reduce(rows)))


def poset_to_json(poset: TableauPoset) -> str:
    """Byte-stable JSON export: {"n", "kind", "nodes", "hasse"}."""
    doc = {
        "n": poset.n,
        "kind": poset.kind,
        "nodes": [row_text(t) for t in poset.nodes],
        "hasse": [[a, b] for a, b in poset.hasse],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def poset_to_dot(poset: TableauPoset) -> str:
    """Byte-stable DOT export of the Hasse diagram."""
    lines = [f'digraph "{poset.kind}_n{poset.n}" {{', "  node [shape=box];"]
    for i, t in enumerate(poset.nodes):
        lines.append(f'  {i} [label="{row_text(t)}"];')
    for a, b in poset.hasse:
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
