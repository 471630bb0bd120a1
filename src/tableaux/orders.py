"""The order relations at full generality, poset construction, and exports.

Chain order: T is below S when every jeu-de-taquin projection of T has a
shape dominance-below the matching projection of S.  The window shapes make
one vector of prefix sums, a byte per field under a free top bit, compared
by one guarded subtraction.  A vector is the windows (1, j), then the vector
of the tableau left by sliding 1 out: a batch slides a sub-tableau once, and
the rows (ANDs of threshold masks) share its partial row.

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
order-preserving relabelling (Schensted 1961), so every step is read on
standard tableaux: inserting a letter of rank r among the letters so far
raises the entries >= r by one and inserts r.  A pair of size k is thus a
pair of size k - 1 with one rank inserted into both tableaux, or a seed,
ranks q then p (p < q) against p then q inserted into a tableau of size
k - 2.  Standardizing maps each word with an ascent to exactly one such
path, so the pairs of size n are exactly the cover pairs, grown at the cost
of the distinct pairs per level rather than of the n! words, and closed in
one pass, sinks first, one OR per pair.  No step runs an insertion: by
Fomin's local rule for growth diagrams (Fomin, "Schensted algorithms for
dual graded graphs", J. Algebraic Combin. 1995), transposed for columns,
rank r <= k into a tableau of size k with k at the foot of column c is rank
r into its parent, the tableau without k, with k + 1 put back at the foot
of c, or of c + 1 if that insertion added its box in c; rank k + 1 goes at
the foot of column 1.  The corner growth records parents and columns.  The
tableaux of at most k columns are an up-set of both orders (a shape that
dominates one of them has at most k columns), so their pairs grow alone.  The
whole base relation is a lazy read (``base_rows``) by a sweep over all the
words, one inversion layer at a time from the longest word down, carrying
per word the tableaux whose cells meet its weak-order up-set.  A poset's
Hasse diagram is reduced, and so checked, on first read, in node order (a
linear extension through n = 9), one bitset operation per cover.

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

from .config import CACHE_BOUND, check_limit
from .errors import InvalidTableauError, LimitError
from .rsjdt import _insert_columns, _slide_out
from .tableau import ColumnShape, Tableau, _corner_tree, _standard_tableaux, row_text


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


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, tuple[int, ...], int]:
    """Bytes per field (n fits below the top bit), ``ones[c]`` (1 in fields c..n-1), the guard."""
    width = 1 if n < 128 else 2 if n < 32768 else 4
    one, top = (1).to_bytes(width, "little"), (1 << 8 * width - 1).to_bytes(width, "little")
    ones = tuple(int.from_bytes(one * (n - c), "little") << 8 * width * c for c in range(n + 1))
    return width, ones, int.from_bytes(top * ((n + 1) * n * (n - 1) // 6), "little")


def _fields(vector: bytes, width: int) -> str:
    """A packed vector as text, a field a character: the codec's code unit is the field."""
    return vector.decode({1: "latin-1", 2: "utf-16-le", 4: "utf-32-le"}[width], "surrogatepass")


def _peel(cols: list[list[int]], lo: int, n: int) -> bytes:
    """Fields of the windows (lo, j) of a tableau on lo..n, lo in the corner; lo is then
    slid out if a window is left.  Entry j adds 1 to the column-height sums from its column."""
    width, ones, _ = _layout(n)
    column_of = {v: c for c, col in enumerate(cols) for v in col}
    sums, parts = ones[0], []
    for j in range(lo + 1, n + 1):
        sums += ones[column_of[j]]
        parts.append(sums.to_bytes(n * width, "little")[:(j - lo) * width])
    if lo < n - 1:
        _slide_out(cols, 0, 0)
    return b"".join(parts)


def _chain_vectors(tableaux: Sequence[Tableau]) -> list[bytes]:
    """``_chain_vector`` of standard tableaux, level by level: a sub-tableau slides once."""
    parts: list[list[bytes]] = [[] for _ in tableaux]
    groups: dict[tuple[tuple[int, ...], ...], list[int]] = {}
    for k, t in enumerate(tableaux):
        groups.setdefault(t.columns, []).append(k)
    lo = 0
    while groups:
        lo, level, groups = lo + 1, groups, {}
        for cols, ks in level.items():
            n, slid = lo - 1 + sum(map(len, cols)), [list(c) for c in cols]
            fields = _peel(slid, lo, n)
            for k in ks:
                parts[k].append(fields)
            if lo < n - 1:
                groups.setdefault(tuple(map(tuple, slid)), []).extend(ks)
    return [b"".join(p) for p in parts]


@functools.lru_cache(maxsize=CACHE_BOUND)
def _chain_vector(t: Tableau) -> bytes:
    """Window shapes in sorted window order, for (i, j) the first j - i prefix sums of
    its column heights: dominance on every window is ``<=`` on every field.  Sliding out
    a down-set does not depend on the order, so a vector is the windows (1, j) followed
    by the vector of the tableau left by sliding 1 out."""
    if not t.is_standard:
        raise InvalidTableauError("chain profiles are defined for standard tableaux")
    cols = [list(c) for c in t.columns]
    return b"".join([_peel(cols, lo, t.n) for lo in range(1, t.n)])


@functools.lru_cache(maxsize=CACHE_BOUND)
def chain_profile(t: Tableau) -> Mapping[tuple[int, int], ColumnShape]:
    """Shapes of all projections onto value windows i..j, 1 <= i < j <= n,
    as a read-only mapping: the positive steps of their ``_chain_vector`` sums."""
    vector, profile = map(ord, _fields(_chain_vector(t), _layout(t.n)[0])), {}
    for i, j in itertools.combinations(range(1, t.n + 1), 2):
        sums = [0, *itertools.islice(vector, j - i), j - i + 1]
        profile[(i, j)] = tuple(b - a for a, b in zip(sums, sums[1:]) if b > a)
    return MappingProxyType(profile)


def chain_leq(t: Tableau, s: Tableau) -> bool:
    """Dominance of every projected shape of t by s's, in one subtraction (Lamport,
    CACM 1975): with the top bits of s's fields set no borrow crosses a field, and
    a field keeps its top bit where s is at least t."""
    n = t.n
    if n != s.n:
        raise InvalidTableauError(f"size mismatch: {n} vs {s.n}")
    below, above = (int.from_bytes(_chain_vector(u), "little") for u in (t, s))
    guard = _layout(n)[2]
    return ((above | guard) - below) & guard == guard


def hasse_reduce(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Transitive reduction of a finite partial order given as row bitmasks, checked on the
    way.  In a linear extension an order's rows have no bit below the diagonal, node i's
    covers come by taking the lowest strict bit k left and clearing row k, and it is
    transitive exactly when each row is {i} joined with its covers' rows: one bitset
    operation per cover, on the rows as given if each has bit i and none below (both posets'
    rows do for n <= 9, under any column bound too: a sub-order of a linear extension is
    one), else after a re-index by decreasing up-set size."""
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
    """A finite poset of same-size tableaux: its nodes and its relation.

    ``leq_rows[i]`` has bit j set when node i is below node j.  ``hasse``
    and the node index are derived on first read; reducing checks the order.
    ``base_rows`` is the Duflo relation before closure, cached per n; it is
    None for the chain kind and under a column bound.  Posets are cached
    and shared, so they are frozen.
    """

    kind: str
    n: int
    nodes: tuple[Tableau, ...]
    leq_rows: tuple[int, ...]
    _base_of: Callable[[int], tuple[int, ...]] | None = field(default=None, repr=False)

    @functools.cached_property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        return tuple(hasse_reduce(self.leq_rows))

    @functools.cached_property
    def _index(self) -> Mapping[Tableau, int]:
        return MappingProxyType({t: i for i, t in enumerate(self.nodes)})

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


def _family(n: int, what: str, limit: int | None, max_columns: int | None) -> tuple[int, ...]:
    """Check a build's size and its column bound, none for the whole poset (one cached build)."""
    check_limit(n, what, limit)
    if max_columns is not None and max_columns < 1:
        raise LimitError(f"max_columns must be at least 1, got {max_columns}")
    return () if max_columns is None or max_columns >= n else (max_columns,)


def duflo_poset(n: int, limit: int | None = None, *,
                max_columns: int | None = None) -> TableauPoset:
    """The induced weak order on the standard tableaux of size n, or of at most ``max_columns``."""
    return _duflo_poset(n, *_family(n, "Duflo poset", limit, max_columns))


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


def _up_table(n: int, max_columns: int | None) -> list[list[tuple[int, ...]]]:
    """up[k][i][r - 1], for k < n and r = 1..k + 1: tableau i of size k with its entries
    >= r raised by one and r inserted, as an index at size k + 1, by the local rule on
    the growth tree (-1 once it has more than ``max_columns`` columns, and a level's row
    -1 is all -1); added[k][i][r - 1] is the column, from 0, where it adds its box."""
    up, added = [[(0,), (-1,)]], [[(0,)]]
    for k in range(1, n):
        _, parent, column = _corner_tree(k, max_columns)
        grow = [[-1] * (k + 1) for _ in (*parent, -1)]  # grow[u][c]: u with k + 1 at the foot of c
        for j, (u, c) in enumerate(zip(*_corner_tree(k + 1, max_columns)[1:])):
            grow[u][c] = j
        up.append([])
        added.append([])
        for i, (p, c) in enumerate(zip(parent, column)):
            pairs = list(zip(up[k - 1][p], added[k - 1][p]))
            up[k].append((*[grow[u][c + (d == c)] for u, d in pairs], grow[i][0]))
            added[k].append((*[d + (d == c) for _, d in pairs], 0))
        up[k].append((-1,) * (k + 1))
    return up[:n]


def _duflo_edges(n: int, max_columns: int | None) -> set[tuple[int, int]]:
    """The pairs (T(w), T(w s_a)) over the words w of size n with w_a < w_{a + 1}, as indices
    into the standard tableaux of size n, grown level by level by the local rule (Fomin 1995),
    with no word; a pair with T(w) = T(w s_a) grows only into such pairs, and each level drops
    them, and the pairs that leave the family of at most ``max_columns`` columns."""
    up = _up_table(n, max_columns)
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
        if max_columns is not None and k > max_columns:
            pairs = {(c, d) for c, d in pairs if c >= 0}
            if any(d < 0 for _, d in pairs):  # The family is an up-set: this cannot happen.
                raise RuntimeError(f"a Duflo pair of size {k} leaves the family by its upper end")
    return pairs


@functools.lru_cache(maxsize=None)
def _duflo_poset(n: int, max_columns: int | None = None) -> TableauPoset:
    nodes = _standard_tableaux(n, max_columns)
    rows = _closure(nodes, _duflo_edges(n, max_columns))
    return TableauPoset(kind="duflo", n=n, nodes=nodes, leq_rows=tuple(rows),
                        _base_of=_duflo_base if max_columns is None else None)


def _threshold_rows(texts: Sequence[str], alphabet: str, shared: Iterable[int] = ()) -> list[int]:
    """Bit j of row k is set when no character of texts[k] is above texts[j]'s: an AND
    of threshold masks read in linear time off each column (characters in ``alphabet``,
    increasing); the AND over a suffix of a length in ``shared`` (increasing) is made once."""
    size, backwards = len(texts[0]), "".join(texts)[::-1]  # columns from the last text
    partial, top = {"": (1 << len(texts)) - 1}, ord(alphabet[-1]) + 1
    for short, long in itertools.pairwise([0, *shared, size]):
        columns = (backwards[long - 1 - i::size] for i in range(long - short))
        masks = [{x: int(col.translate("0" * ord(x) + "1" * (top - ord(x))), 2)
                  for x in alphabet if x in col} for col in columns]
        level = {}
        for key in {t[size - long:] for t in texts}:
            row = partial[key[long - short:]]
            for mask, x in zip(masks, key):
                row &= mask[x]
            level[key] = row
        partial = level
    return [partial[t] for t in texts]


def chain_poset(n: int, limit: int | None = None, *,
                max_columns: int | None = None) -> TableauPoset:
    """The chain order on the standard tableaux of size n, or of at most ``max_columns``."""
    return _chain_poset(n, *_family(n, "chain poset", limit, max_columns))


@functools.lru_cache(maxsize=None)
def _chain_poset(n: int, max_columns: int | None = None) -> TableauPoset:
    nodes = _standard_tableaux(n, max_columns)
    texts = [_fields(v, _layout(n)[0]) for v in _chain_vectors(nodes)]
    rows = _threshold_rows(texts, "".join(map(chr, range(n + 1))),
                           [(m + 1) * m * (m - 1) // 6 for m in range(2, n)])
    return TableauPoset(kind="chain", n=n, nodes=nodes, leq_rows=tuple(rows))


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
