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
is below some word of the second") comes from a sweep over the words, one
inversion layer at a time from the longest word down, carrying per word the
tableaux whose cells meet its weak-order up-set.  The build sweeps only the
words with at least h = floor(N / 2) of the N = n(n - 1) / 2 inversions.
Reversal turns the weak order upside down and transposes the insertion
tableau, so a base pair (T, S) from words w <= v is either swept (w has at
least h inversions), or the transpose (S^t, T^t) of a swept pair (v has at
most N - h), or joined through a word m with h inversions on a chain from w
to v, with (T(w), T(m)) of the second kind and (T(m), T(v)) of the first.
The swept pairs and their transposes thus have the transitive closure of the
whole base relation, which is not transitive itself from n = 5 on (175
against 177 pairs at n = 5, 953 against 987 at n = 6).  Both posets are
checked and Hasse-reduced through a linear extension, one bitset operation
per cover.

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
from typing import Callable, Mapping, Sequence

from .config import CACHE_BOUND, CELL_DEFAULT, ENUM_DEFAULT, check_limit
from .errors import InvalidTableauError
from .rsjdt import _insert_columns, _slide_out
from .tableau import ColumnShape, Tableau, enumerate_tableaux, row_text


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
    checked on the way.  In a linear extension (decreasing up-set size, ties
    by index) an order's rows have no bit below the diagonal, node i's covers
    come by taking the lowest strict bit k left and clearing row k, and it is
    transitive exactly when each row is {i} joined with its covers' rows: one
    bitset operation per pair to re-index, and one per cover to check."""
    m = len(rows)
    order = sorted(range(m), key=lambda i: (-rows[i].bit_count(), i))
    where = {old: new for new, old in enumerate(order)}
    ext = [0] * m
    edges: list[tuple[int, int]] = []
    for i in range(m - 1, -1, -1):
        a, rest, row = order[i], rows[order[i]], 0
        if rest >> m:
            raise InvalidTableauError(f"relation row {a} names a node beyond the {m} rows")
        while rest:
            k = rest.bit_length() - 1
            row |= 1 << where[k]
            rest ^= 1 << k
        ext[i] = row
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


def _closure(rows: list[int]) -> list[int]:
    """Transitive closure by up-set sweeps: each row, last node first, takes
    in the rows of its set bits, highest first, until a sweep changes none.
    On an upward node order (``row_text``'s here) a second sweep confirms."""
    rows = list(rows)
    while True:
        before = rows[:]
        for i in range(len(rows) - 1, -1, -1):
            row = rest = rows[i]
            while rest:
                k = rest.bit_length() - 1
                rest ^= 1 << k
                row |= rows[k]
            rows[i] = row
        if rows == before:
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


def _up_set_sweep(n: int, index: Mapping[tuple[int, ...], int], stop: int) -> list[int]:
    """Base pairs (T(w), T(v)), w <= v, over the words w with at least
    ``stop`` inversions, swept one layer at a time from the longest word."""
    base = [0] * len(index)
    layer = {int.from_bytes(bytes(range(n, 0, -1)), "little"): 0}
    known: dict[int, int] = {}
    for inversions in range(n * (n - 1) // 2, stop - 1, -1):
        layer = _sweep_layer(n, layer, known, index, base, inversions > stop)
    return base


@functools.lru_cache(maxsize=None)
def _duflo_base(n: int) -> tuple[int, ...]:
    """The whole base relation, from the sweep down to the identity word."""
    nodes = _duflo_poset(n).nodes
    return tuple(_up_set_sweep(n, {t.columns: i for i, t in enumerate(nodes)}, 0))


@functools.lru_cache(maxsize=None)
def _duflo_poset(n: int) -> TableauPoset:
    nodes = tuple(enumerate_tableaux(n, limit=n))
    index = {t.columns: i for i, t in enumerate(nodes)}
    # The words with at least h inversions, then the transposes of their pairs.
    base = _up_set_sweep(n, index, n * (n - 1) // 4)
    tau = [index[t.transpose().columns] for t in nodes]
    for i, row in enumerate(list(base)):
        while row:
            k = (row & -row).bit_length() - 1
            row ^= 1 << k
            base[tau[k]] |= 1 << tau[i]
    rows = _closure(base)
    try:
        hasse = tuple(hasse_reduce(rows))
    except InvalidTableauError as exc:
        # Only antisymmetry can fail on a closure: two nodes share a row.
        j = next(j for j, row in enumerate(rows) if rows.index(row) != j)
        i = rows.index(rows[j])
        raise RuntimeError("antisymmetry violation in the induced order "
                           f"({row_text(nodes[i])} / {row_text(nodes[j])})") from exc
    return TableauPoset(kind="duflo", n=n, nodes=nodes, leq_rows=tuple(rows), hasse=hasse,
                        _base_of=_duflo_base)


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
