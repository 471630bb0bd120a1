"""Text formats for words and tableaux.

Words: comma- or space-separated integers, optionally bracketed.
Canonical serialization is the bracketed comma form, ``[2,5,1,4,3]``.

Tableaux: the canonical form lists rows top to bottom separated by ``;``
with space-separated entries, e.g. ``1 3; 2 4; 5``.  A column form is also
accepted on input, prefixed with ``cols:`` and separated by ``|``, e.g.
``cols: 1 2 5 | 3 4``.
"""

from __future__ import annotations

from .errors import InvalidTableauError, InvalidWordError
from .tableau import Tableau, make_tableau, row_text
from .words import Word


def _parse_ints(text: str, error: type[ValueError]) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise error(f"cannot parse integers from {text!r}") from None


def parse_word(text: str) -> Word:
    cleaned = text.strip().strip("[]()")
    values = _parse_ints(cleaned, InvalidWordError)
    if not values:
        raise InvalidWordError(f"no entries in {text!r}")
    return Word(values)


def format_word(w: Word) -> str:
    return "[" + ",".join(map(str, w.entries)) + "]"


def parse_tableau(text: str) -> Tableau:
    """Parse either the row form or the ``cols:`` form into a standard tableau.
    Trailing separators are ignored; an empty row or column before the last is not."""
    body = text.strip()
    if not body:
        raise InvalidTableauError("empty tableau text")
    by_cols = body.lower().startswith("cols:")
    parts = [_parse_ints(part, InvalidTableauError)
             for part in (body[5:].split("|") if by_cols else body.split(";"))]
    while parts and not parts[-1]:
        parts.pop()
    if not all(parts):
        raise InvalidTableauError(f"empty {'column' if by_cols else 'row'} in {text!r}")
    if not parts:
        raise InvalidTableauError(f"no entries in {text!r}")
    if by_cols:
        return make_tableau(parts)
    widths = [len(r) for r in parts]
    if any(widths[i] < widths[i + 1] for i in range(len(widths) - 1)):
        raise InvalidTableauError(f"row widths not weakly decreasing: {widths}")
    columns = [
        tuple(row[c] for row in parts if len(row) > c)
        for c in range(widths[0])
    ]
    return make_tableau(columns)


def format_tableau(t: Tableau) -> str:
    return row_text(t)
