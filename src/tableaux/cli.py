"""Command-line surface.

    tableaux rs "[2,5,1,4,3]"
    tableaux compare "1 2; 3 4" "1 2; 3; 4" --order fast
    tableaux word "1 3; 2 5; 4 6; 7"
    tableaux cover "1 3; 2 5; 4 6; 7"
    tableaux jdt "1 2 5; 3 4; 6" 1 2
    tableaux project "1 3; 2 4; 5" 1 4
    tableaux cell "1 2; 3"
    tableaux poset 4 --kind duflo --format dot
    tableaux verify 5 --suite coincide

Exit codes: 0 success, 1 verification failure (or an internal
inconsistency between orders), 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .config import HARD_CEILING, effective_limit
from .errors import InvalidTableauError, TableauxError
from .orders import (
    Verdict,
    chain_leq,
    chain_poset,
    compare,
    duflo_poset,
    poset_to_dot,
    poset_to_json,
)
from .rsjdt import cell, jdt_remove, project_tableau, rs_tableau
from .textio import format_tableau, format_word, parse_tableau, parse_word
from .twocol import canonical_word, cover, fast_leq, two_row_canonical_word
from .verify import SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tableaux",
        description="Orders on standard Young tableaux and their word machinery.",
    )
    parser.add_argument(
        "--limit-n", type=int, default=None, metavar="N",
        help=f"lower the enumeration size cap (default and maximum {HARD_CEILING})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rs", help="insertion tableau of a word")
    p.add_argument("word")

    p = sub.add_parser("compare", help="compare two tableaux in a chosen order")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--order", choices=["duflo", "chain", "fast", "all"], default="all")

    p = sub.add_parser("word", help="canonical word of a two-column or two-row tableau")
    p.add_argument("tableau")
    p.add_argument("--rows", action="store_true",
                   help="force the two-row variant on ambiguous shapes")

    p = sub.add_parser("cover", help="immediate successors of a two-column tableau")
    p.add_argument("tableau")

    p = sub.add_parser("jdt", help="remove entries by jeu de taquin")
    p.add_argument("tableau")
    p.add_argument("entries", nargs="+", type=int)

    p = sub.add_parser("project", help="restrict a tableau to a value window")
    p.add_argument("tableau")
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)

    p = sub.add_parser("cell", help="all words mapping to a tableau")
    p.add_argument("tableau")

    p = sub.add_parser("poset", help="export a tableau poset")
    p.add_argument("n", type=int)
    p.add_argument("--kind", choices=["duflo", "chain"], default="duflo")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--restrict", choices=["all", "two-column"], default="all")
    p.add_argument("--output", default=None, metavar="FILE")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("n", type=int)
    p.add_argument("--suite", choices=["all", *SUITES], default="all")
    return parser


def _cmd_rs(args) -> int:
    print(format_tableau(rs_tableau(parse_word(args.word))))
    return 0


def _cmd_compare(args) -> int:
    t = parse_tableau(args.left)
    s = parse_tableau(args.right)
    if t.n != s.n:
        raise InvalidTableauError(f"size mismatch: {t.n} vs {s.n}")
    two_col = len(t.columns) <= 2 and len(s.columns) <= 2

    # Under --order all, a size beyond the Duflo cap leaves the other verdicts to answer on
    # their own.  Two-column tableaux are an up-set of the Duflo order: its poset decides them.
    duflo_known = args.order == "duflo"
    if args.order == "all":
        duflo_cap = effective_limit(args.limit_n)
        duflo_known = t.n <= duflo_cap
    verdicts: dict[str, Verdict] = {}
    if duflo_known:
        poset = duflo_poset(t.n, limit=args.limit_n, max_columns=2 if two_col else None)
        verdicts["duflo"] = compare(t, s, poset.leq)
    if args.order in ("chain", "all"):
        verdicts["chain"] = compare(t, s, chain_leq)
    if args.order in ("fast", "all"):
        if two_col:
            verdicts["fast"] = compare(t, s, fast_leq)
        elif args.order == "fast":
            raise InvalidTableauError("fast comparison needs at most two columns")

    if args.order != "all":
        print(verdicts[args.order])
        return 0
    if not duflo_known:
        print(f"duflo: unavailable (limit {duflo_cap})")
    for name, v in verdicts.items():
        print(f"{name}: {v}")
    # The chain order extends the induced weak order, and on two-column
    # tableaux all available orders must agree outright.  A chain relation
    # without a duflo relation on a wide tableau pair is the legitimate
    # proper extension, not a disagreement.
    c = verdicts["chain"]
    d = verdicts.get("duflo")
    if two_col:
        ok = len(set(verdicts.values())) == 1
    else:
        ok = d in (None, Verdict.INCOMPARABLE, c)
    if not ok:
        print("internal error: orders disagree beyond the proven extension",
              file=sys.stderr)
        return 1
    # The geometric (closure-inclusion) order sits between the two: it is
    # certified exactly when its bounds pin it down.
    if d is None:
        print("geometric: undetermined (duflo unavailable)")
    elif d == c:
        print(f"geometric: {d}")
    else:
        print("geometric: undetermined (between duflo and chain)")
    return 0


def _cmd_word(args) -> int:
    t = parse_tableau(args.tableau)
    cols = len(t.columns)
    rows = len(t.columns[0]) if t.columns else 0
    if args.rows:
        w = two_row_canonical_word(t)
    elif cols <= 2:
        w = canonical_word(t).word
    elif rows <= 2:
        w = two_row_canonical_word(t)
    else:
        raise InvalidTableauError(
            f"shape out of scope (needs at most two columns or two rows): {t.shape}"
        )
    print(format_word(w))
    return 0


def _cmd_cover(args) -> int:
    t = parse_tableau(args.tableau)
    for s in cover(t):
        print(format_tableau(s))
    return 0


def _cmd_jdt(args) -> int:
    t = parse_tableau(args.tableau)
    print(format_tableau(jdt_remove(t, args.entries)))
    return 0


def _cmd_project(args) -> int:
    t = parse_tableau(args.tableau)
    print(format_tableau(project_tableau(t, args.start, args.end)))
    return 0


def _cmd_cell(args) -> int:
    t = parse_tableau(args.tableau)
    for w in cell(t, limit=args.limit_n):
        print(format_word(w))
    return 0


def _cmd_poset(args) -> int:
    poset = (duflo_poset if args.kind == "duflo" else chain_poset)(
        args.n, limit=args.limit_n, max_columns=2 if args.restrict == "two-column" else None)
    text = poset_to_dot(poset) if args.format == "dot" else poset_to_json(poset)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.n, args.suite, limit=args.limit_n)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


_COMMANDS = {
    "rs": _cmd_rs,
    "compare": _cmd_compare,
    "word": _cmd_word,
    "cover": _cmd_cover,
    "jdt": _cmd_jdt,
    "project": _cmd_project,
    "cell": _cmd_cell,
    "poset": _cmd_poset,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TableauxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
