"""Pass only when a pytest run failed exactly the expected tests.

Usage: python .github/check_failures.py PYTEST_LOG [EXPECTED_ID ...]

PYTEST_LOG holds the output of ``pytest -rfE``.  The failed ids are read
from its short test summary (``FAILED id`` and ``ERROR id`` lines, a
collection error included), and the run passes when they are exactly the
EXPECTED_IDs and the log ends with pytest's final count line.
"""

from __future__ import annotations

import re
import sys

SUMMARY = re.compile(r"^(FAILED|ERROR) (\S+)")
FINAL = re.compile(r"\b(passed|failed|error|errors) in [\d.]+s\b")


def failed_ids(log: str) -> set[str]:
    return {m[2] for m in map(SUMMARY.match, log.splitlines()) if m}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        log = f.read()
    if not FINAL.search(log.rstrip().rsplit("\n", 1)[-1]):
        print("no final pytest count line: the run did not finish", file=sys.stderr)
        return 1
    got, expected = failed_ids(log), set(argv[2:])
    for label, ids in (("unexpected failure", got - expected),
                       ("expected failure did not fail", expected - got)):
        for test_id in sorted(ids):
            print(f"{label}: {test_id}", file=sys.stderr)
    if got != expected:
        return 1
    print(f"failed exactly the {len(expected)} expected test(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
