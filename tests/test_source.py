"""Guards on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tableaux

SOURCES = sorted(Path(tableaux.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # Cross-checks must raise on their own: ``python -O`` strips ``assert``.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def run_python(*args):
    env = dict(os.environ)
    src = str(Path(tableaux.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("TABLEAUX_LIMIT_N", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_optimized_mode_changes_nothing():
    cmd = ["-m", "tableaux.cli", "poset", "6", "--kind", "duflo", "--format", "json"]
    plain, optimized = run_python(*cmd), run_python("-O", *cmd)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert '"kind":"duflo"' in plain.stdout


def test_optimized_mode_still_rejects_non_orders():
    # The ``assert False`` line would stop the script unless -O strips it.
    code = ("import sys\n"
            "from tableaux import InvalidTableauError, hasse_reduce\n"
            "assert False, 'asserts run'\n"
            "for rows in ((0b10, 0b10), (0b11, 0b11), (0b011, 0b110, 0b100)):\n"
            "    try:\n"
            "        hasse_reduce(rows)\n"
            "    except InvalidTableauError:\n"
            "        continue\n"
            "    sys.exit(f'accepted {rows}')\n")
    result = run_python("-O", "-c", code)
    assert result.returncode == 0, result.stderr
