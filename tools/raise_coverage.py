"""Every `raise` in src/cit that the tier-1 tests never reach.

    python3 tools/raise_coverage.py

Run from the repository root. It runs the tier-1 tests in this process
(`pytest -q -p no:cacheprovider --continue-on-collection-errors tests`)
with a `sys.settrace` line tracer that follows only frames whose code
lives in src/cit, then lists each `raise` statement none of whose lines
ran, by module, function and line.

A raise the tests cannot reach is listed in ALLOWED below, keyed by module
and function (not by line, so an edit elsewhere in the file does not
stale it), with the reason it cannot be reached. Exits 1 when a listed
raise is not allowed or the tests fail, and 0 otherwise; an allowed
function whose raises all ran is printed as a note. Code reached only in
a subprocess the tests start is not seen. Tracing makes the tests about
twice as slow.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "cit"

# (module, function) -> why no test reaches its raises
ALLOWED = {
    ("structure", "double_markov_extract"):
        "the I(X;Y|g) postcondition: g is the minimal sufficient statistic of X for Y, "
        "so the conditional information is 0 up to rounding on every input that passes "
        "the Markov checks; it guards the construction, not the input",
}


def raise_sites() -> dict[Path, list[tuple[str, str, int, int]]]:
    """Each module's raises: (module, enclosing function, first line, last line)."""
    sites: dict[Path, list] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = []

        def visit(node, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Raise):
                    found.append((path.stem, inner or "<module>", child.lineno, child.end_lineno))
                visit(child, inner)

        visit(ast.parse(path.read_text(), str(path)), "")
        sites[path] = found
    return sites


def traced_lines() -> tuple[int, dict[str, set[int]]]:
    """Run the tests under the line tracer: (pytest's exit code, lines run per file)."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code, ran = traced_lines()
    missed = [(module, function, first)
              for path, sites in raise_sites().items()
              for module, function, first, last in sites
              if ran[str(path)].isdisjoint(range(first, last + 1))]
    bad = [m for m in missed if m[:2] not in ALLOWED]
    print(f"\n{len(missed)} raise(s) never ran, {len(bad)} of them not allowed")
    for module, function, line in missed:
        reason = ALLOWED.get((module, function))
        print(f"  {module}.py:{line} in {function}: " + (f"allowed ({reason})" if reason else "NOT ALLOWED"))
    for key in sorted(ALLOWED.keys() - {m[:2] for m in missed}):
        print(f"  note: every raise of allowed {key[0]}.{key[1]} ran")
    if code != 0:
        print(f"the tests failed (pytest exit code {code})")
    return 1 if bad or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
