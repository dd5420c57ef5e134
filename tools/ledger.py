"""Moved-field ledger: which recorded benchmark outputs a change moves.

    python3 tools/ledger.py 0 1 2 3 4 5 6 7 8 9 [--allow 'rates:*.cir_ub' ...]

Run from the repository root. It records the outputs the benchmark gate
compares against, from the working tree, with `record_reference.record`
(about 3.4 s per seed on a 2-core Xeon; by default every seed of
`perfbench/reference.json`), and diffs them field by field against
`perfbench/reference.json`. It reads `perfbench/` and writes nothing there.

A field is named `<command id>.<path>`, as in `rates:gain.cir_ub` or
`sw:bss[0].errors`. Its tolerance is the gate's: `gate.BOUND_TOL` for the
bound fields, none for the fields the gate holds exactly, `gate.EXACT_TOL`
for every other number; strings and flags must be equal. A field that
differs by more than its tolerance, appears or disappears has *moved*; one that differs by at most its tolerance has
*drifted* (float noise). Both are printed as old -> new, the drift apart.

Exits 1 when a moved field matches none of the `--allow` patterns
(fnmatch, on the field name), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import fnmatch
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gate  # noqa: E402

ABSENT = "<absent>"


def fields(obj, path: str = ""):
    """(path, value) of every leaf of a recorded output."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from fields(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from fields(value, f"{path}[{i}]")
    else:
        yield path, obj


def tolerance(field: str) -> float:
    """The gate's tolerance for a numeric field, by its last name.

    This mirrors the comparisons in `gate._rates`, `gate._sw` and
    `gate._crsk`; if the gate changes how it compares a field, change this
    too. It is keyed on the last name only, so it gives BOUND_TOL to any
    leaf named like a bound and EXACT_TOL to numbers the gate does not
    compare. The gate should expose a per-field tolerance for this to
    import (ROADMAP item 11)."""
    name = re.sub(r"\[\d+\]", "", field.rsplit(".", 1)[-1])
    if name in gate.BOUND_FIELDS:
        return gate.BOUND_TOL
    if name in gate.SW_EXACT + gate.CRSK_EXACT:
        return 0.0
    return gate.EXACT_TOL


def diff(reference: dict, recorded: dict) -> tuple[list, list]:
    """(moved, drifted) fields of `recorded` against `reference`, each a
    list of (seed, field, old, new), for the seeds `recorded` holds."""
    moved, drifted = [], []
    for seed, outputs in recorded.items():
        old = {op + path: v for op, out in reference.get(seed, {}).items()
               for path, v in fields(out)}
        new = {op + path: v for op, out in outputs.items() for path, v in fields(out)}
        for field in sorted(old.keys() | new.keys()):
            a, b = old.get(field, ABSENT), new.get(field, ABSENT)
            if a == b and type(a) is type(b):
                continue
            numbers = isinstance(a, (int, float)) and isinstance(b, (int, float))
            close = numbers and abs(a - b) <= tolerance(field)
            (drifted if close else moved).append((seed, field, a, b))
    return moved, drifted


def allowed(field: str, patterns: list[str]) -> bool:
    return any(fnmatch.fnmatchcase(field, pattern) for pattern in patterns)


def main(argv=None, record=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--allow", action="append", default=[], metavar="PATTERN",
                        help="a field name pattern that may move; repeatable")
    args = parser.parse_args(argv)
    if record is None:
        from record_reference import record
    reference = gate.load_reference()
    seeds = args.seeds or sorted(int(s) for s in reference)
    moved, drifted = diff(reference, {str(s): record(s) for s in seeds})
    refused = [m for m in moved if not allowed(m[1], args.allow)]
    for title, rows in (("moved", moved), ("drift", drifted)):
        for seed, field, old, new in rows:
            mark = "" if title == "drift" or allowed(field, args.allow) else " (not allowed)"
            print(f"{title}  seed {seed}  {field}: {old!r} -> {new!r}{mark}")
    print(f"seeds {seeds}: {len(moved)} moved, {len(refused)} of them not allowed; "
          f"{len(drifted)} drifted within tolerance")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
