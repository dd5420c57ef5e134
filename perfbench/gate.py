"""Correctness gate: every command's output is checked before it counts.

`problems(op, envelope, reference)` returns a list of messages; an
empty list passes. Three kinds of check apply:

* invariants that hold for any seed (bounds ordered against I(X;Y), checks
  passing, simulator counts in range);
* relabeling invariance: exact rate fields equal the recorded seed-0 values
  for every seed, since a seed only permutes the source symbols;
* equality with the outputs recorded at the seed commit, for the commands
  whose inputs `reference.json` holds (see `Op.ref_seed`).
"""

from __future__ import annotations

import copy
import json
import math
from collections import defaultdict
from pathlib import Path

import workloads

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

EXACT_TOL = 1e-12
BOUND_TOL = 1e-9
RANDOMIZED_FEASIBILITY = 1e-4
IDENTITY_TOL = 1e-9

EXACT_FIELDS = ("h_x", "h_y", "mi", "sk_capacity", "gk_ci", "ci1_x", "ci1_y", "r_ni")
BOUND_FIELDS = ("cir_ub", "r_sk_r", "wyner_ub")
SW_EXACT = ("n", "bins_log2", "trials", "errors")
CRSK_EXACT = ("n", "trials", "key_bits", "stage_bits", "decode_failures", "leakage_basis")
CRSK_CLOSE = ("leakage", "uniformity_gap", "cr_error_rate", "comm_rate", "key_rate")

# what each simulated case is chosen to exercise, checked for every seed
CRSK_EXPECT = {
    "crsk:bss-n16": {"leakage_basis": "estimate", "stage_bits": [16]},  # no stage hashed
    "crsk:bss-n12": {"leakage_basis": "estimate"},                      # hashed stage
    "crsk:gain-n4": {"leakage_basis": "exact"},                         # exact leakage
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= tol


def _rates(res, same, base) -> list[str]:
    out = []
    mi = res["mi"]
    if res["gk_ci"] > mi + EXACT_TOL:
        out.append(f"gk_ci {res['gk_ci']} > mi {mi}")
    for name in ("cir_ub", "wyner_ub"):
        if res[name] < mi - RANDOMIZED_FEASIBILITY:
            out.append(f"{name} {res[name]} < mi - 1e-4")
    if res["cir_ub"] > min(res["ci1_x"], res["ci1_y"]) + EXACT_TOL:
        out.append(f"cir_ub {res['cir_ub']} > min(ci1_x, ci1_y)")
    if not _close(res["r_sk_r"], res["cir_ub"] - mi, EXACT_TOL):
        out.append("r_sk_r != cir_ub - mi")
    if base is not None:
        for name in EXACT_FIELDS:
            if not _close(res[name], base[name], EXACT_TOL):
                out.append(f"{name} {res[name]!r} != seed-0 value {base[name]!r}")
    if same is not None:
        for name in BOUND_FIELDS:
            if not _close(res[name], same[name], BOUND_TOL):
                out.append(f"{name} {res[name]!r} != recorded {same[name]!r}")
        if res["provenance"] != same["provenance"]:
            out.append("provenance differs from the recorded report")
    return out


def _check(op, res) -> list[str]:
    out = []
    if res.get("pass") is not True:
        out.append("identity check did not pass")
    if not res.get("max_violation", math.inf) <= IDENTITY_TOL:
        out.append(f"max_violation {res.get('max_violation')} > 1e-9")
    if str(res.get("count")) != op.argv[op.argv.index("--count") + 1]:
        out.append("count differs from the request")
    return out


def _sw(op, res, same) -> list[str]:
    out = []
    wanted = [int(v) for v in op.argv[op.argv.index("--n") + 1].split(",")]
    if [row["n"] for row in res] != wanted:
        return [f"blocklengths {[row['n'] for row in res]} != {wanted}"]
    for row in res:
        if not 0 <= row["errors"] <= row["trials"]:
            out.append(f"n={row['n']}: errors {row['errors']} out of range")
        if not _close(row["error_rate"], row["errors"] / row["trials"], EXACT_TOL):
            out.append(f"n={row['n']}: error_rate != errors / trials")
    if same is not None:
        for row, ref in zip(res, same):
            for name in SW_EXACT:
                if row[name] != ref[name]:
                    out.append(f"n={row['n']}: {name} {row[name]!r} != recorded {ref[name]!r}")
    return out


def _crsk(op, res, same) -> list[str]:
    out = []
    for name, want in CRSK_EXPECT.get(op.op_id, {}).items():
        if res[name] != want:
            out.append(f"{name} {res[name]!r}, expected {want!r}")
    if not 0.0 <= res["cr_error_rate"] <= 1.0:
        out.append("cr_error_rate out of [0, 1]")
    if res["decode_failures"] < 0 or res["leakage"] < 0 or res["uniformity_gap"] < 0:
        out.append("negative count, leakage or uniformity gap")
    if same is not None:
        for name in CRSK_EXACT:
            if res[name] != same[name]:
                out.append(f"{name} {res[name]!r} != recorded {same[name]!r}")
        for name in CRSK_CLOSE:
            if not _close(res[name], same[name], EXACT_TOL):
                out.append(f"{name} {res[name]!r} != recorded {same[name]!r}")
    return out


def problems(op, envelope, reference: dict) -> list[str]:
    """Everything wrong with one command's output; empty when it passes."""
    if not isinstance(envelope, dict) or "result" not in envelope:
        return [f"no report: {str(envelope)[:200]}"]
    res = envelope["result"]
    same = reference.get(str(op.ref_seed), {}).get(op.op_id)
    try:
        if op.kind == "rates":
            return _rates(res, same, reference.get("0", {}).get(op.op_id))
        if op.kind == "check":
            return _check(op, res)
        if op.kind == "sw":
            return _sw(op, res, same)
        if op.kind == "crsk":
            return _crsk(op, res, same)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown op kind {op.kind!r}")


def self_test(reference: dict) -> None:
    """Recorded seed-0 outputs pass; each perturbed copy must fail.

    Raises AssertionError naming the perturbation the gate let through.
    """
    ref0 = reference["0"]
    ops_by_id = {op.op_id: op for name in workloads.WORKLOADS
                 for op in workloads.commands(name, 0, defaultdict(str))}

    def perturbed(op_id, edit):
        res = copy.deepcopy(ref0[op_id])
        edit(res)
        return problems(ops_by_id[op_id], {"result": res}, reference)

    for op_id, res in ref0.items():
        if op_id not in ops_by_id:
            raise AssertionError(f"recorded output {op_id} matches no command")
        found = problems(ops_by_id[op_id], {"result": res}, reference)
        if found:
            raise AssertionError(f"recorded output of {op_id} fails the gate: {found}")
    cases = {
        "cir_ub + 1e-8": ("rates:gain", lambda r: r.__setitem__("cir_ub", r["cir_ub"] + 1e-8)),
        "wyner_ub + 1e-8": ("rates:bss", lambda r: r.__setitem__("wyner_ub", r["wyner_ub"] + 1e-8)),
        "mi + 1e-11": ("rates:rand4-0", lambda r: r.__setitem__("mi", r["mi"] + 1e-11)),
        "provenance": ("rates:rand3-0",
                       lambda r: r["provenance"].__setitem__("cir_ub", "exact")),
        "one more sw error": ("sw:bss", lambda r: r[0].__setitem__("errors", r[0]["errors"] + 1)),
        "one more decode failure": (
            "crsk:gain-n4", lambda r: r.__setitem__("decode_failures", r["decode_failures"] + 1)),
        "leakage + 1e-11": ("crsk:bss-n12", lambda r: r.__setitem__("leakage", r["leakage"] + 1e-11)),
        "check not passing": ("check:el5", lambda r: r.__setitem__("pass", False)),
    }
    for name, (op_id, edit) in cases.items():
        if not perturbed(op_id, edit):
            raise AssertionError(f"gate accepted a perturbed output ({name} on {op_id})")
