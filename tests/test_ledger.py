"""`tools/ledger.py` on a perturbed copy of the recorded reference: which
fields it reports moved, which drifted, and when it refuses. No recording runs."""

import copy
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "tools"))

import gate  # noqa: E402
import ledger  # noqa: E402

REFERENCE = gate.load_reference()


def perturbed(edits):
    """Seed 0's recorded outputs with `edits` applied: {seed: outputs}."""
    outputs = copy.deepcopy(REFERENCE["0"])
    for edit in edits:
        edit(outputs)
    return {"0": outputs}


def bump(op, name, delta):
    def edit(outputs):
        outputs[op][name] += delta
    return edit


def test_the_reference_against_itself_moves_nothing():
    assert ledger.diff(REFERENCE, copy.deepcopy(REFERENCE)) == ([], [])


def test_moves_and_drift_are_told_apart():
    rates = REFERENCE["0"]["rates:gain"]
    recorded = perturbed([
        bump("rates:gain", "cir_ub", 1e-8),           # past the gate's bound tolerance
        bump("rates:gain", "wyner_ub", 1e-10),        # within it
        bump("rates:gain", "mi", 1e-13),              # float noise on an exact field
        bump("crsk:gain-n4", "decode_failures", 1),   # a count the gate holds exactly
        lambda out: out["rates:gain"]["provenance"].__setitem__("cir_ub", "exact"),
        lambda out: out["sw:bss"][0].__setitem__("errors", out["sw:bss"][0]["errors"] + 1),
        lambda out: out["check:el5"].pop("pass"),
    ])
    moved, drifted = ledger.diff(REFERENCE, recorded)
    assert {field for _, field, _, _ in moved} == {
        "rates:gain.cir_ub", "crsk:gain-n4.decode_failures", "rates:gain.provenance.cir_ub",
        "sw:bss[0].errors", "check:el5.pass"}
    assert [(f, old) for _, f, old, _ in drifted] == [
        ("rates:gain.mi", rates["mi"]), ("rates:gain.wyner_ub", rates["wyner_ub"])]
    assert ("0", "check:el5.pass", True, ledger.ABSENT) in moved


@pytest.mark.parametrize("allow, code", [
    ([], 1),
    (["rates:*.cir_ub"], 1),
    (["rates:*.cir_ub", "sw:bss*"], 0),
])
def test_exits_nonzero_while_a_moved_field_is_not_allowed(allow, code, capsys):
    recorded = perturbed([bump("rates:gain", "cir_ub", 1e-6),
                          lambda out: out["sw:bss"][0].__setitem__("bins_log2", 99)])
    argv = ["0"] + [arg for pattern in allow for arg in ("--allow", pattern)]
    assert ledger.main(argv, record=lambda seed: recorded[str(seed)]) == code
    out = capsys.readouterr().out
    old = REFERENCE["0"]["rates:gain"]["cir_ub"]
    assert f"moved  seed 0  rates:gain.cir_ub: {old!r} -> {old + 1e-6!r}" in out
    assert out.count("(not allowed)") == 2 - len(allow)


def test_an_unchanged_tree_passes(capsys):
    assert ledger.main(["0", "3"], record=lambda seed: copy.deepcopy(REFERENCE[str(seed)])) == 0
    assert capsys.readouterr().out.strip().endswith("0 moved, 0 of them not allowed; "
                                                    "0 drifted within tolerance")



def _leaf_keys(obj, keys=()):
    """The key path of every leaf of a recorded output."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaf_keys(value, keys + (key,))
    else:
        yield keys


def _moved_reference(op_id, keys, step):
    """Seed 0's reference with one leaf moved by `step`; a string is
    changed whatever the step."""
    reference = copy.deepcopy({"0": REFERENCE["0"]})
    node = reference["0"][op_id]
    for key in keys[:-1]:
        node = node[key]
    old = node[keys[-1]]
    node[keys[-1]] = old + "?" if isinstance(old, str) else old + step
    return reference


def test_the_ledger_moves_exactly_the_fields_the_gate_refuses():
    """Every seed-0 field the gate compares with the reference, moved there by
    2x and 0.5x the ledger's tolerance, or by 1 where that is 0: the gate
    refuses the recorded output exactly when the ledger calls the field moved.
    A field counts as compared when a move by 1 (a string: any change) makes
    the gate refuse."""
    from workloads import WORKLOADS, commands

    ops = {op.op_id: op for name in WORKLOADS for op in commands(name, 0, defaultdict(str))}
    recorded = REFERENCE["0"]

    def verdicts(op_id, keys, step):
        reference = _moved_reference(op_id, keys, step)
        refused = bool(gate.problems(ops[op_id], {"result": recorded[op_id]}, reference))
        moved, _ = ledger.diff(reference, {"0": recorded})
        return refused, [field for _, field, _, _ in moved]

    compared = [(op_id, keys, op_id + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                              for k in keys))
                for op_id, output in recorded.items() for keys in _leaf_keys(output)
                if verdicts(op_id, keys, 1)[0]]
    assert {"rates:gain.cir_ub", "rates:rand4-0.mi", "rates:bss.provenance.cir_ub",
            "sw:bss[0].errors", "crsk:gain-n4.leakage",
            "crsk:bss-n16.stage_bits[0]"} <= {field for _, _, field in compared}
    for op_id, keys, field in compared:
        tol = ledger.tolerance(field)
        for step in (2 * tol, 0.5 * tol) if tol else (1,):
            refused, moved = verdicts(op_id, keys, step)
            assert moved in ([], [field]), (field, moved)
            assert refused == bool(moved), (field, step, refused, moved)
