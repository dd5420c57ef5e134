"""`tools/ledger.py` on a perturbed copy of the recorded reference: which
fields it reports moved, which drifted, and when it refuses. No recording runs."""

import copy
import sys
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
