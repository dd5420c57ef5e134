"""Byte-level pins for the Monte Carlo laboratory.

`golden_lab.json` holds the `to_json()` of `sw_binning_simulate` and
`cr_sk_simulate` reports, and the staged scheme's decoder counters (`pops`,
`stragglers`), at seeds 0, 5, 2^32 + 1 and 2^64 + 3:

- `sw` on bss 0.25 at rate 0.72 (n = 16 and 24), on gain at rate 1.3 (n = 8,
  and n = 12 with 10 trials), and on a random 4x3 source with a zero cell at
  n = 6, with 300 trials, which crosses a `SW_BLOCK` boundary;
- `crsk` on the bench's three staged-scheme commands and the warm-up's exact
  bss n = 8;
- `crsk` on stages whose size is not a power of two, where a block's index
  among the size^n blocks differs from its packed word: the copy chain of a
  3x3 and of a 5x3 source sent as they are (slack 2.0), exact and, at
  n = 20, estimated, and a two-round chain of two size-3 stages, hashed with
  pops at slack 0.2 and sent as they are at slack 3.0.

The values were recorded before the trial generators were built in one
batched seed expansion; they change only with a change that means to move a
reported number. Re-record with
`PYTHONPATH=src python tests/test_golden_lab.py > tests/golden_lab.json`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cit import validate_pmf
from cit.chains import chain_from_json
from cit.simulate import cr_sk_simulate, default_copy_chain, sw_binning_simulate
from cit.sources import bss_pmf, gain_pmf

GOLDEN_PATH = Path(__file__).parent / "golden_lab.json"
SEEDS = (0, 5, 2 ** 32 + 1, 2 ** 64 + 3)
LAB_CHAIN = {"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
             "tables": [[0, 0, 1], [[0, 0], [1, 0], [1, 0]]]}
TERNARY_CHAIN = {"kind": "deterministic", "initiator": "x", "sizes": [3, 3],
                 "tables": [[0, 1, 2], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]]}


def zero_cell_4x3():
    """The random 4x3 source with one zero cell of `test_simulate`."""
    rng = np.random.default_rng(43)
    p = rng.dirichlet(np.ones(12))
    p[rng.integers(p.size)] = 0.0
    return validate_pmf((p / p.sum()).reshape(4, 3))


def _sw(pmf, n, rate, trials):
    return lambda seed: sw_binning_simulate(pmf, n, rate, trials, seed)


def _crsk(pmf, chain, n, key_rate, trials, slack):
    return lambda seed: cr_sk_simulate(pmf, chain, n, key_rate, trials, seed, slack)


def cases() -> dict:
    bss, gain = bss_pmf(0.25), gain_pmf(0.1, 0.15, 0.15)
    tri = validate_pmf(0.8 * np.eye(3) / 3 + 0.2 / 9)
    five = validate_pmf(0.7 * np.eye(5, 3) / 3 + 0.3 / 15)
    copy = default_copy_chain(bss)
    return {
        "sw:bss-n16": _sw(bss, 16, 0.72, 300),
        "sw:bss-n24": _sw(bss, 24, 0.72, 300),
        "sw:gain-n8": _sw(gain, 8, 1.3, 300),
        "sw:gain-n12": _sw(gain, 12, 1.3, 10),
        "sw:4x3-n6": _sw(zero_cell_4x3(), 6, 1.2, 300),
        "crsk:bss-n16": _crsk(bss, copy, 16, 0.1, 2000, 0.25),
        "crsk:bss-n12": _crsk(bss, copy, 12, 0.1, 20, 0.1),
        "crsk:gain-n4": _crsk(gain, chain_from_json(LAB_CHAIN), 4, 0.01, 200, 0.1),
        "crsk:bss-n8-exact": _crsk(bss, copy, 8, 0.1, 5, 0.25),
        "crsk:3x3-n4-exact": _crsk(tri, default_copy_chain(tri), 4, 0.4, 200, 2.0),
        "crsk:3x3-n20": _crsk(tri, default_copy_chain(tri), 20, 0.4, 200, 2.0),
        "crsk:5x3-n3-exact": _crsk(five, default_copy_chain(five), 3, 0.4, 200, 2.0),
        "crsk:3x3-ternary-n2": _crsk(tri, chain_from_json(TERNARY_CHAIN), 2, 0.1, 200, 0.2),
        "crsk:3x3-ternary-n4": _crsk(tri, chain_from_json(TERNARY_CHAIN), 4, 0.1, 200, 3.0),
    }


def record_case(run, seed) -> dict:
    rep = run(seed)
    out = {"report": rep.to_json()}
    if hasattr(rep, "pops"):
        out["pops"] = list(rep.pops)
        out["stragglers"] = list(rep.stragglers)
    return out


def record() -> dict:
    return {f"{name}@{seed}": record_case(run, seed)
            for name, run in cases().items() for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(cases()))
def test_golden_lab(golden, name):
    run = cases()[name]
    for seed in SEEDS:
        assert record_case(run, seed) == golden[f"{name}@{seed}"], seed


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
