"""Pins for the winners of the exact deterministic chain search.

`golden_det.json` holds, per case, the canonical encoding `det_chain_search`
returns and the float-hex bits of its objective and residual, or the error
it raises (`NoFeasibleChain` with its caps). The cases cover every source
the suite and the bench run the search on: gain, bss, the bench's 3x3 draws
(tags 0 and 4, relabel seeds 0-9, built by `perfbench/workloads.py`), its
4x4 draw, and random 3x3 sources from seeds 0-5, each for both initiators at
one to three rounds, all at the default budget. The cases the canonical-chain
enumerator could reach were recorded from it, before the search became a
recursion over protocol rectangles; the rest (three rounds at default caps,
and the 4x4 draw at two rounds), where the enumeration was over budget, were
recorded from the recursion once its budget counted its own work. They
change only with a change that means to move a reported chain. Re-record
with `PYTHONPATH=src:perfbench python tests/test_golden_det.py > tests/golden_det.json`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cit import BudgetExceeded, NoFeasibleChain, det_chain_search, validate_pmf
from cit.sources import bss_pmf, gain_pmf, random_pmf

from workloads import random_base, relabel

GOLDEN_PATH = Path(__file__).parent / "golden_det.json"

# (rounds, caps): the report's and `cit ici`'s default caps, a tight pair, a
# three-round search the enumeration could reach, and one it could not
SETTINGS = ((1, None), (2, None), (2, (2, 3)), (3, (2, 2, 2)), (3, None))


def golden_sources():
    """(name, pmf) for every source the suite and the bench search."""
    yield "gain", gain_pmf(0.1, 0.15, 0.15)
    yield "bss", bss_pmf(0.25)
    for tag in (0, 4):
        for seed in range(10):
            yield f"bench3-t{tag}-s{seed}", validate_pmf(relabel(random_base(tag, 3), seed, tag))
    yield "bench4-t0-s0", validate_pmf(random_base(0, 4))
    for seed in range(6):
        yield f"rand3-{seed}", random_pmf(np.random.default_rng(seed), 3, 3)


def _case_id(name, rounds, caps, initiator):
    caps_id = "default" if caps is None else "-".join(map(str, caps))
    return f"{name}-r{rounds}-{caps_id}-{initiator}"


def _outcome(pmf, rounds, caps, initiator) -> dict:
    try:
        res = det_chain_search(pmf, rounds, caps, initiator=initiator)
    except (BudgetExceeded, NoFeasibleChain) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"encoding": [list(word) for word in res.encoding],
            "objective": res.objective.hex(), "residual": res.residual.hex()}


def record() -> dict:
    out = {}
    for name, pmf in golden_sources():
        for rounds, caps in SETTINGS:
            for initiator in ("x", "y"):
                out[_case_id(name, rounds, caps, initiator)] = _outcome(pmf, rounds, caps, initiator)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


SOURCES = dict(golden_sources())


@pytest.mark.parametrize("name", list(SOURCES))
def test_golden_winners(golden, name):
    pmf = SOURCES[name]
    for rounds, caps in SETTINGS:
        for initiator in ("x", "y"):
            case = _case_id(name, rounds, caps, initiator)
            assert _outcome(pmf, rounds, caps, initiator) == golden[case], case


def test_golden_file_covers_every_case(golden):
    assert len(golden) == len(SOURCES) * len(SETTINGS) * 2
    # every case fits the default budget; the errors left are caps too tight
    errors = [v["error"] for v in golden.values() if "error" in v]
    assert errors and all(e.startswith("NoFeasibleChain") for e in errors)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
