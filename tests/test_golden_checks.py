"""Bit-level pins for the exact identity checks.

`golden_checks.json` holds the float-hex values of `lemma1_check`,
`decomposition_check` and `chain_objective` on a seeded grid: alphabets 2-4,
blocklengths 1-3, one to three rounds with size-1 rounds among them, both
initiators, sources with zero-mass cells and rows, and J sizes 1-4. The
values were recorded before the checks were rewritten as one lean pass over
a single dense law; they change only with a change that means to move a
reported number. Re-record with
`PYTHONPATH=src python tests/test_golden_checks.py > tests/golden_checks.json`.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cit import validate_pmf
from cit.chains import AuxiliaryChain, DeterministicChain, chain_objective, speaker_size
from cit.protocols import decomposition_check, lemma1_check, random_cr_table, random_protocol

GOLDEN_PATH = Path(__file__).parent / "golden_checks.json"
SIDES = (2, 3, 4)


def _source(rng: np.random.Generator, nx: int, ny: int, zeros: str):
    """Dirichlet draw; `zeros` is "none", "cells" (two zero cells) or "row"."""
    p = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    if zeros == "cells":
        flat = p.reshape(-1)
        flat[rng.choice(flat.size, size=2, replace=False)] = 0.0
    elif zeros == "row":
        p[int(rng.integers(nx))] = 0.0
    return validate_pmf(p / p.sum())


def _zeros(k: int) -> str:
    return ("none", "cells", "row")[k % 3]


def _protocol_cases():
    """(case id, pmf, protocol, j size) over the blocklength grid."""
    rng = np.random.default_rng(2024)
    k = 0
    for nx, ny, n, rounds, initiator in itertools.product(
            SIDES, SIDES, (1, 2, 3), (1, 2, 3), ("x", "y")):
        pmf = _source(rng, nx, ny, _zeros(k))
        sizes = tuple(int(rng.integers(1, 4)) for _ in range(rounds))
        proto = random_protocol(int(rng.integers(1 << 31)), n, rounds, sizes, nx, ny, initiator)
        yield f"{nx}x{ny}-n{n}-r{rounds}-{initiator}", pmf, proto, 1 + k % 4
        k += 1


def _chain(rng: np.random.Generator, nx: int, ny: int, rounds: int, initiator: str, kind: str):
    sizes = tuple(int(rng.integers(1, 4)) for _ in range(rounds))
    parts = []
    for j in range(1, rounds + 1):
        shape = (speaker_size(j, initiator, nx, ny),) + sizes[:j - 1]
        if kind == "det":
            parts.append(rng.integers(0, sizes[j - 1], size=shape))
            continue
        k = rng.dirichlet(np.ones(sizes[j - 1]), size=shape)
        if sizes[j - 1] > 1:  # a few exact zeros inside the kernel slices
            k[..., 0] = np.where(rng.random(shape) < 0.3, 0.0, k[..., 0])
            k /= k.sum(axis=-1, keepdims=True)
        parts.append(k)
    if kind == "det":
        return DeterministicChain(initiator, sizes, tuple(parts))
    return AuxiliaryChain(initiator, tuple(parts))


def _chain_cases():
    rng = np.random.default_rng(2025)
    k = 0
    for nx, ny, rounds, initiator, kind in itertools.product(
            SIDES, SIDES, (1, 2, 3), ("x", "y"), ("aux", "det")):
        pmf = _source(rng, nx, ny, _zeros(k))
        chain = _chain(rng, nx, ny, rounds, initiator, kind)
        yield f"{nx}x{ny}-r{rounds}-{initiator}-{kind}", pmf, chain
        k += 1


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def record() -> dict:
    lemma1, decomp, chain = {}, {}, {}
    for case, pmf, proto, j_size in _protocol_cases():
        chk = lemma1_check(pmf, proto)
        lemma1[case] = _hex((chk["lhs"], chk["rhs"], chk["slack"]))
        j_table = random_cr_table(j_size, pmf, proto.n, j_size)
        chk = decomposition_check(pmf, proto, j_table)
        decomp[f"{case}-j{j_size}"] = _hex((chk["lhs"], chk["rhs"], chk["difference"]))
    for case, pmf, ch in _chain_cases():
        res = chain_objective(pmf, ch)
        chain[case] = _hex((res.objective, res.residual, *res.per_round_terms))
    return {"lemma1": lemma1, "decomp": decomp, "chain_objective": chain}


@pytest.fixture(scope="module")
def recorded():
    return record()


@pytest.mark.parametrize("check", ["lemma1", "decomp", "chain_objective"])
def test_golden_bits(recorded, check):
    golden = json.loads(GOLDEN_PATH.read_text())[check]
    assert len(golden) >= 100
    assert recorded[check] == golden


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
