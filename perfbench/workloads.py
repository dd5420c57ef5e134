"""Workload inputs and command lists.

Every workload is a list of `cit` command lines run in order by one client.
The workload seed only shapes the input files (and, in the lab, the `--seed`
the identity checks and binning runs receive); the program sees nothing but
the generated files and its command line. Each pass of a run draws its own
inputs from the workload seed and the pass number (`pass_seed`).

Random sources are fixed Dirichlet draws relabeled by the seed: each seed
permutes the X and Y symbols of the same draws. A relabeling keeps every
exact quantity of the report, so the gate can hold any seed's exact fields
to the recorded seed-0 values, and it keeps the amount of search and
descent work nearly constant across seeds. Independent draws per seed moved
the work of one report by a factor of four (16k to 75k value-and-grad calls
over eight random 3x3 sources), which would drown any bound.

The 3x3 draws are the two of those eight with the lightest descent (tags 0
and 4: 16,447 and 24,418 value-and-grad calls), so that `rates-search`
stays dominated by the chain search it is meant to measure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAIN = [[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]]
BSS = [[0.375, 0.125], [0.125, 0.375]]

# the two-round deterministic chain on the gain source whose exact leakage
# makes the best-first decoder run on all 9^4 support rows at n=4
GAIN_CHAIN = {"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
              "tables": [[0, 0, 1], [[0, 0], [1, 0], [1, 0]]]}

WORKLOADS = ("rates-search", "rates-descent", "lab")
RAND3_TAGS = (0, 4)

# the layers whose public functions each workload calls; the traced run
# fails when one of them records no span
RATE_LAYERS = ("cli", "rates", "structure", "chains", "optim", "wyner", "pmf")
LAB_LAYERS = ("cli", "protocols", "hashing", "simulate", "chains", "pmf")


@dataclass(frozen=True)
class Op:
    """One command: `op_id` names it for the gate and the reference.

    `ref_seed` is the workload seed whose recorded output this command must
    reproduce: 0 when its inputs do not depend on the seed.
    """

    op_id: str
    kind: str  # rates | check | sw | crsk
    argv: tuple[str, ...]
    ref_seed: int = 0


def random_base(tag: int, side: int) -> np.ndarray:
    """Fixed Dirichlet(1) source; the draw does not depend on the workload seed."""
    return np.random.default_rng([tag, side]).dirichlet(np.ones(side * side)).reshape(side, side)


def relabel(p: np.ndarray, seed: int, tag: int) -> np.ndarray:
    """Seeded permutation of the X and Y symbols; seed 0 keeps the labels."""
    if seed == 0:
        return p
    rng = np.random.default_rng([seed, tag, p.shape[0]])
    return p[rng.permutation(p.shape[0])][:, rng.permutation(p.shape[1])]


def pass_seed(seed: int, k: int) -> int:
    """Input seed of pass `k` in a run with workload seed `seed`.

    Each pass gets inputs of its own, so a run's median is taken over
    several relabelings and not one: a single relabeling moved the 4x4
    report's descent work by up to 40%. Pass 0 uses the workload seed
    itself, so a run on a recorded seed is checked against the reference.
    """
    return seed + 1000 * k


def _pmf_json(p) -> dict:
    p = np.asarray(p, dtype=float)
    return {"x": [str(i) for i in range(p.shape[0])],
            "y": [str(j) for j in range(p.shape[1])],
            "p": p.tolist()}


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, str]:
    """Write the workload's input files into `work`; returns name -> path."""
    files: dict[str, object] = {"bss": _pmf_json(BSS), "gain": _pmf_json(GAIN)}
    if workload == "rates-search":
        for tag in RAND3_TAGS:
            files[f"rand3-{tag}"] = _pmf_json(relabel(random_base(tag, 3), seed, tag))
    elif workload == "rates-descent":
        files["rand4-0"] = _pmf_json(relabel(random_base(0, 4), seed, 0))
    elif workload == "lab":
        files["gain-chain"] = GAIN_CHAIN
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = {}
    for name, obj in files.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def _rates(name: str, paths: dict[str, str], seed: int) -> Op:
    return Op(f"rates:{name}", "rates",
              ("rates", "--pmf", paths[name], "--rounds", "2", "--threads", "1"),
              seed if name.startswith("rand") else 0)


def commands(workload: str, seed: int, paths: dict[str, str]) -> list[Op]:
    """The command list one pass of the workload sends, in order."""
    if workload == "rates-search":
        names = ("gain",) + tuple(f"rand3-{t}" for t in RAND3_TAGS)
        return [_rates(n, paths, seed) for n in names]
    if workload == "rates-descent":
        return [_rates(n, paths, seed) for n in ("bss", "rand4-0")]
    if workload != "lab":
        raise ValueError(f"unknown workload {workload!r}")
    seeded = ("--seed", str(seed), "--threads", "1")
    # the staged-scheme cases keep seed 0: their hash draws move the decoder
    # work by a quarter from seed to seed, which would swamp the pass time
    fixed = ("--seed", "0", "--threads", "1")
    sw = ("simulate", "sw", "--trials", "2000") + seeded
    crsk = ("simulate", "crsk") + fixed
    return [
        Op("check:lemma1", "check", ("check", "lemma1", "--count", "1000") + seeded, seed),
        Op("check:decomp", "check", ("check", "decomp", "--count", "200") + seeded, seed),
        Op("check:el5", "check", ("check", "el5", "--count", "500") + seeded, seed),
        Op("sw:bss", "sw", sw + ("--pmf", paths["bss"], "--n", "16,24", "--rate", "0.72"), seed),
        Op("sw:gain", "sw", sw + ("--pmf", paths["gain"], "--n", "8", "--rate", "1.3"), seed),
        Op("crsk:bss-n16", "crsk", crsk + ("--pmf", paths["bss"], "--chain", "copy",
                                          "--n", "16")),
        Op("crsk:bss-n12", "crsk", crsk + ("--pmf", paths["bss"], "--chain", "copy",
                                          "--n", "12", "--slack", "0.1", "--trials", "20")),
        Op("crsk:gain-n4", "crsk", crsk + ("--pmf", paths["gain"], "--chain",
                                          paths["gain-chain"], "--n", "4", "--slack", "0.1",
                                          "--key-rate", "0.01", "--trials", "200")),
    ]


def warmup(workload: str, paths: dict[str, str]) -> list[tuple[str, ...]]:
    """Small commands that touch every code path once before timing."""
    one = ("--threads", "1")
    if workload == "lab":
        return [
            ("check", "lemma1", "--count", "5") + one,
            ("check", "decomp", "--count", "2") + one,
            ("check", "el5", "--count", "5") + one,
            ("simulate", "sw", "--pmf", paths["bss"], "--n", "8", "--rate", "0.72",
             "--trials", "5") + one,
            ("simulate", "crsk", "--pmf", paths["bss"], "--n", "8", "--trials", "5") + one,
        ]
    first = paths["gain"] if workload == "rates-search" else paths["bss"]
    return [("info", "--pmf", p) + one for p in paths.values()] + [
        ("ici", "--pmf", first, "--rounds", "1", "--mode", "det") + one,
        ("wyner", "--pmf", first, "--restarts", "1", "--max-iter", "20") + one,
    ]


def declared_layers(workload: str) -> tuple[str, ...]:
    return LAB_LAYERS if workload == "lab" else RATE_LAYERS
