"""Time one penalized value-and-grad call and one penalty-stage iteration.

The two per-layer units of the penalty descent: `wyner`'s value-and-grad
call (`optim.penalized_information` and its wrapper) and one iteration of
`optim._eg_stage` (one proposal step per kernel, one value-and-grad call
and the per-start bookkeeping). Both run at 1, 4 and 13 Dirichlet starts
(seed 7) with |W| = |X||Y|, on bss (delta = 0.25) and on the bench's 4x4
base draw (`perfbench/workloads.random_base(0, 4)`).

- `vag_us`: the best of `--rounds` rounds of 300 calls at lambda 10, per call.
- `iteration_us`: (a stage at `max_iter` 41 minus one at `max_iter` 1) / 40
  at lambda 1, the median of `--rounds` rounds, each timing both stages
  back to back. No start stops within 41 iterations (checked), so every
  iteration runs the whole batch.

Prints one JSON object. Run it from the repository root:

    python3 tools/descent_bench.py [--rounds 9]

and, to time another checkout, put that checkout's `src` first on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

try:
    import cit  # noqa: F401
except ImportError:  # run from a checkout without the package installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cit import optim, wyner

STARTS = (1, 4, 13)
CALLS = 300
LONG = 41


def sources() -> dict[str, np.ndarray]:
    base = np.random.default_rng([0, 4]).dirichlet(np.ones(16)).reshape(4, 4)
    return {"bss": np.array([[0.375, 0.125], [0.125, 0.375]]), "4x4 base draw": base}


def stack(p: np.ndarray, count: int) -> list[np.ndarray]:
    shape = p.shape + (p.size,)
    starts = optim.dirichlet_starts(7, count, [shape])
    return [optim._normalize_slices(np.stack([k for _, (k,) in starts]))]


def vag_us(vag, kernels, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t = time.perf_counter()
        for _ in range(CALLS):
            vag(kernels, 10.0)
        best = min(best, time.perf_counter() - t)
    return best / CALLS * 1e6


def iteration_us(vag, kernels, rounds: int) -> float:
    def stage(max_iter: int) -> float:
        cfg = optim.PenaltyConfig(restarts=0, max_iter=max_iter)
        t = time.perf_counter()
        _, used, _, _ = optim._eg_stage(kernels, 1.0, vag, cfg)
        spent = time.perf_counter() - t
        if min(used) < max_iter:
            raise SystemExit(f"a start stopped before {max_iter} iterations")
        return spent

    gaps = [stage(LONG) - stage(1) for _ in range(rounds)]
    return statistics.median(gaps) / (LONG - 1) * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    cases = {}
    for name, p in sources().items():
        vag = wyner._value_and_grad_factory(p)
        for count in STARTS:
            kernels = stack(p, count)
            cases[f"{name}, {count} start{'s' if count > 1 else ''}"] = {
                "vag_us": round(vag_us(vag, kernels, args.rounds), 1),
                "iteration_us": round(iteration_us(vag, kernels, args.rounds), 1),
            }
    print(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
