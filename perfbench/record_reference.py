"""Record the outputs the gate compares against, one pass per workload and seed.

    python3 perfbench/record_reference.py 0 1 2 ... > perfbench/reference.json

Run from the repository root on the commit whose outputs are the reference.
Rate reports keep their fields without the echoed pmf. A command whose
inputs do not depend on the seed is recorded at seed 0 only.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cit.cli  # noqa: E402
from run import Bench  # noqa: E402
from workloads import WORKLOADS, commands, write_inputs  # noqa: E402


def record(seed: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as work:
            paths = write_inputs(workload, seed, Path(work))
            for op in commands(workload, seed, paths):
                if op.ref_seed != seed:
                    continue  # same inputs as at seed 0
                code, report = Bench.invoke(cit.cli.run, op.argv)
                if code != 0:
                    raise SystemExit(f"{op.op_id} exited with {code}: {report}")
                result = report["result"]
                if op.kind == "rates":
                    result.pop("pmf")
                out[op.op_id] = result
                print(f"seed {seed} {op.op_id}", file=sys.stderr, flush=True)
    return out


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [0]
    json.dump({str(s): record(s) for s in seeds}, sys.stdout, indent=1, sort_keys=True)
    print()
