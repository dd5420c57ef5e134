"""Checks of the benchmark itself, run by hand after changing it:

    python3 perfbench/selftest.py

* the gate passes the recorded outputs and fails each perturbed copy;
* two traced passes of every workload (seed 0) give identical counts, pass
  the gate, and record a span in every layer the workload declares;
* the search counts match what the program does at the commit the reference
  was recorded on. A change to the chain search (fewer or pruned searches)
  is expected to change these and must say so.
"""

import sys
import tempfile
from pathlib import Path

from run import ROOT, Bench, traced_pass
from tracer import unit
from workloads import WORKLOADS

# per search: (chains enumerated, over budget), in call order over one pass
GAIN_OR_3X3 = (11617, False)   # caps (4,4); each report searches twice
KNOWN_SEARCHES = {
    "rates-search": [GAIN_OR_3X3] * 6,
    "rates-descent": [(17, False), (0, True), (0, True)],  # bss caps (3,4); 4x4 over budget twice
    "lab": [],
}


def main() -> int:
    bad = []
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            bench = Bench(workload, 0, Path(work))  # runs the gate self-test
            runs = [traced_pass(bench)[0] for _ in range(2)]
        counts = [{k: v for k, v in t.metrics().items() if unit(k) == "count"} for t in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            bad.append(f"{workload}: counts differ between traced passes: {diff}")
        if bench.failures:
            bad.append(f"{workload}: {bench.failures[:3]}")
        searches = [tuple(s) for s in runs[0].det_log]
        if searches != KNOWN_SEARCHES[workload]:
            bad.append(f"{workload}: searches {searches} != {KNOWN_SEARCHES[workload]}")
        print(f"{workload}: {len(counts[0])} counts repeat, searches {searches}", flush=True)
    for line in bad:
        print("FAIL", line)
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
