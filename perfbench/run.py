"""Benchmark of the `cit` command line: rate reports and the protocol lab.

    python3 perfbench/run.py --workload rates-search --seed 0 --seconds 30 --trace 0

Run from the repository root. One client calls `cit.cli.run` in process in a
closed loop: each command is sent only after the previous one has finished,
always with `--threads 1`. A pass sends the workload's command list once;
passes repeat while another one still fits in `--seconds`. Every output
goes through the correctness gate (`gate.py`).

`--trace 0` reports the end-to-end metrics: set-up time, pass wall time,
median time per command, CPU time per pass and peak memory. The times are
seconds at reference speed: while a pass runs, `ruler.Sampler` times a
fixed reference loop every 0.05 s, its own time is taken out of every timed
interval, and each command's times are scaled by `ruler.REF_S` over the
loop's mean time while it ran, so a host that slows for a while slows both
and the ratio stays.
`--trace 1` runs one pass untraced and one pass with the per-layer
wrappers of `tracer.py` installed, both without the sampler, and reports
the per-layer metrics of the traced pass in raw seconds; the difference of
the two wall times is the tracing overhead.

The last line of standard output is the result; the line before it is a
record of the run (machine, versions, samples, failures).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import ruler  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
MAX_LISTED_FAILURES = 10
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                  "CIT_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


class Bench:
    """Inputs, command list and gate for one workload and seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        sys.path.insert(0, str(SRC))
        import cit
        import cit.cli
        import gate

        if Path(cit.__file__).resolve().parent != SRC / "cit":
            raise RuntimeError(f"imported cit from {cit.__file__}, not from {SRC}")
        self.cli = cit.cli
        self.gate = gate
        self.layers = workloads.declared_layers(workload)
        self.reference = gate.load_reference()
        gate.self_test(self.reference)
        self.workload, self.seed, self.work = workload, seed, work
        self._ops: dict[int, list] = {}
        paths = workloads.write_inputs(workload, seed, work)
        for argv in workloads.warmup(workload, paths):
            code, _ = self.invoke(self.cli.run, argv)
            if code != 0:
                raise RuntimeError(f"warm-up command failed with exit code {code}: {argv}")
        self.sampler = ruler.Sampler()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def ops(self, k: int) -> list:
        """The command list of pass `k`, on that pass's own inputs."""
        if k not in self._ops:
            seed = workloads.pass_seed(self.seed, k)
            work = self.work / f"pass-{k}"
            work.mkdir()
            paths = workloads.write_inputs(self.workload, seed, work)
            self._ops[k] = workloads.commands(self.workload, seed, paths)
        return self._ops[k]

    @staticmethod
    def invoke(runner, argv):
        """Run one command; returns (exit code, parsed report or raw text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = runner(list(argv))
        text = out.getvalue()
        try:
            return code, json.loads(text)
        except ValueError:
            return code, (text + err.getvalue())[-300:]

    def run_pass(self, runner, k: int = 0, sampled: bool = True) -> dict:
        """Send the command list of pass `k` once; returns raw times per
        command and, when `sampled`, the times at reference speed. The
        sampler's own time is taken out of every timed interval, and each
        command is scaled by the loop times sampled while it ran."""
        op_s, step_s, cpu_s, ticks = [], [], [], []
        sampler = self.sampler
        ops = self.ops(k)
        if sampled:
            sampler.start()
        try:
            for op in ops:
                self.attempted += 1
                tick0, spent0, spent_cpu0 = len(sampler.times), sampler.spent_s, sampler.spent_cpu_s
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    code, report = self.invoke(runner, op.argv)
                except Exception as exc:  # a crash is a failed command, not a dead benchmark
                    code, report = None, f"{type(exc).__name__}: {exc}"
                op_s.append(time.perf_counter() - start - (sampler.spent_s - spent0))
                ticks.append((tick0, len(sampler.times)))
                found = [] if code == 0 else [f"exit code {code}"]
                found += self.gate.problems(op, report, self.reference)
                step_s.append(time.perf_counter() - start - (sampler.spent_s - spent0))
                cpu_s.append(time.process_time() - cpu0 - (sampler.spent_cpu_s - spent_cpu0))
                if found:
                    self.failed += 1
                    self.failures.append(f"{op.op_id}: {'; '.join(found)}")
        finally:
            if sampled:
                sampler.stop()
        out = {"wall_s": sum(step_s), "cpu_s": sum(cpu_s), "op_s": op_s}
        if sampled:
            f = [sampler.speed_factor(*t) for t in ticks]
            out.update(ref_wall_s=sum(t * x for t, x in zip(step_s, f)),
                       ref_cpu_s=sum(t * x for t, x in zip(cpu_s, f)),
                       ref_op_s=[t * x for t, x in zip(op_s, f)],
                       ruler_samples=len(sampler.times),
                       ruler_mean_s=statistics.fmean(sampler.times))
            out["factor"] = out["ref_wall_s"] / out["wall_s"]
        return out

    def op_medians(self, passes) -> dict[str, float]:
        return {op.op_id: statistics.median(p["ref_op_s"][i] for p in passes)
                for i, op in enumerate(self.ops(0))}


def probe_setup(args) -> float:
    """Set-up time of a fresh process doing the same set-up as this one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "git_commit": git_commit(),
    }


def timed_run(bench: Bench, args, setup_s: float) -> tuple[dict, dict]:
    """Passes until `--seconds` is spent, with a set-up probe after each pass,
    so set-up samples are spread over the run like the passes. Each set-up
    sample is scaled by the speed factor of the pass before it (the first by
    the first pass's)."""
    passes, setup = [], [setup_s]
    start = time.perf_counter()
    while True:
        passes.append(bench.run_pass(bench.cli.run, len(passes)))
        setup.append(probe_setup(args))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > args.seconds:  # the next pass would not fit
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup(args))
    factors = [p["factor"] for p in passes]
    setup_factors = [factors[0]] + factors + [factors[-1]] * (len(setup) - len(factors) - 1)
    ref_setup = [t * f for t, f in zip(setup, setup_factors)]
    by_command = bench.op_medians(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(ref_setup), "s"),
        "wall_s": (statistics.median(p["ref_wall_s"] for p in passes), "s"),
        "op_s_p50": (statistics.median(by_command.values()), "s"),
        "cpu_s": (statistics.median(p["ref_cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    record = {
        "passes": len(passes),
        "pass_seeds": [workloads.pass_seed(args.seed, k) for k in range(len(passes))],
        "op_samples": len(passes) * len(bench.ops(0)),
        "ruler_ref_s": ruler.REF_S,
        "speed_factor_by_pass": factors,
        "raw_setup_s": setup,
        "raw_wall_s": [p["wall_s"] for p in passes],
        "raw_cpu_s": [p["cpu_s"] for p in passes],
        "raw_op_s": [p["op_s"] for p in passes],
        "ruler_samples": [p["ruler_samples"] for p in passes],
        "ruler_mean_s": [p["ruler_mean_s"] for p in passes],
        "ref_op_s_median_by_command": by_command,
    }
    return metrics, record


def traced_pass(bench: Bench):
    """One pass with the per-layer wrappers installed; returns (tracer, pass)."""
    from tracer import CoverageError, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        done = bench.run_pass(lambda argv: tracer.call("cli.run", "cli", bench.cli.run, argv),
                              sampled=False)
    finally:
        tracer.uninstall()
    try:
        tracer.check_coverage(bench.layers)
    except CoverageError as exc:
        bench.failures.append(str(exc))
    return tracer, done


def traced_run(bench: Bench) -> tuple[dict, dict]:
    from tracer import unit

    plain = bench.run_pass(bench.cli.run, sampled=False)
    tracer, traced = traced_pass(bench)
    metrics = {name: (value, unit(name)) for name, value in tracer.metrics().items()}
    record = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "trace_overhead_s": traced["wall_s"] - plain["wall_s"],
              "det_searches": tracer.det_log, "wrapped_sites": len(tracer.sites)}
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cit" / "__init__.py").is_file():
        print(f"perfbench: no cit sources under {SRC}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, record = traced_run(bench)
        else:
            metrics, record = timed_run(bench, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {**environment(args), **record,
              "attempted": bench.attempted, "failed": bench.failed,
              "fail_ratio": bench.failed / bench.attempted,
              "failures": bench.failures[:MAX_LISTED_FAILURES]}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
