"""Command-line front end.

Every invocation prints one JSON (or CSV) report carrying the tool version,
the seed, and the full configuration, so results can be reproduced from the
report alone. Module errors exit nonzero with a machine-readable error
object on stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, replace

from . import __version__, chains, checks, optim, rates, simulate, sources, structure, wyner
from .errors import CitError
from .pmf import entropy, load_pmf, mutual_information


def _int_at_least(low: int, rule: str):
    """Argument type: an integer of at least `low`, or a usage error stating
    `rule` and the text given (argparse names the flag before it)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_thread_count = _int_at_least(1, "thread count must be a positive integer")
_positive = _int_at_least(1, "must be a positive integer")
_nonnegative = _int_at_least(0, "must be a nonnegative integer")


def _finite(text: str) -> float:
    """Argument type: a finite float, or a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _penalty(text: str) -> float:
    """Argument type: a finite float above 0, or a usage error."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _listed(item, what: str, text: str) -> tuple:
    """The comma-separated `item` values in `text`, blanks skipped; an entry
    `item` rejects with ValueError is a usage error naming `what` one entry is."""
    try:
        return tuple(item(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must list {what}s, got {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    """Argument type: comma-separated integers, possibly none."""
    return _listed(int, "integer", text)


def _nonempty_list(item, what: str):
    """Argument type: a nonempty comma-separated list of `item` values, or a
    usage error naming `what` one entry is."""
    def parse(text: str) -> tuple:
        values = _listed(item, what, text)
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one {what}, got {text!r}")
        return values
    return parse


_penalties = _nonempty_list(_penalty, "number")
_blocklengths = _nonempty_list(int, "integer")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `cit` parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="cit",
        description="Common-information quantities and secret-key communication rates "
                    "for finite joint sources.",
    )
    parser.add_argument("--version", action="version", version=f"cit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, help, pmf_required=True):
        """A leaf parser with the flags every command takes."""
        p = parent.add_parser(name, help=help)
        if pmf_required:
            p.add_argument("--pmf", required=True, help="path to a pmf JSON file")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=_nonnegative, default=0)
        p.add_argument("--threads", type=_thread_count, default=None,
                       help="a positive integer, accepted and ignored (default $CIT_THREADS, "
                            "else 1); cit runs in one thread")
        return p

    command(sub, "info", "entropies and mutual information")
    command(sub, "suffstat", "minimal sufficient statistics of both sides")
    command(sub, "gk", "maximal common function and its entropy")

    p = command(sub, "wyner", "upper bound on the splitting-variable rate")
    p.add_argument("--w-size", type=int, default=None)
    p.add_argument("--restarts", type=_nonnegative, default=wyner.WYNER_CONFIG.restarts)
    p.add_argument("--max-iter", type=_nonnegative, default=wyner.WYNER_CONFIG.max_iter)
    p.add_argument("--penalty", type=_penalties, default=optim.PENALTY_SCHEDULE,
                   help="penalty schedule, comma-separated finite positive numbers")

    p = command(sub, "ici", "r-round interactive common-information bounds")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--mode", choices=("exact1", "det", "cont", "all"), default="all")
    p.add_argument("--initiator", choices=("x", "y"), default="x")
    p.add_argument("--caps", type=_int_list, default=None, help="per-round size caps, e.g. 2,3")
    p.add_argument("--sizes", type=_int_list, default=None, help="sizes for the randomized search")
    p.add_argument("--budget", type=_nonnegative, default=2_000_000,
                   help="most set partitions a det search may score, its rebuild "
                        "included: the det mode stops with BudgetExceeded, the cont "
                        "mode starts without the det chain")
    p.add_argument("--restarts", type=_nonnegative, default=chains.CONT_CONFIG.restarts)

    p = command(sub, "rates", "assembled rate report")
    p.add_argument("--rounds", type=int, default=rates.RateConfig.rounds)
    p.add_argument("--caps", type=_int_list, default=None)
    p.add_argument("--budget", type=_nonnegative, default=rates.RateConfig.det_budget,
                   help="most set partitions the det search may score, its rebuild "
                        "included; a search that runs out is left out of the report")
    p.add_argument("--no-continuous", action="store_true")

    identities = sub.add_parser("check", help="exact identity suites over seeded random "
                                "instances").add_subparsers(dest="identity", required=True)
    for name, help in (("lemma1", "H(F|X^n) + H(F|Y^n) <= H(F) for random protocols"),
                       ("decomp", "the transcript decomposition of n I(X;Y) for random "
                                  "protocols and lookup tables"),
                       ("el5", "a random chain's value against its per-round terms")):
        p = command(identities, name, help, pmf_required=False)
        p.add_argument("--count", type=_positive, default=100)
        if name != "el5":  # a chain draws no blocklength
            p.add_argument("--n", type=_positive, default=2, help="largest blocklength")
        p.add_argument("--alphabet", type=_int_at_least(2, "must be an integer of at least 2"),
                       default=3, help="largest alphabet size")
        p.add_argument("--rounds", type=_positive, default=2, help="largest number of rounds")

    kinds = sub.add_parser("simulate", help="Monte Carlo binning and key-agreement runs"
                           ).add_subparsers(dest="kind", required=True)
    sw = command(kinds, "sw", "Slepian-Wolf hash binning with an ML-over-bin decoder")
    crsk = command(kinds, "crsk", "staged common randomness, then a hashed key")
    for p in (sw, crsk):
        p.add_argument("--n", type=_blocklengths, default=(16,),
                       help="blocklength(s), e.g. 8,16,24")
        p.add_argument("--trials", type=int, default=2000)
    sw.add_argument("--rate", type=float, required=True, help="binning rate, bits per symbol")
    crsk.add_argument("--chain", default="copy", help="chain JSON path, or 'copy'")
    crsk.add_argument("--key-rate", type=_finite, default=0.1)
    crsk.add_argument("--slack", type=_finite, default=0.25)

    which = sub.add_parser("example", help="built-in sources run through the rate report"
                           ).add_subparsers(dest="which", required=True)
    bss = command(which, "bss", "doubly symmetric binary source", pmf_required=False)
    gain = command(which, "gain", "a 3x3 source on which interaction helps", pmf_required=False)
    bss.add_argument("--delta", type=float, default=0.25)
    gain.add_argument("--a", type=float, default=0.1)
    gain.add_argument("--b", type=float, default=0.15)
    gain.add_argument("--c", type=float, default=0.15)
    for p in (bss, gain):
        p.add_argument("--rounds", type=int, default=rates.RateConfig.rounds)

    return parser


def _flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    else:
        rows.append((prefix.rstrip("."), json.dumps(obj)))
    return rows


def _emit(args, config: dict, result) -> None:
    """Write the report: the tool, its version, the command, the seed, the
    echoed configuration and the result."""
    report = {"tool": "cit", "version": __version__, "command": args.command,
              "seed": args.seed, "config": config, "result": result}
    if args.format == "csv":
        # every cell is a JSON value; the csv module quotes the ones holding
        # commas (lists) or quotes (strings), so each row keeps its width.
        # A table row is the flattened envelope beside the row's own fields;
        # a field both name (crsk's seed, the same value) takes one column
        if isinstance(result, list):
            envelope = dict(_flatten({k: v for k, v in report.items() if k != "result"}))
            keys = list(envelope) + sorted({k for row in result for k in row} - set(envelope))
            cells = [{**envelope, **{k: json.dumps(v) for k, v in row.items()}} for row in result]
            rows = [keys] + [[row.get(k, "null") for k in keys] for row in cells]
        else:
            rows = _flatten(report)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is None:
            env = os.environ.get("CIT_THREADS") or "1"
            try:
                args.threads = _thread_count(env)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"$CIT_THREADS: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config, result = _dispatch(args)
        _emit(args, config, result)
    except (CitError, ValueError, OSError, KeyError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(error, indent=2) + "\n")
        return 2
    return 1 if args.command == "check" and not result["pass"] else 0


def _dispatch(args) -> tuple[dict, object]:
    """The echoed configuration and the result of one parsed command."""
    cmd = args.command
    pmf = load_pmf(args.pmf) if hasattr(args, "pmf") else None
    if cmd == "info":
        t = pmf.to_tensor()
        return {"pmf": args.pmf}, {
            "h_x": entropy(t, "x"),
            "h_y": entropy(t, "y"),
            "h_xy": entropy(t, ("x", "y")),
            "mi": mutual_information(t, "x", "y"),
            "zero_x_symbols": list(pmf.zero_x_symbols),
            "zero_y_symbols": list(pmf.zero_y_symbols),
            "pmf": pmf.to_json(),
        }

    if cmd == "suffstat":
        result = {}
        for side, marginal in (("x", pmf.marginal_x), ("y", pmf.marginal_y)):
            g = structure.minimal_sufficient_statistic(pmf, side)
            result[side] = {**g.to_json(), "entropy": structure.labeling_entropy(g, marginal),
                            "zero_mass_symbols": list(g.zero_mass_symbols)}
        return {"pmf": args.pmf}, result

    if cmd == "gk":
        lab_x, lab_y = structure.gk_common_function(pmf)
        result = {"x": lab_x.to_json(), "y": lab_y.to_json(), "h_mcf": structure.gk_ci(pmf)}
        return {"pmf": args.pmf}, result

    if cmd == "wyner":
        config = optim.PenaltyConfig(restarts=args.restarts, penalty_schedule=args.penalty,
                                     max_iter=args.max_iter, seed=args.seed)
        res = wyner.wyner_minimize(pmf, config, w_size=args.w_size)
        return {"pmf": args.pmf, "w_size": args.w_size, **asdict(config)}, res.to_json()

    if cmd == "ici":
        config = {
            "pmf": args.pmf, "rounds": args.rounds, "mode": args.mode,
            "initiator": args.initiator, "caps": list(args.caps) if args.caps else None,
            "sizes": list(args.sizes) if args.sizes else None, "budget": args.budget,
            "restarts": args.restarts,
        }
        # checks the flags in every mode before any route runs
        routes = chains.chain_routes(
            pmf, args.rounds, args.caps, args.budget,
            replace(chains.CONT_CONFIG, restarts=args.restarts, seed=args.seed),
            det=args.mode in ("det", "all"), cont=args.mode in ("cont", "all"),
            sizes=args.sizes, initiator=args.initiator)
        result = {}
        if args.mode in ("exact1", "all"):
            result["exact1"] = {
                "initiator": args.initiator,
                "value": chains.ci1_exact(pmf, args.initiator),
            }
        # the first route to fail at --rounds ends the run before a later one
        # starts; one that fails at fewer rounds is left out
        found: dict[str, list[chains.ChainResult]] = {}
        for k, name, res in routes:
            if k == args.rounds and isinstance(res, CitError):
                raise res
            if isinstance(res, chains.ChainResult):
                found.setdefault(name, []).append(res)
        for name in ("det", "cont"):
            if name in found:
                # the lowest feasible objective over the round counts, the
                # most rounds on a tie or when none is feasible
                res = min(found[name], key=lambda res: (
                    not res.feasible, res.objective if res.feasible else 0.0, -res.chain.rounds))
                if res.chain.rounds < args.rounds:
                    sizes = res.chain.sizes + (1,) * (args.rounds - res.chain.rounds)
                    res = chains.chain_objective(pmf, chains.padded_chain(pmf, res.chain, sizes))
                result[name] = res.to_json()
        return config, result

    if cmd in ("rates", "example"):
        config = rates.RateConfig(rounds=args.rounds,
                                  descent=replace(rates.REPORT_DESCENT, seed=args.seed))
        echo, closed = {}, None
        if cmd == "rates":  # an example leaves these at their defaults
            config = replace(config, det_caps=args.caps, det_budget=args.budget,
                             include_continuous=not args.no_continuous)
        elif args.which == "bss":
            pmf = sources.bss_pmf(args.delta)
            closed = chains.bss_closed_form(args.delta).to_json()
            echo = {"which": "bss", "delta": args.delta}
        else:
            pmf = sources.gain_pmf(args.a, args.b, args.c)
            echo = {"which": "gain", "a": args.a, "b": args.b, "c": args.c}
        rep = rates.rate_report(pmf, config)
        result = {**rep.to_json(), "pmf": pmf.to_json()}
        if closed is not None:
            result["closed_form"] = closed
        return {**echo, **config.to_json()}, result

    if cmd == "check":
        n = {} if args.identity == "el5" else {"n": args.n}
        result = checks.identity_check(args.identity, args.count, args.seed, **n,
                                       alphabet=args.alphabet, rounds=args.rounds)
        return {"identity": args.identity, "count": args.count, **n,
                "alphabet": args.alphabet, "rounds": args.rounds}, result

    if cmd == "simulate" and args.kind == "sw":
        result = [
            simulate.sw_binning_simulate(pmf, n, args.rate, args.trials, args.seed).to_json()
            for n in args.n
        ]
        return {"kind": "sw", "pmf": args.pmf, "rate": args.rate, "trials": args.trials,
                "n": list(args.n)}, result

    # simulate crsk, the one command left: argparse admits no other
    if args.chain == "copy":
        chain = simulate.default_copy_chain(pmf)
    else:
        with open(args.chain) as fh:
            chain = chains.chain_from_json(json.load(fh))
    reports = [
        simulate.cr_sk_simulate(pmf, chain, n, args.key_rate, args.trials,
                                args.seed, args.slack).to_json()
        for n in args.n
    ]
    config = {"kind": "crsk", "pmf": args.pmf, "chain": args.chain, "key_rate": args.key_rate,
              "trials": args.trials, "slack": args.slack, "n": list(args.n)}
    return config, reports if len(reports) > 1 else reports[0]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
