"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces the public functions of each `cit` module with
timing wrappers, under every name a caller looks them up by: a function
imported by name into another module (`penalized_minimize` into `chains`
and `wyner`, `chain_tensor` into `simulate`, `entropy` into most modules)
is replaced there too, and a module's own calls through its globals (the
`det_chain_search` inside `continuous_chain_minimize`) go through the
wrapper as well. Methods of `AffineGf2Hash` are replaced on the class.
`uninstall()` puts every original back.

A span's self time is its duration minus the time its child spans cover.
A key's or a layer's inclusive time counts only its outermost spans, so
recursion and same-layer nesting are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "rates", "structure", "chains", "optim", "wyner",
          "protocols", "hashing", "simulate", "pmf")

# (module, function name, span key); the layer is the module name
FUNCTIONS = (
    ("rates", "rate_report", "rates.report"),
    ("structure", "gk_ci", "structure.gk_ci"),
    ("structure", "gk_common_function", "structure.gk_common_function"),
    ("structure", "minimal_sufficient_statistic", "structure.suffstat"),
    ("structure", "noninteractive_rate", "structure.noninteractive_rate"),
    ("structure", "labeling_entropy", "structure.labeling_entropy"),
    ("chains", "det_chain_search", "chains.det"),
    ("chains", "continuous_chain_minimize", "chains.cont"),
    ("chains", "chain_objective", "chains.objective"),
    ("chains", "chain_tensor", "chains.tensor"),
    ("chains", "chain_to_aux_kernel", "chains.to_aux_kernel"),
    ("chains", "chain_from_json", "chains.from_json"),
    ("optim", "penalized_minimize", "optim.minimize"),
    ("wyner", "wyner_minimize", "wyner.minimize"),
    ("protocols", "lemma1_check", "protocols.lemma1"),
    ("protocols", "decomposition_check", "protocols.decomp"),
    ("protocols", "transcript_law", "protocols.transcript_law"),
    ("protocols", "random_protocol", "protocols.random_protocol"),
    ("protocols", "random_cr_table", "protocols.random_cr_table"),
    ("simulate", "sw_binning_simulate", "simulate.sw"),
    ("simulate", "cr_sk_simulate", "simulate.crsk"),
    ("pmf", "entropy", "pmf.entropy"),
    ("pmf", "conditional_entropy", "pmf.conditional_entropy"),
    ("pmf", "mutual_information", "pmf.mutual_information"),
    ("pmf", "conditional_mutual_information", "pmf.cmi"),
    ("pmf", "load_pmf", "pmf.load"),
)
HASH_METHODS = ("sample", "apply", "apply_int", "coset")

# names a caller looks up that must be wrapped, or the layer reads zero
REQUIRED_SITES = (
    "cit.chains.penalized_minimize", "cit.wyner.penalized_minimize",
    "cit.chains.det_chain_search", "cit.simulate.chain_tensor",
    "cit.cli.entropy", "cit.protocols.entropy", "cit.rates.entropy",
)


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_us", "us_per_chain")):
        return "us"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


class CoverageError(RuntimeError):
    """The traced run missed a layer its workload declares, or a call site."""


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # [key, layer, start, child seconds]
        self.depth: Counter = Counter()
        self.layer_depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.key_s: defaultdict = defaultdict(float)
        self.key_self: defaultdict = defaultdict(float)
        self.layer_s: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_spans: Counter = Counter()
        self.counts: Counter = Counter()
        self.det_log: list[tuple[int, bool]] = []  # per search: chains, over budget
        self._restore: list = []
        self.sites: list[str] = []

    # -- spans -------------------------------------------------------------

    def enter(self, key: str, layer: str) -> None:
        self.depth[key] += 1
        self.layer_depth[layer] += 1
        self.stack.append([key, layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        key, layer, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.depth[key] -= 1
        self.layer_depth[layer] -= 1
        self.calls[key] += 1
        self.key_self[key] += dur - child
        self.layer_self[layer] += dur - child
        self.layer_spans[layer] += 1
        if not self.depth[key]:
            self.key_s[key] += dur
        if not self.layer_depth[layer]:
            self.layer_s[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur

    def call(self, key: str, layer: str, fn, *args, **kwargs):
        self.enter(key, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, key: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(key, layer, fn, *args, **kwargs)
        return traced

    # -- per-function hooks ------------------------------------------------

    def _wrap_function(self, module: str, key: str, fn):
        traced = self.wrap(key, module, fn)
        signature = inspect.signature(fn)
        if key == "chains.det":
            def det(*args, **kwargs):
                before = self.counts["chains.det.chains"]
                over = False
                try:
                    return traced(*args, **kwargs)
                except self.budget_exceeded:
                    over = True
                    raise
                finally:
                    self.counts["chains.det.over_budget"] += over
                    self.det_log.append((self.counts["chains.det.chains"] - before, over))
            return functools.wraps(fn)(det)
        if key == "optim.minimize":
            def minimize(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                a = bound.arguments
                for name, span in (("value_and_grad", "optim.vag"), ("evaluate", "optim.evaluate")):
                    layer = a[name].__module__.rsplit(".", 1)[-1]
                    a[name] = self.wrap(span, layer, a[name])
                out = traced(*bound.args, **bound.kwargs)
                self.counts["optim.starts"] += len(a["seeded_starts"])
                self.counts["optim.iterations"] += out.iterations
                self.counts["optim.candidates"] += len(out.candidates)
                self.counts["optim.feasible"] += sum(
                    c.residual <= a["cfg"].feasibility_threshold for c in out.candidates)
                return out
            return functools.wraps(fn)(minimize)
        if key == "simulate.sw":
            def sw(*args, **kwargs):
                self.counts["simulate.sw.trials"] += signature.bind(*args, **kwargs).arguments["trials"]
                return traced(*args, **kwargs)
            return functools.wraps(fn)(sw)
        if key == "simulate.crsk":
            def crsk(*args, **kwargs):
                out = traced(*args, **kwargs)
                if out.leakage_exact:
                    a = signature.bind(*args, **kwargs).arguments
                    support = int((a["pmf"].p > 0).sum())
                    rows = support ** a["n"] if support > 1 else 1
                    self.counts["simulate.crsk.exact_rows"] += rows
                return out
            return functools.wraps(fn)(crsk)
        if key in ("protocols.lemma1", "protocols.decomp"):
            def check(*args, **kwargs):
                a = signature.bind(*args, **kwargs).arguments
                nx, ny = a["pmf"].shape
                protocol = a["protocol"]
                cells = nx ** protocol.n * ny ** protocol.n * protocol.transcript_size
                if "j_table" in a:  # the decomposition law also carries J
                    cells *= int(max(a["j_table"].max(), 0)) + 1
                self.counts["protocols.cells"] += cells
                return traced(*args, **kwargs)
            return functools.wraps(fn)(check)
        return traced

    def _count_chains(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for chain in fn(*args, **kwargs):
                self.counts["chains.det.chains"] += 1
                yield chain
        return counted

    def _apply_int(self, fn):
        traced = self.wrap("hashing.apply_int", "hashing", fn)

        @functools.wraps(fn)
        def apply_int(*args, **kwargs):
            if self.depth["simulate.crsk"]:
                self.counts["simulate.decoder.pops"] += 1
            return traced(*args, **kwargs)
        return apply_int

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every `cit.*` module global that refers to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cit" and not mod_name.startswith("cit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))
                    self.sites.append(f"{mod_name}.{attr}")

    def install(self) -> None:
        import importlib

        import cit.hashing
        from cit.errors import BudgetExceeded

        self.budget_exceeded = BudgetExceeded

        for module, name, key in FUNCTIONS:
            mod = importlib.import_module(f"cit.{module}")
            fn = getattr(mod, name)
            self._replace_everywhere(fn, self._wrap_function(module, key, fn))
        chains = importlib.import_module("cit.chains")
        gen = chains.iter_canonical_chains
        self._replace_everywhere(gen, self._count_chains(gen))
        cls = cit.hashing.AffineGf2Hash
        for name in HASH_METHODS:
            raw = cls.__dict__[name]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(f"hashing.{name}", "hashing", raw.__func__))
            elif name == "apply_int":
                new = self._apply_int(raw)
            else:
                new = self.wrap(f"hashing.{name}", "hashing", raw)
            setattr(cls, name, new)
            self._restore.append((cls, name, raw))
        missing = [site for site in REQUIRED_SITES if site not in self.sites]
        if missing:
            self.uninstall()
            raise CoverageError(f"call sites not wrapped: {missing}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def check_coverage(self, layers) -> None:
        empty = [layer for layer in layers if not self.layer_spans[layer]]
        if empty:
            raise CoverageError(f"declared layers recorded no span: {empty}")

    def metrics(self) -> dict[str, float]:
        c, s, self_s, calls = self.counts, self.key_s, self.key_self, self.calls
        det_chains = c["chains.det.chains"]
        vag_calls = calls["optim.vag"]
        out = {
            "chains.det.calls": calls["chains.det"],
            "chains.det.s": s["chains.det"],
            "chains.det.chains": det_chains,
            "chains.det.us_per_chain": 1e6 * s["chains.det"] / det_chains if det_chains else 0.0,
            "chains.det.over_budget": c["chains.det.over_budget"],
            "chains.cont.calls": calls["chains.cont"],
            "chains.cont.self_s": self_s["chains.cont"],
            "chains.objective.calls": calls["chains.objective"],
            "chains.objective.s": s["chains.objective"],
            "optim.calls": calls["optim.minimize"],
            "optim.s": s["optim.minimize"],
            "optim.self_s": self.layer_self["optim"],
            "optim.starts": c["optim.starts"],
            "optim.iterations": c["optim.iterations"],
            "optim.vag_calls": vag_calls,
            "optim.vag_us": 1e6 * s["optim.vag"] / vag_calls if vag_calls else 0.0,
            "optim.feasible_ratio": (c["optim.feasible"] / c["optim.candidates"]
                                     if c["optim.candidates"] else 0.0),
            "wyner.calls": calls["wyner.minimize"],
            "wyner.self_s": self.layer_self["wyner"],
            "protocols.calls": calls["protocols.lemma1"] + calls["protocols.decomp"],
            "protocols.s": self.layer_s["protocols"],
            "protocols.cells": c["protocols.cells"],
        }
        for name in HASH_METHODS:
            out[f"hashing.{name}.calls"] = calls[f"hashing.{name}"]
            out[f"hashing.{name}.s"] = s[f"hashing.{name}"]
        out.update({
            "simulate.sw.trials": c["simulate.sw.trials"],
            "simulate.sw.self_s": self_s["simulate.sw"],
            "simulate.crsk.self_s": self_s["simulate.crsk"],
            "simulate.decoder.pops": c["simulate.decoder.pops"],
            "simulate.crsk.exact_rows": c["simulate.crsk.exact_rows"],
            "cli.self_s": self.layer_self["cli"],
            "rates.self_s": self.layer_self["rates"],
            "structure.s": self.layer_s["structure"],
            "pmf.entropy.calls": calls["pmf.entropy"],
            "pmf.entropy.s": s["pmf.entropy"],
        })
        for layer in LAYERS:
            out.setdefault(f"{layer}.self_s", self.layer_self[layer])
        return out
