"""The batched penalty descent against a one-start-at-a-time reference.

`penalized_minimize` advances every start together on a leading axis. The
reference below is the loop it replaced: one start, one stage at a time,
built on the same value-and-grad routines and `_eg_step` called with a
batch of one. Both must give the same bits: every candidate's objective and
residual, its kernels, its iteration count and its stop reasons. The
engine keeps no values along the way; the reference records them, one
trace per start and stage, and the checks on traces read those, which the
engine's steps match bit for bit. `_eg_stage` is also run on its own, on
batches that all accept, all reject or mix the two, with starts leaving at
different iterations for each stop reason, against the reference start by
start. Every descent scores its candidates with one `evaluate` call, and
ties on the objective go to the earlier candidate.

Because the reference shares those routines, it cannot see a change inside
them. `golden_descent.json` pins their bits independently: values recorded
from the descent before its iteration was trimmed to fewer array calls, to
be re-recorded only by a change that means to move a bound. Its digests
cover the candidates' kernels and the reference's traces.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from cit import chains, cli, validate_pmf, wyner
from cit.chains import continuous_chain_minimize
from cit.optim import (PATIENCE, REL_TOL, STEP_SIZE, PenaltyConfig, _eg_stage, _eg_step,
                       _normalize_slices, descent_starts, dirichlet_starts, penalized_minimize)
from cit.sources import bss_pmf, gain_pmf, random_pmf
from cit.wyner import wyner_minimize

from conftest import det_start


@dataclass
class Reference:
    objective: float
    residual: float
    kernels: list
    stages: list  # (iterations, stop reason) per penalty stage
    traces: list


def _single(value_and_grad, kernels, lam):
    values, grads = value_and_grad([k[None] for k in kernels], lam)
    return values[0], [g[0] for g in grads]


def _reference_stage(kernels, lam, value_and_grad, cfg, trace, accepts=None):
    accepts = [] if accepts is None else accepts  # one accept flag per iteration
    val, grads = _single(value_and_grad, kernels, lam)
    trace.append(val)
    step = STEP_SIZE
    stall = 0
    it = 0
    while it < cfg.max_iter:
        it += 1
        proposal = [_eg_step(k[None], g[None], np.array([step]))[0]
                    for k, g in zip(kernels, grads)]
        new_val, new_grads = _single(value_and_grad, proposal, lam)
        accepts.append(bool(new_val <= val))
        if new_val <= val:
            improvement = val - new_val
            kernels, val, grads = proposal, new_val, new_grads
            trace.append(val)
            step = min(step * 1.25, 64.0)
            stall = stall + 1 if improvement <= REL_TOL * (1.0 + abs(val)) else 0
            if stall >= PATIENCE:
                return kernels, it, "stall"
        else:
            step *= 0.5
            if step < 1e-9:
                return kernels, it, "step_floor"
    return kernels, it, "max_iter"


def _reference_start(start, value_and_grad, evaluate, cfg):
    kernels = [_normalize_slices(k) for k in start]
    stages, traces = [], []
    for lam in cfg.penalty_schedule:
        trace = []
        kernels, used, reason = _reference_stage(kernels, lam, value_and_grad, cfg, trace)
        stages.append((used, reason))
        traces.append(np.array(trace))
    (objective,), (residual,) = evaluate([k[None] for k in kernels])
    return Reference(objective, residual, kernels, stages, traces)


def _captured(module, monkeypatch, run):
    """Run `run()` and return the arguments `module` handed to
    `penalized_minimize`, with the outcome it got back."""
    seen = {}
    minimize = module.penalized_minimize

    def capture(starts, exact, vag, evaluate, cfg):
        seen.update(starts=starts, exact=exact, vag=vag, evaluate=evaluate, cfg=cfg)
        seen["outcome"] = minimize(starts, exact, vag, evaluate, cfg)
        return seen["outcome"]

    monkeypatch.setattr(module, "penalized_minimize", capture)
    run()
    return seen


def _references(seen) -> list[Reference]:
    """The reference descent of every start handed to `penalized_minimize`."""
    return [_reference_start(start, seen["vag"], seen["evaluate"], seen["cfg"])
            for _, start in seen["starts"]]


def _assert_matches_reference(seen):
    outcome = seen["outcome"]
    optimized = outcome.candidates[len(seen["exact"]):]
    assert len(optimized) == len(seen["starts"])
    assert all(c.stops == () for c in outcome.candidates[:len(seen["exact"])])
    refs = _references(seen)
    for cand, ref, (label, _) in zip(optimized, refs, seen["starts"]):
        assert cand.label == label
        assert float(cand.objective).hex() == float(ref.objective).hex()
        assert float(cand.residual).hex() == float(ref.residual).hex()
        assert [k.tobytes() for k in cand.kernels] == [k.tobytes() for k in ref.kernels]
        assert cand.iterations == sum(used for used, _ in ref.stages)
        assert cand.stops == tuple(reason for _, reason in ref.stages)
    assert outcome.iterations == sum(c.iterations for c in optimized)
    # one value-and-grad call per iteration of the stage's slowest start, plus the first
    assert outcome.calls == tuple(max(ref.stages[s][0] for ref in refs) + 1
                                  for s in range(len(seen["cfg"].penalty_schedule)))
    return refs


def _zero_row_3x3():
    p = np.random.default_rng(5).dirichlet(np.ones(9)).reshape(3, 3)
    p[1] = 0.0
    return validate_pmf((p / p.sum()).tolist())


WYNER_CASES = {
    "bss": (lambda: bss_pmf(0.25), PenaltyConfig(restarts=3, max_iter=400)),
    "gain": (lambda: gain_pmf(0.1, 0.15, 0.15), PenaltyConfig(restarts=3, max_iter=300)),
    "zero-row-3x3": (_zero_row_3x3, PenaltyConfig(restarts=3, max_iter=300)),
}


@pytest.mark.parametrize("case", sorted(WYNER_CASES))
def test_wyner_matches_reference(case, monkeypatch):
    make, config = WYNER_CASES[case]
    pmf = make()
    seen = _captured(wyner, monkeypatch, lambda: wyner_minimize(pmf, config))
    _assert_matches_reference(seen)


@pytest.mark.parametrize("pmf, sizes, initiator", [
    (gain_pmf(0.1, 0.15, 0.15), (2, 3), "x"),
    (gain_pmf(0.1, 0.15, 0.15), (2, 3), "y"),
    (random_pmf(np.random.default_rng(3), 2, 3), (2, 2, 2), "x"),
], ids=["gain-x", "gain-y", "random-2x3-three-rounds"])
def test_chains_match_reference(pmf, sizes, initiator, monkeypatch):
    config = PenaltyConfig(restarts=3, max_iter=300)
    start = det_start(pmf, sizes, initiator)
    seen = _captured(chains, monkeypatch, lambda: continuous_chain_minimize(
        pmf, sizes, config, start=start, initiator=initiator))
    _assert_matches_reference(seen)


def test_one_monotone_trace_per_start_and_stage(bss25, monkeypatch):
    # accepted values never rise within a stage; across stages the penalty grows
    for config in (PenaltyConfig(restarts=4, max_iter=300, seed=2),
                   PenaltyConfig(restarts=2, max_iter=500, seed=1)):
        seen = _captured(wyner, monkeypatch, lambda: wyner_minimize(bss25, config))
        refs = _assert_matches_reference(seen)
        optimized = len(seen["outcome"].candidates) - len(wyner._seed_maps(bss25, 4))
        assert len(refs) == optimized
        for ref in refs:
            assert len(ref.traces) == len(config.penalty_schedule)
            for trace in ref.traces:
                assert trace.size >= 1
                assert np.all(np.diff(trace) <= 0.0)


def test_stop_reasons_name_stages_cut_at_max_iter(bss25, monkeypatch):
    config = PenaltyConfig(restarts=4, max_iter=50)
    seen = _captured(wyner, monkeypatch, lambda: wyner_minimize(bss25, config))
    refs = _assert_matches_reference(seen)
    stops = [c.stops for c in seen["outcome"].candidates if c.stops]
    assert any("max_iter" in s for s in stops)
    for ref in refs:
        for used, reason in ref.stages:
            assert (reason == "max_iter") == (used == config.max_iter)


def _wyner_batch(pmf, restarts=4):
    """Wyner's seeded starts and `restarts` Dirichlet ones on one stack,
    with its value-and-grad."""
    w = pmf.shape[0] * pmf.shape[1]
    seeds = [(label, [wyner.deterministic_kernel(pmf, w, w_of)])
             for label, w_of in wyner._seed_maps(pmf, w)]
    starts, _ = descent_starts(seeds, [pmf.shape + (w,)],
                               PenaltyConfig(restarts=restarts, max_iter=1))
    kernels = [_normalize_slices(np.stack([k for _, (k,) in starts]))]
    return kernels, wyner._value_and_grad_factory(pmf.p)


def _flat(kernels, lam):
    """A level value: every step is accepted and gains nothing."""
    return np.zeros(len(kernels[0])), [np.zeros_like(k) for k in kernels]


def _stage_against_reference(kernels, lam, vag, max_iter):
    """Run `_eg_stage` on the batch and each start alone through the
    reference; return the batch kinds met, one per iteration: "all" accept,
    "none" does, or "mixed"."""
    cfg = PenaltyConfig(restarts=0, max_iter=max_iter)
    given = [k.copy() for k in kernels]
    out, used, stops = _eg_stage(kernels, lam, vag, cfg)
    assert [k.tobytes() for k in kernels] == [k.tobytes() for k in given]  # never written
    flags = []
    for i in range(len(kernels[0])):
        accepts = []
        ref, it, reason = _reference_stage([k[i] for k in kernels], lam, vag, cfg, [], accepts)
        assert [o[i].tobytes() for o in out] == [k.tobytes() for k in ref]
        assert (used[i], stops[i]) == (it, reason)
        assert len(accepts) == it
        flags.append(accepts)
    return {"all" if all(a) else "none" if not any(a) else "mixed"
            for a in ([f[t] for f in flags if len(f) > t] for t in range(max(used)))}


@pytest.mark.parametrize("max_iter", [0, 1, 40, 300])
@pytest.mark.parametrize("lam", [1.0, 10.0, 1000.0])
@pytest.mark.parametrize("make", [lambda: bss_pmf(0.25), lambda: gain_pmf(0.1, 0.15, 0.15)],
                         ids=["bss", "gain"])
def test_stage_matches_reference_start_by_start(make, lam, max_iter):
    kernels, vag = _wyner_batch(make())
    kinds = _stage_against_reference(kernels, lam, vag, max_iter)
    assert (kinds == set()) == (max_iter == 0)


def test_stage_meets_every_batch_kind_and_stop_reason():
    """bss at lambda 10: one start hits the step floor, one stalls, others
    run to the cap, and in between the batch all accepts, all rejects, or
    mixes the two."""
    kernels, vag = _wyner_batch(bss_pmf(0.25))
    assert _stage_against_reference(kernels, 10.0, vag, 300) == {"all", "none", "mixed"}
    _, _, stops = _eg_stage(kernels, 10.0, vag, PenaltyConfig(restarts=0, max_iter=300))
    assert set(stops) == {"stall", "step_floor", "max_iter"}


@pytest.mark.parametrize("count", [1, 3])
def test_stage_of_starts_that_all_stall_together(count):
    kernels = [_normalize_slices(np.stack(
        [k for _, (k,) in dirichlet_starts(1, count, [(2, 3, 4)])]))]
    assert _stage_against_reference(kernels, 1.0, _flat, 300) == {"all"}
    _, used, stops = _eg_stage(kernels, 1.0, _flat, PenaltyConfig(restarts=0, max_iter=300))
    assert (used, stops) == ([PATIENCE] * count, ["stall"] * count)


def test_a_lone_start_that_only_rejects_hits_the_step_floor():
    """Every step away from the constant kernel costs on bss at lambda 1:
    thirty halvings take the step below 1e-9."""
    kernels, vag = _wyner_batch(bss_pmf(0.25))
    lone = [k[1:2] for k in kernels]  # the smoothed constant seed
    assert _stage_against_reference(lone, 1.0, vag, 300) == {"none"}
    _, used, stops = _eg_stage(lone, 1.0, vag, PenaltyConfig(restarts=0, max_iter=300))
    assert (used, stops) == ([30], ["step_floor"])


GOLDEN = json.loads((Path(__file__).parent / "golden_descent.json").read_text())


def _golden_summary(seen) -> dict:
    """The descent's calls and candidates, with one digest of every
    candidate's kernels followed by each start's reference traces."""
    outcome = seen["outcome"]
    digest = hashlib.sha256()
    for cand in outcome.candidates:
        for k in cand.kernels:
            digest.update(np.ascontiguousarray(k, dtype=float).tobytes())
    for ref in _references(seen):
        for trace in ref.traces:
            digest.update(trace.tobytes())
    return {
        "calls": list(outcome.calls),
        "sha256": digest.hexdigest(),
        "candidates": [[c.label, float(c.objective).hex(), float(c.residual).hex(),
                        c.iterations, list(c.stops)] for c in outcome.candidates],
    }


@pytest.mark.parametrize("case", sorted(WYNER_CASES))
def test_wyner_golden_bits(case, monkeypatch):
    make, config = WYNER_CASES[case]
    seen = _captured(wyner, monkeypatch, lambda: wyner_minimize(make(), config))
    assert _golden_summary(seen) == GOLDEN["descents"][f"wyner-{case}"]


@pytest.mark.parametrize("initiator", ["x", "y"])
def test_chain_golden_bits(initiator, monkeypatch):
    gain = gain_pmf(0.1, 0.15, 0.15)
    seen = _captured(chains, monkeypatch, lambda: continuous_chain_minimize(
        gain, (2, 3), PenaltyConfig(restarts=3, max_iter=300),
        start=det_start(gain, (2, 3), initiator), initiator=initiator))
    assert _golden_summary(seen) == GOLDEN["descents"][f"chain-gain-{initiator}"]


def _bench_source(name: str) -> np.ndarray:
    """The benchmark's fixed sources, before any relabeling."""
    if name == "bss":
        return np.array([[0.375, 0.125], [0.125, 0.375]])
    if name == "gain":
        return np.array([[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]])
    tag, side = {"rand3-0": (0, 3), "rand3-4": (4, 3), "rand4-0": (0, 4)}[name]
    return np.random.default_rng([tag, side]).dirichlet(np.ones(side * side)).reshape(side, side)


@pytest.mark.parametrize("name", sorted(GOLDEN["bench_rates_calls"]))
def test_report_descent_calls_per_stage(name, tmp_path, monkeypatch):
    """`cit rates --rounds 2` makes as many value-and-grad calls per penalty
    stage as recorded: a faster descent must not take fewer steps."""
    p = _bench_source(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"x": [str(i) for i in range(p.shape[0])],
                                "y": [str(j) for j in range(p.shape[1])], "p": p.tolist()}))
    seen = []
    for module in (chains, wyner):
        def capture(*args, _minimize=module.penalized_minimize, _name=module.__name__, **kwargs):
            outcome = _minimize(*args, **kwargs)
            seen.append([_name.rsplit(".", 1)[-1], list(outcome.calls)])
            return outcome
        monkeypatch.setattr(module, "penalized_minimize", capture)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["rates", "--pmf", str(path), "--rounds", "2", "--threads", "1"]) == 0
    assert seen == GOLDEN["bench_rates_calls"][name]


def test_dirichlet_starts_count():
    with pytest.raises(ValueError, match="restarts must be at least 0"):
        dirichlet_starts(0, -1, [(2, 3)])
    assert dirichlet_starts(0, 0, [(2, 3)]) == []
    assert [label for label, _ in dirichlet_starts(0, 2, [(2, 3)])] == ["random-0", "random-1"]


def _zero_cell_3x3():
    p = np.random.default_rng(11).dirichlet(np.ones(9)).reshape(3, 3)
    p[0, 2] = 0.0
    return validate_pmf((p / p.sum()).tolist())


# each source with its chain sizes, at which a deterministic start exists
SCORING_SOURCES = {"bss": (lambda: bss_pmf(0.25), (2, 2)), "zero-cell-3x3": (_zero_cell_3x3, (3, 2))}
SCORING_ROUTES = {
    "wyner": (wyner, lambda pmf, _: wyner_minimize(pmf, PenaltyConfig(restarts=2, max_iter=40))),
    "chain": (chains, lambda pmf, sizes: continuous_chain_minimize(
        pmf, sizes, PenaltyConfig(restarts=2, max_iter=40), start=det_start(pmf, sizes))),
}


@pytest.mark.parametrize("source", sorted(SCORING_SOURCES))
@pytest.mark.parametrize("route", sorted(SCORING_ROUTES))
def test_one_scoring_call_per_descent(route, source, monkeypatch):
    """`evaluate` sees one stack per descent, the exact candidates' rows
    first, and scores each row with the bits it gets alone."""
    module, run = SCORING_ROUTES[route]
    descents = []
    minimize = module.penalized_minimize

    def capture(starts, exact, vag, evaluate, cfg):
        stacks = []

        def counting(kernels):
            stacks.append([k.copy() for k in kernels])
            return evaluate(kernels)

        outcome = minimize(starts, exact, vag, counting, cfg)
        descents.append((exact, evaluate, stacks, outcome))
        return outcome

    monkeypatch.setattr(module, "penalized_minimize", capture)
    make, sizes = SCORING_SOURCES[source]
    run(make(), sizes)
    assert len(descents) == 1
    ((exact, evaluate, stacks, outcome),) = descents
    assert len(stacks) == 1
    (stack,) = stacks
    assert len(stack[0]) == len(outcome.candidates)
    for i, (_, kernels) in enumerate(exact):
        assert [s[i].tobytes() for s in stack] == [np.asarray(k, float).tobytes() for k in kernels]
    for i, cand in enumerate(outcome.candidates):
        (objective,), (residual,) = evaluate([s[i:i + 1] for s in stack])
        assert float(cand.objective).hex() == float(objective).hex()
        assert float(cand.residual).hex() == float(residual).hex()
        assert [k.tobytes() for k in cand.kernels] == [s[i].tobytes() for s in stack]


def test_tied_feasible_candidates_go_to_the_earliest():
    """Ties on the objective go to the earlier candidate: exact ones first,
    then the starts in order; an infeasible one never wins."""
    uniform = [np.full((2, 2, 2), 0.5)]
    exact = [("infeasible", uniform), ("exact", uniform)]
    starts = [("start-0", uniform), ("start-1", uniform)]

    def tie(objectives, residuals):
        return lambda kernels: (np.array(objectives), np.array(residuals))

    cfg = PenaltyConfig(restarts=0, max_iter=3)
    outcome = penalized_minimize(starts, exact, _flat,
                                 tie([0.5, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]), cfg)
    assert outcome.best.label == "exact"
    outcome = penalized_minimize(starts, exact, _flat,
                                 tie([0.5, 2.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]), cfg)
    assert outcome.best.label == "start-0"
    assert [c.label for c in outcome.candidates] == ["infeasible", "exact", "start-0", "start-1"]


@pytest.mark.parametrize("field, value", [
    ("restarts", -1), ("max_iter", -3), ("seed", -1),
    ("penalty_schedule", ()), ("penalty_schedule", (float("nan"),)),
    ("penalty_schedule", (1.0, float("inf"))), ("penalty_schedule", (0.0,)),
    ("penalty_schedule", (10.0, -1.0)),
])
def test_config_refuses_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        PenaltyConfig(**{"restarts": 1, "max_iter": 1, field: value})
    with pytest.raises(ValueError, match=field):
        replace(PenaltyConfig(restarts=1, max_iter=1), **{field: value})


def test_config_takes_zero_counts():
    cfg = PenaltyConfig(restarts=0, max_iter=0, seed=0, penalty_schedule=(1e-3,))
    assert (cfg.restarts, cfg.max_iter, cfg.seed) == (0, 0, 0)
    outcome = wyner_minimize(bss_pmf(0.25), replace(cfg, penalty_schedule=(1.0,)))
    assert outcome.iterations == 0
