"""The batched penalty descent against a one-start-at-a-time reference.

`penalized_minimize` advances every start together on a leading axis. The
reference below is the loop it replaced: one start, one stage at a time,
built on the same value-and-grad routines and `_eg_step` called with a
batch of one. Both must give the same bits: every candidate's objective and
residual, its kernels, its iteration count and its stop reasons. The
engine keeps no values along the way; the reference records them, one
trace per start and stage, and the checks on traces read those, which the
engine's steps match bit for bit.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from cit import chains, cli, validate_pmf, wyner
from cit.chains import continuous_chain_minimize
from cit.optim import (PATIENCE, REL_TOL, STEP_SIZE, PenaltyConfig, _eg_step, _normalize_slices,
                       dirichlet_starts)
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


def _reference_stage(kernels, lam, value_and_grad, cfg, trace):
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
