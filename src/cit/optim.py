"""Penalized exponentiated-gradient descent on products of conditional simplices.

Shared engine for the auxiliary-variable minimizations: minimize
objective(kernels) + lambda * residual(kernels) for an increasing penalty
schedule, with multiplicative simplex updates, backtracking so the penalized
value never increases across accepted iterations at a fixed lambda, and
deterministic multi-restart reduction (feasible first, then lowest value,
then lowest start index).

`penalized_information` holds the entropy algebra both callers descend on:
a Wyner splitting variable is the one-round case of an interactive chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoFeasiblePoint

KERNEL_FLOOR = 1e-30
SMOOTHING = 1e-3


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs for the penalty method; defaults favour reproducibility."""

    penalty_schedule: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    max_iter: int = 5000
    step_size: float = 1.0
    feasibility_threshold: float = 1e-4
    rel_tol: float = 1e-12
    patience: int = 25


@dataclass(frozen=True)
class Candidate:
    objective: float
    residual: float
    kernels: tuple[np.ndarray, ...]
    label: str
    order: int
    iterations: int = 0

    @property
    def sort_key(self):
        return (self.objective, self.order)


@dataclass
class PenaltyOutcome:
    best: Candidate
    candidates: list[Candidate]
    iterations: int
    # per optimized start, one value trace per penalty stage
    descent_traces: list[list[np.ndarray]] = field(default_factory=list)


def _normalize_slices(k: np.ndarray) -> np.ndarray:
    k = np.clip(k, KERNEL_FLOOR, None)
    return k / k.sum(axis=-1, keepdims=True)


def _eg_step(k: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    """Multiplicative simplex step computed in log space to avoid overflow."""
    z = np.log(np.clip(k, KERNEL_FLOOR, None)) - step * g
    z -= z.max(axis=-1, keepdims=True)
    return _normalize_slices(np.exp(z))


def smooth(kernel: np.ndarray, eps: float = SMOOTHING) -> np.ndarray:
    """Mix a kernel with the uniform one so multiplicative updates can move."""
    w = kernel.shape[-1]
    return _normalize_slices((1.0 - eps) * kernel + eps / w)


def _safe_log2(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0, np.log2(np.where(a > 0, a, 1.0)), 0.0)


def penalized_information(
    q: np.ndarray, m_xy: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """I(X,Y;U) + lam * I(X;Y|U) in bits, and its per-cell log-derivative.

    `q` is a dense law over (X, Y, U_1, ..., U_r); H(X,Y) is taken from the
    caller's `m_xy`. Per cell, up to additive constants,
    dlog = (1+lam)log q - log m_xy - (1-lam)log m_u - lam log m_xu - lam log m_yu.
    """
    m_u = q.sum(axis=(0, 1))
    m_xu = q.sum(axis=1)
    m_yu = q.sum(axis=0)
    lq, lxy, lu, lxu, lyu = map(_safe_log2, (q, m_xy, m_u, m_xu, m_yu))
    h_q = -(q * lq).sum()
    h_xy = -(m_xy * lxy).sum()
    h_u = -(m_u * lu).sum()
    h_xu = -(m_xu * lxu).sum()
    h_yu = -(m_yu * lyu).sum()
    objective = h_xy + h_u - h_q
    residual = h_xu + h_yu - h_u - h_q
    dlog = (
        (1.0 + lam) * lq
        - lxy.reshape(lxy.shape + (1,) * (q.ndim - 2))
        - (1.0 - lam) * lu[None, None]
        - lam * lxu[:, None]
        - lam * lyu[None]
    )
    return float(objective + lam * residual), dlog


def renormalize(k: np.ndarray) -> np.ndarray:
    """Clip a kernel at zero and rescale each slice to sum to one."""
    k = np.clip(np.asarray(k, dtype=float), 0.0, None)
    return k / k.sum(axis=-1, keepdims=True)


def _eg_stage(
    kernels: list[np.ndarray],
    lam: float,
    value_and_grad: Callable,
    cfg: PenaltyConfig,
    trace: list[float] | None,
) -> tuple[list[np.ndarray], int]:
    """Run one penalty stage; returns updated kernels and iteration count."""
    val, grads = value_and_grad(kernels, lam)
    if trace is not None:
        trace.append(val)
    step = cfg.step_size
    stall = 0
    it = 0
    while it < cfg.max_iter:
        it += 1
        proposal = [_eg_step(k, g, step) for k, g in zip(kernels, grads)]
        new_val, new_grads = value_and_grad(proposal, lam)
        if new_val <= val:
            improvement = val - new_val
            kernels, val, grads = proposal, new_val, new_grads
            if trace is not None:
                trace.append(val)
            step = min(step * 1.25, 64.0)
            stall = stall + 1 if improvement <= cfg.rel_tol * (1.0 + abs(val)) else 0
            if stall >= cfg.patience:
                break
        else:
            step *= 0.5
            if step < 1e-9:
                break
    return kernels, it


def _run_start(
    index: int,
    label: str,
    start: list[np.ndarray],
    value_and_grad: Callable,
    evaluate: Callable,
    cfg: PenaltyConfig,
    keep_trace: bool,
) -> tuple[Candidate, list[np.ndarray] | None]:
    kernels = [_normalize_slices(k) for k in start]
    stage_traces: list[np.ndarray] | None = [] if keep_trace else None
    total = 0
    for lam in cfg.penalty_schedule:
        trace: list[float] | None = [] if keep_trace else None
        kernels, used = _eg_stage(kernels, lam, value_and_grad, cfg, trace)
        total += used
        if keep_trace:
            # one trace per stage; monotonicity holds within a stage only
            stage_traces.append(np.array(trace))
    objective, residual = evaluate(kernels)
    cand = Candidate(objective, residual, tuple(kernels), label, index, total)
    return cand, stage_traces


def penalized_minimize(
    seeded_starts: Sequence[tuple[str, list[np.ndarray]]],
    exact_candidates: Sequence[tuple[str, list[np.ndarray]]],
    value_and_grad: Callable,
    evaluate: Callable,
    cfg: PenaltyConfig,
    keep_traces: bool = False,
) -> PenaltyOutcome:
    """Optimize from every start, add exact candidates, reduce deterministically.

    `value_and_grad(kernels, lam) -> (penalized value, gradients)`;
    `evaluate(kernels) -> (objective, residual)` in bits.
    Exact candidates are scored as given, without smoothing or optimization.
    """
    candidates: list[Candidate] = []
    for order, (label, kernels) in enumerate(exact_candidates):
        objective, residual = evaluate(list(kernels))
        candidates.append(Candidate(objective, residual,
                                     tuple(np.asarray(k, dtype=float) for k in kernels),
                                     label, order))

    traces: list[list[np.ndarray]] = []
    iterations = 0
    for order, (label, kernels) in enumerate(seeded_starts, start=len(candidates)):
        cand, trace = _run_start(order, label, kernels, value_and_grad, evaluate, cfg, keep_traces)
        candidates.append(cand)
        iterations += cand.iterations
        if trace is not None:
            traces.append(trace)

    feasible = [c for c in candidates if c.residual <= cfg.feasibility_threshold]
    if not feasible:
        raise NoFeasiblePoint(
            f"no candidate reached residual <= {cfg.feasibility_threshold}"
        )
    best = min(feasible, key=lambda c: c.sort_key)
    return PenaltyOutcome(best, candidates, iterations, traces)


def dirichlet_starts(
    rng_seed: int, count: int, shapes: Sequence[tuple[int, ...]]
) -> list[tuple[str, list[np.ndarray]]]:
    """Seeded Dirichlet(1) random kernel initializations, one rng per restart."""
    starts = []
    streams = np.random.SeedSequence(rng_seed).spawn(count)
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        kernels = []
        for shape in shapes:
            flat = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1], dtype=int)))
            kernels.append(flat.reshape(shape))
        starts.append((f"random-{i}", kernels))
    return starts
