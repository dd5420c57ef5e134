"""Penalized exponentiated-gradient descent on products of conditional simplices.

Shared engine for the auxiliary-variable minimizations: minimize
objective(kernels) + lambda * residual(kernels) for an increasing penalty
schedule, with multiplicative simplex updates, backtracking so the penalized
value never increases across accepted iterations at a fixed lambda, and
deterministic multi-restart reduction (feasible first, then lowest value,
then lowest start index).

All starts of one minimization descend together: their kernels sit on a
leading start axis, and each iteration makes one value-and-grad call for
the starts still running. Each start keeps its own value, step size, stall
count and stop flag as Python scalars, decided row by row with a lone
start's arithmetic, and leaves the batch when it stops, so every start
takes the same steps, to the bit, that it would take alone. The batch is
a few starts for most of a descent, where numpy calls on arrays of a few
floats would cost more than the arithmetic. Each candidate records why
each of its stages stopped.

Both callers, the Wyner and the interactive-chain routes, take one
`PenaltyConfig`, build their starts with `descent_starts`, and hand both
to `penalized_minimize`. `penalized_information` holds the entropy algebra
they descend on: a one-round interactive chain is a Wyner splitting
variable drawn from one side alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import NoFeasiblePoint

KERNEL_FLOOR = 1e-30
SMOOTHING = 1e-3
STEP_SIZE = 1.0      # first step of every start in every stage
REL_TOL = 1e-12      # an accepted step gaining at most this (relative) stalls
PATIENCE = 25        # stalled accepted steps in a row that end a stage
PENALTY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)
FEASIBILITY_TOL = 1e-4  # most bits of I(X;Y|U) a feasible randomized candidate keeps


@dataclass(frozen=True, kw_only=True)
class PenaltyConfig:
    """One descent: `restarts` seeded Dirichlet starts after the seeded ones,
    one stage per penalty of `penalty_schedule`, each of at most `max_iter`
    iterations, and the restarts drawn from `seed`. Each route names its
    own restarts and iteration cap."""

    restarts: int
    penalty_schedule: tuple[float, ...] = PENALTY_SCHEDULE
    max_iter: int
    seed: int = 0
    # not a setting: the benchmark's tracer reads the threshold off the config
    feasibility_threshold: ClassVar[float] = FEASIBILITY_TOL


@dataclass(frozen=True)
class Candidate:
    objective: float
    residual: float
    kernels: tuple[np.ndarray, ...]
    label: str
    order: int
    iterations: int = 0
    # per penalty stage: "stall", "step_floor" or "max_iter"; empty for exact candidates
    stops: tuple[str, ...] = ()


@dataclass
class PenaltyOutcome:
    """One descent's candidates, exact ones first, and its best feasible one.
    It keeps each candidate's final kernels, iterations and stop reasons,
    not the values along the way."""

    best: Candidate
    candidates: list[Candidate]
    iterations: int
    # value-and-grad calls per penalty stage: its slowest start's iterations + 1
    calls: tuple[int, ...] = ()


def _normalize_slices(k: np.ndarray) -> np.ndarray:
    k = np.maximum(k, KERNEL_FLOOR)
    k /= k.sum(axis=-1, keepdims=True)
    return k


def _per_start(v: np.ndarray, ndim: int) -> np.ndarray:
    """A vector over starts, shaped to broadcast against `ndim`-axis arrays."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


def _eg_step(k: np.ndarray, g: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Multiplicative simplex step, one step size per start, in log space,
    on one new buffer."""
    z = np.maximum(k, KERNEL_FLOOR)
    np.log(z, out=z)
    z -= _per_start(step, k.ndim) * g
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    np.maximum(z, KERNEL_FLOOR, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _safe_log2(a: np.ndarray) -> np.ndarray:
    """log2 of the positive entries; 0.0 (as log2 1) everywhere else."""
    return np.log2(np.where(a > 0, a, 1.0))


def fixed_xy(p: np.ndarray) -> tuple[float, np.ndarray]:
    """(sum of p log2 p, log2 p) of a law p(x, y) that stays fixed over a
    descent, for `penalized_information`'s `xy`."""
    lp = _safe_log2(p)
    return (p * lp).sum(), lp


def penalized_information(
    q: np.ndarray, lam: float, xy: tuple[float, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """I(X,Y;U) + lam * I(X;Y|U) in bits per start, and the per-cell log-derivative.

    `q` holds one dense law over (X, Y, U_1, ..., U_r) per start on its
    leading axis. H(X,Y) and log2 p(x, y) come from `xy` (see `fixed_xy`)
    when the (X, Y) law is fixed, and otherwise from each start's own
    (X, Y) marginal of `q`. Each entropy adds a start's cells in the order
    of a flat `.sum()` over them, so every start gets the bits it would get
    alone. Where every cell of `q` is positive, so is every marginal, and
    the logs skip the zero test. Per cell, up to additive constants,
    dlog = (1+lam)log q - log m_xy - (1-lam)log m_u - lam log m_xu - lam log m_yu.
    """
    n = len(q)
    log2 = np.log2 if q.min() > 0 else _safe_log2

    def plogp(a, spare=False):
        # sum of a log2 a per start: the entropy negated, with the same bits,
        # since rounding is sign-symmetric; 0.0 - v keeps an exact zero +0.0.
        # A marginal that nothing else reads (`spare`) holds its own products.
        la = log2(a)
        if spare:
            a *= la
        else:
            a = a * la
        return a.reshape(n, -1).sum(axis=1), la

    s_q, lq = plogp(q)
    s_u, lu = plogp(q.sum(axis=(1, 2)), spare=True)
    s_xu, lxu = plogp(q.sum(axis=2), spare=True)
    s_yu, lyu = plogp(q.sum(axis=1), spare=True)
    s_xy, lxy = plogp(q.sum(axis=tuple(range(3, q.ndim))), spare=True) if xy is None else xy
    neg_objective = s_xy + s_u - s_q
    neg_residual = s_xu + s_yu - s_u - s_q
    dlog = lq
    dlog *= 1.0 + lam
    dlog -= lxy.reshape(lxy.shape + (1,) * (q.ndim - 3))
    dlog -= (1.0 - lam) * lu[:, None, None]
    dlog -= lam * lxu[:, :, None]
    dlog -= lam * lyu[:, None]
    return 0.0 - (neg_objective + lam * neg_residual), dlog


def renormalize(k: np.ndarray) -> np.ndarray:
    """Clip a kernel at zero and rescale each slice to sum to one."""
    k = np.clip(np.asarray(k, dtype=float), 0.0, None)
    return k / k.sum(axis=-1, keepdims=True)


def _eg_stage(
    kernels: list[np.ndarray],
    lam: float,
    value_and_grad: Callable,
    cfg: PenaltyConfig,
) -> tuple[list[np.ndarray], list[int], list[str], int]:
    """Run one penalty stage for every start on the kernels' leading axis.

    Each start keeps its own step size, stall count and stop flag, and
    leaves the active set when it stops: after PATIENCE accepted steps
    that each gain at most REL_TOL ("stall"), when its step falls below
    1e-9 ("step_floor"), or after `max_iter` iterations ("max_iter").
    The active starts' values, steps and stall counts are Python floats
    and ints, one per row, decided row by row with the scalar arithmetic
    of a lone start (IEEE doubles give numpy's bits). The arrays change
    only when rows do: a batch that all accepts takes the proposal as it
    is, one that all rejects keeps its arrays, a mixed one selects row by
    row into new arrays, and stopped starts leave by one fancy index. The
    caller's kernels are never written. Returns the kernels, the
    iterations each start used, its stop reason, and the number of
    value-and-grad calls the stage made.
    """
    n = len(kernels[0])
    out = [np.empty_like(k) for k in kernels]
    used = [cfg.max_iter] * n
    stops = ["max_iter"] * n
    rows = list(range(n))
    values, grads = value_and_grad(kernels, lam)
    values = values.tolist()
    calls = 1
    steps = [STEP_SIZE] * n
    stalls = [0] * n
    for it in range(1, cfg.max_iter + 1):
        step = np.array(steps)
        proposal = [_eg_step(k, g, step) for k, g in zip(kernels, grads)]
        new_values, new_grads = value_and_grad(proposal, lam)
        calls += 1
        accept, keep, done = [], [], []
        for i, (old, new) in enumerate(zip(values, new_values.tolist())):
            ok = new <= old
            accept.append(ok)
            if ok:
                stalls[i] = stalls[i] + 1 if old - new <= REL_TOL * (1.0 + abs(new)) else 0
                values[i] = new
                steps[i] = min(steps[i] * 1.25, 64.0)
                stop = "stall" if stalls[i] >= PATIENCE else None
            else:
                steps[i] *= 0.5
                stop = "step_floor" if steps[i] < 1e-9 else None
            if stop:
                stops[rows[i]], used[rows[i]] = stop, it
                done.append(i)
            else:
                keep.append(i)
        if all(accept):
            kernels, grads = proposal, new_grads
        elif any(accept):
            mask = np.array(accept)
            kernels = [np.where(_per_start(mask, k.ndim), p, k)
                       for p, k in zip(proposal, kernels)]
            grads = [np.where(_per_start(mask, g.ndim), h, g) for h, g in zip(new_grads, grads)]
        if not done:
            continue
        for o, k in zip(out, kernels):
            o[[rows[i] for i in done]] = k[done]
        if not keep:
            return out, used, stops, calls
        rows, values, steps, stalls = ([a[i] for i in keep] for a in (rows, values, steps, stalls))
        kernels = [k[keep] for k in kernels]
        grads = [g[keep] for g in grads]
    for o, k in zip(out, kernels):
        o[rows] = k
    return out, used, stops, calls


def penalized_minimize(
    seeded_starts: Sequence[tuple[str, list[np.ndarray]]],
    exact_candidates: Sequence[tuple[str, list[np.ndarray]]],
    value_and_grad: Callable,
    evaluate: Callable,
    cfg: PenaltyConfig,
) -> PenaltyOutcome:
    """Optimize from every start, add exact candidates, reduce deterministically.

    All starts descend together: `value_and_grad(kernels, lam) -> (penalized
    values, gradients)` takes and returns arrays with one row per start on
    the leading axis, and stages run in schedule order for all of them.
    `evaluate(kernels) -> (objectives, residuals)` in bits scores a stack
    the same way, one candidate per row, each as it would score alone. It
    is called twice: once for the exact candidates (at least one), scored
    as given without smoothing or optimization, and once for the finished
    starts, if any.
    """
    candidates: list[Candidate] = []

    def score(labelled, kernels, used, stops):
        objectives, residuals = (a.tolist() for a in evaluate(kernels))
        for i, (label, _) in enumerate(labelled):
            candidates.append(Candidate(objectives[i], residuals[i], tuple(k[i] for k in kernels),
                                        label, len(candidates), used[i],
                                        tuple(s[i] for s in stops)))

    stacked = [np.stack(ks) for ks in zip(*(kernels for _, kernels in exact_candidates))]
    score(exact_candidates, stacked, [0] * len(exact_candidates), [])
    iterations = 0
    calls: list[int] = []
    if seeded_starts:
        kernels = [_normalize_slices(np.stack(ks))
                   for ks in zip(*(start for _, start in seeded_starts))]
        used = [0] * len(seeded_starts)
        stops = []
        for lam in cfg.penalty_schedule:
            kernels, stage_used, stage_stops, stage_calls = _eg_stage(
                kernels, lam, value_and_grad, cfg)
            used = [u + s for u, s in zip(used, stage_used)]
            calls.append(stage_calls)
            stops.append(stage_stops)
        score(seeded_starts, kernels, used, stops)
        iterations = sum(used)

    feasible = [c for c in candidates if c.residual <= FEASIBILITY_TOL]
    if not feasible:
        raise NoFeasiblePoint(f"no candidate reached residual <= {FEASIBILITY_TOL}")
    best = min(feasible, key=lambda c: (c.objective, c.order))
    return PenaltyOutcome(best, candidates, iterations, tuple(calls))


def descent_starts(
    seeds: Iterable[tuple[str, list[np.ndarray]]],
    shapes: Sequence[tuple[int, ...]],
    cfg: PenaltyConfig,
) -> tuple[list[tuple[str, list[np.ndarray]]], list[tuple[str, list[np.ndarray]]]]:
    """(starts, exact candidates) for `penalized_minimize` from labelled seed kernels.

    The exact candidates are the seeds in order, less each one whose
    kernels equal an earlier seed's byte for byte: a twin would descend to
    the same bits at a higher order, so it could never win. Each is also a
    start, mixed with the uniform kernel so multiplicative updates can
    move; `cfg.restarts` Dirichlet starts of the given shapes follow.
    """
    seen = set()
    exact = []
    for label, kernels in seeds:
        key = tuple((k.shape, k.tobytes()) for k in kernels)
        if key not in seen:
            seen.add(key)
            exact.append((label, kernels))
    starts = [(label, [_normalize_slices((1.0 - SMOOTHING) * k + SMOOTHING / k.shape[-1])
                       for k in kernels])
              for label, kernels in exact]
    return starts + dirichlet_starts(cfg.seed, cfg.restarts, shapes), exact


def dirichlet_starts(
    rng_seed: int, count: int, shapes: Sequence[tuple[int, ...]]
) -> list[tuple[str, list[np.ndarray]]]:
    """Seeded Dirichlet(1) random kernel initializations, one rng per restart.

    Raises ValueError for a negative count.
    """
    if count < 0:
        raise ValueError(f"restarts must be at least 0, got {count}")
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
