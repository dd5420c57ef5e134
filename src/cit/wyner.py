"""Upper bounds on the minimum rate of a variable splitting the two sources.

The target quantity is min I(X,Y; W) over auxiliary variables W with
X - W - Y and |W| <= |X||Y|. The feasible set is nonconvex, so the
minimizer below reports an upper bound: a penalty method over the
conditional tables P(W | X=x, Y=y), one simplex per source pair, with
multiplicative updates, an increasing penalty on I(X; Y | W), seeded
deterministic start points, and Dirichlet random restarts. A candidate is
feasible when its conditional-dependence residual is at most
`optim.FEASIBILITY_TOL` bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import structure
from .errors import KernelInvalid
from .optim import (FEASIBILITY_TOL, PenaltyConfig, descent_starts, fixed_xy,
                    penalized_information, penalized_minimize, renormalize)
from .pmf import (JointPMF, check_law_budget, entry_fault, frozen_copies, normalized,
                  normalized_each, objective_residual, objective_residuals, one_hot,
                  slices_sum_to_one)

WYNER_CONFIG = PenaltyConfig(restarts=32, max_iter=5000)


@dataclass(frozen=True)
class AuxKernel:
    """Conditional table P(W=w | X=x, Y=y); one point of the search space."""

    w_size: int
    k: np.ndarray  # shape (|X|, |Y|, w_size)

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.ndim != 3 or k.shape[2] != self.w_size:
            raise KernelInvalid(f"kernel shape {k.shape} does not end in w_size={self.w_size}")
        if self.w_size > k.shape[0] * k.shape[1]:
            raise KernelInvalid(f"w_size={self.w_size} exceeds the support bound "
                                f"|X||Y|={k.shape[0] * k.shape[1]}")
        if fault := entry_fault(k):
            raise KernelInvalid(f"kernel has {fault} entries")
        if not slices_sum_to_one(k):
            raise KernelInvalid("kernel slices must sum to 1 within 1e-9")
        object.__setattr__(self, "k", frozen_copies([k])[0])

    def to_json(self) -> dict:
        return {"w_size": self.w_size, "k": self.k.tolist()}


@dataclass(frozen=True)
class WynerResult:
    """Best feasible point found; `value` is an upper bound, not a certificate."""

    value: float
    residual: float
    kernel: AuxKernel
    starts: int  # every descended start: the seeded ones, then the restarts
    iterations: int
    feasible: bool
    candidates: tuple[tuple[str, float, float], ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "feasible": self.feasible,
            "provenance": "upper bound",
            "starts": self.starts,
            "iterations": self.iterations,
            "kernel": self.kernel.to_json(),
            "candidates": [
                {"label": lbl, "objective": o, "residual": r}
                for lbl, o, r in self.candidates
            ],
        }


def wyner_objective(pmf: JointPMF, kernel: AuxKernel) -> tuple[float, float]:
    """(I(X,Y; W), I(X; Y | W)) in bits for one kernel, scored on the
    normalized law p(x, y) * k(w | x, y)."""
    if kernel.k.shape[:2] != pmf.shape:
        raise KernelInvalid(
            f"kernel source shape {kernel.k.shape[:2]} does not match pmf {pmf.shape}"
        )
    return objective_residual(normalized(pmf.p[:, :, None] * kernel.k))


def _value_and_grad_factory(p: np.ndarray):
    """Penalized values and per-entry gradients for the update rule, for a
    batch of kernels on the leading axis.

    The gradient is `optim.penalized_information`'s log-derivative with
    H(X,Y) and log2 p taken once from p, zero on the pairs p leaves out.
    """
    p3 = p[:, :, None]
    xy = fixed_xy(p)
    support = p3 > 0
    full = bool(support.all())

    def value_and_grad(kernels, lam):
        (k,) = kernels
        values, dlog = penalized_information(p3 * k, lam, xy)
        return values, [dlog if full else np.where(support, dlog, 0.0)]

    return value_and_grad


def deterministic_kernel(pmf: JointPMF, w_size: int, w_of_xy: np.ndarray) -> np.ndarray:
    """One-hot kernel from a map (x, y) -> w, broadcast to the pmf's shape."""
    return one_hot(np.broadcast_to(w_of_xy, pmf.shape), w_size)


def _seed_maps(pmf: JointPMF, w_size: int) -> list[tuple[str, np.ndarray]]:
    nx, ny = pmf.shape
    maps: list[tuple[str, np.ndarray]] = []
    if w_size >= nx * ny:
        maps.append(("copy", np.arange(nx * ny).reshape(nx, ny)))
    maps.append(("constant", np.zeros((), dtype=int)))
    g1 = structure.minimal_sufficient_statistic(pmf, "x")
    if g1.num_classes <= w_size:
        maps.append(("suffstat-x", np.asarray(g1.class_of)[:, None]))
    g2 = structure.minimal_sufficient_statistic(pmf, "y")
    if g2.num_classes <= w_size:
        maps.append(("suffstat-y", np.asarray(g2.class_of)))
    return maps


def wyner_minimize(
    pmf: JointPMF,
    config: PenaltyConfig = WYNER_CONFIG,
    *,
    w_size: int | None = None,
    extra_kernels: Sequence[tuple[str, np.ndarray]] = (),
) -> WynerResult:
    """Penalty-method upper bound on the splitting rate over |W| = `w_size`,
    by default |X||Y|.

    Mandatory start points: the pair-copy kernel, the constant kernel, the
    kernels induced by both minimal sufficient statistics, and caller
    supplied kernels (say chain-induced ones) of shape (|X|, |Y|, `w_size`),
    no negative or NaN entry and slices of positive finite mass, or
    KernelInvalid is raised. Each is scored exactly as a candidate and also
    a start, slightly smoothed; a byte-for-byte twin of an earlier one is skipped.
    The stack of one law per seed and restart is held to the size budget first.
    """
    nx, ny = pmf.shape
    w_size = w_size if w_size is not None else nx * ny
    if w_size < 1 or w_size > nx * ny:
        raise KernelInvalid(f"w_size must lie in [1, |X||Y|] = [1, {nx * ny}], got {w_size}")

    shape = (nx, ny, w_size)
    maps = _seed_maps(pmf, w_size)
    count = len(maps) + len(extra_kernels) + config.restarts
    check_law_budget(count * math.prod(shape), f"a descent of {count} starts")
    seeds = [(label, [deterministic_kernel(pmf, w_size, w_of)]) for label, w_of in maps]
    for label, k in extra_kernels:
        k = np.asarray(k, dtype=float)
        if k.shape != shape:
            raise KernelInvalid(f"seed kernel {label!r} has shape {k.shape}, not {shape}")
        if fault := entry_fault(k):
            raise KernelInvalid(f"seed kernel {label!r} has {fault} entries")
        sums = k.sum(axis=2)
        if not 0.0 < sums.min() <= sums.max() < math.inf:  # renormalize divides by each
            raise KernelInvalid(f"seed kernel {label!r} has a slice of zero or infinite mass")
        seeds.append((label, [k]))
    starts, exact = descent_starts(seeds, [shape], config)
    vag = _value_and_grad_factory(pmf.p)

    def evaluate(kernels):
        (k,) = kernels
        return objective_residuals(normalized_each(pmf.p[None, :, :, None] * renormalize(k)))

    outcome = penalized_minimize(starts, exact, vag, evaluate, config)
    best = outcome.best
    return WynerResult(
        value=best.objective,
        residual=best.residual,
        kernel=AuxKernel(w_size, renormalize(best.kernels[0])),
        starts=len(starts),
        iterations=outcome.iterations,
        feasible=best.residual <= FEASIBILITY_TOL,
        candidates=tuple((c.label, c.objective, c.residual) for c in outcome.candidates),
    )

