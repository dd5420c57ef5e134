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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import structure
from .errors import KernelInvalid
from .optim import (FEASIBILITY_TOL, PenaltyConfig, PenaltyOutcome, descent_starts, fixed_xy,
                    penalized_information, penalized_minimize, renormalize)
from .pmf import (
    FiniteAlphabet,
    JointPMF,
    TensorPMF,
    conditional_mutual_information,
    mutual_information,
)

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
            raise KernelInvalid(
                f"w_size={self.w_size} exceeds the support bound |X||Y|={k.shape[0] * k.shape[1]}"
            )
        if np.any(k < 0):
            raise KernelInvalid("kernel has negative entries")
        sums = k.sum(axis=2)
        if np.max(np.abs(sums - 1.0)) > 1e-9:
            raise KernelInvalid("kernel slices must sum to 1 within 1e-9")
        k = k.copy()
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    def to_json(self) -> dict:
        return {"w_size": self.w_size, "k": self.k.tolist()}


@dataclass(frozen=True)
class WynerResult:
    """Best feasible point found; `value` is an upper bound, not a certificate."""

    value: float
    residual: float
    kernel: AuxKernel
    restarts_used: int
    iterations: int
    feasible: bool
    candidates: tuple[tuple[str, float, float], ...] = field(default=())
    # the descent itself, its traces filled only when asked for
    outcome: PenaltyOutcome | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "feasible": self.feasible,
            "provenance": "upper bound",
            "restarts_used": self.restarts_used,
            "iterations": self.iterations,
            "kernel": self.kernel.to_json(),
            "candidates": [
                {"label": lbl, "objective": o, "residual": r}
                for lbl, o, r in self.candidates
            ],
        }


def joint_tensor(pmf: JointPMF, kernel: AuxKernel) -> TensorPMF:
    """Joint law of (X, Y, W) under p(x, y) * k(w | x, y)."""
    if kernel.k.shape[:2] != pmf.shape:
        raise KernelInvalid(
            f"kernel source shape {kernel.k.shape[:2]} does not match pmf {pmf.shape}"
        )
    q = pmf.p[:, :, None] * kernel.k
    return TensorPMF(
        ("x", "y", "w"),
        (pmf.alphabet_x, pmf.alphabet_y, FiniteAlphabet.of_size(kernel.w_size, "w")),
        q,
    )


def wyner_objective(pmf: JointPMF, kernel: AuxKernel) -> tuple[float, float]:
    """(I(X,Y; W), I(X; Y | W)) in bits for one kernel."""
    t = joint_tensor(pmf, kernel)
    objective = mutual_information(t, ("x", "y"), "w")
    residual = conditional_mutual_information(t, "x", "y", "w")
    return objective, residual


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
    """One-hot kernel from a map (x, y) -> w."""
    nx, ny = pmf.shape
    k = np.zeros((nx, ny, w_size))
    for x in range(nx):
        for y in range(ny):
            k[x, y, int(w_of_xy[x, y])] = 1.0
    return k


def _seed_kernels(pmf: JointPMF, w_size: int) -> list[tuple[str, np.ndarray]]:
    nx, ny = pmf.shape
    seeds: list[tuple[str, np.ndarray]] = []
    if w_size >= nx * ny:
        pair_id = np.arange(nx * ny).reshape(nx, ny)
        seeds.append(("copy", deterministic_kernel(pmf, w_size, pair_id)))
    seeds.append(("constant", deterministic_kernel(pmf, w_size, np.zeros((nx, ny), dtype=int))))
    g1 = structure.minimal_sufficient_statistic(pmf, "x")
    if g1.num_classes <= w_size:
        w_of = np.tile(np.asarray(g1.class_of)[:, None], (1, ny))
        seeds.append(("suffstat-x", deterministic_kernel(pmf, w_size, w_of)))
    g2 = structure.minimal_sufficient_statistic(pmf, "y")
    if g2.num_classes <= w_size:
        w_of = np.tile(np.asarray(g2.class_of)[None, :], (nx, 1))
        seeds.append(("suffstat-y", deterministic_kernel(pmf, w_size, w_of)))
    return seeds


def wyner_minimize(
    pmf: JointPMF,
    config: PenaltyConfig = WYNER_CONFIG,
    *,
    w_size: int | None = None,
    extra_kernels: Sequence[tuple[str, np.ndarray]] = (),
    keep_traces: bool = False,
) -> WynerResult:
    """Penalty-method upper bound on the splitting rate over |W| = `w_size`,
    by default |X||Y|.

    Mandatory start points: the pair-copy kernel, the constant kernel, the
    kernels induced by both minimal sufficient statistics, and any caller
    supplied kernels (for instance chain-induced ones). Each is evaluated
    exactly as a candidate and also used, slightly smoothed, as a start;
    a kernel equal to an earlier one, byte for byte, is skipped.
    `keep_traces` records the descent's value traces in `outcome`.
    """
    nx, ny = pmf.shape
    w_size = w_size if w_size is not None else nx * ny
    if w_size < 1 or w_size > nx * ny:
        raise KernelInvalid(f"w_size must lie in [1, |X||Y|] = [1, {nx * ny}], got {w_size}")

    seeds = [(label, [k]) for label, k in _seed_kernels(pmf, w_size)]
    for label, k in extra_kernels:
        k = np.asarray(k, dtype=float)
        if k.shape == (nx, ny, w_size):
            seeds.append((label, [k]))
    starts, exact = descent_starts(seeds, [(nx, ny, w_size)], config)
    vag = _value_and_grad_factory(pmf.p)

    def evaluate(kernels):
        return wyner_objective(pmf, AuxKernel(w_size, renormalize(kernels[0])))

    outcome = penalized_minimize(starts, exact, vag, evaluate, config, keep_traces=keep_traces)
    best = outcome.best
    return WynerResult(
        value=best.objective,
        residual=best.residual,
        kernel=AuxKernel(w_size, renormalize(best.kernels[0])),
        restarts_used=len(starts),
        iterations=outcome.iterations,
        feasible=best.residual <= FEASIBILITY_TOL,
        candidates=tuple((c.label, c.objective, c.residual) for c in outcome.candidates),
        outcome=outcome,
    )

