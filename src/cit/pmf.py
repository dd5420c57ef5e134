"""Exact arithmetic for finite joint distributions.

Everything downstream (sufficient statistics, common-information bounds,
protocol identities) reduces to entropy functionals of small dense tensors,
so the representation is deliberately simple: labelled axes, a dense
nonnegative array summing to one, and base-2 entropies with 0*log(0) = 0.
All reported quantities are in bits.

Tolerances: input mass may differ from 1 by at most 1e-6 and is then
renormalized exactly; internal identities are expected to hold to 1e-9;
tiny negative values of provably nonnegative quantities are clamped at 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    EmptyMatrix,
    NegativeMass,
    NotNormalized,
    OverlappingAxes,
    SizeBudgetExceeded,
    UnknownAxis,
)

NORMALIZATION_TOL = 1e-6
IDENTITY_TOL = 1e-9
LAW_BUDGET = 2 ** 22  # most cells of a dense law, or a stack of laws, built from user input

AxisSpec = "str | Iterable[str]"  # axis selectors: one name or an iterable of names


@dataclass(frozen=True)
class FiniteAlphabet:
    """An ordered set of distinct symbol labels; order fixes the index map."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) < 1:
            raise EmptyMatrix("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"alphabet labels must be unique, got {symbols}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @staticmethod
    def of_size(n: int, prefix: str = "") -> "FiniteAlphabet":
        return FiniteAlphabet(tuple(f"{prefix}{i}" for i in range(n)))


def frozen_copies(arrays) -> tuple[np.ndarray, ...]:
    """Read-only copies, so a frozen dataclass cannot be changed through them."""
    out = tuple(a.copy() for a in arrays)
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class JointPMF:
    """Validated joint distribution of two finite sources.

    Rows index the first source, columns the second. Construct through
    :func:`validate_pmf` (or the JSON loaders), which enforces the contract.
    """

    alphabet_x: FiniteAlphabet
    alphabet_y: FiniteAlphabet
    p: np.ndarray
    zero_x_symbols: tuple[str, ...] = field(default=())
    zero_y_symbols: tuple[str, ...] = field(default=())

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape

    @property
    def marginal_x(self) -> np.ndarray:
        return self.p.sum(axis=1)

    @property
    def marginal_y(self) -> np.ndarray:
        return self.p.sum(axis=0)

    def conditional_rows(self, side: str = "x") -> np.ndarray:
        """P(other | symbol) per symbol; zero-mass symbols yield zero rows."""
        if side == "x":
            mass = self.marginal_x
            table = self.p
        elif side == "y":
            mass = self.marginal_y
            table = self.p.T
        else:
            raise ValueError("side must be 'x' or 'y'")
        out = np.zeros_like(table)
        pos = mass > 0
        out[pos] = table[pos] / mass[pos, None]
        return out

    def to_tensor(self) -> "TensorPMF":
        """The same law as a tensor with axes "x" and "y"."""
        return TensorPMF(
            names=("x", "y"),
            alphabets=(self.alphabet_x, self.alphabet_y),
            p=self.p,
        )

    def to_json(self) -> dict:
        return {
            "x": list(self.alphabet_x.symbols),
            "y": list(self.alphabet_y.symbols),
            "p": self.p.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "JointPMF":
        return validate_pmf(obj["p"], obj["x"], obj["y"])


def check_law_budget(cells: int, what: str) -> None:
    """Raise SizeBudgetExceeded, naming `what`, if `cells` cells are over LAW_BUDGET."""
    if cells > LAW_BUDGET:
        raise SizeBudgetExceeded(f"{what} would hold {cells} cells (budget {LAW_BUDGET})")


def entry_fault(a: np.ndarray) -> str | None:
    """"negative" if an entry of `a` is below 0, else "NaN" if one is NaN (a NaN
    minimum fails the test too), else None; an infinite entry is left to the caller's sums."""
    return None if a.min(initial=0.0) >= 0.0 else "negative" if (a < 0).any() else "NaN"


def slices_sum_to_one(k: np.ndarray) -> bool:
    """Whether every slice of `k` along its last axis sums to 1 within 1e-9."""
    sums = k.sum(axis=-1)  # the largest |sum - 1| is at the largest or the smallest sum
    return sums.max() - 1.0 <= 1e-9 and 1.0 - sums.min() <= 1e-9


def normalized(p: np.ndarray) -> np.ndarray:
    """`p` divided by its total, once it passes the checks every law passes:
    no negative or NaN entry, some mass, and a total within 1e-6 of 1."""
    if (fault := entry_fault(p)) == "negative":
        raise NegativeMass(f"negative entries at {np.argwhere(p < 0).tolist()}")
    if fault:
        raise ValueError("probability entries must be finite")
    return _divided(p, float(p.sum()))


def _divided(p: np.ndarray, total: float) -> np.ndarray:
    """`p / total`, once the total is some mass within 1e-6 of 1."""
    if total == 0.0:
        raise EmptyMatrix("array carries no mass")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"total mass {total} differs from 1 by more than {NORMALIZATION_TOL}")
    return p / total


def normalized_each(q: np.ndarray) -> np.ndarray:
    """`normalized` of each law on `q`'s leading axis, bit for bit: each law
    divided by its own total. When a law may fail a check, the laws are
    checked one by one, so the first failing law raises its own error."""
    totals = q.reshape(len(q), -1).sum(axis=1)
    # the largest |total - 1| is at the largest or the smallest total
    if not (entry_fault(q) is None and totals.max() - 1.0 <= NORMALIZATION_TOL
            and 1.0 - totals.min() <= NORMALIZATION_TOL):
        for law in q:
            normalized(law)
    return q / totals.reshape((-1,) + (1,) * (q.ndim - 1))


@lru_cache(maxsize=64)
def _index_alphabet(size: int) -> FiniteAlphabet:
    """The default labels "0", "1", ...: one shared alphabet per size."""
    return FiniteAlphabet(tuple(str(i) for i in range(size)))


def validate_pmf(
    raw_matrix: Sequence[Sequence[float]],
    labels_x: Sequence[str] | None = None,
    labels_y: Sequence[str] | None = None,
) -> JointPMF:
    """Validate and normalize a raw probability matrix.

    Negative entries are rejected; a total differing from 1 by more than
    1e-6 is rejected; otherwise the matrix is renormalized exactly. Zero
    rows/columns are retained and reported in the diagnostics fields.
    """
    # C order, so that every sum over `p` adds in one order whatever the input's layout
    p = np.asarray(raw_matrix, dtype=float, order="C")
    if p.ndim != 2 or p.size == 0:
        raise EmptyMatrix(f"expected a nonempty 2-d matrix, got shape {p.shape}")
    low, high = p.min(), p.max()
    if not -math.inf < low <= high < math.inf:  # a NaN fails every comparison
        raise ValueError("probability entries must be finite")
    if low < 0.0:
        normalized(p)  # raises NegativeMass, naming the cells
    p = _divided(p, float(p.sum()))
    ax = _index_alphabet(p.shape[0]) if labels_x is None else FiniteAlphabet(tuple(labels_x))
    ay = _index_alphabet(p.shape[1]) if labels_y is None else FiniteAlphabet(tuple(labels_y))
    if (ax.size, ay.size) != p.shape:
        raise ValueError(f"label counts {(ax.size, ay.size)} do not match matrix shape {p.shape}")
    zero_x = zero_y = ()
    if low == 0.0:  # only a zero cell can leave a row or a column without mass
        zero_x = tuple(s for s, m in zip(ax.symbols, p.sum(axis=1).tolist()) if m == 0.0)
        zero_y = tuple(s for s, m in zip(ay.symbols, p.sum(axis=0).tolist()) if m == 0.0)
    p.setflags(write=False)
    return JointPMF(ax, ay, p, zero_x, zero_y)


def load_pmf(path: str) -> JointPMF:
    """Read a pmf from JSON: {"x": [...], "y": [...], "p": [[...], ...]}."""
    with open(path) as fh:
        return JointPMF.from_json(json.load(fh))


def save_pmf(pmf: JointPMF, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(pmf.to_json(), fh, indent=2)


@dataclass(frozen=True)
class TensorPMF:
    """Joint distribution over two or more named finite axes."""

    names: tuple[str, ...]
    alphabets: tuple[FiniteAlphabet, ...]
    p: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        alphabets = tuple(self.alphabets)
        p = np.asarray(self.p, dtype=float)
        if len(names) < 2:
            raise ValueError("a TensorPMF needs at least two axes")
        if len(set(names)) != len(names):
            raise ValueError(f"axis names must be unique, got {names}")
        if len(names) != len(alphabets) or p.ndim != len(names):
            raise ValueError("names, alphabets and tensor rank must agree")
        for n, a, s in zip(names, alphabets, p.shape):
            if a.size != s:
                raise ValueError(f"axis {n!r}: alphabet size {a.size} != dim {s}")
        p = normalized(p)
        p.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "p", p)

    @property
    def arity(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownAxis(f"axis {name!r} not in {self.names}") from None

    def axes(self, subset: AxisSpec) -> tuple[int, ...]:
        if isinstance(subset, str):
            subset = (subset,)
        idx = tuple(self.axis(n) for n in subset)
        if len(set(idx)) != len(idx):
            raise OverlappingAxes(f"repeated axis in {tuple(subset)}")
        return idx

    def marginal_array(self, subset: AxisSpec) -> np.ndarray:
        """Dense marginal on `subset`, axes ordered as in the tensor."""
        keep = sorted(self.axes(subset))
        drop = tuple(i for i in range(self.arity) if i not in keep)
        return self.p.sum(axis=drop) if drop else self.p

    def with_function_axis(self, source_axis: str, class_of: Sequence[int], name: str) -> "TensorPMF":
        """Append a deterministic axis computed symbolwise from `source_axis`."""
        src = self.axis(source_axis)
        class_of = np.asarray(class_of, dtype=int)
        if class_of.shape != (self.p.shape[src],):
            raise ValueError("class map length must match the source axis size")
        n_cls = int(class_of.max()) + 1
        ind = one_hot(class_of, n_cls)
        shape = [1] * self.arity + [n_cls]
        shape[src] = self.p.shape[src]
        new_p = self.p[..., None] * ind.reshape(shape)
        return TensorPMF(self.names + (name,), self.alphabets + (FiniteAlphabet.of_size(n_cls),),
                         new_p)


def one_hot(table: np.ndarray, size: int) -> np.ndarray:
    """Indicator array of shape `table.shape + (size,)`: 1 at [i..., v]
    exactly where `table[i...] == v`, 0 elsewhere."""
    table = np.asarray(table, dtype=int)
    out = np.zeros(table.shape + (size,))
    out[(*np.indices(table.shape), table)] = 1.0
    return out


def plogp_sum(arr: np.ndarray) -> float:
    """Sum of p log2 p over the positive entries of `arr`: minus an entropy."""
    pos = arr[arr > 0]
    return float((pos * np.log2(pos)).sum())


def plogp_rows(*blocks: np.ndarray) -> np.ndarray:
    """`plogp_sum` of each row of each 2-d block, bit for bit: one result row
    per block, one column per row (the blocks share their row count).

    The positives of all rows are taken and logged at once. Each row's run
    is then summed on its own: the runs of one length as the rows of one
    2-d array, whose row sums numpy takes pairwise, as `plogp_sum` sums a
    run. `np.add.reduceat` would add the runs in another order. Blocks of
    one row are each one run, which `plogp_sum` takes as it is."""
    if len(blocks[0]) == 1:
        return np.array([[plogp_sum(block)] for block in blocks])
    masks = [block > 0 for block in blocks]
    pos = np.concatenate([block[mask] for block, mask in zip(blocks, masks)])
    terms = pos * np.log2(pos)
    counts = np.concatenate([mask.sum(axis=1) for mask in masks])
    starts = np.cumsum(counts) - counts
    out = np.zeros(len(counts))
    for length in set(counts.tolist()) - {0}:
        runs = np.flatnonzero(counts == length)
        out[runs] = terms[starts[runs, None] + np.arange(length)].sum(axis=1)
    return out.reshape(len(blocks), -1)


def clamped(a: np.ndarray) -> np.ndarray:
    """`max(v, 0.0)` of each entry, as Python's `max` takes it: -0.0 and NaN stay."""
    return np.where(a < 0.0, 0.0, a)


def marginal_entropies(p: np.ndarray, *drops: tuple[int, ...]) -> np.ndarray:
    """Entropy in bits of each law on `p`'s leading axis after summing out
    the axes `drop` of the law (ascending; none leaves the law itself), one
    result row per drop. Summing out the same axes of a stack adds each
    law's cells in the order one law's sum adds them, so a law scores the
    same bits in any stack, a stack of one included. Every entropy below is
    a sum of these."""
    return -plogp_rows(*(
        (p.sum(axis=tuple(a + 1 for a in drop)) if drop else p).reshape(len(p), -1)
        for drop in drops))


def objective_residual(q: np.ndarray) -> tuple[float, float]:
    """(I(X,Y; U), I(X; Y | U)) in bits, each clamped at 0, of a dense law
    `q` whose axes are X, Y, then U's parts. Five entropies give both, taken
    and summed as the named functions below take them, so a normalized law
    scores bit for bit as `mutual_information` and its conditional would."""
    objective, residual = objective_residuals(q[None])
    return float(objective[0]), float(residual[0])


def objective_residuals(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`objective_residual` of each law on `q`'s leading axis."""
    h_q, h_xy, h_u, h_xu, h_yu = marginal_entropies(
        q, (), tuple(range(2, q.ndim - 1)), (0, 1), (1,), (0,))
    return clamped(h_xy + h_u - h_q), clamped(h_xu + h_yu - h_u - h_q)


def _h(t: TensorPMF, keep: tuple[int, ...]) -> float:
    drop = tuple(i for i in range(t.arity) if i not in keep)
    return float(marginal_entropies(t.p[None], drop)[0, 0])


def entropy(t: TensorPMF, subset: AxisSpec) -> float:
    """Shannon entropy in bits of the marginal on `subset`."""
    idx = t.axes(subset)
    if not idx:
        raise UnknownAxis("entropy needs a nonempty axis subset")
    return _h(t, idx) + 0.0


def conditional_entropy(t: TensorPMF, target: AxisSpec, given: AxisSpec = ()) -> float:
    """H(target | given) = H(target, given) - H(given), clamped at 0."""
    ti = t.axes(target)
    gi = t.axes(given)
    if set(ti) & set(gi):
        raise OverlappingAxes("target and conditioning axes overlap")
    if not ti:
        raise UnknownAxis("conditional_entropy needs a nonempty target")
    joint = _h(t, ti + gi)
    if not gi:
        return joint
    return max(joint - _h(t, gi), 0.0)


def mutual_information(t: TensorPMF, axes_a: AxisSpec, axes_b: AxisSpec) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B) in bits, clamped at 0."""
    ai = t.axes(axes_a)
    bi = t.axes(axes_b)
    if set(ai) & set(bi):
        raise OverlappingAxes("the two axis groups overlap")
    if not ai or not bi:
        raise UnknownAxis("mutual_information needs two nonempty groups")
    return max(_h(t, ai) + _h(t, bi) - _h(t, ai + bi), 0.0)


def source_information(pmf: JointPMF) -> float:
    """I(X;Y) in bits: `mutual_information(pmf.to_tensor(), "x", "y")`, bit
    for bit, without building the tensor."""
    return float(source_informations([pmf])[0])


def source_informations(pmfs: Sequence[JointPMF]) -> np.ndarray:
    """`source_information` of each of `pmfs`, sources of one shape."""
    h_x, h_y, h_xy = marginal_entropies(normalized_each(np.stack([pmf.p for pmf in pmfs])),
                                        (1,), (0,), ())
    return clamped(h_x + h_y - h_xy)


def conditional_mutual_information(
    t: TensorPMF, axes_a: AxisSpec, axes_b: AxisSpec, given: AxisSpec = ()
) -> float:
    """I(A; B | C) = H(A,C) + H(B,C) - H(C) - H(A,B,C), clamped at 0."""
    ai = t.axes(axes_a)
    bi = t.axes(axes_b)
    ci = t.axes(given)
    if len(set(ai + bi + ci)) < len(ai + bi + ci):  # each group alone has no repeats
        raise OverlappingAxes("axis groups must be pairwise disjoint")
    if not ai or not bi:
        raise UnknownAxis("conditional_mutual_information needs two nonempty groups")
    if not ci:
        return mutual_information(t, axes_a, axes_b)
    return max(_h(t, ai + ci) + _h(t, bi + ci) - _h(t, ci) - _h(t, ai + bi + ci), 0.0)


def binary_entropy(p: float) -> float:
    """h(p) in bits with h(0) = h(1) = 0.

    The complement is canonicalized through max(p, 1-p) so that h(p) and
    h(1-p) evaluate bitwise identically in floating point.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p}")
    hi = max(p, 1.0 - p)
    lo = 1.0 - hi
    if lo == 0.0:
        return 0.0
    return float(-(lo * math.log2(lo) + hi * math.log2(hi)))
