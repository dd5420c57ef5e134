"""Exact combinatorial structure of a joint source.

Minimal sufficient statistics (the coarsest function of one source that
preserves the conditional law of the other), the maximal common function
of the two sources, the decomposition induced by a doubly Markov auxiliary
variable, and the minimum noninteractive communication rate for optimum-rate
key generation.

Zero-probability symbols are excluded from all equivalence arguments; each
gets a dedicated trailing class and is reported in `zero_mass_symbols`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMarginal, ExtractionFailure, MarkovViolation
from .pmf import (
    FiniteAlphabet,
    JointPMF,
    TensorPMF,
    conditional_mutual_information,
    plogp_sum,
    source_information,
)

ROW_TOL = 1e-9          # entrywise tolerance for conditional-row equality
MARKOV_TOL = 1e-9


@dataclass(frozen=True)
class Labeling:
    """A function on one alphabet, given as symbol -> class id.

    Class ids 0..num_classes-1 are each used at least once; classes holding
    only a zero-probability symbol are listed in `zero_mass_symbols`.
    """

    alphabet: FiniteAlphabet
    class_of: tuple[int, ...]
    num_classes: int
    zero_mass_symbols: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.class_of) != self.alphabet.size:
            raise ValueError("class map must cover every symbol")
        used = set(self.class_of)
        if used != set(range(self.num_classes)):
            raise ValueError("class ids must be 0..num_classes-1, each used")

    def classes(self) -> dict[str, int]:
        return dict(zip(self.alphabet.symbols, self.class_of))

    def class_masses(self, marginal: np.ndarray) -> np.ndarray:
        out = np.zeros(self.num_classes)
        np.add.at(out, np.asarray(self.class_of), np.asarray(marginal, dtype=float))
        return out

    def to_json(self) -> dict:
        return {"classes": self.classes()}

    @staticmethod
    def from_json(obj: dict, alphabet: FiniteAlphabet) -> "Labeling":
        classes = obj["classes"]
        class_of = tuple(int(classes[s]) for s in alphabet.symbols)
        return Labeling(alphabet, class_of, max(class_of) + 1)


def _group_rows(rows: np.ndarray, active: np.ndarray, tol: float) -> tuple[list[int], int]:
    """Group `active` rows into the connected components of entrywise
    equality within `tol`, numbered in order of first appearance.

    Rows chain: a and c share a class when a is within `tol` of b and b of c,
    so the classes do not depend on the order of the rows. Returns a
    full-length class vector (inactive rows get fresh trailing classes) and
    the number of active classes.
    """
    n = rows.shape[0]
    idx = np.flatnonzero(active)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, i in enumerate(idx):
        later = idx[a + 1:]
        for j in later[np.max(np.abs(rows[later] - rows[i]), axis=1) <= tol]:
            parent[find(int(j))] = find(int(i))
    class_of = [-1] * n
    ids: dict[int, int] = {}
    for i in idx:
        class_of[i] = ids.setdefault(find(int(i)), len(ids))
    next_id = len(ids)
    for i in range(n):
        if class_of[i] < 0:
            class_of[i] = next_id
            next_id += 1
    return class_of, len(ids)


def minimal_sufficient_statistic(pmf: JointPMF, side: str = "x") -> Labeling:
    """Coarsest labeling of `side` preserving the conditional law of the other.

    Two positive-probability symbols share a class exactly when their
    conditional rows are linked by a chain of rows, each agreeing with the
    next entrywise within 1e-9.
    """
    if side == "x":
        alphabet, mass = pmf.alphabet_x, pmf.marginal_x
    elif side == "y":
        alphabet, mass = pmf.alphabet_y, pmf.marginal_y
    else:
        raise ValueError("side must be 'x' or 'y'")
    rows = pmf.conditional_rows(side)
    active = mass > 0
    if not np.any(active):
        raise DegenerateMarginal(f"marginal on {side!r} carries no mass")
    class_of, _ = _group_rows(rows, active, ROW_TOL)
    zero = tuple(s for s, a in zip(alphabet.symbols, active) if not a)
    return Labeling(alphabet, tuple(class_of), max(class_of) + 1, zero)


def gk_common_function(pmf: JointPMF) -> tuple[Labeling, Labeling]:
    """Connected components of the bipartite support graph, on both sides.

    The two labelings agree almost surely and realize the maximal random
    variable computable exactly from either source alone.
    """
    nx, ny = pmf.shape
    support = pmf.p > 0
    comp_x = [-1] * nx
    comp_y = [-1] * ny
    n_comp = 0
    for start in range(nx):
        if comp_x[start] >= 0 or not support[start].any():
            continue
        stack_x = [start]
        stack_y: list[int] = []
        comp_x[start] = n_comp
        while stack_x or stack_y:
            if stack_x:
                x = stack_x.pop()
                for y in np.nonzero(support[x])[0]:
                    if comp_y[y] < 0:
                        comp_y[y] = n_comp
                        stack_y.append(int(y))
            else:
                y = stack_y.pop()
                for x in np.nonzero(support[:, y])[0]:
                    if comp_x[x] < 0:
                        comp_x[x] = n_comp
                        stack_x.append(int(x))
        n_comp += 1

    def finish(comp: list[int], alphabet: FiniteAlphabet, mass: np.ndarray) -> Labeling:
        nxt = n_comp
        out = list(comp)
        for i in range(len(out)):
            if out[i] < 0:
                out[i] = nxt
                nxt += 1
        zero = tuple(s for s, m in zip(alphabet.symbols, mass) if m == 0.0)
        return Labeling(alphabet, tuple(out), nxt, zero)

    return (finish(comp_x, pmf.alphabet_x, pmf.marginal_x),
            finish(comp_y, pmf.alphabet_y, pmf.marginal_y))


def gk_ci(pmf: JointPMF) -> float:
    """Entropy in bits of the common-component distribution."""
    lab_x, _ = gk_common_function(pmf)
    return -plogp_sum(lab_x.class_masses(pmf.marginal_x)) + 0.0


def double_markov_extract(t: TensorPMF) -> tuple[Labeling, Labeling]:
    """Extract the common refinement (f on U, g on X) of a doubly Markov
    triple, the axes of `t` named "u", "x" and "y" in any order.

    Requires both chains U - X - Y and X - U - Y to hold within 1e-9. The
    construction takes g as the minimal sufficient statistic of X for Y and
    reads f off the almost-sure equality f(U) = g(X); postconditions
    Pr[f(U) != g(X)] <= 1e-9 and I(X; Y | g(X)) <= 1e-6 are verified.
    """
    res_uy = conditional_mutual_information(t, "u", "y", "x")
    res_xy = conditional_mutual_information(t, "x", "y", "u")
    if res_uy > MARKOV_TOL or res_xy > MARKOV_TOL:
        raise MarkovViolation(
            f"chain residuals I(U;Y|X)={res_uy:.3g}, I(X;Y|U)={res_xy:.3g} exceed {MARKOV_TOL}"
        )
    p_xy = t.marginal_array(("x", "y"))
    if t.axis("x") > t.axis("y"):
        p_xy = p_xy.T
    ax = t.alphabets[t.axis("x")]
    ay = t.alphabets[t.axis("y")]
    pmf_xy = JointPMF(ax, ay, p_xy / p_xy.sum())
    g = minimal_sufficient_statistic(pmf_xy, "x")

    p_ux = t.marginal_array(("u", "x"))
    if t.axis("u") > t.axis("x"):
        p_ux = p_ux.T
    au = t.alphabets[t.axis("u")]
    f_of: list[int] = [-1] * au.size
    for u in range(au.size):
        linked = np.nonzero(p_ux[u] > 0)[0]
        if linked.size == 0:
            continue
        g_vals = {g.class_of[x] for x in linked}
        if len(g_vals) != 1:
            raise ExtractionFailure(
                f"u index {u} links to several g-classes {sorted(g_vals)}"
            )
        f_of[u] = g_vals.pop()
    nxt = g.num_classes
    zero_u = []
    for u in range(au.size):
        if f_of[u] < 0:
            f_of[u] = nxt
            nxt += 1
            zero_u.append(au.symbols[u])
    f = Labeling(au, tuple(f_of), nxt, tuple(zero_u))

    mismatch = float(sum(
        p_ux[u, x]
        for u in range(au.size)
        for x in range(ax.size)
        if p_ux[u, x] > 0 and f.class_of[u] != g.class_of[x]
    ))
    lifted = t.with_function_axis("x", g.class_of, "_g")
    res_g = conditional_mutual_information(lifted, "x", "y", "_g")
    if mismatch > MARKOV_TOL or res_g > 1e-6:
        raise ExtractionFailure(
            f"postconditions failed: Pr[f!=g]={mismatch:.3g}, I(X;Y|g)={res_g:.3g}"
        )
    return f, g


@dataclass(frozen=True)
class NoninteractiveRate:
    """min{H(g1*(X)), H(g2*(Y))} - I(X;Y) plus its ingredients, in bits."""

    r_ni: float
    h_g1: float
    h_g2: float
    mi: float

    def to_json(self) -> dict:
        return {"r_ni": self.r_ni, "h_g1": self.h_g1, "h_g2": self.h_g2, "mi": self.mi}


def labeling_entropy(labeling: Labeling, marginal: np.ndarray) -> float:
    return -plogp_sum(labeling.class_masses(marginal)) + 0.0


def noninteractive_rate(pmf: JointPMF) -> NoninteractiveRate:
    """Minimum one-shot communication rate for an optimum-rate key."""
    g1 = minimal_sufficient_statistic(pmf, "x")
    g2 = minimal_sufficient_statistic(pmf, "y")
    h1 = labeling_entropy(g1, pmf.marginal_x)
    h2 = labeling_entropy(g2, pmf.marginal_y)
    mi = source_information(pmf)
    return NoninteractiveRate(min(h1, h2) - mi, h1, h2, mi)
