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

from dataclasses import asdict, dataclass

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


def _components(n: int, links) -> list[int]:
    """A representative for each of `n` nodes once the node pairs `links`
    are merged: equal exactly for nodes that a chain of links connects
    (union-find)."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(int(j))] = find(int(i))
    return [find(i) for i in range(n)]


def _labeling(alphabet: FiniteAlphabet, keys, active, ids: dict) -> Labeling:
    """The labeling of `alphabet` whose active symbols share a class exactly
    when their keys agree. A key's class is `ids[key]`; a key not yet in
    `ids` is added under the next id, so new classes are numbered in order
    of first appearance. Each inactive symbol gets a fresh trailing class
    and is listed in `zero_mass_symbols`."""
    labels = iter([ids.setdefault(k, len(ids)) for k, a in zip(keys, active) if a])
    fresh = iter(range(len(ids), len(ids) + alphabet.size))
    class_of = tuple(next(labels) if a else next(fresh) for a in active)
    zero = tuple(s for s, a in zip(alphabet.symbols, active) if not a)
    return Labeling(alphabet, class_of, max(class_of) + 1, zero)


def minimal_sufficient_statistic(pmf: JointPMF, side: str = "x") -> Labeling:
    """Coarsest labeling of `side` preserving the conditional law of the other.

    Two positive-probability symbols share a class exactly when their
    conditional rows are linked by a chain of rows, each agreeing with the
    next entrywise within 1e-9.
    """
    rows = pmf.conditional_rows(side)  # raises ValueError for a side other than "x" or "y"
    alphabet, mass = ((pmf.alphabet_x, pmf.marginal_x) if side == "x"
                      else (pmf.alphabet_y, pmf.marginal_y))
    active = mass > 0
    if not np.any(active):
        raise DegenerateMarginal(f"marginal on {side!r} carries no mass")
    idx = np.flatnonzero(active)
    links = []
    for a, i in enumerate(idx):
        later = idx[a + 1:]
        links += [(i, j) for j in later[np.max(np.abs(rows[later] - rows[i]), axis=1) <= ROW_TOL]]
    return _labeling(alphabet, _components(len(rows), links), active, {})


def gk_common_function(pmf: JointPMF) -> tuple[Labeling, Labeling]:
    """Connected components of the bipartite support graph, on both sides.

    The two labelings agree almost surely and realize the maximal random
    variable computable exactly from either source alone. Components are
    numbered in order of their first X symbol.
    """
    nx, ny = pmf.shape
    support = pmf.p > 0
    comp = _components(nx + ny, ((x, nx + y) for x, y in np.argwhere(support)))
    ids: dict[int, int] = {}
    return (_labeling(pmf.alphabet_x, comp[:nx], support.any(axis=1), ids),
            _labeling(pmf.alphabet_y, comp[nx:], support.any(axis=0), ids))


def gk_ci(pmf: JointPMF) -> float:
    """Entropy in bits of the common-component distribution."""
    lab_x, _ = gk_common_function(pmf)
    return labeling_entropy(lab_x, pmf.marginal_x)


def double_markov_extract(t: TensorPMF) -> tuple[Labeling, Labeling]:
    """Extract the common refinement (f on U, g on X) of a doubly Markov
    triple, the axes of `t` named "u", "x" and "y" in any order.

    Requires both chains U - X - Y and X - U - Y to hold within 1e-9. The
    construction takes g as the minimal sufficient statistic of X for Y and
    reads f off the almost-sure equality f(U) = g(X); the postcondition
    I(X; Y | g(X)) <= 1e-6 is verified.
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
    keys = []
    for u, linked in enumerate(p_ux > 0):
        g_vals = {g.class_of[x] for x in np.flatnonzero(linked)}
        if len(g_vals) > 1:
            raise ExtractionFailure(
                f"u index {u} links to several g-classes {sorted(g_vals)}"
            )
        keys.append(g_vals.pop() if g_vals else None)
    # f(u) is the id of the g-class u links to; u's without mass follow g's
    # classes with mass, not g's own zero-mass classes
    g_ids = {c: c for c in range(g.num_classes - len(g.zero_mass_symbols))}
    f = _labeling(au, keys, [k is not None for k in keys], g_ids)

    lifted = t.with_function_axis("x", g.class_of, "_g")
    res_g = conditional_mutual_information(lifted, "x", "y", "_g")
    if res_g > 1e-6:
        raise ExtractionFailure(f"postcondition failed: I(X;Y|g)={res_g:.3g}")
    return f, g


@dataclass(frozen=True)
class NoninteractiveRate:
    """min{H(g1*(X)), H(g2*(Y))} - I(X;Y) plus its ingredients, in bits."""

    r_ni: float
    h_g1: float
    h_g2: float
    mi: float

    def to_json(self) -> dict:
        return asdict(self)


def labeling_entropy(labeling: Labeling, marginal: np.ndarray) -> float:
    """Entropy in bits of the class masses of `marginal`, clamped at 0."""
    return max(-plogp_sum(labeling.class_masses(marginal)), 0.0) + 0.0


def noninteractive_rate(pmf: JointPMF) -> NoninteractiveRate:
    """Minimum one-shot communication rate for an optimum-rate key."""
    g1 = minimal_sufficient_statistic(pmf, "x")
    g2 = minimal_sufficient_statistic(pmf, "y")
    h1 = labeling_entropy(g1, pmf.marginal_x)
    h2 = labeling_entropy(g2, pmf.marginal_y)
    mi = source_information(pmf)
    return NoninteractiveRate(min(h1, h2) - mi, h1, h2, mi)
