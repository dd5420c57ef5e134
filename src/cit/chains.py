"""Interactive auxiliary chains and the r-round common-information program.

A chain U_1, ..., U_r alternates speakers: round j is generated from the
speaking side's symbol and the prior chain values only, which builds the
round-causality Markov constraints directly into the joint law
p(x, y) * prod_j K_j(u_j | speaker_j, u^{j-1}). The target quantity is the
minimum of I(X,Y; U^r) over chains that additionally render X and Y
conditionally independent given U^r; the per-round cardinality ceilings
|U_j| <= |speaker_j| * prod_{i<j} |U_i| + 1 are enforced throughout.

Three routes are provided and are meant to be cross-checked:
  * exact one-round values through minimal sufficient statistics,
  * an exact search over deterministic chains: a recursion over the
    rectangles of the protocol tree, returning the smallest canonical
    encoding among the optima (single-threaded),
  * a penalty method over randomized chains (same engine as `wyner`).
Only the one-round and binary-symmetric values are exact; everything else
is an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import structure
from .errors import (
    BudgetExceeded,
    CitError,
    DeltaOutOfRange,
    LemmaViolation,
    NoFeasibleChain,
    NoFeasiblePoint,
    SizeBudgetExceeded,
)
from .optim import (FEASIBILITY_TOL, PenaltyConfig, descent_starts, penalized_information,
                    penalized_minimize, renormalize)
from .pmf import (
    FiniteAlphabet,
    JointPMF,
    TensorPMF,
    binary_entropy,
    check_law_budget,
    clamped,
    entry_fault,
    frozen_copies,
    marginal_entropies,
    normalized_each,
    objective_residual,
    objective_residuals,
    one_hot,
    plogp_sum,
    slices_sum_to_one,
    source_information,
)

DET_FEASIBILITY_TOL = 1e-9
PINNED_TOL = 1e-6          # bits of H(X|u) or H(Y|u) that still count as pinned
ATOM_DUST = 1e-12          # chain atoms this light are dropped from a Wyner seed
CONT_CONFIG = PenaltyConfig(restarts=8, max_iter=3000)


def check_initiator(initiator: str) -> None:
    """Raise ValueError unless `initiator` names a side, "x" or "y"."""
    if initiator not in ("x", "y"):
        raise ValueError(f"initiator must be 'x' or 'y', got {initiator!r}")


def speaker_of(round_index: int, initiator: str) -> str:
    """Side speaking in 1-based round `round_index`."""
    check_initiator(initiator)
    odd = round_index % 2 == 1
    return initiator if odd else ("y" if initiator == "x" else "x")


def speaker_size(round_index: int, initiator: str, x_size: int, y_size: int) -> int:
    """Alphabet size of the side speaking in 1-based round `round_index`."""
    return x_size if speaker_of(round_index, initiator) == "x" else y_size


def _check_p3(sizes: Sequence[int], parents: Sequence[int]) -> None:
    prod = 1
    for j, (s, parent) in enumerate(zip(sizes, parents)):
        bound = parent * prod + 1
        if s > bound:
            raise ValueError(
                f"round {j + 1}: |U|={s} exceeds the cardinality ceiling {bound}"
            )
        prod *= s


@dataclass(frozen=True)
class AuxiliaryChain:
    """Randomized chain: per round a table P(U_j | speaker symbol, U^{j-1})."""

    initiator: str
    kernels: tuple[np.ndarray, ...]

    def __post_init__(self):
        check_initiator(self.initiator)
        kernels = tuple(np.asarray(k, dtype=float) for k in self.kernels)
        if not kernels:
            raise ValueError("a chain needs at least one round")
        sizes = []
        parents = []
        for j, k in enumerate(kernels):
            if k.ndim != 2 + j:
                raise ValueError(f"round {j + 1} kernel must have {2 + j} axes, got {k.ndim}")
            if tuple(k.shape[1:-1]) != tuple(sizes):
                raise ValueError(f"round {j + 1} kernel shape {k.shape} inconsistent with prior sizes {sizes}")
            if fault := entry_fault(k):
                raise ValueError(f"round {j + 1} kernel has {fault} entries")
            if not slices_sum_to_one(k):
                raise ValueError(f"round {j + 1} kernel slices must sum to 1 within 1e-9")
            parents.append(k.shape[0])
            sizes.append(k.shape[-1])
        _check_p3(sizes, parents)
        object.__setattr__(self, "kernels", frozen_copies(kernels))

    @property
    def rounds(self) -> int:
        return len(self.kernels)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(k.shape[-1] for k in self.kernels)

    def to_json(self) -> dict:
        return {
            "kind": "randomized",
            "initiator": self.initiator,
            "sizes": list(self.sizes),
            "kernels": [k.tolist() for k in self.kernels],
        }


@dataclass(frozen=True)
class DeterministicChain:
    """Chain whose rounds are lookup tables (speaker symbol, u^{j-1}) -> u_j."""

    initiator: str
    sizes: tuple[int, ...]
    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        check_initiator(self.initiator)
        sizes = tuple(int(s) for s in self.sizes)
        tables = tuple(np.asarray(t, dtype=int) for t in self.tables)
        if len(sizes) != len(tables) or not tables:
            raise ValueError("need one table per round")
        parents = []
        for j, t in enumerate(tables):
            if t.ndim != 1 + j or tuple(t.shape[1:]) != sizes[:j]:
                raise ValueError(f"round {j + 1} table shape {t.shape} inconsistent")
            if t.size and (t.min() < 0 or t.max() >= sizes[j]):
                raise ValueError(f"round {j + 1} table values must lie in [0, {sizes[j]})")
            parents.append(t.shape[0])
        _check_p3(sizes, parents)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "tables", frozen_copies(tables))

    @property
    def rounds(self) -> int:
        return len(self.tables)

    @cached_property
    def kernels(self) -> tuple[np.ndarray, ...]:
        """Each round's table as a read-only one-hot kernel, as `AuxiliaryChain` holds them."""
        return frozen_copies(one_hot(t, s) for t, s in zip(self.tables, self.sizes))

    def as_auxiliary(self) -> AuxiliaryChain:
        return AuxiliaryChain(self.initiator, self.kernels)

    def to_json(self) -> dict:
        return {
            "kind": "deterministic",
            "initiator": self.initiator,
            "sizes": list(self.sizes),
            "tables": [t.tolist() for t in self.tables],
        }


def chain_from_json(obj: dict) -> "AuxiliaryChain | DeterministicChain":
    """The chain `to_json` wrote; a `kind` other than "deterministic" or
    "randomized", or none, raises ValueError naming it."""
    kind = obj.get("kind")
    if kind == "deterministic":
        sizes = tuple(int(s) for s in obj["sizes"])
        return DeterministicChain(obj["initiator"], sizes,
                                  tuple(np.asarray(t, dtype=int) for t in obj["tables"]))
    if kind == "randomized":
        return AuxiliaryChain(obj["initiator"],
                              tuple(np.asarray(k, dtype=float) for k in obj["kernels"]))
    raise ValueError(f"chain kind must be 'deterministic' or 'randomized', got {kind!r}")


@dataclass(frozen=True)
class ChainResult:
    """Scores of one chain; `per_round_terms` are the speaker-side
    conditional informations I(speaker; U_j | listener, U^{j-1})."""

    objective: float
    residual: float
    per_round_terms: tuple[float, ...]
    chain: "AuxiliaryChain | DeterministicChain"
    feasible: bool
    encoding: tuple | None = None
    candidates: tuple[tuple[str, float, float], ...] = field(default=())
    # deterministic search only: rectangles solved, one per (round, A, B),
    # and set partitions scored, the rebuild's included
    states: int | None = None
    moves: int | None = None

    def to_json(self) -> dict:
        return {
            "objective": self.objective,
            "residual": self.residual,
            "per_round_terms": list(self.per_round_terms),
            "feasible": self.feasible,
            "chain": self.chain.to_json(),
        }


def law_shape(pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain") -> tuple[int, ...]:
    """Shape of the dense joint law over (X, Y, U_1, ..., U_r), once it is
    within the size budget and each round's table covers its speaker's symbols."""
    nx, ny = pmf.shape
    shape = (nx, ny) + tuple(chain.sizes)
    check_law_budget(math.prod(shape), "joint tensor")
    for j, k in enumerate(chain.kernels, start=1):
        expected = speaker_size(j, chain.initiator, nx, ny)
        if k.shape[0] != expected:
            raise ValueError(f"round {j} speaks {speaker_of(j, chain.initiator)!r} but its table "
                             f"covers {k.shape[0]} symbols, not {expected}")
    return shape


def _joint_array(pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain") -> np.ndarray:
    """Dense joint law over (X, Y, U_1, ..., U_r)."""
    law_shape(pmf, chain)
    return _product_law(pmf.p, [k[None] for k in chain.kernels], chain.initiator)[0]


def _product_law(p: np.ndarray, kernels: Sequence[np.ndarray], initiator: str) -> np.ndarray:
    """p(x, y) * prod_j K_j(u_j | speaker_j, u^{j-1}) as a dense array, one
    law per start on the kernels' leading axis; `p` is one source matrix, or
    one per start on a leading axis of its own."""
    q = p.reshape((-1,) + p.shape[-2:])
    for j, k in enumerate(kernels, start=1):
        view = k[:, :, None] if speaker_of(j, initiator) == "x" else k[:, None, :]
        q = q[..., None] * view
    return q


def chain_tensor(pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain") -> TensorPMF:
    aux_sizes = chain.sizes
    q = _joint_array(pmf, chain)
    names = ("x", "y") + tuple(f"u{j}" for j in range(1, len(aux_sizes) + 1))
    alphabets = (pmf.alphabet_x, pmf.alphabet_y) + tuple(
        FiniteAlphabet.of_size(s, f"u{j}.") for j, s in enumerate(aux_sizes, start=1)
    )
    return TensorPMF(names, alphabets, q)


def chain_scores(pmfs: Sequence[JointPMF], chains: Sequence["AuxiliaryChain | DeterministicChain"]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, dependence residual and per-round terms (one row per case)
    of chains of one initiator and sizes on sources of one shape, scored as
    `chain_objective` scores each, bit for bit, on one stacked law."""
    first = chains[0]
    if any((c.initiator, c.sizes) != (first.initiator, first.sizes) for c in chains):
        raise ValueError("stacked chains need one initiator and round sizes")
    law_shape(pmfs[0], first)
    kernels = [np.stack(ks) for ks in zip(*(c.kernels for c in chains))]
    q = _product_law(np.stack([pmf.p for pmf in pmfs]), kernels, first.initiator)
    objective, residual = objective_residuals(q)
    p = normalized_each(q)  # axes case, X, Y, U_1, ..., U_r
    # round j's term I(speaker; U_j | listener, U^{j-1}) is H(X,Y,U^{j-1}) +
    # H(listener,U^j) - H(listener,U^{j-1}) - H(X,Y,U^j): axis s is the
    # speaker, axis j + 1 is U_j, and later[j] holds the rounds after j
    r = first.rounds
    later = [tuple(range(j + 2, r + 2)) for j in range(r + 1)]
    spoken = [(j, 0 if speaker_of(j, first.initiator) == "x" else 1) for j in range(1, r + 1)]
    # rows: H(X,Y,U^j) for j = 0..r, then H(listener,U^j), then H(listener,U^{j-1})
    h = marginal_entropies(p, *later, *((s,) + later[j] for j, s in spoken),
                           *((s, j + 1) + later[j] for j, s in spoken))
    terms = [clamped(h[j - 1] + h[r + j] - h[2 * r + j] - h[j]) for j in range(1, r + 1)]
    return objective, residual, np.stack(terms, axis=1)


def chain_objective(pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain") -> ChainResult:
    """Score a chain: objective, dependence residual, per-round terms.

    A deterministic chain is feasible at residual DET_FEASIBILITY_TOL, a
    randomized one at `optim.FEASIBILITY_TOL`. For every chain built here
    the identity objective - I(X;Y) + residual = sum(per_round_terms)
    holds to 1e-9.
    """
    objective, residual, terms = chain_scores([pmf], [chain])
    residual = float(residual[0])
    return ChainResult(
        objective=float(objective[0]),
        residual=residual,
        per_round_terms=tuple(terms[0].tolist()),
        chain=chain,
        feasible=residual <= (DET_FEASIBILITY_TOL if isinstance(chain, DeterministicChain)
                              else FEASIBILITY_TOL),
    )


def ci1_exact(pmf: JointPMF, initiator: str = "x") -> float:
    """Exact one-round value: the entropy of the minimal sufficient statistic."""
    check_initiator(initiator)
    lab = structure.minimal_sufficient_statistic(pmf, initiator)
    marginal = pmf.marginal_x if initiator == "x" else pmf.marginal_y
    return structure.labeling_entropy(lab, marginal)


# ---------------------------------------------------------------------------
# deterministic search over protocol rectangles
# ---------------------------------------------------------------------------
#
# A canonical round table is a restricted growth string (RGS): its values are
# labelled in order of first appearance, so RGS enumerate the set partitions
# of the table's cells (Knuth, TAOCP 7.2.1.5). A deterministic chain is a
# protocol tree: the (x, y) cells that reach one history form a rectangle
# A x B, and each round splits the speaker's side of it (Kushilevitz and
# Nisan, Communication Complexity, 1997).

TIE_TOL = 1e-12            # objectives this close count as equal


def _rgs(length: int, cap: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """The RGS of `length` cells with labels below `cap` that start with
    `prefix`, in lexicographic order: set partitions into at most `cap` blocks."""
    if len(prefix) == length:
        yield prefix
        return
    for v in range(min(max(prefix, default=-1) + 2, cap)):
        yield from _rgs(length, cap, prefix + (v,))


def effective_caps(
    x_size: int, y_size: int, rounds: int, size_caps: Sequence[int] | None, initiator: str
) -> tuple[int, ...]:
    """User caps, one per round, clamped by the per-round cardinality
    ceiling; default cap 4."""
    if size_caps is not None and len(size_caps) != rounds:
        raise ValueError(f"need one size cap per round: {len(size_caps)} given for {rounds} rounds")
    caps = []
    prod = 1
    for j in range(1, rounds + 1):
        ceiling = speaker_size(j, initiator, x_size, y_size) * prod + 1
        user = 4 if size_caps is None else int(size_caps[j - 1])
        cap = min(user, ceiling)
        if cap < 1:
            raise ValueError(f"round {j} cap must be at least 1")
        caps.append(cap)
        prod *= cap
    return tuple(caps)


def iter_canonical_chains(
    x_size: int, y_size: int, rounds: int, caps: Sequence[int], initiator: str = "x"
) -> Iterator[DeterministicChain]:
    """Enumerate canonical deterministic chains (tight sizes, first-appearance
    labels) in lexicographic order of their encodings."""

    def rec(encoding: tuple[tuple[int, ...], ...], prod: int):
        j = len(encoding)
        if j == rounds:
            yield _encoding_to_chain(encoding, x_size, y_size, initiator)
            return
        cells = speaker_size(j + 1, initiator, x_size, y_size) * prod
        for word in _rgs(cells, min(int(caps[j]), cells)):
            yield from rec(encoding + (word,), prod * (max(word) + 1))

    yield from rec((), 1)


def _encoding_to_chain(
    encoding: Sequence[Sequence[int]], x_size: int, y_size: int, initiator: str
) -> DeterministicChain:
    sizes: tuple[int, ...] = ()
    tables: tuple[np.ndarray, ...] = ()
    for j, word in enumerate(encoding):
        parent = speaker_size(j + 1, initiator, x_size, y_size)
        table = np.array(word, dtype=int).reshape((parent,) + sizes)
        tables += (table,)
        sizes += (int(max(word)) + 1,)
    return DeterministicChain(initiator, sizes, tables)


def _pareto(pairs) -> tuple[tuple[float, float], ...]:
    """The (objective, residual) pairs that no other pair beats on both."""
    front: list[tuple[float, float]] = []
    for pair in sorted(pairs):
        if not front or pair[1] < front[-1][1]:
            front.append(pair)
    return tuple(front)


def _first_appearance(labels: Sequence[int]) -> tuple[int, ...]:
    """The RGS of the partition that `labels` induce."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in labels)


def det_chain_search(
    pmf: JointPMF,
    rounds: int,
    size_caps: Sequence[int] | None = None,
    budget: int = 2_000_000,
    initiator: str = "x",
) -> ChainResult:
    """Exact minimum over canonical deterministic chains.

    Keeps chains with dependence residual at most DET_FEASIBILITY_TOL and
    returns the lowest objective among them; objectives within TIE_TOL
    count as tied, and the lexicographically smallest encoding wins. The
    result is an upper bound on the r-round optimum.

    `budget` bounds the search's own work: the set partitions it scores,
    one per speaker split tried at a rectangle, the rebuild's splits
    included. The search raises BudgetExceeded as soon as that count
    passes `budget`; `ChainResult.moves` holds the count of a finished
    search.

    A chain's histories are rectangles A x B and U^r names the leaf, so the
    objective H(U^r) sums -m log2 m and the residual I(X;Y|U^r) sums
    m I(X;Y | A x B) over leaves of mass m. `best(j, A, B)` solves the
    subtree of a rectangle after j rounds: the speaker splits its live
    symbols (those with mass in it) into at most caps[j] blocks, and the
    children add. Leaf residuals are nonnegative, so each inner state keeps
    the Pareto front of its (objective, residual) pairs with residual at
    most DET_FEASIBILITY_TOL; the root's lowest objective is the optimum over
    chains whose total residual is within the tolerance.

    The winner is rebuilt round by round, cell by cell in table order
    (speaker symbol major, history minor): a cell takes the smallest RGS
    label for which the histories' best consistent splits still sum to a
    feasible pair within TIE_TOL of the optimum; cells without mass take 0.
    Raises ValueError for fewer than one round.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    nx, ny = pmf.shape
    caps = effective_caps(nx, ny, rounds, size_caps, initiator)
    moves = 0   # set partitions scored
    p = pmf.p
    positive = (p > 0).tolist()
    x_speaks = [speaker_of(j, initiator) == "x" for j in range(1, rounds + 1)]

    def live(xs, ys):
        """The rectangle xs x ys without its symbols of zero mass."""
        return (tuple(x for x in xs if any(positive[x][y] for y in ys)),
                tuple(y for y in ys if any(positive[x][y] for x in xs)))

    def child(j, rect, part):
        """The rectangle of the round-j speaker's block `part` of `rect`."""
        return live(part, rect[1]) if x_speaks[j] else live(rect[0], part)

    def add(front, other):
        return _pareto((a + b, r + s) for a, r in front for b, s in other
                       if r + s <= DET_FEASIBILITY_TOL)

    def split(j, rect, words):
        """Front of `rect` after j rounds over the speaker's splits `words`."""
        nonlocal moves
        speaker = rect[0] if x_speaks[j] else rect[1]
        pairs = []
        for word in words:
            moves += 1
            if moves > budget:
                raise BudgetExceeded(f"{moves} set partitions scored exceed the budget {budget}")
            front = ((0.0, 0.0),)
            for block in range(max(word) + 1):
                part = [s for s, w in zip(speaker, word) if w == block]
                front = add(front, best(j + 1, *child(j, rect, part)))
            pairs.extend(front)
        return _pareto(pairs)

    @lru_cache(maxsize=None)
    def best(j, xs, ys):
        if j == rounds:
            q = p[np.ix_(xs, ys)]
            m = float(q.sum())
            m_log_m = m * math.log2(m)
            residual = max(plogp_sum(q) - plogp_sum(q.sum(axis=1))
                           - plogp_sum(q.sum(axis=0)) + m_log_m, 0.0)
            return ((-m_log_m, residual),)
        return split(j, (xs, ys), _rgs(len(xs if x_speaks[j] else ys), caps[j]))

    nodes = [live(range(nx), range(ny))]   # the rectangle of each history
    root = best(0, *nodes[0])
    if not root:
        raise NoFeasibleChain(
            f"no deterministic chain with residual <= {DET_FEASIBILITY_TOL} under caps {caps}"
        )
    target = root[0][0] + TIE_TOL
    encoding = []
    for j in range(rounds):
        speakers = [() if rect is None else rect[0] if x_speaks[j] else rect[1]
                    for rect in nodes]
        labels = [[] for _ in nodes]   # labels of each history's live symbols so far
        fronts = [((0.0, 0.0),) if rect is None else best(j, *rect) for rect in nodes]
        word = []
        for s in range(nx if x_speaks[j] else ny):
            for a, rect in enumerate(nodes):
                if s not in speakers[a]:
                    word.append(0)
                    continue
                others = ((0.0, 0.0),)
                for front in fronts[:a] + fronts[a + 1:]:
                    others = add(others, front)
                for label in range(min(max(word, default=-1) + 2, caps[j])):
                    prefix = _first_appearance(labels[a] + [label])
                    fronts[a] = split(j, rect, _rgs(len(speakers[a]), caps[j], prefix))
                    total = add(others, fronts[a])
                    if total and total[0][0] <= target:
                        break
                labels[a].append(label)
                word.append(label)
        encoding.append(tuple(word))
        nodes = [None if label not in labels[a] else
                 child(j, rect, [s for s, v in zip(speakers[a], labels[a]) if v == label])
                 for a, rect in enumerate(nodes) for label in range(max(word) + 1)]

    encoding = tuple(encoding)
    scored = chain_objective(pmf, _encoding_to_chain(encoding, nx, ny, initiator))
    return replace(scored, encoding=encoding, states=best.cache_info().currsize, moves=moves)


# ---------------------------------------------------------------------------
# randomized chains by penalty descent
# ---------------------------------------------------------------------------

def _chain_value_and_grad_factory(p: np.ndarray, sizes: Sequence[int], initiator: str):
    """Penalized values and per-slice gradients for the update rule, for a
    batch of chains on the leading axis: the mean of
    `optim.penalized_information`'s log-derivative over each kernel slice,
    with H(X,Y) taken from the chain's law."""
    rounds = len(sizes)

    def value_and_grad(kernels, lam):
        q = _product_law(p, kernels, initiator)
        values, dlog = penalized_information(q, lam)
        g_cell = q * dlog

        grads = []
        for j in range(1, rounds + 1):
            side = speaker_of(j, initiator)
            drop = (2,) if side == "x" else (1,)
            drop = drop + tuple(range(3 + j, q.ndim))
            a = g_cell.sum(axis=drop)
            m = q.sum(axis=drop)
            grads.append(np.where(m > 1e-250, a / np.where(m > 0, m, 1.0), 0.0))
        return values, grads

    return value_and_grad


def _constant_chain(nx: int, ny: int, sizes: Sequence[int], initiator: str) -> DeterministicChain:
    sizes = tuple(int(s) for s in sizes)
    tables = tuple(np.zeros((speaker_size(j, initiator, nx, ny),) + sizes[:j - 1], dtype=int)
                   for j in range(1, len(sizes) + 1))
    return DeterministicChain(initiator, sizes, tables)


def _copy_chain(nx: int, ny: int, sizes: Sequence[int], initiator: str) -> DeterministicChain:
    """Round 1 copies its speaker's symbol (one value for each), later rounds are constant."""
    constant = _constant_chain(nx, ny, sizes, initiator)
    copy = np.arange(speaker_size(1, initiator, nx, ny))
    return DeterministicChain(initiator, constant.sizes, (copy,) + constant.tables[1:])


def continuous_chain_minimize(
    pmf: JointPMF,
    sizes: Sequence[int],
    config: PenaltyConfig = CONT_CONFIG,
    *,
    start: DeterministicChain | None = None,
    initiator: str = "x",
) -> ChainResult:
    """Penalty-method upper bound over randomized chains of the given sizes,
    one round per size.

    Mandatory start points: `start` widened to `sizes` by `padded_chain`
    (labelled "det-best"; `chain_routes` hands it the winner of a
    `det_chain_search` at `sizes`, the det route's own when that searched at
    the same caps), the copy chain and the constant chain; each is also
    scored exactly as a candidate, and a chain whose kernels equal an earlier one's, byte for
    byte, is skipped. Feasibility threshold: `optim.FEASIBILITY_TOL` bits.
    The result's `candidates` give each candidate's label, objective and
    residual. The stack of one law per seed chain and restart is held to the
    size budget first. Raises ValueError for empty `sizes` and for a `start`
    spoken first by another side than `initiator`.
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ValueError("rounds must be at least 1")
    if start is not None and start.initiator != initiator:
        raise ValueError(f"start chain has initiator {start.initiator!r}, "
                         f"the descent {initiator!r}")
    nx, ny = pmf.shape
    copies = sizes[0] >= speaker_size(1, initiator, nx, ny)  # round 1 can copy its speaker
    count = (start is not None) + copies + 1 + config.restarts  # seed chains, then restarts
    check_law_budget(count * nx * ny * math.prod(sizes), f"a descent of {count} starts")

    seed_chains: list[tuple[str, DeterministicChain]] = []
    if start is not None:
        seed_chains.append(("det-best", padded_chain(pmf, start, sizes)))
    if copies:
        seed_chains.append(("copy", _copy_chain(nx, ny, sizes, initiator)))
    constant = _constant_chain(nx, ny, sizes, initiator)
    seed_chains.append(("constant", constant))

    # the restarts draw kernels of the constant chain's shapes
    starts, exact = descent_starts(((label, list(ch.kernels)) for label, ch in seed_chains),
                                   [k.shape for k in constant.kernels], config)
    vag = _chain_value_and_grad_factory(pmf.p, sizes, initiator)

    def evaluate(kernels):
        return objective_residuals(_product_law(pmf.p, kernels, initiator))

    outcome = penalized_minimize(starts, exact, vag, evaluate, config)
    chain = AuxiliaryChain(initiator, tuple(renormalize(k) for k in outcome.best.kernels))
    return replace(chain_objective(pmf, chain),
                   candidates=tuple((c.label, c.objective, c.residual) for c in outcome.candidates))


def chain_routes(
    pmf: JointPMF, rounds: int, caps: Sequence[int] | None, budget: int, descent: PenaltyConfig,
    *, det: bool = True, cont: bool = True, sizes: Sequence[int] | None = None, initiator: str = "x",
) -> Iterator[tuple[int, str, ChainResult | CitError]]:
    """Each requested route, "det" then "cont", at every round count k from
    2 to `rounds` (at 1 for one round) in ascending k, as (k, name, result)
    triples computed only when read: its ChainResult, or the error that left
    it out, SizeBudgetExceeded included. A k-round chain followed by constant
    rounds is a `rounds`-round chain of the same value (`padded_chain`), so
    each bounds the `rounds`-round program.

    Count k takes the first k entries of `caps` and `sizes`. "det" searches
    at `caps`. "cont" descends at `sizes` (default `effective_caps` of
    `caps`) from the "det" winner when "det" searched at those caps, and
    otherwise from one search at `sizes`; a failed search hands it no start.
    `rounds`, `caps` and `sizes` (its count, entries and cardinality
    ceilings) are checked at `rounds` before this returns, which covers
    every smaller count; a ValueError is raised, never returned."""
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    nx, ny = pmf.shape
    at_caps = effective_caps(nx, ny, rounds, caps, initiator)
    sizes = at_caps if sizes is None else tuple(int(s) for s in sizes)
    effective_caps(nx, ny, rounds, sizes, initiator)  # raises on a bad count or entry
    _check_p3(sizes, [speaker_size(j, initiator, nx, ny) for j in range(1, rounds + 1)])

    def search(k, size_caps):
        try:
            return det_chain_search(pmf, k, size_caps, budget=budget, initiator=initiator)
        except (BudgetExceeded, NoFeasibleChain, SizeBudgetExceeded) as exc:
            return exc

    def run():
        for k in range(min(rounds, 2), rounds + 1):
            if det:
                searched = search(k, caps if caps is None else caps[:k])
                yield k, "det", searched
            if cont:
                if not det or sizes[:k] != at_caps[:k]:
                    searched = search(k, sizes[:k])
                try:
                    res = continuous_chain_minimize(
                        pmf, sizes[:k], descent, initiator=initiator,
                        start=searched.chain if isinstance(searched, ChainResult) else None)
                except (NoFeasiblePoint, SizeBudgetExceeded) as exc:
                    res = exc
                yield k, "cont", res

    return run()


def padded_chain(pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain",
                 sizes: Sequence[int]) -> "AuxiliaryChain | DeterministicChain":
    """`chain` redeclared with one round per entry of `sizes`: a deterministic
    chain's rounds widen to their (weakly larger) sizes, and the rounds after
    the chain's are constant at value 0. The law of (X, Y) and the chain's
    values is the same, and so are the scores. Raises ValueError for `sizes`
    that do not dominate the chain's sizes or that widen a randomized round."""
    sizes, r = tuple(int(s) for s in sizes), chain.rounds
    if len(sizes) < r or any(s < t for s, t in zip(sizes, chain.sizes)) or (
            isinstance(chain, AuxiliaryChain) and sizes[:r] != chain.sizes):
        raise ValueError(f"sizes {sizes} cannot pad the chain's sizes {chain.sizes}")
    constant = _constant_chain(*pmf.shape, sizes, chain.initiator)
    if isinstance(chain, AuxiliaryChain):
        return AuxiliaryChain(chain.initiator, chain.kernels + constant.kernels[r:])
    widened = tuple(np.pad(t, [(0, 0)] + [(0, s - h) for s, h in zip(sizes, t.shape[1:])])
                    for t in chain.tables)
    return DeterministicChain(chain.initiator, sizes, widened + constant.tables[r:])


# ---------------------------------------------------------------------------
# closed forms and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BssClosedForm:
    ci_i: float
    sk_capacity: float
    r_sk: float

    def to_json(self) -> dict:
        return asdict(self)


def bss_closed_form(delta: float) -> BssClosedForm:
    """Exact rates for the doubly symmetric binary source with crossover delta.

    Interaction cannot beat one-way communication here: the r-round optimum
    equals min{H(X), H(Y)} = 1 bit for every r, so the key-generation
    communication rate is exactly the binary entropy of the crossover.
    """
    if not 0.0 < delta < 0.5:
        raise DeltaOutOfRange(f"delta must lie strictly inside (0, 0.5), got {delta}")
    h = binary_entropy(delta)
    return BssClosedForm(ci_i=1.0, sk_capacity=1.0 - h, r_sk=h)


@dataclass(frozen=True)
class AtomClassification:
    atom: tuple[int, ...]
    probability: float
    h_x: float
    h_y: float
    vanishes: tuple[str, ...]   # subset of ("x", "y")


def binary_stop_classify(
    pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain"
) -> tuple[AtomClassification, ...]:
    """Per-atom dichotomy check for binary sources.

    For a feasible chain on dependent binary sources, every positive
    probability chain value must pin down at least one side, leaving it at
    most PINNED_TOL bits; an atom pinning neither is reported as a
    LemmaViolation.
    """
    if pmf.shape != (2, 2):
        raise ValueError("binary_stop_classify needs binary alphabets on both sides")
    if source_information(pmf) <= 1e-9:
        raise ValueError("sources must be dependent (I(X;Y) > 1e-9)")
    q = _joint_array(pmf, chain)
    _, residual = objective_residual(q)
    if residual > DET_FEASIBILITY_TOL:
        raise LemmaViolation(
            f"chain residual {residual:.3g} exceeds {DET_FEASIBILITY_TOL}; "
            "the dichotomy is only guaranteed for feasible chains"
        )
    flat = q.reshape(2, 2, -1)
    sizes = chain.sizes
    out = []
    for a in range(flat.shape[2]):
        cell = flat[:, :, a]
        mass = float(cell.sum())
        if mass <= 0:
            continue
        px = cell.sum(axis=1) / mass
        py = cell.sum(axis=0) / mass
        h_x = -plogp_sum(px)
        h_y = -plogp_sum(py)
        vanish = tuple(s for s, h in (("x", h_x), ("y", h_y)) if h <= PINNED_TOL)
        if not vanish:
            raise LemmaViolation(
                f"atom {np.unravel_index(a, sizes)} leaves both sides uncertain "
                f"(H(X|u)={h_x:.3g}, H(Y|u)={h_y:.3g})"
            )
        out.append(AtomClassification(
            atom=tuple(int(v) for v in np.unravel_index(a, sizes)),
            probability=mass, h_x=h_x, h_y=h_y, vanishes=vanish,
        ))
    return tuple(out)


def chain_to_aux_kernel(
    pmf: JointPMF, chain: "AuxiliaryChain | DeterministicChain", w_size: int
) -> np.ndarray | None:
    """Collapse a chain into a P(W | X, Y) table over its significant atoms.

    Atoms carrying at most ATOM_DUST mass are dropped and the slices
    renormalized; a pair of zero probability goes to atom 0. Returns None
    when more than `w_size` atoms remain, or when a pair of positive
    probability keeps no mass on them, as its slice would be 0/0. The
    (|X|, |Y|, `w_size`) table is held to the size budget first.
    """
    check_law_budget(math.prod(pmf.shape) * w_size, "Wyner seed table")
    q = _joint_array(pmf, chain).reshape(pmf.shape + (-1,))
    mass = q.sum(axis=(0, 1))
    atoms = np.nonzero(mass > ATOM_DUST)[0]
    if atoms.size > w_size or atoms.size == 0:
        return None
    k = np.zeros(pmf.shape + (w_size,))
    zero = pmf.p <= 0
    k[:, :, : atoms.size] = q[:, :, atoms] / np.where(zero, 1.0, pmf.p)[:, :, None]
    k[zero] = np.eye(1, w_size)  # q is 0 where p is: no pair is divided by 0
    sums = k.sum(axis=2, keepdims=True)
    return None if sums.min() == 0.0 else k / sums
