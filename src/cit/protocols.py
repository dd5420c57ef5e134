"""Exact laboratory for blocklength-n interactive protocols.

A protocol is an alternating sequence of deterministic message functions,
round i mapping (the speaker's source block, the transcript so far) into a
finite message set. For small blocklengths the exact joint law of
(X^n, Y^n, F) is enumerable, which turns the transcript identities into
machine-checkable statements:

  * H(F | X^n) + H(F | Y^n) <= H(F) for every interactive transcript;
  * n I(X;Y) = I(X^n; Y^n | J, F) + H(J, F) - H(F|X^n) - H(F|Y^n)
    - H(J|X^n, F) - H(J|Y^n, F) for every function J of the blocks.

Each check is one pass over one dense array: the block law is scattered
into the cells of (X^n, Y^n, F), or (X^n, Y^n, F, J), and normalized once,
and every entropy is a marginal of that array, each distinct marginal
taken once. Cases of one shape stack on a leading axis and run as one such
pass (`lemma1_sides`, `decomposition_sides`); a single check is a stack of
one. `transcript_law` wraps the same law in a labelled TensorPMF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import check_initiator, speaker_of, speaker_size
from .pmf import (FiniteAlphabet, JointPMF, TensorPMF, check_law_budget, clamped, frozen_copies,
                  marginal_entropies, normalized_each, source_informations)
from .pmf import entropy  # noqa: F401  (unused; perfbench/tracer.py wraps it here by name)


def _product_alphabet(base: FiniteAlphabet, n: int) -> FiniteAlphabet:
    if base.size ** n <= 4096:
        labels = [()]
        for _ in range(n):
            labels = [w + (s,) for w in labels for s in base.symbols]
        return FiniteAlphabet(tuple(",".join(w) for w in labels))
    return FiniteAlphabet.of_size(base.size ** n, "seq")


@dataclass(frozen=True)
class Protocol:
    """Deterministic r-round interactive communication at blocklength n.

    `message_tables[i]` has shape (|own|^n, prod of earlier message sizes)
    with values in range(message_sizes[i]); rounds alternate speakers
    starting with `initiator`.
    """

    n: int
    message_sizes: tuple[int, ...]
    message_tables: tuple[np.ndarray, ...]
    initiator: str = "x"

    def __post_init__(self):
        check_initiator(self.initiator)
        sizes = tuple(int(s) for s in self.message_sizes)
        tables = tuple(np.asarray(t, dtype=np.int64) for t in self.message_tables)
        if len(sizes) != len(tables) or not tables:
            raise ValueError("need one message table per round")
        if any(s < 1 for s in sizes):
            raise ValueError("message sets must be nonempty")
        prefix = 1
        for i, (t, s) in enumerate(zip(tables, sizes)):
            if t.ndim != 2 or t.shape[1] != prefix:
                raise ValueError(
                    f"round {i + 1} table must be (|own|^n, {prefix}), got {t.shape}"
                )
            # read as unsigned, a negative message wraps past every size
            if t.size and t.view(np.uint64).max() >= s:
                raise ValueError(f"round {i + 1} messages must lie in [0, {s})")
            prefix *= s
        object.__setattr__(self, "message_sizes", sizes)
        object.__setattr__(self, "message_tables", frozen_copies(tables))

    @property
    def rounds(self) -> int:
        return len(self.message_sizes)

    @property
    def transcript_size(self) -> int:
        return math.prod(self.message_sizes)

    def speaker(self, round_index: int) -> str:
        return speaker_of(round_index, self.initiator)

    def transcripts(self, x_count: int, y_count: int) -> np.ndarray:
        """Transcript index for every (x block index, y block index) pair."""
        return _transcripts([self], x_count, y_count)[0]


def _transcripts(protocols: Sequence[Protocol], x_count: int, y_count: int) -> np.ndarray:
    """Transcript index for every (case, x block index, y block index) of
    protocols with one blocklength, message sizes and initiator. The
    transcript so far is also the prefix the next round's table reads."""
    first = protocols[0]
    case = np.arange(len(protocols))[:, None, None]
    own = {"x": np.arange(x_count)[None, :, None], "y": np.arange(y_count)[None, None, :]}
    f = np.zeros((len(protocols), x_count, y_count), dtype=np.int64)
    for i, size in enumerate(first.message_sizes):
        table = np.stack([p.message_tables[i] for p in protocols])
        f = f * size + table[case, own[first.speaker(i + 1)], f]
    return f


def iid_block_law(pmf: JointPMF, n: int) -> np.ndarray:
    """Joint law of (X^n, Y^n) as a (|X|^n, |Y|^n) matrix, big-endian indexing:
    the n-th Kronecker power of p, each step one outer product (np.kron's products)."""
    return _block_laws(pmf.p[None], n)[0]


def _block_laws(p: np.ndarray, n: int) -> np.ndarray:
    """`iid_block_law` of each source matrix on `p`'s leading axis."""
    count = len(p)
    out = np.ones((count, 1, 1))
    for _ in range(n):
        out = (out[:, :, None, :, None] * p[:, None, :, None, :]).reshape(
            count, out.shape[1] * p.shape[1], -1)
    return out


def law_shape(source_shape: tuple[int, int], n: int, message_sizes: Sequence[int],
              j_table=None) -> tuple[int, ...]:
    """Shape of the dense law of (X^n, Y^n, F), or of (X^n, Y^n, F, J) for a
    lookup table J over (X^n index, Y^n index), once it is within the size
    budget and `j_table` has the shape of the block pairs. Without J it is
    known before any table is drawn."""
    shape = (source_shape[0] ** n, source_shape[1] ** n, math.prod(message_sizes))
    if j_table is not None:
        if np.shape(j_table) != shape[:2]:
            raise ValueError(f"j_table must have shape {shape[:2]}, got {np.shape(j_table)}")
        shape += (int(np.asarray(j_table).max()) + 1,)
    check_law_budget(math.prod(shape), "transcript law")
    return shape


def _dense_laws(pmfs: Sequence[JointPMF], protocols: Sequence[Protocol],
                j_tables=None) -> np.ndarray:
    """Unnormalized joint laws of (X^n, Y^n, F), or of (X^n, Y^n, F, J), of
    cases of one shape stacked on a leading axis: one source shape, one
    blocklength, message sizes and initiator, and one J size."""
    first = protocols[0]
    if any((p.n, p.message_sizes, p.initiator) != (first.n, first.message_sizes, first.initiator)
           for p in protocols):
        raise ValueError("stacked protocols need one blocklength, message sizes and initiator")
    shape = law_shape(pmfs[0].shape, first.n, first.message_sizes,
                      None if j_tables is None else j_tables[0])
    count, (x_count, y_count) = len(protocols), shape[:2]
    block = _block_laws(np.stack([pmf.p for pmf in pmfs]), first.n)
    cell = _transcripts(protocols, x_count, y_count)
    if j_tables is not None:
        j = np.stack([np.asarray(t, dtype=int) for t in j_tables])
        if (j.reshape(count, -1).max(axis=1) != shape[3] - 1).any():
            raise ValueError("stacked lookup tables need one J size")
        cell = cell * shape[3] + j
    law = np.zeros((count, x_count, y_count, math.prod(shape[2:])))
    law[np.arange(count)[:, None, None], np.arange(x_count)[None, :, None],
        np.arange(y_count)[None, None, :], cell] = block
    return law.reshape((count,) + shape)


def transcript_law(pmf: JointPMF, protocol: Protocol) -> TensorPMF:
    """Exact joint law of (X^n, Y^n, F) by enumeration."""
    law = _dense_laws([pmf], [protocol])[0]
    return TensorPMF(
        ("xn", "yn", "f"),
        (
            _product_alphabet(pmf.alphabet_x, protocol.n),
            _product_alphabet(pmf.alphabet_y, protocol.n),
            FiniteAlphabet.of_size(protocol.transcript_size, "f"),
        ),
        law,
    )


def lemma1_sides(pmfs: Sequence[JointPMF],
                 protocols: Sequence[Protocol]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of H(F|X^n) + H(F|Y^n) <= H(F) for each case, computed
    exactly: `lemma1_check`'s lhs and rhs, bit for bit, for cases of one shape."""
    p = normalized_each(_dense_laws(pmfs, protocols))  # axes case, X^n, Y^n, F
    h_xf, h_x, h_yf, h_y, h_f = marginal_entropies(p, (1,), (1, 2), (0,), (0, 2), (0, 1))
    lhs = clamped(h_xf - h_x) + clamped(h_yf - h_y)
    return lhs, h_f + 0.0  # + 0.0 turns -0.0 into 0.0, as entropy() does


def lemma1_check(pmf: JointPMF, protocol: Protocol) -> dict:
    """Both sides of H(F|X^n) + H(F|Y^n) <= H(F), computed exactly."""
    lhs, rhs = (float(side[0]) for side in lemma1_sides([pmf], [protocol]))
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def decomposition_sides(pmfs: Sequence[JointPMF], protocols: Sequence[Protocol],
                        j_tables: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the exact transcript decomposition of n I(X;Y) for each
    case: `decomposition_check`'s lhs and rhs, bit for bit, for cases of one
    shape (one J size among them)."""
    p = normalized_each(_dense_laws(pmfs, protocols, j_tables))  # axes case, X^n, Y^n, F, J
    # marginals named by the axes they keep; each of the eight is taken once
    h_xfj, h_yfj, h_fj, h_xf, h_yf, h_xyfj, h_x, h_y = marginal_entropies(
        p, (1,), (0,), (0, 1), (1, 3), (0, 3), (), (1, 2, 3), (0, 2, 3))
    lhs = protocols[0].n * source_informations(pmfs)
    rhs = (
        clamped(h_xfj + h_yfj - h_fj - h_xyfj)  # I(X^n; Y^n | J, F)
        + (h_fj + 0.0)                          # H(J, F)
        - clamped(h_xf - h_x)                   # H(F | X^n)
        - clamped(h_yf - h_y)                   # H(F | Y^n)
        - clamped(h_xfj - h_xf)                 # H(J | X^n, F)
        - clamped(h_yfj - h_yf)                 # H(J | Y^n, F)
    )
    return lhs, rhs


def decomposition_check(pmf: JointPMF, protocol: Protocol, j_table: np.ndarray) -> dict:
    """Both sides of the exact transcript decomposition of n I(X;Y).

    `j_table` is any lookup table over (X^n index, Y^n index).
    """
    lhs, rhs = (float(side[0]) for side in decomposition_sides([pmf], [protocol], [j_table]))
    return {"lhs": lhs, "rhs": rhs, "difference": lhs - rhs}


def random_protocol(
    seed: int,
    n: int,
    rounds: int,
    message_set_sizes: Sequence[int],
    x_size: int,
    y_size: int,
    initiator: str = "x",
) -> Protocol:
    """Uniformly random lookup tables from a seeded generator."""
    sizes = tuple(int(s) for s in message_set_sizes)
    if len(sizes) != rounds:
        raise ValueError("need one message size per round")
    rng = np.random.default_rng(seed)
    tables = []
    prefix = 1
    for i, s in enumerate(sizes, start=1):
        own = speaker_size(i, initiator, x_size, y_size)
        tables.append(rng.integers(0, s, size=(own ** n, prefix)))
        prefix *= s
    return Protocol(n, sizes, tuple(tables), initiator)


def random_cr_table(seed: int, pmf: JointPMF, n: int, j_size: int) -> np.ndarray:
    """Random function of (X^n, Y^n) for decomposition checks."""
    nx, ny = pmf.shape
    rng = np.random.default_rng(seed)
    return rng.integers(0, j_size, size=(nx ** n, ny ** n))
