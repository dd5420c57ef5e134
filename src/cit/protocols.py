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
taken once. `transcript_law` wraps the same law in a labelled TensorPMF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import check_initiator, speaker_of, speaker_size
from .errors import SizeBudgetExceeded
from .pmf import (FiniteAlphabet, JointPMF, TensorPMF, frozen_copies, marginal_entropy, normalized,
                  source_information)
from .pmf import entropy  # noqa: F401  (unused; perfbench/tracer.py wraps it here by name)

ENUMERATION_BUDGET = 2 ** 22


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
        tables = tuple(np.asarray(t, dtype=int) for t in self.message_tables)
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
            if t.size and (t.min() < 0 or t.max() >= s):
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
        f = np.zeros((x_count, y_count), dtype=np.int64)
        prefix = np.zeros((x_count, y_count), dtype=np.int64)
        for i, (table, size) in enumerate(zip(self.message_tables, self.message_sizes), start=1):
            if self.speaker(i) == "x":
                m = table[np.arange(x_count)[:, None], prefix]
            else:
                m = table[np.arange(y_count)[None, :], prefix]
            f = f * size + m
            prefix = prefix * size + m
        return f


def iid_block_law(pmf: JointPMF, n: int) -> np.ndarray:
    """Joint law of (X^n, Y^n) as a (|X|^n, |Y|^n) matrix, big-endian indexing:
    the n-th Kronecker power of p, each step one outer product (np.kron's products)."""
    out = np.ones((1, 1))
    for _ in range(n):
        out = (out[:, None, :, None] * pmf.p[None, :, None, :]).reshape(
            len(out) * len(pmf.p), -1)
    return out


def _dense_law(pmf: JointPMF, protocol: Protocol, j_table=None) -> np.ndarray:
    """Unnormalized joint law of (X^n, Y^n, F), or of (X^n, Y^n, F, J) for
    a lookup table J over (X^n index, Y^n index), within the size budgets."""
    nx, ny = pmf.shape
    x_count, y_count = nx ** protocol.n, ny ** protocol.n
    f_size = protocol.transcript_size
    j_size = 1
    if j_table is None:
        if x_count * y_count > ENUMERATION_BUDGET:
            raise SizeBudgetExceeded(
                f"{x_count * y_count} block pairs exceed the budget {ENUMERATION_BUDGET}")
    else:
        j_table = np.asarray(j_table, dtype=int)
        if j_table.shape != (x_count, y_count):
            raise ValueError(f"j_table must have shape {(x_count, y_count)}, got {j_table.shape}")
        j_size = int(j_table.max()) + 1
        if x_count * y_count * f_size * j_size > 4 * ENUMERATION_BUDGET:
            raise SizeBudgetExceeded("joint law of (X^n, Y^n, F, J) exceeds the budget")
    block = iid_block_law(pmf, protocol.n)
    cell = protocol.transcripts(x_count, y_count)
    if j_table is not None:
        cell = cell * j_size + j_table
    law = np.zeros((x_count, y_count, f_size * j_size))
    law[np.arange(x_count)[:, None], np.arange(y_count)[None, :], cell] = block
    return law if j_table is None else law.reshape(x_count, y_count, f_size, j_size)


def transcript_law(pmf: JointPMF, protocol: Protocol) -> TensorPMF:
    """Exact joint law of (X^n, Y^n, F) by enumeration."""
    law = _dense_law(pmf, protocol)
    return TensorPMF(
        ("xn", "yn", "f"),
        (
            _product_alphabet(pmf.alphabet_x, protocol.n),
            _product_alphabet(pmf.alphabet_y, protocol.n),
            FiniteAlphabet.of_size(protocol.transcript_size, "f"),
        ),
        law,
    )


def lemma1_check(pmf: JointPMF, protocol: Protocol) -> dict:
    """Both sides of H(F|X^n) + H(F|Y^n) <= H(F), computed exactly."""
    p = normalized(_dense_law(pmf, protocol))  # axes X^n, Y^n, F
    lhs = (max(marginal_entropy(p, (1,)) - marginal_entropy(p, (1, 2)), 0.0)
           + max(marginal_entropy(p, (0,)) - marginal_entropy(p, (0, 2)), 0.0))
    rhs = marginal_entropy(p, (0, 1)) + 0.0  # + 0.0 turns -0.0 into 0.0, as entropy() does
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def decomposition_check(pmf: JointPMF, protocol: Protocol, j_table: np.ndarray) -> dict:
    """Both sides of the exact transcript decomposition of n I(X;Y).

    `j_table` is any lookup table over (X^n index, Y^n index).
    """
    p = normalized(_dense_law(pmf, protocol, j_table))  # axes X^n, Y^n, F, J
    # marginals named by the axes they keep; each of the eight is taken once
    h_xfj = marginal_entropy(p, (1,))
    h_yfj = marginal_entropy(p, (0,))
    h_fj = marginal_entropy(p, (0, 1))
    h_xf = marginal_entropy(p, (1, 3))
    h_yf = marginal_entropy(p, (0, 3))
    lhs = protocol.n * source_information(pmf)
    rhs = (
        max(h_xfj + h_yfj - h_fj - marginal_entropy(p), 0.0)      # I(X^n; Y^n | J, F)
        + (h_fj + 0.0)                                            # H(J, F)
        - max(h_xf - marginal_entropy(p, (1, 2, 3)), 0.0)         # H(F | X^n)
        - max(h_yf - marginal_entropy(p, (0, 2, 3)), 0.0)         # H(F | Y^n)
        - max(h_xfj - h_xf, 0.0)                                  # H(J | X^n, F)
        - max(h_yfj - h_yf, 0.0)                                  # H(J | Y^n, F)
    )
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
