"""Exact laboratory for blocklength-n interactive protocols.

A protocol is an alternating sequence of deterministic message functions,
round i mapping (the speaker's source block, the transcript so far) into a
finite message set. For small blocklengths the exact joint law of
(X^n, Y^n, F) is enumerable, which turns the transcript identities into
machine-checkable statements:

  * H(F | X^n) + H(F | Y^n) <= H(F) for every interactive transcript;
  * n I(X;Y) = I(X^n; Y^n | J, F) + H(J, F) - H(F|X^n) - H(F|Y^n)
    - H(J|X^n, F) - H(J|Y^n, F) for every function J of the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import check_initiator, speaker_of, speaker_size
from .errors import SizeBudgetExceeded
from .pmf import FiniteAlphabet, JointPMF, TensorPMF, conditional_entropy, conditional_mutual_information, entropy, mutual_information

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
        frozen = []
        for t in tables:
            t = t.copy()
            t.setflags(write=False)
            frozen.append(t)
        object.__setattr__(self, "message_sizes", sizes)
        object.__setattr__(self, "message_tables", tuple(frozen))

    @property
    def rounds(self) -> int:
        return len(self.message_sizes)

    @property
    def transcript_size(self) -> int:
        return int(np.prod(self.message_sizes, dtype=int))

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
    """Joint law of (X^n, Y^n) as a (|X|^n, |Y|^n) matrix, big-endian indexing."""
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(out, pmf.p)
    return out


def transcript_law(pmf: JointPMF, protocol: Protocol) -> TensorPMF:
    """Exact joint law of (X^n, Y^n, F) by enumeration."""
    nx, ny = pmf.shape
    x_count, y_count = nx ** protocol.n, ny ** protocol.n
    if x_count * y_count > ENUMERATION_BUDGET:
        raise SizeBudgetExceeded(
            f"{x_count * y_count} block pairs exceed the budget {ENUMERATION_BUDGET}"
        )
    block = iid_block_law(pmf, protocol.n)
    f = protocol.transcripts(x_count, y_count)
    law = np.zeros((x_count, y_count, protocol.transcript_size))
    np.put_along_axis(law, f[:, :, None], block[:, :, None], axis=2)
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
    t = transcript_law(pmf, protocol)
    lhs = conditional_entropy(t, "f", "xn") + conditional_entropy(t, "f", "yn")
    rhs = entropy(t, "f")
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}


def decomposition_check(pmf: JointPMF, protocol: Protocol, j_table: np.ndarray) -> dict:
    """Both sides of the exact transcript decomposition of n I(X;Y).

    `j_table` is any lookup table over (X^n index, Y^n index).
    """
    nx, ny = pmf.shape
    x_count, y_count = nx ** protocol.n, ny ** protocol.n
    j_table = np.asarray(j_table, dtype=int)
    if j_table.shape != (x_count, y_count):
        raise ValueError(f"j_table must have shape {(x_count, y_count)}, got {j_table.shape}")
    j_size = int(j_table.max()) + 1
    f_size = protocol.transcript_size
    if x_count * y_count * f_size * j_size > 4 * ENUMERATION_BUDGET:
        raise SizeBudgetExceeded("joint law of (X^n, Y^n, F, J) exceeds the budget")
    block = iid_block_law(pmf, protocol.n)
    f = protocol.transcripts(x_count, y_count)
    combined = f * j_size + j_table
    law = np.zeros((x_count, y_count, f_size * j_size))
    np.put_along_axis(law, combined[:, :, None], block[:, :, None], axis=2)
    t = TensorPMF(
        ("xn", "yn", "f", "j"),
        (
            _product_alphabet(pmf.alphabet_x, protocol.n),
            _product_alphabet(pmf.alphabet_y, protocol.n),
            FiniteAlphabet.of_size(f_size, "f"),
            FiniteAlphabet.of_size(j_size, "j"),
        ),
        law.reshape(x_count, y_count, f_size, j_size),
    )
    lhs = protocol.n * mutual_information(pmf.to_tensor(), "x", "y")
    rhs = (
        conditional_mutual_information(t, "xn", "yn", ("j", "f"))
        + entropy(t, ("j", "f"))
        - conditional_entropy(t, "f", "xn")
        - conditional_entropy(t, "f", "yn")
        - conditional_entropy(t, "j", ("xn", "f"))
        - conditional_entropy(t, "j", ("yn", "f"))
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
