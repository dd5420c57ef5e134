"""Seeded two-universal hashing over GF(2) bit vectors.

Random affine maps x -> Ax xor b with a full-row-rank A form the binning and
key-extraction primitives: full row rank makes the map exactly uniform over
the 2^k bins and keeps every bin the same size, which is what the
simulators assume. Messages are packed into single 64-bit words, so all
inputs are capped at 63 bits.

There are two paths. The array path (`apply`, `pack_digits`,
`unpack_digits`) takes uint64 arrays of any shape and serves whole blocks of
trials at once. The scalar path works on Python ints, for the loops that
handle one word at a time: `apply_int` takes parities with `int.bit_count`,
and one Gauss-Jordan elimination over packed rows (`_solve_structures`)
both tests a sampled A for full rank and yields the right inverse and null
space that `coset` needs, so a sampled hash never eliminates twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_BITS = 63


def pack_digits(digits: np.ndarray, bits_per_symbol: int) -> np.ndarray:
    """Pack an (N, n) digit array into uint64 words, symbol 0 least significant."""
    digits = np.asarray(digits)
    n = digits.shape[-1]
    if n * bits_per_symbol > MAX_BITS:
        raise ValueError(f"{n * bits_per_symbol} bits exceed the {MAX_BITS}-bit word")
    # digit fields do not overlap, so their weighted sum is their OR; it fits
    # in int64 because the word has at most 63 bits
    weights = np.left_shift(1, np.arange(n, dtype=np.int64) * bits_per_symbol)
    return (digits.astype(np.int64, copy=False) @ weights).astype(np.uint64)


def unpack_digits(words: np.ndarray, n: int, bits_per_symbol: int) -> np.ndarray:
    """Inverse of pack_digits; returns an (N, n) int array."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64) * np.uint64(bits_per_symbol)
    out = words[..., None] >> shifts
    out &= np.uint64((1 << bits_per_symbol) - 1)
    return out.view(np.int64)  # every digit is below 2^63


def _reduce(rows: list[int], m: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of m-bit rows, each carried as row | ops << m.

    `ops` records which input rows were added together. Returns one
    (pivot bit, reduced row) pair per independent row, in input order; a row
    that depends on earlier ones is dropped. The pivot of a reduced row is
    its lowest set bit, and no other reduced row has that bit set.
    """
    mask = (1 << m) - 1
    basis: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        a = row | 1 << (m + i)
        for bit, b in basis:
            if a & bit:
                a ^= b
        low = a & mask
        if not low:
            continue
        bit = low & -low
        basis = [(pb, b ^ a) if b & bit else (pb, b) for pb, b in basis]
        basis.append((bit, a))
    return basis


def _solve_structures(rows: list[int], m: int) -> tuple[list[int], list[int]]:
    """Right-inverse columns and a null-space basis for full-row-rank rows.

    z(s) = XOR of cols[j] over set bits j of s satisfies rows . z = s; the
    null basis spans all solutions. Raises ValueError when the rows are not
    of full row rank.
    """
    k = len(rows)
    basis = _reduce(rows, m)
    if len(basis) < k:
        raise ValueError("rows are not of full row rank")
    cols = [0] * k
    pivots = 0
    for bit, a in basis:
        pivots |= bit
        ops = a >> m
        while ops:
            low = ops & -ops
            cols[low.bit_length() - 1] ^= bit
            ops ^= low
    null_basis = []
    for c in range(m):
        free = 1 << c
        if pivots & free:
            continue
        v = free
        for bit, a in basis:
            if a & free:
                v ^= bit
        null_basis.append(v)
    return cols, null_basis


def _sample_solved(
    rng: np.random.Generator, k: int, m: int
) -> tuple[list[int], tuple[list[int], list[int]]]:
    """k random m-bit rows of full rank, with their `_solve_structures`."""
    while True:
        rows = [int(rng.integers(0, 1 << m, dtype=np.uint64)) for _ in range(k)]
        try:
            return rows, _solve_structures(rows, m)
        except ValueError:
            continue


@dataclass(frozen=True)
class AffineGf2Hash:
    """x -> Ax xor b with full-row-rank A, over m-bit words into k bits.

    `structures` caches `_solve_structures(rows, m)`; `sample` fills it in
    from its rank test, and `coset` solves afresh when it is empty.
    """

    m: int
    k: int
    rows: tuple[int, ...]
    offset: int
    structures: tuple[list[int], list[int]] | None = field(
        default=None, compare=False, repr=False)

    @staticmethod
    def sample(rng: np.random.Generator, m: int, k: int) -> "AffineGf2Hash":
        if not 0 <= k <= m <= MAX_BITS:
            raise ValueError(f"need 0 <= k <= m <= {MAX_BITS}, got k={k}, m={m}")
        rows, structures = _sample_solved(rng, k, m)
        offset = int(rng.integers(0, 1 << k, dtype=np.uint64)) if k else 0
        return AffineGf2Hash(m, k, tuple(rows), offset, structures)

    def apply(self, words: np.ndarray) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        out = np.zeros(words.shape, dtype=np.uint64)
        for i, row in enumerate(self.rows):
            bit = np.bitwise_count(words & np.uint64(row)) & np.uint64(1)
            out |= bit << np.uint64(i)
        return out ^ np.uint64(self.offset)

    def apply_int(self, value: int) -> int:
        value = int(value)
        out = self.offset
        for i, row in enumerate(self.rows):
            out ^= ((value & row).bit_count() & 1) << i
        return out

    def coset(self, syndrome: int, cap: int | None = None) -> np.ndarray:
        """All m-bit words hashing to `syndrome`, as a sorted uint64 array."""
        cols, basis = self.structures or _solve_structures(list(self.rows), self.m)
        size = 1 << len(basis)
        if cap is not None and size > cap:
            raise ValueError(f"coset of size {size} exceeds the cap {cap}")
        s = syndrome ^ self.offset
        particular = 0
        for j in range(self.k):
            if (s >> j) & 1:
                particular ^= cols[j]
        out = np.empty(size, dtype=np.uint64)
        out[0] = particular
        filled = 1
        for b in basis:
            out[filled:2 * filled] = out[:filled] ^ np.uint64(b)
            filled *= 2
        out.sort()
        return out
