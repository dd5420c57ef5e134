"""Seeded two-universal hashing over GF(2) bit vectors.

Random affine maps x -> Ax xor b with a full-row-rank A form the binning and
key-extraction primitives: full row rank makes the map exactly uniform over
the 2^k bins and keeps every bin the same size, which is what the
simulators assume. Messages are packed into single 64-bit words, so all
inputs are capped at 63 bits.

There are two paths. The array path takes uint64 arrays and serves whole
blocks of trials at once: `apply`, `pack_digits` and `unpack_digits` map
words, and `sample_null_spaces` draws one hash per trial, eliminates all of
them together and returns each one's null space, which is all a bin needs.
The scalar path works on Python ints, for the loops that handle one word at
a time: `apply_int` takes parities with `int.bit_count`, and one
Gauss-Jordan elimination over packed rows (`_solve_structures`) both tests a
sampled A for full rank and yields the right inverse and null space that
`coset` needs, so a sampled hash never eliminates twice. Both paths draw
the k rows of A as one vector draw, redraw all k until A has full row rank,
eliminate by `_reduce`'s rule, so they give the same null basis for the same
rows, and enumerate bins with `coset_words`.
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


def _draw_rows(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k random m-bit rows; one vector draw gives the values and leaves the
    generator where k scalar draws would."""
    return rng.integers(0, 1 << m, size=k, dtype=np.uint64)


def _sample_solved(
    rng: np.random.Generator, k: int, m: int
) -> tuple[list[int], tuple[list[int], list[int]]]:
    """k random m-bit rows of full rank, with their `_solve_structures`."""
    while True:
        rows = _draw_rows(rng, k, m).tolist()
        try:
            return rows, _solve_structures(rows, m)
        except ValueError:
            continue


def _null_spaces(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank test and null space of a whole block of matrices at once.

    `rows` is a (T, k) uint64 array, one matrix of m-bit rows per leading
    index, and every matrix is eliminated by `_reduce`'s rule. Returns the
    full-row-rank flags (T,) and a (T, m - k) array with the null basis
    `_solve_structures` gives for each full-rank matrix; the other rows are 0.
    """
    t, k = rows.shape
    zero = np.uint64(0)
    reduced = np.zeros((t, k), dtype=np.uint64)
    pivots = np.zeros((t, k), dtype=np.uint64)
    for i in range(k):
        done = reduced[:, :i]
        # a reduced row has no bit at another row's pivot, so the earlier
        # rows reduce row i in one step, whatever their order
        hit = (rows[:, i, None] & pivots[:, :i]) != 0
        a = rows[:, i] ^ np.bitwise_xor.reduce(np.where(hit, done, zero), axis=1)
        bit = a & (~a + np.uint64(1))  # lowest set bit, 0 for a dependent row
        done ^= np.where((done & bit[:, None]) != 0, a[:, None], zero)
        reduced[:, i] = a
        pivots[:, i] = bit
    full = np.all(pivots != 0, axis=1)
    reduced, pivots = reduced[full], pivots[full]
    cols = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    # the null vector of free column c: bit c and the pivots of the rows holding it
    vecs = np.empty((reduced.shape[0], m), dtype=np.uint64)
    for c in range(m):
        holds = (reduced & cols[c]) != 0
        vecs[:, c] = cols[c] | np.bitwise_or.reduce(np.where(holds, pivots, zero), axis=1)
    free = (np.bitwise_or.reduce(pivots, axis=1)[:, None] & cols) == 0
    null = np.zeros((t, m - k), dtype=np.uint64)
    null[full] = vecs[free].reshape(len(vecs), m - k)
    return full, null


def sample_null_spaces(rngs: list[np.random.Generator], m: int, k: int) -> np.ndarray:
    """Null spaces of one random full-row-rank k x m matrix per generator.

    Each generator draws and redraws its rows as `_sample_solved` does and
    ends in the same state; all matrices are eliminated together. Returns a
    (len(rngs), m - k) uint64 array: row i is the null basis
    `_solve_structures` gives for the rows generator i settled on.
    """
    if not 0 <= k <= m <= MAX_BITS:
        raise ValueError(f"need 0 <= k <= m <= {MAX_BITS}, got k={k}, m={m}")
    rows = np.empty((len(rngs), k), dtype=np.uint64)
    for i, rng in enumerate(rngs):
        rows[i] = _draw_rows(rng, k, m)
    full, null = _null_spaces(rows, m)
    redo = np.flatnonzero(~full)
    while redo.size:
        for j, i in enumerate(redo):
            rows[j] = _draw_rows(rngs[i], k, m)
        full, again = _null_spaces(rows[:redo.size], m)
        null[redo[full]] = again[full]
        redo = redo[~full]
    return null


def coset_words(start: np.ndarray | int, basis: np.ndarray | list[int]) -> np.ndarray:
    """start xor every combination of the basis words, sorted.

    `start` has some shape S and `basis` the shape S + (d,); the result has
    the shape S + (2^d,) and is ascending along its last axis.
    """
    start = np.asarray(start, dtype=np.uint64)
    basis = np.asarray(basis, dtype=np.uint64)
    out = np.empty(start.shape + (1 << basis.shape[-1],), dtype=np.uint64)
    out[..., 0] = start
    filled = 1
    for j in range(basis.shape[-1]):
        out[..., filled:2 * filled] = out[..., :filled] ^ basis[..., j, None]
        filled *= 2
    out.sort(axis=-1)
    return out


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
        return coset_words(particular, basis)
