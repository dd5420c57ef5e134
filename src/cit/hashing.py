"""Seeded two-universal hashing over GF(2) bit vectors.

Random affine maps x -> Ax xor b with a full-row-rank A form the binning and
key-extraction primitives: full row rank makes the map exactly uniform over
the 2^k bins and keeps every bin the same size, which is what the
simulators assume. Messages are packed into single 64-bit words, so all
inputs are capped at 63 bits.

One elimination, `_null_spaces`, serves every GF(2) solve: it takes a block
of matrices as a uint64 array and returns each one's rank verdict and null
basis. `sample_null_spaces` draws one hash per trial for whole blocks of
trials, `AffineGf2Hash.sample` draws one hash, and `AffineGf2Hash.coset`
solves for a bin; all three go through it, and `coset_words` enumerates
the bins. `apply` maps uint64 arrays; `apply_int` is the same map on one
Python int. `coset` and `apply_int` run only as the scalar references the
tests check the batched paths against: the simulators list bins with
`coset_words` or search them best-first, and hash with `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _draw_rows(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k random m-bit rows; one vector draw gives the values and leaves the
    generator where k scalar draws would."""
    return rng.integers(0, 1 << m, size=k, dtype=np.uint64)


def _null_spaces(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank test and null space of a whole block of matrices at once.

    `rows` is a (T, k) uint64 array, one matrix of m-bit rows per leading
    index. Each matrix is brought to reduced row echelon form in row order:
    a row's pivot is its lowest set bit after the earlier rows are
    cleared from it, and a row that clears to 0 is dependent. Returns the
    full-row-rank flags (T,) and a (T, m - k) array with each full-rank
    matrix's null basis, one vector per free column in ascending order; the
    other rows are 0.
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
    holds = (reduced[:, :, None] & cols) != 0
    vecs = cols | np.bitwise_or.reduce(np.where(holds, pivots[:, :, None], zero), axis=1)
    free = (np.bitwise_or.reduce(pivots, axis=1)[:, None] & cols) == 0
    null = np.zeros((t, m - k), dtype=np.uint64)
    null[full] = vecs[free].reshape(len(vecs), m - k)
    return full, null


def _sample_rows(
    rngs: list[np.random.Generator], m: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One random full-row-rank k x m matrix per generator, and its null basis.

    Each generator draws its k rows as one vector draw and redraws all k
    until they have full row rank; the matrices are eliminated together.
    Returns the (len(rngs), k) rows and the (len(rngs), m - k) null bases.
    """
    if not 0 <= k <= m <= MAX_BITS:
        raise ValueError(f"need 0 <= k <= m <= {MAX_BITS}, got k={k}, m={m}")
    rows = np.empty((len(rngs), k), dtype=np.uint64)
    for i, rng in enumerate(rngs):
        rows[i] = _draw_rows(rng, k, m)
    full, null = _null_spaces(rows, m)
    redo = np.flatnonzero(~full)
    while redo.size:
        for i in redo:
            rows[i] = _draw_rows(rngs[i], k, m)
        full, again = _null_spaces(rows[redo], m)
        null[redo[full]] = again[full]
        redo = redo[~full]
    return rows, null


def sample_null_spaces(rngs: list[np.random.Generator], m: int, k: int) -> np.ndarray:
    """The null bases of `_sample_rows`: a (len(rngs), m - k) uint64 array."""
    return _sample_rows(rngs, m, k)[1]


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

    `sample` and `coset` eliminate with `_null_spaces`; `apply_int` takes
    the same parities as `apply` on one int, as the scalar reference.
    """

    m: int
    k: int
    rows: tuple[int, ...]
    offset: int

    @staticmethod
    def sample(rng: np.random.Generator, m: int, k: int) -> "AffineGf2Hash":
        """A drawn by `_sample_rows`, then b as one more draw."""
        rows = _sample_rows([rng], m, k)[0][0]
        offset = int(rng.integers(0, 1 << k, dtype=np.uint64)) if k else 0
        return AffineGf2Hash(m, k, tuple(rows.tolist()), offset)

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

    def coset(self, syndrome: int) -> np.ndarray:
        """All m-bit words hashing to `syndrome`, as a sorted uint64 array.

        Az = s xor b exactly when z + 2^m is a null vector of the rows with
        bit i of s xor b put at bit m of row i. A full-rank A leaves that
        column m free, and its null vector is 2^m plus one solution z; the
        other null vectors are A's own null basis.
        """
        m = self.m
        s = syndrome ^ self.offset
        rows = [row | (s >> i & 1) << m for i, row in enumerate(self.rows)]
        full, null = _null_spaces(np.array([rows], dtype=np.uint64), m + 1)
        last = int(null[0, -1])
        if not full[0] or not last >> m:
            raise ValueError("rows are not of full row rank")
        return coset_words(last ^ (1 << m), null[0, :-1])
