import numpy as np
import pytest

from cit.hashing import (
    MAX_BITS,
    AffineGf2Hash,
    _draw_rows,
    _null_spaces,
    coset_words,
    pack_digits,
    sample_null_spaces,
    unpack_digits,
)

from conftest import _reduce, _sample_solved, _solve_structures


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit rows (reference for the tests)."""
    return len(_reduce(rows, max((r.bit_length() for r in rows), default=0)))


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for bits in (1, 2, 3):
            digits = rng.integers(0, 1 << bits, size=(50, 12))
            words = pack_digits(digits, bits)
            assert np.array_equal(unpack_digits(words, 12, bits), digits)

    def test_word_limit(self):
        with pytest.raises(ValueError):
            pack_digits(np.zeros((1, 40), dtype=int), 2)
        with pytest.raises(ValueError):
            pack_digits(np.zeros((1, 64), dtype=int), 1)

    @pytest.mark.parametrize("bits", [1, 3, 7, 9, 21, 63])
    def test_round_trip_at_word_boundary(self, bits):
        # n * bits == 63 fills the word up to its top usable bit
        n = MAX_BITS // bits
        rng = np.random.default_rng(bits)
        digits = rng.integers(0, 1 << bits, size=(40, n))
        digits[0] = (1 << bits) - 1
        digits[1, -1] = 1 << (bits - 1)
        words = pack_digits(digits, bits)
        assert words.dtype == np.uint64
        assert int(words[0]) == (1 << MAX_BITS) - 1
        assert int(words[1]) >> (MAX_BITS - 1) == 1
        expect = [sum(int(d) << (t * bits) for t, d in enumerate(row)) for row in digits]
        assert [int(w) for w in words] == expect
        assert np.array_equal(unpack_digits(words, n, bits), digits)


class TestRankAndSolve:
    def test_rank_of_identity(self):
        assert gf2_rank([1, 2, 4, 8]) == 4
        assert gf2_rank([3, 1, 2]) == 2
        assert gf2_rank([0, 0]) == 0

    def test_sampled_rows_full_rank(self):
        # the sampler the simulators run draws full-row-rank maps
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            k = int(rng.integers(1, m + 1))
            assert gf2_rank(AffineGf2Hash.sample(rng, m, k).rows) == k

    def test_affine_map_uniform_over_bins(self):
        # a full-row-rank affine map sends the whole domain onto every bin
        # the same number of times
        rng = np.random.default_rng(2)
        h = AffineGf2Hash.sample(rng, m=10, k=4)
        vals = h.apply(np.arange(1 << 10, dtype=np.uint64))
        counts = np.bincount(vals.astype(int), minlength=1 << 4)
        assert np.all(counts == 1 << 6)

    def test_coset_is_exact_preimage(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            k = int(rng.integers(1, m))
            h = AffineGf2Hash.sample(rng, m, k)
            s = int(rng.integers(0, 1 << k))
            coset = h.coset(s)
            assert coset.size == 1 << (m - k)
            assert np.all(h.apply(coset) == s)
            # brute-force preimage agrees
            domain = np.arange(1 << m, dtype=np.uint64)
            brute = domain[h.apply(domain) == s]
            assert np.array_equal(np.sort(coset), np.sort(brute))

    def test_pairwise_collision_rate(self):
        # two-universality in aggregate: random distinct pairs collide at
        # about 2^-k over fresh draws of the hash
        rng = np.random.default_rng(4)
        m, k = 16, 6
        collisions = 0
        trials = 3000
        for _ in range(trials):
            h = AffineGf2Hash.sample(rng, m, k)
            a, b = rng.integers(0, 1 << m, size=2)
            if a == b:
                continue
            collisions += int(h.apply_int(int(a)) == h.apply_int(int(b)))
        rate = collisions / trials
        assert abs(rate - 2 ** -k) < 0.01

    def test_apply_scalar_matches_array(self):
        rng = np.random.default_rng(5)
        h = AffineGf2Hash.sample(rng, 20, 8)
        vals = rng.integers(0, 1 << 20, size=100, dtype=np.uint64)
        batch = h.apply(vals)
        for v, b in zip(vals, batch):
            assert h.apply_int(int(v)) == int(b)

    def test_coset_matches_enumeration_up_to_m20(self):
        rng = np.random.default_rng(7)
        for m in (1, 5, 12, 16, 20):
            domain = np.arange(1 << m, dtype=np.uint64)
            for _ in range(3):
                k = int(rng.integers(0, m + 1))
                h = AffineGf2Hash.sample(rng, m, k)
                s = int(rng.integers(0, 1 << k)) if k else 0
                brute = domain[h.apply(domain) == np.uint64(s)]
                assert np.array_equal(h.coset(s), brute)
                # a hash built from its rows alone solves afresh, same words
                plain = AffineGf2Hash(m, k, h.rows, h.offset)
                assert plain == h
                assert np.array_equal(plain.coset(s), brute)

    def test_rank_deficient_rows_raise(self):
        with pytest.raises(ValueError):
            _solve_structures([0b011, 0b110, 0b101], 3)
        with pytest.raises(ValueError):
            _solve_structures([0b1010, 0], 4)
        with pytest.raises(ValueError):
            AffineGf2Hash(4, 2, (0b0110, 0b0110), 0).coset(0)
        cols, null = _solve_structures([0b011, 0b110], 3)
        assert len(cols) == 2 and len(null) == 1

    def test_apply_int_matches_apply_over_sizes(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(1, MAX_BITS + 1))
            k = int(rng.integers(0, min(m, 24) + 1))
            h = AffineGf2Hash.sample(rng, m, k)
            vals = rng.integers(0, 1 << m, size=8, dtype=np.uint64)
            assert [h.apply_int(v) for v in vals] == [int(b) for b in h.apply(vals)]

    def test_zero_output_bits(self):
        rng = np.random.default_rng(6)
        h = AffineGf2Hash.sample(rng, 8, 0)
        assert np.all(h.apply(np.arange(256, dtype=np.uint64)) == 0)


def _random_rows(rng, k, m, deficient):
    rows = [int(r) for r in rng.integers(0, 1 << m, size=k, dtype=np.uint64)]
    if deficient and k:
        # a zero row, a repeated row or the sum of two others
        kind = int(rng.integers(min(k, 3)))
        i = int(rng.integers(k))
        if kind == 0:
            rows[i] = 0
        else:
            j = int(rng.integers(k - 1))
            j += j >= i
            rows[i] = rows[j]
            if kind == 2:
                l = next(x for x in range(k) if x not in (i, j))
                rows[i] ^= rows[l]
    return rows


class TestBlockElimination:
    def test_vector_draw_equals_scalar_draws(self):
        for m in range(1, MAX_BITS + 1):
            for k in (1, 2, 5, m):
                seed = [m, k]
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed)
                a.random()  # start both off a 64-bit boundary
                b.random()
                scalar = [int(a.integers(0, 1 << m, dtype=np.uint64)) for _ in range(k)]
                assert _draw_rows(b, k, m).tolist() == scalar, (m, k)
                assert a.bit_generator.state == b.bit_generator.state, (m, k)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 24, 40, MAX_BITS])
    def test_matches_solve_structures(self, m):
        rng = np.random.default_rng(m)
        blocks = {}
        for t in range(120):
            k = int(rng.integers(0, min(m, 30) + 1)) if t % 3 else min(m, 30)
            blocks.setdefault(k, []).append(_random_rows(rng, k, m, deficient=t % 2 == 1))
        seen = set()
        for k, block in blocks.items():
            full, null = _null_spaces(np.array(block, dtype=np.uint64).reshape(len(block), k), m)
            assert null.shape == (len(block), m - k)
            for rows, ok, basis in zip(block, full, null):
                try:
                    want = _solve_structures(rows, m)[1]
                except ValueError:
                    want = None
                assert bool(ok) == (want is not None) == (len(_reduce(rows, m)) == k)
                seen.add(bool(ok))
                if ok:
                    assert basis.tolist() == want
                    if m - k <= 10:
                        assert np.array_equal(coset_words(0, basis), coset_words(0, want))
                else:
                    assert not basis.any()
        assert seen == {True, False}

    @pytest.mark.parametrize("m, k", [(1, 1), (6, 6), (12, 5), (24, 18), (24, 24), (40, 33)])
    def test_sample_null_spaces_follows_sample_solved(self, m, k):
        seeds = [[m, k, t] for t in range(40)]
        rngs = [np.random.default_rng(s) for s in seeds]
        null = sample_null_spaces(rngs, m, k)
        for seed, rng, basis in zip(seeds, rngs, null):
            ref = np.random.default_rng(seed)
            _, (_, want) = _sample_solved(ref, k, m)
            assert basis.tolist() == want
            assert ref.bit_generator.state == rng.bit_generator.state

    def test_coset_words_over_a_block(self):
        rng = np.random.default_rng(9)
        m, k = 12, 8
        rngs = [np.random.default_rng([9, t]) for t in range(10)]
        null = sample_null_spaces(rngs, m, k)
        starts = rng.integers(0, 1 << m, size=10, dtype=np.uint64)
        block = coset_words(starts, null)
        assert block.shape == (10, 1 << (m - k))
        for start, basis, row in zip(starts, null, block):
            assert np.array_equal(row, coset_words(start, basis.tolist()))


class TestOneElimination:
    """`sample` and `coset` against the scalar reference in conftest."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 40, MAX_BITS])
    def test_sample_equals_scalar_reference(self, m, rejected_draws):
        for k in sorted({0, 1, m // 2, max(m - 3, 0), m - 1, m}):
            for seed in range(12):
                rng = np.random.default_rng([m, k, seed])
                ref = np.random.default_rng([m, k, seed])
                h = AffineGf2Hash.sample(rng, m, k)
                rows, _ = _sample_solved(ref, k, m)
                offset = int(ref.integers(0, 1 << k, dtype=np.uint64)) if k else 0
                assert h == AffineGf2Hash(m, k, tuple(rows), offset), (k, seed)
                assert rng.bit_generator.state == ref.bit_generator.state, (k, seed)
        # k = m rows are rank deficient often enough to redraw at every m
        assert rejected_draws

    def test_coset_at_the_top_bit(self):
        # m = 63 puts the syndrome bit of every row at bit 63, the word's top bit
        m = MAX_BITS
        rng = np.random.default_rng(63)
        for k in (m - 6, m - 3, m):
            for _ in range(4):
                h = AffineGf2Hash.sample(rng, m, k)
                s = int(rng.integers(0, 1 << k, dtype=np.uint64))
                words = h.coset(s)
                assert words.dtype == np.uint64 and words.size == 1 << (m - k)
                assert np.all(words[1:] > words[:-1])
                assert np.all(h.apply(words) == np.uint64(s))
                assert all(h.apply_int(int(w)) == s for w in words)

    def test_rank_deficient_coset_raises_for_every_syndrome(self):
        # an inconsistent syndrome makes the appended rows independent;
        # the pivot then sits at bit m and the coset is still refused
        for rows in ((0b0110, 0b0110), (0b0011, 0), (0b011, 0b110, 0b101)):
            m, k = max(rows).bit_length() + 1, len(rows)
            for s in range(1 << k):
                with pytest.raises(ValueError):
                    AffineGf2Hash(m, k, rows, 0).coset(s)
