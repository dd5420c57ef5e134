import heapq
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cit import (
    RateInfeasible,
    RateOutOfRange,
    SizeBudgetExceeded,
    binary_entropy,
    validate_pmf,
)
from cit.simulate import (
    COSET_CAP,
    SW_BLOCK,
    SwBinningReport,
    _draw_blocks,
    _safe_log,
    _Stage,
    cr_sk_simulate,
    default_copy_chain,
    sw_binning_simulate,
)
from cit.sources import bss_pmf, gain_pmf
from cit.chains import DeterministicChain, chain_from_json, chain_tensor, det_chain_search
from cit import simulate
from cit.hashing import AffineGf2Hash, pack_digits, unpack_digits
from cit.pmf import conditional_entropy, entropy

from conftest import _sample_solved, gain_two_round_chain


class TestSwBinning:
    def test_full_rate_near_lossless(self, bss25):
        rep = sw_binning_simulate(bss25, n=12, rate=1.0, trials=400, seed=0)
        assert rep.error_rate <= 0.01

    def test_copy_source_any_rate(self, uniform_copy):
        rep = sw_binning_simulate(uniform_copy, n=12, rate=0.25, trials=300, seed=0)
        assert rep.error_rate == 0.0

    def test_error_decays_with_blocklength(self):
        pmf = bss_pmf(0.1)
        rate = binary_entropy(0.1) + 0.25
        errs = [sw_binning_simulate(pmf, n, rate, trials=400, seed=1).error_rate
                for n in (8, 16, 24)]
        assert errs[1] <= errs[0] + 0.05
        assert errs[2] <= errs[1] + 0.05

    def test_rate_domain(self, bss25):
        with pytest.raises(RateOutOfRange):
            sw_binning_simulate(bss25, 8, 0.0, 10, 0)
        with pytest.raises(RateOutOfRange):
            sw_binning_simulate(bss25, 8, 1.2, 10, 0)

    def test_blocklength_budget(self, bss25):
        # the word rule alone bounds n: 64 binary symbols pack into 64 bits
        with pytest.raises(SizeBudgetExceeded, match=r"^blocks pack into 64 > 63 bits$"):
            sw_binning_simulate(bss25, 64, 0.9, 10, 0)
        rep = sw_binning_simulate(bss25, 30, 0.9, 10, 0)
        assert (rep.n, rep.bins_log2, rep.trials) == (30, 27, 10)
        # below 1 the blocklength is invalid, not over a budget
        with pytest.raises(ValueError, match=r"^blocklength must be at least 1, got 0$"):
            sw_binning_simulate(bss25, 0, 0.9, 10, 0)

    def test_ternary_alphabet_path(self):
        pmf = gain_pmf(0.1, 0.15, 0.15)
        rep = sw_binning_simulate(pmf, n=6, rate=1.2, trials=200, seed=4)
        assert 0.0 <= rep.error_rate <= 1.0

    def test_reproducible(self, bss25):
        a = sw_binning_simulate(bss25, 10, 0.9, 200, seed=9)
        b = sw_binning_simulate(bss25, 10, 0.9, 200, seed=9)
        assert a == b


def reference_sw_binary(pmf, n, rate, trials, seed):
    """The binary branch of `sw_binning_simulate` as a per-trial loop on the
    scalar GF(2) reference: draw the hash rows as `_sample_solved` does, solve
    for the bin of the sent word's syndrome and score every word in it."""
    k_bits = min(math.ceil(n * rate - 1e-12), n)
    assert 1 << (n - k_bits) <= COSET_CAP
    flat = pmf.p.ravel()
    ny = pmf.shape[1]
    cond = np.where(pmf.marginal_y[None, :] > 0, pmf.p / np.where(pmf.marginal_y[None, :] > 0, pmf.marginal_y[None, :], 1.0), 0.0)
    ll = _safe_log(cond)
    errors = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        cells = rng.choice(flat.size, size=n, p=flat)
        xd, yd = cells // ny, cells % ny
        word = int(xd @ (1 << np.arange(n)))
        rows, (cols, null) = _sample_solved(rng, k_bits, n)
        particular = 0
        for j, row in enumerate(rows):
            if (word & row).bit_count() & 1:
                particular ^= cols[j]
        span = [0]
        for v in null:
            span += [w ^ v for w in span]
        cands = np.array(sorted(particular ^ w for w in span), dtype=np.uint64)
        bits = unpack_digits(cands, n, 1)
        l0 = ll[0, yd]
        l1 = ll[1, yd]
        scores = bits @ (l1 - l0) + l0.sum()
        if int(cands[int(np.argmax(scores))]) != word:
            errors += 1
    return SwBinningReport(n=n, rate=rate, bins_log2=k_bits, trials=trials, seed=seed,
                           errors=errors, error_rate=errors / trials)


SW_SOURCES = {
    "bss 0.25": lambda: bss_pmf(0.25),
    "bss 0.1": lambda: bss_pmf(0.1),
    "uniform copy": lambda: validate_pmf([[0.5, 0.0], [0.0, 0.5]]),
    "zero cell": lambda: validate_pmf([[0.4, 0.0], [0.25, 0.35]]),
}


@pytest.mark.parametrize("source", SW_SOURCES)
def test_sw_binary_matches_reference(source, rejected_draws):
    """Equal reports for seeds 0-4 at rate 1 (a bin of one), the bench's rate
    0.72, and n = 24 at k = 12 (4,096 candidates, the decoder cap)."""
    pmf = SW_SOURCES[source]()
    cases = [(n, rate, 60) for n in (1, 2, 5, 8, 12, 16, 24) for rate in (1.0, 0.72)]
    errors = 0
    for seed in range(5):
        # the last case spans two blocks of trials
        for n, rate, trials in cases + [(24, 0.5, 60), (12, 0.72, SW_BLOCK + 40)]:
            want = reference_sw_binary(pmf, n, rate, trials, seed)
            assert sw_binning_simulate(pmf, n, rate, trials, seed) == want, (seed, n, rate)
            errors += want.errors
    # the reference redrew rank-deficient hashes, so the batched path had to
    assert rejected_draws
    assert errors or source == "uniform copy"


def _zero_cell_source(rng, nx, ny):
    """A random nx x ny source with one cell of zero mass."""
    p = rng.dirichlet(np.ones(nx * ny))
    p[rng.integers(p.size)] = 0.0
    return validate_pmf((p / p.sum()).reshape(nx, ny))


def test_block_draws_are_choice_draws():
    """Each row of `_draw_blocks` is the cells of `Generator.choice` with p,
    and every generator ends in the state `choice` leaves it in."""
    for seed in range(60):
        rng = np.random.default_rng([5, seed])
        pmf = _zero_cell_source(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        flat = pmf.p.ravel()
        ny = pmf.shape[1]
        for n in range(1, 25):
            ours = [np.random.default_rng([seed, n, t]) for t in range(3)]
            theirs = [np.random.default_rng([seed, n, t]) for t in range(3)]
            xd, yd = _draw_blocks(pmf, n, iter(ours))
            cells = np.array([g.choice(flat.size, size=n, p=flat) for g in theirs])
            assert xd.dtype == cells.dtype
            assert np.array_equal(xd, cells // ny) and np.array_equal(yd, cells % ny)
            for a, b in zip(ours, theirs):
                assert a.bit_generator.state == b.bit_generator.state


def reference_sw_nonbinary(pmf, n, rate, trials, seed):
    """The non-binary branch of `sw_binning_simulate` as a per-trial loop:
    draw the block with `Generator.choice`, look up its bin in the hash-sorted
    sequences and take the first best member."""
    nx, ny = pmf.shape
    k_bits = min(math.ceil(n * rate - 1e-12), math.ceil(n * math.log2(nx) - 1e-12))
    count = nx ** n
    bits_per = math.ceil(math.log2(nx))
    flat = pmf.p.ravel()
    cond = np.where(pmf.marginal_y[None, :] > 0, pmf.p / np.where(pmf.marginal_y[None, :] > 0, pmf.marginal_y[None, :], 1.0), 0.0)
    ll = _safe_log(cond)
    idx = np.arange(count)
    digits = np.empty((count, n), dtype=np.int64)
    for t in range(n):
        digits[:, t] = (idx // nx ** t) % nx
    h = AffineGf2Hash.sample(np.random.default_rng([seed, 0]), n * bits_per, k_bits)
    hashes = h.apply(pack_digits(digits, bits_per))
    order = np.argsort(hashes, kind="stable")
    sorted_h = hashes[order]
    errors = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        cells = rng.choice(flat.size, size=n, p=flat)
        xd, yd = cells // ny, cells % ny
        x_idx = int((xd * nx ** np.arange(n)).sum())
        s = hashes[x_idx]
        lo = np.searchsorted(sorted_h, s, side="left")
        hi = np.searchsorted(sorted_h, s, side="right")
        members = order[lo:hi]
        scores = ll[digits[members], yd[None, :]].sum(axis=1)
        if int(members[int(np.argmax(scores))]) != x_idx:
            errors += 1
    return SwBinningReport(n=n, rate=rate, bins_log2=k_bits, trials=trials, seed=seed,
                           errors=errors, error_rate=errors / trials)


def _recorded_chunks(monkeypatch, rows=None):
    """Record (row bytes, rows) of every chunk size the decoders ask for;
    with `rows`, every chunk holds that many trials."""
    asked = []
    chunk_rows = simulate._chunk_rows

    def recorded(row_bytes):
        asked.append((row_bytes, rows or chunk_rows(row_bytes)))
        return asked[-1][1]

    monkeypatch.setattr(simulate, "_chunk_rows", recorded)
    return asked


NONBINARY_SOURCES = {
    "gain": lambda: gain_pmf(0.1, 0.15, 0.15),
    "random 3x3": lambda: _zero_cell_source(np.random.default_rng(33), 3, 3),
    "random 4x3": lambda: _zero_cell_source(np.random.default_rng(43), 4, 3),
    "random 3x2": lambda: _zero_cell_source(np.random.default_rng(32), 3, 2),
}


@pytest.mark.parametrize("source", NONBINARY_SOURCES)
def test_sw_nonbinary_matches_reference(source, monkeypatch):
    """Equal reports at seeds 0-1 for bins of about one sequence (full
    rate), the bench's rate 1.3, and bins at the decoder cap, with trial
    counts that span more than one chunk."""
    pmf = NONBINARY_SOURCES[source]()
    nx = pmf.shape[0]
    asked = _recorded_chunks(monkeypatch)
    cap = (8, 0.5) if nx == 3 else (7, 0.2)
    cases = [(5, math.log2(nx), 300), (8, 1.3, 700), (6, 0.9, 400), cap + (5,)]
    errors = crossed = 0
    for seed in (0, 1):
        for n, rate, trials in cases:
            want = reference_sw_nonbinary(pmf, n, rate, trials, seed)
            assert sw_binning_simulate(pmf, n, rate, trials, seed) == want, (seed, n, rate)
            errors += want.errors
            crossed += asked[-1][1] < trials
            if (n, rate) == cap:
                # two bits a symbol: the coset holds COSET_CAP words
                assert 1 << (2 * n - want.bins_log2) == COSET_CAP
    assert errors
    # every case but the full rate spans several chunks
    assert crossed == 6


def reference_sw_coset(pmf, n, rate, trials, seed):
    """`sw_binning_simulate` on other alphabets as a per-trial loop on the
    scalar hash: draw the block with `Generator.choice`, list the sent word's
    bin with `AffineGf2Hash.coset`, keep the words whose digits all name a
    symbol, and take the first best of them as `reference_sw_nonbinary` does.
    It reaches the blocklengths whose |X|^n sequences that oracle cannot list."""
    nx, ny = pmf.shape
    bits_per = (nx - 1).bit_length()
    k_bits = min(math.ceil(n * rate - 1e-12), math.ceil(n * math.log2(nx) - 1e-12))
    flat = pmf.p.ravel()
    cond = np.where(pmf.marginal_y[None, :] > 0, pmf.p / np.where(pmf.marginal_y[None, :] > 0, pmf.marginal_y[None, :], 1.0), 0.0)
    ll = _safe_log(cond)
    h = AffineGf2Hash.sample(np.random.default_rng([seed, 0]), n * bits_per, k_bits)
    errors = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, 1, t])
        cells = rng.choice(flat.size, size=n, p=flat)
        xd, yd = cells // ny, cells % ny
        word = sum(int(d) << (i * bits_per) for i, d in enumerate(xd))
        words = h.coset(h.apply_int(word))
        digits = unpack_digits(words, n, bits_per)
        members = (digits < nx).all(axis=1)
        words, digits = words[members], digits[members]
        scores = ll[digits, yd[None, :]].sum(axis=1)
        if int(words[int(np.argmax(scores))]) != word:
            errors += 1
    return SwBinningReport(n=n, rate=rate, bins_log2=k_bits, trials=trials, seed=seed,
                           errors=errors, error_rate=errors / trials)


def test_sw_nonbinary_matches_coset_reference(gain):
    """gain at rate 1.3 for n = 13, 16 and 18, past the full enumeration:
    bins of 2^10, 2^11 and 2^12 words, the last at the decoder cap; the
    first case spans two blocks of trials."""
    errors = 0
    for seed in (0, 1):
        for n, trials in ((13, SW_BLOCK + 40), (16, 60), (18, 60)):
            want = reference_sw_coset(gain, n, 1.3, trials, seed)
            assert sw_binning_simulate(gain, n, 1.3, trials, seed) == want, (seed, n)
            errors += want.errors
    assert errors


def test_sw_bin_size_rule(gain):
    """The one size rule: bins of at most COSET_CAP words, whatever the alphabet."""
    with pytest.raises(SizeBudgetExceeded, match=r"^bins of size 2\^13 exceed the decoder cap 4096$"):
        sw_binning_simulate(gain, 8, 0.375, 5, 0)
    assert sw_binning_simulate(gain, 8, 0.5, 5, 0).bins_log2 == 4


def test_sw_word_size_is_refused_before_any_draw(monkeypatch):
    """Five symbols take 3 bits each, so n = 22 packs into 66 bits; nothing is drawn."""
    def no_draw(*args):
        raise AssertionError("drew before the size check")

    monkeypatch.setattr(simulate, "_trial_states", no_draw)
    monkeypatch.setattr(simulate, "sample_null_spaces", no_draw)
    pmf = validate_pmf(np.full((5, 2), 0.1))
    with pytest.raises(SizeBudgetExceeded, match=r"^blocks pack into 66 > 63 bits$"):
        sw_binning_simulate(pmf, 22, 1.0, 5, 0)


def test_sw_nonbinary_one_trial_chunks(gain, monkeypatch):
    _recorded_chunks(monkeypatch, rows=1)
    for n, rate in ((6, 0.9), (8, 1.3)):
        assert sw_binning_simulate(gain, n, rate, 300, 3) == reference_sw_nonbinary(gain, n, rate, 300, 3)


def test_sw_nonbinary_decode_memory_is_bounded(gain, monkeypatch):
    """20,000 trials decode in chunks whose score operands stay under 1 MB."""
    asked = _recorded_chunks(monkeypatch)
    got = sw_binning_simulate(gain, 8, 1.3, 20_000, 0)
    assert asked and max(row_bytes * rows for row_bytes, rows in asked) < 1 << 20
    assert got == reference_sw_nonbinary(gain, 8, 1.3, 20_000, 0)


class TestCrSk:
    def test_copy_source_clean_key(self, uniform_copy):
        chain = default_copy_chain(uniform_copy)
        rep = cr_sk_simulate(uniform_copy, chain, n=16, key_rate=0.5, trials=400, seed=11)
        assert rep.cr_error_rate == 0.0
        assert rep.leakage_exact
        assert rep.leakage <= 0.05
        assert rep.uniformity_gap <= 0.05

    def test_zero_key_rate_degenerate(self, uniform_copy):
        chain = default_copy_chain(uniform_copy)
        rep = cr_sk_simulate(uniform_copy, chain, n=16, key_rate=0.0, trials=100, seed=11)
        assert rep.key_bits == 0
        assert rep.leakage == 0.0
        assert rep.uniformity_gap == 0.0

    def test_independent_infeasible(self, independent):
        chain = default_copy_chain(independent)
        with pytest.raises(RateInfeasible):
            cr_sk_simulate(independent, chain, n=16, key_rate=0.1, trials=50, seed=1)

    def test_bss_quarter(self, bss25):
        chain = default_copy_chain(bss25)
        rep = cr_sk_simulate(bss25, chain, n=16, key_rate=0.1, trials=800, seed=11)
        assert rep.cr_error_rate <= 0.2
        assert rep.uniformity_gap <= 0.1

    def test_two_round_chain_runs(self, gain):
        det = det_chain_search(gain, 2, (2, 3))
        rep = cr_sk_simulate(gain, det.chain, n=8, key_rate=0.01, trials=200, seed=5)
        assert rep.comm_rate > 0
        assert len(rep.stage_bits) == 2
        assert 0.0 <= rep.cr_error_rate <= 1.0

    def test_known_gain_chain_runs(self, gain):
        rep = cr_sk_simulate(gain, gain_two_round_chain(), n=8, key_rate=0.0,
                             trials=150, seed=6)
        assert rep.key_bits == 0

    def test_deterministic_report(self, bss25):
        chain = default_copy_chain(bss25)
        a = cr_sk_simulate(bss25, chain, n=12, key_rate=0.1, trials=300, seed=21)
        b = cr_sk_simulate(bss25, chain, n=12, key_rate=0.1, trials=300, seed=21)
        assert a == b

    def test_json_fields(self, uniform_copy):
        chain = default_copy_chain(uniform_copy)
        rep = cr_sk_simulate(uniform_copy, chain, n=8, key_rate=0.25, trials=50, seed=2)
        blob = rep.to_json()
        assert blob["leakage_basis"] in ("exact", "estimate")
        for key in ("trials", "cr_error_rate", "comm_rate", "key_rate",
                    "leakage", "uniformity_gap"):
            assert key in blob

    def test_randomized_chain_rejected(self, bss25):
        chain = default_copy_chain(bss25).as_auxiliary()
        with pytest.raises(ValueError):
            cr_sk_simulate(bss25, chain, n=8, key_rate=0.1, trials=10, seed=0)


class TestSizeOneRound:
    """A round whose chain variable takes one value sends nothing and is
    never decoded: its stage is the identity with no bits."""

    @pytest.mark.parametrize("sizes, tables, stage_bits, leakage, gap", [
        ([3, 1], [[0, 1, 2], [[0, 0, 0]] * 3], [7, 0],
         0.24986851843667113, 0.00013148156332920546),
        ([1, 3], [[0, 0, 0], [[0], [1], [2]]], [0, 7],
         0.24976623289440303, 0.00023376710559736003),
    ], ids=["second-round", "first-round"])
    def test_gain(self, gain, sizes, tables, stage_bits, leakage, gap):
        chain = chain_from_json({"kind": "deterministic", "initiator": "x", "sizes": sizes,
                                 "tables": tables})
        rep = cr_sk_simulate(gain, chain, n=4, key_rate=0.01, trials=100, seed=0)
        assert rep.to_json() == {
            "trials": 100, "n": 4, "seed": 0, "slack": 0.25, "cr_error_rate": 0.0,
            "comm_rate": 1.75, "key_rate": 0.25, "key_bits": 1, "leakage": leakage,
            "leakage_basis": "exact", "uniformity_gap": gap, "stage_bits": stage_bits,
            "decode_failures": 0,
        }
        assert rep.pops == (0, 0) and rep.stragglers == (0, 0)

    def test_bss_constant_chain(self, bss25):
        chain = chain_from_json({"kind": "deterministic", "initiator": "x", "sizes": [1],
                                 "tables": [[0, 0]]})
        rep = cr_sk_simulate(bss25, chain, n=8, key_rate=0.0, trials=50, seed=0)
        assert rep.to_json() == {
            "trials": 50, "n": 8, "seed": 0, "slack": 0.25, "cr_error_rate": 0.0,
            "comm_rate": 0.0, "key_rate": 0.0, "key_bits": 0, "leakage": 0.0,
            "leakage_basis": "exact", "uniformity_gap": 0.0, "stage_bits": [0],
            "decode_failures": 0,
        }


@pytest.mark.parametrize("n", [0, -1])
def test_crsk_needs_a_positive_blocklength(bss25, n):
    with pytest.raises(ValueError, match=f"blocklength must be at least 1, got {n}"):
        cr_sk_simulate(bss25, default_copy_chain(bss25), n=n, key_rate=0.1, trials=10, seed=0)


def test_crsk_packing_budget(bss25):
    chain = default_copy_chain(bss25)
    with pytest.raises(SizeBudgetExceeded):
        cr_sk_simulate(bss25, chain, n=70, key_rate=0.05, trials=10, seed=0)


def test_crsk_accumulated_word_is_refused_before_any_stage(bss25, monkeypatch):
    """Two one-bit stages at n = 40 pack into 80 bits, though each stage's
    40-bit word fits."""
    def no_stage(*args):
        raise AssertionError("built a stage before the size check")

    monkeypatch.setattr(simulate, "_Stage", no_stage)
    chain = chain_from_json({"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
                             "tables": [[0, 1], [[0, 0], [1, 1]]]})
    with pytest.raises(SizeBudgetExceeded, match=r"^accumulated CR packs into 80 > 63 bits$"):
        cr_sk_simulate(bss25, chain, n=40, key_rate=0.05, trials=10, seed=0)


# the bench's `crsk:gain-n4` chain
BENCH_GAIN_CHAIN = {"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
                    "tables": [[0, 0, 1], [[0, 0], [1, 0], [1, 0]]]}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="key_bits rounds n * key_rate up, and only the "
                   "requested rate is checked against the extractable rate")
def test_crsk_runs_at_most_the_extractable_rate(gain):
    """The bench's `crsk:gain-n4` asks for 0.01 and runs at 1 key bit in 4."""
    chain = chain_from_json(BENCH_GAIN_CHAIN)
    tensor = chain_tensor(gain, chain)
    u = ("u1", "u2")
    extractable = entropy(tensor, u) - conditional_entropy(tensor, "u1", ("y",)) \
        - conditional_entropy(tensor, "u2", ("x", "u1"))
    assert extractable == pytest.approx(0.016142, abs=1e-6)
    try:
        rep = cr_sk_simulate(gain, chain, n=4, key_rate=0.01, trials=20, seed=0, slack=0.1)
    except RateInfeasible:
        return
    assert rep.key_rate <= extractable + 1e-12


class TestDecoderOracles:
    def test_binary_coset_decoder_is_ml_over_bin(self):
        """Cross-check the coset decoder against brute-force ML over the bin."""
        from cit.hashing import AffineGf2Hash, pack_digits, unpack_digits
        from cit.sources import bss_pmf
        import numpy as np

        pmf = bss_pmf(0.2)
        n, k_bits = 8, 5
        ll = np.log(np.where(pmf.p > 0, pmf.p / pmf.marginal_y[None, :], 1e-300))
        rng = np.random.default_rng(77)
        for _ in range(25):
            xd = rng.integers(0, 2, n)
            yd = rng.integers(0, 2, n)
            word = int(pack_digits(xd[None, :], 1)[0])
            h = AffineGf2Hash.sample(rng, n, k_bits)
            s = h.apply_int(word)
            # library path
            cands = h.coset(s)
            bits = unpack_digits(cands, n, 1)
            l0, l1 = ll[0, yd], ll[1, yd]
            scores = bits @ (l1 - l0) + l0.sum()
            decoded = int(cands[int(np.argmax(scores))])
            # brute force over the whole space
            best_v, best_ll = None, -np.inf
            for v in range(1 << n):
                if h.apply_int(v) != s:
                    continue
                dv = [(v >> t) & 1 for t in range(n)]
                cand_ll = sum(ll[dv[t], yd[t]] for t in range(n))
                if cand_ll > best_ll + 1e-12:
                    best_v, best_ll = v, cand_ll
            # the decoder must achieve the maximum bin likelihood
            dd = [(decoded >> t) & 1 for t in range(n)]
            dec_ll = sum(ll[dd[t], yd[t]] for t in range(n))
            assert dec_ll == pytest.approx(best_ll, abs=1e-9)

    def test_best_first_search_achieves_bin_maximum(self):
        """The likelihood-ordered search equals brute-force ML over the bin."""
        import numpy as np
        from cit.chains import chain_tensor
        from cit.simulate import _Stage

        pmf = bss_pmf(0.1)
        chain = default_copy_chain(pmf)
        tensor = chain_tensor(pmf, chain)
        stage = _Stage(tensor, chain, 1, n=7, slack=0.05, seed=9)
        assert not stage.identity
        rng = np.random.default_rng(5)
        for _ in range(25):
            yd = rng.integers(0, 2, 7)
            syndrome = int(rng.integers(0, 1 << stage.k_bits))
            ll_row = stage.ll[yd]
            digits, found, _ = stage._search((yd[None],), np.array([syndrome], dtype=np.uint64),
                                              4096)
            assert found[0]
            got = digits[0]
            got_ll = sum(ll_row[t, got[t]] for t in range(7))
            best_ll = -np.inf
            for v in range(1 << 7):
                if stage.hash.apply_int(v) != syndrome:
                    continue
                dv = [(v >> t) & 1 for t in range(7)]
                best_ll = max(best_ll, sum(ll_row[t, dv[t]] for t in range(7)))
            assert got_ll == pytest.approx(best_ll, abs=1e-9)

    def test_exact_leakage_matches_trials_free_bruteforce(self, uniform_copy):
        """Independent recomputation of (1/n) I(K; F) for a tiny instance."""
        import numpy as np
        from cit.hashing import pack_digits
        from cit.simulate import _Stage
        from cit.chains import chain_tensor

        n = 6
        chain = default_copy_chain(uniform_copy)
        rep = cr_sk_simulate(uniform_copy, chain, n=n, key_rate=0.5, trials=5, seed=31)
        assert rep.leakage_exact
        # brute force: X = Y uniform, CR = x block; reconstruct K and F from
        # the same seeded hashes and average exactly over all 2^n blocks
        stage = _Stage(chain_tensor(uniform_copy, chain), chain,
                       1, n=n, slack=0.25, seed=31)
        from cit.hashing import AffineGf2Hash
        key_hash = AffineGf2Hash.sample(np.random.default_rng([31, 1]), n, rep.key_bits)
        words = np.arange(1 << n, dtype=np.uint64)
        f_vals = stage.hash.apply(words)
        k_vals = key_hash.apply(words)
        joint = {}
        for f, kk in zip(f_vals.tolist(), k_vals.tolist()):
            joint[(kk, f)] = joint.get((kk, f), 0) + 1.0 / (1 << n)
        import collections
        pk = collections.Counter()
        pf = collections.Counter()
        for (kk, f), m in joint.items():
            pk[kk] += m
            pf[f] += m
        def h(ms):
            return -sum(m * np.log2(m) for m in ms if m > 0)
        mi = h(pk.values()) + h(pf.values()) - h(joint.values())
        assert rep.leakage == pytest.approx(max(mi, 0.0) / n, abs=1e-12)


def reference_best_first(stage, ll_row, order_row, syndrome, pop_budget):
    """The best-first loop that packs and hashes the sequence at every pop,
    kept as the reference for the incremental-syndrome decoder.

    Returns (digits or None, pops).
    """
    n, size = ll_row.shape
    sorted_ll = np.take_along_axis(ll_row, order_row, axis=-1)
    base = float(sorted_ll[:, 0].sum())
    start = (0,) * n
    heap = [(-base, start)]
    seen = {start}
    pops = 0
    while heap and pops < pop_budget:
        neg, ranks = heapq.heappop(heap)
        pops += 1
        digits = order_row[np.arange(n), list(ranks)]
        word = int(pack_digits(digits[None, :], stage.bits_per)[0])
        if stage.hash.apply_int(word) == syndrome:
            return digits, pops
        for t in range(n):
            if ranks[t] + 1 < size:
                nxt = ranks[:t] + (ranks[t] + 1,) + ranks[t + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    delta = sorted_ll[t, ranks[t] + 1] - sorted_ll[t, ranks[t]]
                    heapq.heappush(heap, (neg - delta, nxt))
    return None, pops


def _gain_chain(initiator):
    chain = gain_two_round_chain()
    return DeterministicChain(initiator, chain.sizes, chain.tables)


class TestBestFirstReference:
    @pytest.mark.parametrize("source", ["bss", "gain"])
    @pytest.mark.parametrize("initiator", ["x", "y"])
    def test_matches_reference(self, source, initiator):
        if source == "bss":
            pmf = bss_pmf(0.2)
            chain = DeterministicChain(initiator, (2,), (np.array([0, 1]),))
        else:
            pmf = gain_pmf(0.1, 0.15, 0.15)
            chain = _gain_chain(initiator)
        tensor = chain_tensor(pmf, chain)
        rng = np.random.default_rng([7, source == "gain", initiator == "y"])
        found = exhausted = 0
        for _ in range(12):
            n = int(rng.integers(3, 10))
            seed = int(rng.integers(1 << 20))
            slack = float(rng.uniform(0.0, 0.2))
            for j in range(1, chain.rounds + 1):
                stage = _Stage(tensor, chain, j, n, slack, seed)
                if stage.identity:
                    continue
                for _ in range(4):
                    # a random listener context: its symbols and prior chain values
                    ctx = tuple(rng.integers(0, dim, n) for dim in stage.ll.shape[:-1])
                    ll_row = stage.ll[ctx]
                    order_row = stage.like_order[ctx]
                    syndrome = int(rng.integers(0, 1 << stage.k_bits))
                    budget = int(rng.choice([1, 4, 30, 4096]))
                    want, want_pops = reference_best_first(stage, ll_row, order_row,
                                                           syndrome, budget)
                    got, hit, pops = stage._search(tuple(c[None] for c in ctx),
                                                   np.array([syndrome], dtype=np.uint64), budget)
                    assert pops[0] == want_pops
                    if want is None:
                        exhausted += 1
                        assert not hit[0]
                    else:
                        found += 1
                        assert hit[0] and np.array_equal(got[0], want)
        assert found and exhausted

    @pytest.mark.parametrize("initiator", ["x", "y"])
    def test_size_three_stages_match_reference(self, initiator):
        """Stages of size 3, where a rank tuple's code has radix 3: the copy
        chain of a 3x3 source and a two-round chain of two size-3 stages, at
        every budget. Some found searches end on a rank of 2."""
        tri = validate_pmf(0.8 * np.eye(3) / 3 + 0.2 / 9)
        chains = (DeterministicChain(initiator, (3,), (np.arange(3),)),
                  DeterministicChain(initiator, (3, 3),
                                     (np.arange(3), (np.arange(3)[:, None] + np.arange(3)) % 3)))
        rng = np.random.default_rng([11, initiator == "y"])
        found = exhausted = top_rank = 0
        for chain in chains:
            tensor = chain_tensor(tri, chain)
            for n in (3, 5, 7):
                for j in range(1, chain.rounds + 1):
                    stage = _Stage(tensor, chain, j, n, 0.1, seed=n)
                    assert stage.size == 3 and not stage.identity
                    for _ in range(6):
                        ctx = tuple(rng.integers(0, dim, n) for dim in stage.ll.shape[:-1])
                        order_row = stage.like_order[ctx]
                        syndrome = int(rng.integers(0, 1 << stage.k_bits))
                        for budget in (1, 4, 30, 4096):
                            want, want_pops = reference_best_first(stage, stage.ll[ctx], order_row,
                                                                   syndrome, budget)
                            got, hit, pops = stage._search(tuple(c[None] for c in ctx),
                                                           np.array([syndrome], dtype=np.uint64),
                                                           budget)
                            assert pops[0] == want_pops
                            if want is None:
                                exhausted += 1
                                assert not hit[0]
                            else:
                                found += 1
                                assert hit[0] and np.array_equal(got[0], want)
                                top_rank += int((order_row == want[:, None]).argmax(axis=1).max() == 2)
        assert found and exhausted and top_rank

    def test_bench_pop_totals(self):
        """Seed-0 decoder totals of the staged-scheme bench commands; the pops
        equal the hash evaluations of the per-pop reference decoder."""
        gain = gain_pmf(0.1, 0.15, 0.15)
        chain = chain_from_json({"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
                                 "tables": [[0, 0, 1], [[0, 0], [1, 0], [1, 0]]]})
        rep = cr_sk_simulate(gain, chain, n=4, key_rate=0.01, trials=200, seed=0, slack=0.1)
        assert rep.pops == (0, 16675)
        assert rep.stragglers == (0, 4273)
        bss = bss_pmf(0.25)
        rep = cr_sk_simulate(bss, default_copy_chain(bss), n=12, key_rate=0.1, trials=20,
                             seed=0, slack=0.1)
        assert rep.pops == (9125,)
        assert rep.stragglers == (20,)
        assert "pops" not in rep.to_json() and "stragglers" not in rep.to_json()


def test_batched_search_matches_single_rows():
    """One `_search` over a stack of straggler rows gives every row the digits,
    the verdict and the pops of its own single-row search."""
    gain = gain_pmf(0.1, 0.15, 0.15)
    bss = bss_pmf(0.2)
    rng = np.random.default_rng(41)
    hits = misses = 0
    for pmf, chain, n in ((bss, default_copy_chain(bss), 12), (gain, _gain_chain("x"), 9),
                          (gain, _gain_chain("y"), 6)):
        tensor = chain_tensor(pmf, chain)
        for j in range(1, chain.rounds + 1):
            stage = _Stage(tensor, chain, j, n, 0.05, seed=3)
            if stage.identity:
                continue
            ctx = tuple(rng.integers(0, dim, (40, n)) for dim in stage.ll.shape[:-1])
            synd = rng.integers(0, 1 << stage.k_bits, 40, dtype=np.uint64)
            digits, found, pops = stage._search(ctx, synd, 300)
            for i in range(40):
                one, hit, one_pops = stage._search(tuple(c[i:i + 1] for c in ctx),
                                                   synd[i:i + 1], 300)
                assert hit[0] == found[i] and np.array_equal(one[0], digits[i])
                assert one_pops[0] == pops[i]
            hits += int(found.sum())
            misses += int((~found).sum())
    assert hits and misses


class TestTrialRngs:
    """`_trial_rngs` against numpy's own seeding: a numpy whose `SeedSequence`
    hashes differently fails here."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 30])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_equal_to_default_rng(self, seed, k):
        for ts in (range(0, 5), range(SW_BLOCK, SW_BLOCK + 3), range(3 * SW_BLOCK, 3 * SW_BLOCK + 2),
                   range(7, 7), range(11, 12), range(2 ** 32 - 2, 2 ** 32)):
            got = simulate._trial_rngs((seed, k), ts)
            assert len(got) == len(ts)
            for rng, t in zip(got, ts):
                want = np.random.default_rng([seed, k, t])
                assert rng.bit_generator.state == want.bit_generator.state
                assert np.array_equal(rng.random(8), want.random(8))
                assert np.array_equal(rng.integers(0, 1 << 40, 4, dtype=np.uint64),
                                      want.integers(0, 1 << 40, 4, dtype=np.uint64))

    def test_negative_entropy_raises_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 1, 0])
        with pytest.raises(ValueError):
            simulate._trial_rngs((-1, 1), range(3))
        with pytest.raises(ValueError):
            simulate._trial_rngs((0, 1), range(-1, 2))

    def test_trial_index_below_two_to_the_32(self):
        with pytest.raises(ValueError):
            simulate._trial_rngs((0, 1), range(2 ** 32, 2 ** 32 + 2))


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_distinct_rows_match_unique(cols):
    """`_distinct_rows` gives `np.unique(axis=0)`'s rows and inverse, also for
    words at and above 2^63 and for a single row."""
    values = np.array([0, 1, 7, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1], dtype=np.uint64)
    rng = np.random.default_rng([13, cols])
    for rows in (1, 2, 3, 60, 2000):
        a = values[rng.integers(0, len(values), (rows, cols))]
        want_rows, want_inv = np.unique(a, axis=0, return_inverse=True)
        got_rows, got_inv = simulate._distinct_rows(a)
        assert got_rows.dtype == a.dtype and np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_inv, want_inv.reshape(-1))


def reference_key_transcript_entropies(keys, transcript, weights):
    """The entropies as taken with `np.unique(axis=0)`, the reference for the
    lexsort helper; K and F are one word each."""
    pairs = np.stack([keys.astype(np.uint64), transcript.astype(np.uint64)], axis=1)
    uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
    joint = np.bincount(inv.reshape(-1), weights=weights)
    joint = joint / joint.sum()
    _, k_inv = np.unique(uniq[:, 0], return_inverse=True)
    _, f_inv = np.unique(uniq[:, 1], return_inverse=True)
    return tuple(simulate._plugin_entropy(m) for m in (
        np.bincount(k_inv, weights=joint), np.bincount(f_inv, weights=joint), joint))


def test_key_transcript_entropies_bits():
    """The estimate path's `_distinct_rows` and `_group_entropies` against the reference."""
    rng = np.random.default_rng(17)
    for rows, f_bits in ((1, 4), (40, 4), (2000, 8), (6561, 12)):
        keys = rng.integers(0, 4, rows, dtype=np.uint64)
        transcript = rng.integers(0, 1 << f_bits, rows, dtype=np.uint64)
        transcript |= np.uint64(1 << 63) * rng.integers(0, 2, rows, dtype=np.uint64)
        for weights in (np.ones(rows), rng.dirichlet(np.ones(rows))):
            groups, inv = simulate._distinct_rows(np.stack([keys, transcript], axis=1))
            got = simulate._group_entropies(groups, np.bincount(inv, weights=weights))
            assert got == reference_key_transcript_entropies(keys, transcript, weights)


def test_sw_nonbinary_memory_without_digit_table(gain):
    """gain at n = 12 (531,441 sequences) for 10 trials lists only the
    trials' bins: the traced peak stays under 2 MB (listing every sequence
    took 21.9 MB)."""
    tracemalloc.start()
    try:
        rep = sw_binning_simulate(gain, 12, 1.3, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
    golden = json.loads((Path(__file__).parent / "golden_lab.json").read_text())
    assert rep.to_json() == golden["sw:gain-n12@0"]["report"]


def _scheme(pmf, chain, n, key_rate, seed, slack):
    """The stages and the key hash that `cr_sk_simulate` builds, and the key bits."""
    tensor = chain_tensor(pmf, chain)
    stages = [_Stage(tensor, chain, j, n, slack, seed) for j in range(1, chain.rounds + 1)]
    total_bits = sum(n * st.bits_per for st in stages)
    key_bits = min(math.ceil(n * key_rate - 1e-12), total_bits) if key_rate > 0 else 0
    key_hash = AffineGf2Hash.sample(np.random.default_rng([seed, 1]), max(total_bits, 1), key_bits)
    return stages, key_hash, key_bits


def _trial_blocks(pmf, n, trials, seed):
    return _draw_blocks(pmf, n, simulate._trial_rngs((seed, 2), range(trials)))


def _support_blocks(pmf, n):
    """Every block of the support of P^n as (x, y) rows, and its probability."""
    cells = np.argwhere(pmf.p > 0)
    support = cells.shape[0]
    n_rows = support ** n if support > 1 else 1
    idx = np.arange(n_rows)
    sel = np.empty((n_rows, n), dtype=np.int64)
    for t in range(n):
        sel[:, t] = (idx // support ** t) % support
    w = np.ones(n_rows)
    probs = pmf.p[cells[:, 0], cells[:, 1]]
    for t in range(n):
        w *= probs[sel[:, t]]
    return cells[sel, 0], cells[sel, 1], w


def reference_exact_leakage(pmf, chain, n, key_rate, trials, seed, slack=0.25):
    """The one-shot exact enumeration: all |supp P|^n block rows go through
    the pipeline at once, every stage decoded, and are grouped by (K, F) in
    one pass. Returns the leakage, the uniformity gap, and the per-stage
    stragglers and pops as `cr_sk_simulate` counts them: over the trial rows,
    and over the enumerated rows only in the stages whose decodes K or F
    reads, those heard by x or followed by a word from y."""
    stages, key_hash, key_bits = _scheme(pmf, chain, n, key_rate, seed, slack)
    simulate._run_rows(stages, key_hash, *_trial_blocks(pmf, n, trials, seed))
    trial_counts = [(st.stragglers, st.pops) for st in stages]
    xd, yd, w = _support_blocks(pmf, n)
    _, keys, transcript, _ = simulate._run_rows(stages, key_hash, xd, yd)
    h_k, h_f, h_kf = reference_key_transcript_entropies(keys, transcript, w)
    counts = [(st.stragglers, st.pops) if st.listener == "x"
              or any(later.speaker == "y" for later in stages[j + 1:]) else trial_counts[j]
              for j, st in enumerate(stages)]
    return (max(h_k + h_f - h_kf, 0.0) / n, max(key_bits - h_k, 0.0) / n,
            tuple(c[0] for c in counts), tuple(c[1] for c in counts))


def _assert_exact_matches_reference(pmf, chain, n, key_rate, trials, seed, slack=0.25):
    rep = cr_sk_simulate(pmf, chain, n=n, key_rate=key_rate, trials=trials, seed=seed, slack=slack)
    assert rep.leakage_exact
    leakage, gap, stragglers, pops = reference_exact_leakage(pmf, chain, n, key_rate,
                                                             trials, seed, slack)
    assert rep.leakage.hex() == leakage.hex()
    assert rep.uniformity_gap.hex() == gap.hex()
    assert rep.stragglers == stragglers and rep.pops == pops
    return rep


# bss at crossover 0.1 carries I(X;Y) = 0.53 bits, so each key rate is
# feasible. At slack 0.6 the copy stage sends X's block as it is; at slack
# 0.25 it hashes it, and every row whose likeliest block misses the bin is
# searched, thousands of rows from n = 7 on.
@pytest.mark.parametrize("key_rate", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("n, slack", [(n, 0.6) for n in range(1, 11)]
                         + [(n, 0.25) for n in range(1, 6)])
def test_exact_leakage_matches_one_shot_bss(n, slack, key_rate):
    bss = bss_pmf(0.1)
    _assert_exact_matches_reference(bss, default_copy_chain(bss), n, key_rate, 7, n, slack)


@pytest.mark.parametrize("initiator", ["x", "y"])
@pytest.mark.parametrize("n", range(1, 6))
def test_exact_leakage_matches_one_shot_gain(gain, initiator, n):
    rep = _assert_exact_matches_reference(gain, _gain_chain(initiator), n, 0.001, 30, 3, 0.1)
    if n >= 4:
        assert sum(rep.pops)


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_leakage_matches_one_shot_zero_cell(n):
    pmf = validate_pmf([[0.4, 0.1, 0.0], [0.1, 0.3, 0.1]])
    _assert_exact_matches_reference(pmf, default_copy_chain(pmf), n, 0.1, 9, 2)


@pytest.mark.parametrize("n", [4, 8])
def test_exact_leakage_matches_one_shot_underflow(n):
    """Blocks with four or more 1e-100 cells weigh 0 in float64; each (K, F)
    pair they reach is reached by a block of positive weight too."""
    pmf = validate_pmf([[1 - 3e-100, 1e-100], [1e-100, 1e-100]])
    probs = pmf.p[pmf.p > 0]
    assert np.prod(np.full(4, probs.min())) == 0.0
    _assert_exact_matches_reference(pmf, default_copy_chain(pmf), n, 0.0, 5, 1)


@pytest.mark.parametrize("rows", [1, 7])
def test_exact_leakage_block_sizes(gain, bss25, monkeypatch, rows):
    """Blocks of one row, and of 7 rows, which divides no 4^n or 9^n."""
    for pmf, chain, n, key_rate in ((bss25, default_copy_chain(bss25), 5, 0.1),
                                    (gain, _gain_chain("x"), 3, 0.001),
                                    (gain, _gain_chain("y"), 3, 0.001)):
        monkeypatch.setattr(simulate, "EXACT_BLOCK_CELLS", rows * n)
        _assert_exact_matches_reference(pmf, chain, n, key_rate, 20, 4, 0.1)


@pytest.mark.parametrize("n", [6, 7])
def test_exact_leakage_many_fresh_pairs_per_block(monkeypatch, n):
    """X = Y uniform on 4 symbols at key rate 1.9: the key hash spreads the
    blocks over 2^12 and 2^14 (K, F) pairs, most of them new in each block
    of 3 rows."""
    pmf = validate_pmf(np.eye(4) / 4)
    monkeypatch.setattr(simulate, "EXACT_BLOCK_CELLS", 3 * n)
    _assert_exact_matches_reference(pmf, default_copy_chain(pmf), n, 1.9, 10, n)


@pytest.mark.parametrize("source, n", [("bss", 6), ("gain-y", 4), ("gain-x", 4),
                                       ("ternary-x", 3)])
def test_read_only_rows_keep_k_and_f(gain, source, n):
    """`_run_rows(read_only=True)` skips the decodes by y after y's last
    word, and gives the support's blocks the K and F words of the full run.
    With x first, gain's last listener is x, and on the two-round ternary
    chain y hears a hashed stage before its own word: nothing is skipped."""
    if source == "bss":
        pmf = bss_pmf(0.1)
        chain, key_rate, slack = default_copy_chain(pmf), 0.5, 0.25
    elif source == "ternary-x":
        pmf = validate_pmf(0.8 * np.eye(3) / 3 + 0.2 / 9)
        chain = DeterministicChain("x", (3, 3), (np.arange(3),
                                                 (np.arange(3)[:, None] + np.arange(3)) % 3))
        key_rate, slack = 0.5, 0.2
    else:
        pmf, chain, key_rate, slack = gain, _gain_chain(source[-1]), 0.3, 0.1
    xd, yd, _ = _support_blocks(pmf, n)
    runs = []
    for read_only in (False, True):
        stages, key_hash, _ = _scheme(pmf, chain, n, key_rate, 3, slack)
        _, keys, transcript, _ = simulate._run_rows(stages, key_hash, xd, yd, read_only=read_only)
        runs.append((keys, transcript, [st.pops for st in stages]))
    (keys, transcript, pops), (ro_keys, ro_transcript, ro_pops) = runs
    assert np.array_equal(ro_keys, keys) and np.array_equal(ro_transcript, transcript)
    if source.endswith("-x"):
        assert ro_pops == pops and all(p for p, st in zip(pops, stages) if not st.identity)
    else:
        assert ro_pops[-1] == 0 < pops[-1] and ro_pops[:-1] == pops[:-1]


def test_exact_leakage_reads_no_copy_chain_decode():
    """bss 0.1 with the copy chain at n = 8: no decode of the exact path
    feeds K or F, so its pops are the trials' pops alone (3,330,068 with the
    65,536 support blocks decoded, against 20)."""
    bss = bss_pmf(0.1)
    chain = default_copy_chain(bss)
    rep = cr_sk_simulate(bss, chain, 8, key_rate=0.1, trials=7, seed=8)
    assert rep.leakage_exact
    stages, key_hash, _ = _scheme(bss, chain, 8, 0.1, 8, 0.25)
    simulate._run_rows(stages, key_hash, *_trial_blocks(bss, 8, 7, 8))
    assert rep.pops == tuple(st.pops for st in stages) and sum(rep.pops)
    assert rep.stragglers == tuple(st.stragglers for st in stages)


def _decode_alone(stage, synd, ctx):
    """`stage.decode` one row at a time; returns (digits, failures)."""
    one = [stage.decode(synd[i:i + 1], ctx[0][i:i + 1], [c[i:i + 1] for c in ctx[1:]])
           for i in range(len(synd))]
    return np.concatenate([d for d, _ in one]), sum(f for _, f in one)


@pytest.mark.parametrize("budget", [3, 4096])
def test_decode_shares_a_search_per_distinct_context(gain, monkeypatch, budget):
    """Rows that repeat (context, syndrome) pairs decode, count failures and
    add stragglers and pops as each row decoded alone: rows found and rows
    out of budget (at 3 pops), a batch with no stragglers, and one row."""
    monkeypatch.setattr(simulate, "POP_BUDGET", budget)
    rng = np.random.default_rng([29, budget])
    seen_failures = seen_found = 0
    for chain, n in ((_gain_chain("y"), 5), (_gain_chain("x"), 6)):
        tensor = chain_tensor(gain, chain)
        stage = next(st for st in (_Stage(tensor, chain, j, n, 0.05, seed=7) for j in (1, 2))
                     if not st.identity)
        pool = [tuple(rng.integers(0, dim, (4, n)) for dim in stage.ll.shape[:-1]),
                rng.integers(0, 1 << stage.k_bits, 4, dtype=np.uint64)]
        guess = stage.like_order[pool[0] + (0,)]
        first = stage.hash.apply(pack_digits(guess, stage.bits_per))
        pick = rng.integers(0, 4, 60)
        hits = rng.integers(0, 2, 60).astype(bool)
        batches = {
            "repeats": (tuple(c[pick] for c in pool[0]), np.where(hits, first[pick], pool[1][pick])),
            "no stragglers": (tuple(c[pick] for c in pool[0]), first[pick]),
            "one row": (tuple(c[:1] for c in pool[0]), pool[1][:1]),
        }
        for name, (ctx, synd) in batches.items():
            counts = []
            for decode in (lambda: stage.decode(synd, ctx[0], list(ctx[1:])),
                           lambda: _decode_alone(stage, synd, ctx)):
                stage.stragglers = stage.pops = 0
                digits, failures = decode()
                counts.append((digits, failures, stage.stragglers, stage.pops))
            (digits, failures, stragglers, pops), alone = counts
            assert np.array_equal(digits, alone[0]), name
            assert (failures, stragglers, pops) == alone[1:], name
            if name == "no stragglers":
                assert stragglers == 0 and np.array_equal(digits, guess[pick])
            seen_failures += failures
            seen_found += stragglers - failures
    assert seen_found and (seen_failures or budget == 4096)


def test_one_hash_per_sent_block(gain, monkeypatch):
    """On the bench's `crsk:gain-n4` inputs each hashed block is hashed once
    when sent and once for the listener's first guess: the one hashed stage
    applies its hash for its digit table and twice per run (trials, then the
    one exact block), and the key hash once per run. Hashing the sent words
    again in the decoder made 9 calls over 27,052 words."""
    calls = []
    apply = AffineGf2Hash.apply

    def counted(self, words):
        calls.append(np.size(words))
        return apply(self, words)

    monkeypatch.setattr(AffineGf2Hash, "apply", counted)
    chain = chain_from_json({"kind": "deterministic", "initiator": "x", "sizes": [2, 2],
                             "tables": [[0, 0, 1], [[0, 0], [1, 0], [1, 0]]]})
    rep = cr_sk_simulate(gain, chain, n=4, key_rate=0.01, trials=200, seed=0, slack=0.1)
    assert rep.leakage_exact
    assert len(calls) == 7 and sum(calls) == 20_291


def test_crsk_exact_memory_is_bounded(bss25):
    """The exact leakage streams bss's 4^n support rows in blocks: the traced
    peak stays flat from n = 8 to n = 10 (29 MB and 561 MB with all rows in
    one table)."""
    peaks = {}
    for n in (8, 10):
        tracemalloc.start()
        try:
            rep = cr_sk_simulate(bss25, default_copy_chain(bss25), n=n, key_rate=0.1,
                                 trials=5, seed=0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.leakage_exact
        if n == 8:
            golden = json.loads((Path(__file__).parent / "golden_lab.json").read_text())
            want = golden["crsk:bss-n8-exact@0"]
            assert rep.to_json() == want["report"]
            assert list(rep.pops) == want["pops"] and list(rep.stragglers) == want["stragglers"]
    assert peaks[8] <= 8_000_000 and peaks[10] <= 16_000_000
    assert peaks[10] <= 2 * peaks[8]
