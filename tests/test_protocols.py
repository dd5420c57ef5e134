import numpy as np
import pytest

from cit import NegativeMass, SizeBudgetExceeded, conditional_entropy, entropy
from cit.chains import DeterministicChain, chain_objective
from cit.pmf import FiniteAlphabet, JointPMF
from cit.protocols import (
    Protocol,
    decomposition_check,
    iid_block_law,
    lemma1_check,
    random_cr_table,
    random_protocol,
    transcript_law,
)
from cit.sources import random_pmf


def identity_protocol(nx: int, n: int) -> Protocol:
    count = nx ** n
    return Protocol(n, (count,), (np.arange(count)[:, None],))


def constant_protocol(nx: int, n: int) -> Protocol:
    return Protocol(n, (1,), (np.zeros((nx ** n, 1), dtype=int),))


class TestTranscriptLaw:
    def test_identity_round(self, bss25):
        t = transcript_law(bss25, identity_protocol(2, 1))
        assert entropy(t, "f") == pytest.approx(entropy(t, "xn"), abs=1e-12)
        assert conditional_entropy(t, "f", "xn") == pytest.approx(0.0, abs=1e-12)

    def test_constant_protocol(self, bss25):
        t = transcript_law(bss25, constant_protocol(2, 2))
        assert entropy(t, "f") == 0.0

    def test_parity_protocol(self, bss25):
        par = np.array([[0], [1], [1], [0]])
        t = transcript_law(bss25, Protocol(2, (2,), (par,)))
        assert entropy(t, "f") == pytest.approx(1.0, abs=1e-12)

    def test_iid_law_matches_product(self, bss25):
        law = iid_block_law(bss25, 2)
        assert law[0, 0] == pytest.approx(bss25.p[0, 0] ** 2, abs=1e-15)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    def test_budget(self, bss25):
        with pytest.raises(SizeBudgetExceeded):
            transcript_law(bss25, identity_protocol(2, 12))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 4)])
    def test_iid_law_is_the_kronecker_power(self, shape):
        """The outer-product steps take the very products `np.kron` takes."""
        pmf = random_pmf(np.random.default_rng(shape), *shape)
        reference = np.array([[1.0]])
        for n in range(5):
            law = iid_block_law(pmf, n)
            assert law.shape == reference.shape
            assert law.tobytes() == reference.tobytes()
            reference = np.kron(reference, pmf.p)


@pytest.mark.parametrize("n", [1, 2])
def test_negative_cell_raises_negative_mass(n):
    """A JointPMF built around validate_pmf still meets the law's checks."""
    ax = FiniteAlphabet.of_size(2)
    pmf = JointPMF(ax, ax, np.array([[0.6, -0.1], [0.25, 0.25]]))
    proto = random_protocol(4, n, 2, (2, 2), 2, 2)
    with pytest.raises(NegativeMass):
        lemma1_check(pmf, proto)
    with pytest.raises(NegativeMass):
        decomposition_check(pmf, proto, np.zeros((2 ** n, 2 ** n), dtype=int))
    with pytest.raises(NegativeMass):
        chain_objective(pmf, DeterministicChain("x", (2,), (np.array([0, 1]),)))


class TestLemma1:
    def test_constant(self, bss25):
        chk = lemma1_check(bss25, constant_protocol(2, 1))
        assert chk["lhs"] == 0.0 and chk["rhs"] == 0.0

    def test_identity_round(self, bss25):
        chk = lemma1_check(bss25, identity_protocol(2, 2))
        # one-way full revelation: H(F|X^n) = 0, H(F|Y^n) = H(X^n|Y^n)
        t = transcript_law(bss25, identity_protocol(2, 2))
        assert chk["lhs"] == pytest.approx(conditional_entropy(t, "xn", "yn"), abs=1e-12)
        assert chk["slack"] >= -1e-9

    def test_random_protocols(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmf = random_pmf(rng, nx, ny)
            n = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            proto = random_protocol(int(rng.integers(1 << 31)), n, r, sizes, nx, ny)
            assert lemma1_check(pmf, proto)["slack"] >= -1e-9


class TestDecomposition:
    def test_full_revelation_constant_f(self, bss25):
        # J = (X^n, Y^n) with a constant transcript reduces to the standard identity
        n = 2
        j = (np.arange(4)[:, None] * 4 + np.arange(4)[None, :])
        chk = decomposition_check(bss25, constant_protocol(2, n), j)
        assert abs(chk["difference"]) <= 1e-9

    def test_constant_j_constant_f(self, bss25):
        chk = decomposition_check(bss25, constant_protocol(2, 2), np.zeros((4, 4), dtype=int))
        assert abs(chk["difference"]) <= 1e-9

    def test_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmf = random_pmf(rng, nx, ny)
            n = 2
            r = int(rng.integers(1, 3))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            proto = random_protocol(int(rng.integers(1 << 31)), n, r, sizes, nx, ny)
            j = random_cr_table(int(rng.integers(1 << 31)), pmf, n, int(rng.integers(2, 5)))
            chk = decomposition_check(pmf, proto, j)
            assert abs(chk["difference"]) <= 1e-9


class TestProtocolBasics:
    def test_transcript_entropy_bounded_by_log_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            nx, ny = 2, 3
            pmf = random_pmf(rng, nx, ny)
            sizes = (2, 3)
            proto = random_protocol(int(rng.integers(1 << 31)), 2, 2, sizes, nx, ny)
            t = transcript_law(pmf, proto)
            assert entropy(t, "f") <= sum(np.log2(s) for s in sizes) + 1e-12

    def test_reproducible_and_distinct(self):
        a = random_protocol(0, 2, 2, (2, 2), 2, 2)
        b = random_protocol(0, 2, 2, (2, 2), 2, 2)
        c = random_protocol(1, 2, 2, (2, 2), 2, 2)
        d = random_protocol(2, 2, 2, (2, 2), 2, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a.message_tables, b.message_tables))
        tables = [tuple(t.tobytes() for t in p.message_tables) for p in (a, c, d)]
        assert len(set(tables)) == 3

    def test_alternation_shapes(self):
        # round 2 is spoken by the other side: table covers |Y|^n rows
        proto = random_protocol(3, 2, 2, (2, 2), 2, 3)
        assert proto.message_tables[0].shape[0] == 2 ** 2
        assert proto.message_tables[1].shape[0] == 3 ** 2

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            Protocol(1, (2,), (np.array([[0], [2]]),))
        with pytest.raises(ValueError):
            Protocol(1, (2, 2), (np.zeros((2, 1), dtype=int),))

    def test_bad_initiator_rejected_at_construction(self):
        with pytest.raises(ValueError, match="initiator"):
            Protocol(1, (2,), (np.array([[0], [1]]),), initiator="z")


class TestTranscriptOracle:
    def test_vectorized_transcripts_match_reference(self):
        """Recompute transcripts pair by pair with a plain loop."""
        rng = np.random.default_rng(55)
        for _ in range(20):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            n = int(rng.integers(1, 3))
            r = int(rng.integers(1, 4))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            proto = random_protocol(int(rng.integers(1 << 31)), n, r, sizes, nx, ny)
            xc, yc = nx ** n, ny ** n
            got = proto.transcripts(xc, yc)
            for xi in range(xc):
                for yi in range(yc):
                    prefix = 0
                    f = 0
                    for i, (table, size) in enumerate(
                            zip(proto.message_tables, proto.message_sizes), start=1):
                        own = xi if proto.speaker(i) == "x" else yi
                        m = int(table[own, prefix])
                        f = f * size + m
                        prefix = prefix * size + m
                    assert got[xi, yi] == f


@pytest.mark.parametrize("table, ok", [
    ([[0], [1], [2]], True),
    ([[0], [3], [2]], False),
    ([[0], [-1], [2]], False),
    ([[0], [np.iinfo(np.int64).min], [2]], False),
])
def test_message_range_check(table, ok):
    """Read as unsigned, a negative message is past every size."""
    if ok:
        assert Protocol(1, (3,), (np.array(table),)).message_tables[0].tolist() == table
    else:
        with pytest.raises(ValueError, match=r"round 1 messages must lie in \[0, 3\)"):
            Protocol(1, (3,), (np.array(table),))
