import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cit import (
    EmptyMatrix,
    FiniteAlphabet,
    JointPMF,
    NegativeMass,
    NotNormalized,
    OverlappingAxes,
    TensorPMF,
    UnknownAxis,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
    validate_pmf,
)
from cit.pmf import marginal_entropies, normalized, normalized_each, source_information
from cit.sources import random_pmf

from workloads import random_base, relabel

H_QUARTER = 0.8112781244591328  # -0.25 log2 0.25 - 0.75 log2 0.75, evaluated directly


class TestValidation:
    def test_already_normalized(self):
        pmf = validate_pmf([[0.5, 0.0], [0.0, 0.5]])
        assert pmf.p.sum() == pytest.approx(1.0, abs=1e-15)
        assert pmf.shape == (2, 2)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            validate_pmf([[1.0, 1.0], [1.0, 1.0]])

    def test_renormalization_branch(self):
        # total 0.9999999, off by 1e-7 <= 1e-6, must renormalize exactly
        pmf = validate_pmf([[0.25, 0.25], [0.25, 0.2499999]])
        assert abs(pmf.p.sum() - 1.0) < 1e-15
        assert pmf.p[0, 0] == pytest.approx(0.25 / 0.9999999, rel=1e-12)

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            validate_pmf([[0.5, -0.1], [0.3, 0.3]])

    def test_empty_and_zero(self):
        with pytest.raises(EmptyMatrix):
            validate_pmf([[]])
        with pytest.raises(EmptyMatrix):
            validate_pmf([[0.0, 0.0], [0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_pmf([[0.5, float("nan")], [0.25, 0.25]])

    def test_zero_rows_flagged(self):
        pmf = validate_pmf([[0.5, 0.5], [0.0, 0.0]])
        assert pmf.zero_x_symbols == ("1",)
        assert pmf.zero_y_symbols == ()

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            validate_pmf([[0.5, 0.5]], ["a", "b"], ["c", "d"])

    def test_json_round_trip(self, tmp_path):
        pmf = validate_pmf([[0.1, 0.2], [0.3, 0.4]], ["u", "v"], ["p", "q"])
        again = JointPMF.from_json(json.loads(json.dumps(pmf.to_json())))
        assert np.array_equal(again.p, pmf.p)
        assert again.alphabet_x.symbols == ("u", "v")


def uniform_tensor():
    return validate_pmf([[0.25, 0.25], [0.25, 0.25]]).to_tensor()


class TestEntropies:
    def test_uniform_marginal(self):
        assert entropy(uniform_tensor(), "x") == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_zero(self):
        t = validate_pmf([[1.0, 0.0], [0.0, 0.0]]).to_tensor()
        assert entropy(t, "x") == 0.0
        assert entropy(t, ("x", "y")) == 0.0

    def test_bss_marginal(self, bss25):
        assert entropy(bss25.to_tensor(), "x") == pytest.approx(1.0, abs=1e-12)

    def test_conditional_independent(self):
        assert conditional_entropy(uniform_tensor(), "x", "y") == pytest.approx(1.0, abs=1e-12)

    def test_conditional_copy(self, uniform_copy):
        assert conditional_entropy(uniform_copy.to_tensor(), "x", "y") == pytest.approx(0.0, abs=1e-12)

    def test_conditional_bss(self, bss25):
        assert conditional_entropy(bss25.to_tensor(), "x", "y") == pytest.approx(H_QUARTER, abs=1e-9)

    def test_mi_examples(self, uniform_copy, bss25):
        assert mutual_information(uniform_tensor(), "x", "y") == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(uniform_copy.to_tensor(), "x", "y") == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(bss25.to_tensor(), "x", "y") == pytest.approx(1 - H_QUARTER, abs=1e-9)

    def test_cmi_given_pair_is_zero(self):
        # C = (A, B): conditioning on both axes kills the dependence
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        # make c the pair id of (a, b): deterministic function on a 4-value axis
        t = TensorPMF(("a", "b"), (FiniteAlphabet.of_size(2), FiniteAlphabet.of_size(2)),
                      p.sum(axis=2))
        lifted = t.with_function_axis("a", [0, 1], "c1").with_function_axis("b", [0, 1], "c2")
        assert conditional_mutual_information(lifted, "a", "b", ("c1", "c2")) == pytest.approx(0.0, abs=1e-12)

    def test_cmi_vanishes_for_gain_exchange(self, gain):
        # after the two-round exchange on the gain source, the sources are
        # conditionally independent: every chain atom pins one side or
        # leaves a product law behind
        from cit.chains import chain_tensor
        from conftest import gain_two_round_chain

        t = chain_tensor(gain, gain_two_round_chain())
        assert conditional_mutual_information(t, "x", "y", ("u1", "u2")) <= 1e-9

    def test_cmi_independent_conditioner(self):
        rng = np.random.default_rng(1)
        pab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pc = np.array([0.3, 0.7])
        p = pab[:, :, None] * pc[None, None, :]
        t = TensorPMF(("a", "b", "c"),
                      tuple(FiniteAlphabet.of_size(2) for _ in range(3)), p)
        assert conditional_mutual_information(t, "a", "b", "c") == pytest.approx(
            mutual_information(t, "a", "b"), abs=1e-12)

    def test_unknown_axis(self):
        with pytest.raises(UnknownAxis):
            entropy(uniform_tensor(), "z")

    def test_overlapping_axes(self):
        with pytest.raises(OverlappingAxes):
            mutual_information(uniform_tensor(), "x", "x")
        with pytest.raises(OverlappingAxes):
            conditional_entropy(uniform_tensor(), "x", "x")


class TestInvariants:
    def test_chain_rule_random_tensors(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            shape = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4))))
            p = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
            names = tuple(f"a{i}" for i in range(len(shape)))
            t = TensorPMF(names, tuple(FiniteAlphabet.of_size(s) for s in shape), p)
            a, rest = names[0], names[1:]
            lhs = entropy(t, names)
            rhs = entropy(t, a) + conditional_entropy(t, rest, a)
            assert abs(lhs - rhs) <= 1e-12

    def test_nonnegativity_and_mi_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
            t = TensorPMF(("a", "b", "c"),
                          (FiniteAlphabet.of_size(2), FiniteAlphabet.of_size(3),
                           FiniteAlphabet.of_size(2)), p)
            cmi = conditional_mutual_information(t, "a", "b", "c")
            mi = mutual_information(t, "a", "b")
            assert cmi >= 0.0
            assert mi <= min(entropy(t, "a"), entropy(t, "b")) + 1e-9

    def test_entropy_permutation_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        names = ("a", "b", "c")
        t = TensorPMF(names, tuple(FiniteAlphabet.of_size(2) for _ in range(3)), p)
        t_perm = TensorPMF(("b", "c", "a"),
                           tuple(FiniteAlphabet.of_size(2) for _ in range(3)),
                           np.transpose(p, (1, 2, 0)))
        assert entropy(t, ("a", "b")) == pytest.approx(entropy(t_perm, ("b", "a")), abs=1e-14)
        # symbol relabeling: permute the entries of one axis
        t_relab = TensorPMF(names, tuple(FiniteAlphabet.of_size(2) for _ in range(3)),
                            p[::-1])
        assert entropy(t, ("a", "b", "c")) == pytest.approx(
            entropy(t_relab, ("a", "b", "c")), abs=1e-14)


class TestBinaryEntropy:
    def test_anchors(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-15)

    def test_symmetry_exact_for_1000_random(self):
        rng = np.random.default_rng(123)
        for p in rng.random(1000):
            assert binary_entropy(float(p)) == binary_entropy(float(1.0 - p))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry_hypothesis(self, p):
        assert binary_entropy(p) == binary_entropy(1.0 - p)
        assert 0.0 <= binary_entropy(p) <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


def reference_normalized(raw):
    """The checks `validate_pmf` made on the matrix one numpy call at a time."""
    p = np.asarray(raw, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probability entries must be finite")
    if (p < 0).any():
        raise NegativeMass(f"negative entries at {np.argwhere(p < 0).tolist()}")
    total = float(p.sum())
    if total == 0.0:
        raise EmptyMatrix("array carries no mass")
    if abs(total - 1.0) > 1e-6:
        raise NotNormalized(f"total mass {total} differs from 1 by more than 1e-06")
    return p / total


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


NAN, INF = float("nan"), float("inf")


class TestLeanValidation:
    """`validate_pmf` takes fewer numpy calls and makes the same checks."""

    @pytest.mark.parametrize("raw", [
        [[0.5, NAN], [0.25, 0.25]],
        [[0.5, INF], [0.25, 0.25]],
        [[0.5, -INF], [0.25, 0.25]],
        [[INF, -INF], [0.25, 0.25]],
        [[NAN, -0.5], [0.75, 0.75]],
        [[0.6, -0.1], [0.25, 0.25]],
        [[1e308, 1e308], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.25, 0.25], [0.25, 0.2499999]],
        [[0.5, 0.0], [0.5, 0.0]],
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.0, 0.3], [0.0, 0.7]],
        [[1.0]],
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_same_checks_and_bits(self, raw):
        expected = outcome(reference_normalized, raw)
        got = outcome(validate_pmf, raw)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got.p.tobytes() == expected.tobytes()
        labels = [str(i) for i in range(expected.shape[0])], [str(j) for j in range(expected.shape[1])]
        assert got.zero_x_symbols == tuple(s for s, m in zip(labels[0], expected.sum(axis=1)) if m == 0)
        assert got.zero_y_symbols == tuple(s for s, m in zip(labels[1], expected.sum(axis=0)) if m == 0)

    def test_default_labels_are_shared(self):
        a, b = validate_pmf([[0.5, 0.5]]), validate_pmf([[0.25, 0.75]])
        assert a.alphabet_y is b.alphabet_y
        assert a.alphabet_x.symbols == ("0",) and a.alphabet_y.symbols == ("0", "1")


class TestNormalizedEach:
    def test_each_law_as_normalized_takes_it(self):
        q = np.random.default_rng(3).dirichlet(np.ones(12), size=5).reshape(5, 2, 3, 2) * 1.0000003
        got = normalized_each(q)
        assert got.tobytes() == np.stack([normalized(law) for law in q]).tobytes()

    @pytest.mark.parametrize("laws, error", [
        ([[0.5, 0.5], [NAN, 0.5], [0.6, -0.1], [0.0, 0.0]], ValueError),
        ([[0.5, 0.5], [0.6, -0.1], [NAN, 0.5], [0.0, 0.0]], NegativeMass),
        ([[0.5, 0.5], [0.0, 0.0], [0.6, -0.1]], EmptyMatrix),
        ([[0.5, 0.5], [0.5, 0.6], [0.0, 0.0]], NotNormalized),
    ])
    def test_the_first_failing_law_raises(self, laws, error):
        with pytest.raises(error):
            normalized_each(np.array(laws))

    def test_a_nan_law_raises(self):
        with pytest.raises(ValueError, match="must be finite"):
            normalized_each(np.array([[0.5, 0.5], [NAN, 0.5]]))


@pytest.mark.parametrize("bad, error", [
    (NAN, ValueError), (INF, NotNormalized), (-INF, NegativeMass)])
def test_a_tensor_with_a_nonfinite_entry_is_refused(bad, error):
    """A NaN cell once passed every check and scored as a law."""
    p = np.full((2, 2, 2), 0.125)
    p[0, 1, 1] = bad
    with pytest.raises(error):
        TensorPMF(("x", "y", "u"), tuple(FiniteAlphabet.of_size(2) for _ in range(3)), p)


@pytest.mark.parametrize("seed", [3, 4, 8])
def test_a_fortran_ordered_twin_scores_the_same_bits(seed):
    """The bench's relabelled 4x4 draw at these seeds once summed its total in
    another order when built from a Fortran-ordered array, and its I(X;Y) then
    missed the tensor route's by an ulp (0.29263218137843117 against
    0.2926321813784307 at seed 3)."""
    base = np.ascontiguousarray(relabel(random_base(0, 4), seed, 0))
    c, f = validate_pmf(base), validate_pmf(np.asfortranarray(base))
    assert f.p.flags.c_contiguous and f.p.tobytes() == c.p.tobytes()
    info = source_information(f)
    assert info == source_information(c) == mutual_information(f.to_tensor(), "x", "y")
    assert [entropy(f.to_tensor(), s) for s in ("x", "y")] == [
        entropy(c.to_tensor(), s) for s in ("x", "y")]


def _h_before(t, keep):
    drop = tuple(i for i in range(t.arity) if i not in keep)
    return float(marginal_entropies(t.p[None], drop)[0, 0])


def information_before(t, fn, *groups):
    """The four functions as they read before they shared one formula: no
    clamp on an entropy, and a branch of their own for an empty `given`."""
    idx = [tuple(t.axis(n) for n in ((g,) if isinstance(g, str) else g)) for g in groups]
    if fn == "entropy":
        return _h_before(t, idx[0]) + 0.0
    if fn == "conditional_entropy":
        ti, gi = idx
        joint = _h_before(t, ti + gi)
        return joint if not gi else max(joint - _h_before(t, gi), 0.0)
    ai, bi, ci = idx + [()] * (3 - len(idx))
    if not ci:
        return max(_h_before(t, ai) + _h_before(t, bi) - _h_before(t, ai + bi), 0.0)
    return max(_h_before(t, ai + ci) + _h_before(t, bi + ci) - _h_before(t, ci)
               - _h_before(t, ai + bi + ci), 0.0)


def _identity_cases():
    rng = np.random.default_rng(33)
    for _ in range(60):
        shape = tuple(int(rng.integers(1, 4)) for _ in range(3))
        p = rng.dirichlet(np.ones(math.prod(shape)))
        p[rng.random(p.size) < 0.2] = 0.0
        yield TensorPMF(("a", "b", "c"), tuple(FiniteAlphabet.of_size(s) for s in shape),
                        (p / p.sum()).reshape(shape))
    for k in range(1, 6):  # one-row sources, as drawn and as reloaded from their JSON
        pmf = random_pmf(np.random.default_rng(60 + k), 1, k + 1)
        yield pmf.to_tensor()
        yield JointPMF.from_json(json.loads(json.dumps(pmf.to_json()))).to_tensor()


def test_information_keeps_its_bits_and_clamps_only_below_zero():
    """Every value the former forms gave at or above +0.0 comes back to the
    bit; an entropy below 0 (or -0.0) now reads 0.0. I(A;B) and an empty
    `given` go through the conditional formulas with H(nothing) = 0."""
    clamped_any = False
    for t in _identity_cases():
        names = t.names
        pairs = [(names[0],), (names[1],), names[:2]] + ([names[2:]] if t.arity > 2 else [])
        for a in pairs:
            rest = tuple(n for n in names if n not in a)
            splits = [((), ())] + [((r,), tuple(n for n in rest if n != r)) for r in rest]
            old = information_before(t, "entropy", a)
            assert entropy(t, a).hex() == (max(old, 0.0) + 0.0).hex()
            clamped_any |= old < 0.0 or math.copysign(1.0, old) < 0
            for b, c in splits:
                for given in (c, b + c):
                    old = information_before(t, "conditional_entropy", a, given)
                    assert conditional_entropy(t, a, given).hex() == (max(old, 0.0) + 0.0).hex()
                    assert conditional_entropy(t, a, given) == \
                        conditional_entropy(t, tuple(a), list(given))
                if not b:
                    continue
                old = information_before(t, "mi", a, b)
                assert mutual_information(t, a, b).hex() == old.hex()
                assert conditional_mutual_information(t, a, b).hex() == old.hex()
                assert conditional_mutual_information(t, a, b, ()).hex() == old.hex()
                old = information_before(t, "cmi", a, b, c)
                assert conditional_mutual_information(t, a, b, c).hex() == old.hex()
    assert clamped_any  # the one-row sources reach the clamp
