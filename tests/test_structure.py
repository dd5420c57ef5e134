import itertools

import numpy as np
import pytest

from cit import (
    FiniteAlphabet,
    Labeling,
    MarkovViolation,
    TensorPMF,
    binary_entropy,
    double_markov_extract,
    gk_ci,
    gk_common_function,
    labeling_entropy,
    minimal_sufficient_statistic,
    mutual_information,
    conditional_mutual_information,
    noninteractive_rate,
    validate_pmf,
)
from cit.sources import random_pmf

from conftest import random_full_pmf


def is_identity(lab: Labeling) -> bool:
    """Every symbol has a class of its own."""
    return lab.num_classes == lab.alphabet.size


def refines(lab: Labeling, other: Labeling) -> bool:
    """True when `other` is a function of `lab`."""
    seen: dict[int, int] = {}
    for mine, theirs in zip(lab.class_of, other.class_of):
        if mine in seen and seen[mine] != theirs:
            return False
        seen[mine] = theirs
    return True


class TestMinimalSufficientStatistic:
    def test_independent_single_class(self):
        pmf = validate_pmf([[0.25, 0.25], [0.25, 0.25]])
        lab = minimal_sufficient_statistic(pmf, "x")
        assert lab.num_classes == 1

    def test_gain_identity(self, gain):
        for side, size in (("x", 3), ("y", 3)):
            lab = minimal_sufficient_statistic(gain, side)
            assert lab.num_classes == size
            assert is_identity(lab)

    def test_merging_identical_rows(self):
        pmf = validate_pmf([[0.2, 0.2], [0.2, 0.2], [0.1, 0.1]])
        lab = minimal_sufficient_statistic(pmf, "x")
        assert lab.num_classes == 1
        assert lab.class_of == (0, 0, 0)

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_near_tolerance_rows_chain_in_every_order(self, perm):
        # rows 0-1 and 1-2 agree within 1e-9, rows 0-2 do not: one class in
        # every order; the distinct fourth row keeps a class of its own
        rows = [[0.5, 0.5], [0.5 + 6e-10, 0.5 - 6e-10], [0.5 + 1.2e-9, 0.5 - 1.2e-9]]
        p = [[r[0] / 4, r[1] / 4, 0.0] for r in (rows[i] for i in perm)]
        p.append([0.0, 0.0, 0.25])
        pmf = validate_pmf(p)
        lab = minimal_sufficient_statistic(pmf, "x")
        assert lab.class_of == (0, 0, 0, 1)
        assert lab.num_classes == 2

    def test_zero_mass_symbols_get_own_class(self):
        pmf = validate_pmf([[0.5, 0.5], [0.0, 0.0]])
        lab = minimal_sufficient_statistic(pmf, "x")
        assert lab.zero_mass_symbols == ("1",)
        assert lab.class_of == (0, 1)

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pmf = random_full_pmf(rng)
            lab = minimal_sufficient_statistic(pmf, "x")
            collapsed = np.zeros((lab.num_classes, pmf.shape[1]))
            np.add.at(collapsed, np.asarray(lab.class_of), pmf.p)
            again = minimal_sufficient_statistic(validate_pmf(collapsed.tolist()), "x")
            assert is_identity(again)

    def test_sufficiency_500_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            pmf = random_full_pmf(rng)
            lab = minimal_sufficient_statistic(pmf, "x")
            lifted = pmf.to_tensor().with_function_axis("x", lab.class_of, "g")
            assert conditional_mutual_information(lifted, "x", "y", "g") <= 1e-9

    def test_minimality_500_random(self):
        # build sources whose rows repeat class conditionals, so the random
        # labeling g is sufficient by construction; the minimal statistic
        # must then be a coarsening of g
        rng = np.random.default_rng(13)
        for _ in range(500):
            k = int(rng.integers(1, 4))
            ny = int(rng.integers(2, 5))
            n_rows = int(rng.integers(k, 7))
            conditionals = rng.dirichlet(np.ones(ny), size=k)
            assign = np.concatenate([np.arange(k), rng.integers(0, k, n_rows - k)])
            weights = rng.dirichlet(np.ones(n_rows))
            p = weights[:, None] * conditionals[assign]
            pmf = validate_pmf(p.tolist())
            g = Labeling(pmf.alphabet_x, tuple(int(a) for a in assign), k)
            lifted = pmf.to_tensor().with_function_axis("x", g.class_of, "g")
            assert conditional_mutual_information(lifted, "x", "y", "g") <= 1e-9
            g_star = minimal_sufficient_statistic(pmf, "x")
            assert refines(g, g_star)


class TestGkCommonFunction:
    def test_block_diagonal(self):
        pmf = validate_pmf([[0.5, 0.0], [0.0, 0.5]])
        lab_x, lab_y = gk_common_function(pmf)
        assert lab_x.num_classes == 2 and lab_y.num_classes == 2
        assert gk_ci(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_full_support_single_component(self, gain):
        lab_x, lab_y = gk_common_function(gain)
        assert lab_x.num_classes == 1 and lab_y.num_classes == 1
        assert gk_ci(gain) == 0.0

    def test_two_by_three(self):
        pmf = validate_pmf([[0.3, 0.2, 0.0], [0.0, 0.0, 0.5]])
        lab_x, lab_y = gk_common_function(pmf)
        assert lab_x.class_of == (0, 1)
        assert lab_y.class_of == (0, 0, 1)
        assert gk_ci(pmf) == pytest.approx(binary_entropy(0.5), abs=1e-12)

    def test_labelings_agree_almost_surely(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pmf = random_pmf(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                             zeros=float(rng.random() * 0.6))
            lab_x, lab_y = gk_common_function(pmf)
            cx = np.asarray(lab_x.class_of)
            cy = np.asarray(lab_y.class_of)
            mism = pmf.p[cx[:, None] != cy[None, :]].sum()
            assert mism == 0.0

    def test_gk_below_mi(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            pmf = random_pmf(rng, 3, 3, zeros=float(rng.random() * 0.5))
            assert gk_ci(pmf) <= mutual_information(pmf.to_tensor(), "x", "y") + 1e-9


def lift_copy_tensor(pmf):
    """Tensor over (u, x, y) with u a copy of x."""
    t = pmf.to_tensor()
    nx = pmf.shape[0]
    lifted = t.with_function_axis("x", list(range(nx)), "u")
    p = np.moveaxis(lifted.p, 2, 0)
    return TensorPMF(("u", "x", "y"), (lifted.alphabets[2],) + t.alphabets, p)


class TestDoubleMarkov:
    def test_copy_gives_sufficient_statistic(self, gain):
        t = lift_copy_tensor(gain)
        f, g = double_markov_extract(t)
        g_star = minimal_sufficient_statistic(gain, "x")
        assert g.class_of == g_star.class_of
        assert f.class_of == g_star.class_of

    def test_all_independent_gives_constants(self):
        pmf = validate_pmf([[0.25, 0.25], [0.25, 0.25]])
        pu = np.array([0.5, 0.5])
        p = pu[:, None, None] * pmf.p[None, :, :]
        t = TensorPMF(("u", "x", "y"),
                      (FiniteAlphabet.of_size(2, "u"),) + pmf.to_tensor().alphabets, p)
        f, g = double_markov_extract(t)
        assert g.num_classes == 1
        assert f.num_classes == 1

    def test_suffstat_auxiliary(self, gain):
        g_star = minimal_sufficient_statistic(gain, "x")
        lifted = gain.to_tensor().with_function_axis("x", g_star.class_of, "u")
        p = np.moveaxis(lifted.p, 2, 0)
        t = TensorPMF(("u", "x", "y"), (lifted.alphabets[2],) + gain.to_tensor().alphabets, p)
        f, g = double_markov_extract(t)
        assert g.class_of == g_star.class_of
        assert f.num_classes == g_star.num_classes

    def test_markov_violation_detected(self, bss25):
        # u = y breaks the chain u - x - y for a dependent source
        t = bss25.to_tensor().with_function_axis("y", [0, 1], "u")
        p = np.moveaxis(t.p, 2, 0)
        t = TensorPMF(("u", "x", "y"), (t.alphabets[2],) + bss25.to_tensor().alphabets, p)
        with pytest.raises(MarkovViolation):
            double_markov_extract(t)

    def test_postconditions_on_random_sufficient_auxiliaries(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pmf = random_full_pmf(rng)
            lab = minimal_sufficient_statistic(pmf, "x")
            lifted = pmf.to_tensor().with_function_axis("x", lab.class_of, "u")
            p = np.moveaxis(lifted.p, 2, 0)
            t = TensorPMF(("u", "x", "y"), (lifted.alphabets[2],) + pmf.to_tensor().alphabets, p)
            f, g = double_markov_extract(t)
            cg = np.asarray(g.class_of)
            cf = np.asarray(f.class_of)
            q = t.p
            mism = sum(
                q[u, x, :].sum()
                for u in range(q.shape[0]) for x in range(q.shape[1])
                if cf[u] != cg[x]
            )
            assert mism <= 1e-9

    @pytest.mark.parametrize("p, u_of_x, f_want, g_want", [
        # gain: U is the sufficient statistic of X, one symbol per x
        ([[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]], [0, 1, 2],
         (0, 1, 2, 3), (0, 1, 2)),
        # a 3x2 source with two proportional rows, U naming their classes swapped
        ([[0.2, 0.1], [0.1, 0.05], [0.15, 0.4]], [1, 1, 0], (1, 0, 2), (0, 0, 1)),
    ], ids=["gain", "3x2-merged-rows"])
    def test_any_axis_order_and_a_zero_mass_symbol(self, p, u_of_x, f_want, g_want):
        """The last U symbol carries no mass: it gets a class of its own after
        g's classes, in every order of the (u, x, y) axes."""
        pmf = validate_pmf(p)
        n_u = max(u_of_x) + 2
        q = np.zeros((n_u,) + pmf.shape)
        for x, u in enumerate(u_of_x):
            q[u, x] = pmf.p[x]
        names = ("u", "x", "y")
        alphabets = (FiniteAlphabet.of_size(n_u, "u"),) + pmf.to_tensor().alphabets
        for order in itertools.permutations(range(3)):
            t = TensorPMF(tuple(names[i] for i in order), tuple(alphabets[i] for i in order),
                          np.transpose(q, order))
            f, g = double_markov_extract(t)
            assert (f.class_of, g.class_of) == (f_want, g_want), order
            assert f.zero_mass_symbols == (f"u{n_u - 1}",)


class TestNoninteractiveRate:
    def test_bss(self, bss25):
        ni = noninteractive_rate(bss25)
        assert ni.h_g1 == pytest.approx(1.0, abs=1e-12)
        assert ni.r_ni == pytest.approx(binary_entropy(0.25), abs=1e-9)

    def test_copy(self, uniform_copy):
        ni = noninteractive_rate(uniform_copy)
        assert ni.r_ni == pytest.approx(0.0, abs=1e-12)

    def test_gain(self, gain):
        ni = noninteractive_rate(gain)
        h_x = 1.5812908992306927  # H(0.3, 0.35, 0.35), direct evaluation
        assert ni.h_g1 == pytest.approx(h_x, abs=1e-9)
        assert ni.r_ni == pytest.approx(h_x - ni.mi, abs=1e-12)


class TestLabeling:
    def test_json_round_trip(self):
        lab = Labeling(FiniteAlphabet(("a", "b", "c")), (0, 1, 0), 2)
        again = Labeling.from_json(lab.to_json(), lab.alphabet)
        assert again.class_of == lab.class_of

    def test_entropy_of_labeling(self):
        lab = Labeling(FiniteAlphabet(("a", "b")), (0, 1), 2)
        assert labeling_entropy(lab, np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_class_ids(self):
        with pytest.raises(ValueError):
            Labeling(FiniteAlphabet(("a", "b")), (0, 2), 2)


class TestExtractionFailure:
    def test_inconsistent_support_detected(self):
        # two x-rows whose conditionals differ by more than the grouping
        # tolerance but little enough to keep both chain residuals under
        # 1e-9, linked through a shared u value: no consistent f exists
        from cit import ExtractionFailure

        eps = 5e-8
        row_a = np.array([0.5, 0.5])
        row_b = np.array([0.5 + eps, 0.5 - eps])
        p_xy = np.stack([0.5 * row_a, 0.5 * row_b])
        pu = np.array([1.0])
        p = pu[:, None, None] * p_xy[None, :, :]
        t = TensorPMF(("u", "x", "y"),
                      (FiniteAlphabet.of_size(1, "u"), FiniteAlphabet.of_size(2, "x"),
                       FiniteAlphabet.of_size(2, "y")), p)
        with pytest.raises(ExtractionFailure):
            double_markov_extract(t)
