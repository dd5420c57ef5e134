import itertools

import numpy as np
import pytest

from cit import (
    AuxiliaryChain,
    BudgetExceeded,
    DeltaOutOfRange,
    DeterministicChain,
    LemmaViolation,
    PenaltyConfig,
    binary_entropy,
    bss_closed_form,
    binary_stop_classify,
    chain_objective,
    chains,
    ci1_exact,
    continuous_chain_minimize,
    det_chain_search,
    entropy,
    mutual_information,
    noninteractive_rate,
    validate_pmf,
)
from cit.chains import chain_from_json, effective_caps, iter_canonical_chains
from cit.pmf import save_pmf
from cit.sources import bss_pmf, gain_pmf, random_pmf
from workloads import random_base

from conftest import (
    canonical_encoding,
    cli_reports_across_threads,
    count_canonical_chains,
    feasible_det_encodings,
    gain_two_round_chain,
    random_full_pmf,
)

# direct evaluations of the gain-source closed forms (a=0.1, b=c=0.15)
GAIN_H_X = 1.5812908992306927
GAIN_CHAIN_OBJECTIVE = 1.5588718484453603
# the bench's 4x4 draw, whose det optimum at two and three rounds is its ci1
BENCH4_CI1 = 1.751104634249


def _random3(seed):
    return random_pmf(np.random.default_rng(seed), 3, 3)


GAIN = gain_pmf(0.1, 0.15, 0.15)
INDEPENDENT = validate_pmf([[0.25, 0.25], [0.25, 0.25]])


def copy_chain_r1(pmf):
    return DeterministicChain("x", (pmf.shape[0],), (np.arange(pmf.shape[0]),))


def constant_chain_r1():
    return DeterministicChain("x", (1,), (np.zeros(2, dtype=int),))


class TestChainTypes:
    def test_kernel_slices_must_normalize(self):
        bad = np.full((2, 2), 0.4)
        with pytest.raises(ValueError):
            AuxiliaryChain("x", (bad,))

    def test_cardinality_ceiling_enforced(self):
        # one round from a binary source cannot use more than 3 values
        with pytest.raises(ValueError):
            DeterministicChain("x", (4,), (np.array([0, 3]),))

    def test_padding_keeps_function(self, bss25):
        ch = copy_chain_r1(bss25)
        padded = ch.padded((3,))
        r1 = chain_objective(bss25, ch)
        r2 = chain_objective(bss25, padded)
        assert r1.objective == pytest.approx(r2.objective, abs=1e-12)

    def test_bad_initiator_rejected_at_construction(self):
        with pytest.raises(ValueError, match="initiator"):
            AuxiliaryChain("z", (np.eye(2),))
        with pytest.raises(ValueError, match="initiator"):
            DeterministicChain("z", (2,), (np.array([0, 1]),))

    @pytest.mark.parametrize("chain", [gain_two_round_chain(),
                                       gain_two_round_chain().as_auxiliary()],
                             ids=["deterministic", "randomized"])
    def test_bad_initiator_rejected_from_json(self, chain):
        obj = {**chain.to_json(), "initiator": "z"}
        with pytest.raises(ValueError, match="initiator"):
            chain_from_json(obj)

    def test_json_round_trip(self):
        ch = gain_two_round_chain()
        again = chain_from_json(ch.to_json())
        assert isinstance(again, DeterministicChain)
        assert all(np.array_equal(a, b) for a, b in zip(again.tables, ch.tables))
        aux = ch.as_auxiliary()
        again_aux = chain_from_json(aux.to_json())
        assert all(np.array_equal(a, b) for a, b in zip(again_aux.kernels, aux.kernels))


class TestChainObjective:
    def test_copy_round(self, bss25):
        res = chain_objective(bss25, copy_chain_r1(bss25))
        assert res.objective == pytest.approx(entropy(bss25.to_tensor(), "x"), abs=1e-12)
        assert res.residual <= 1e-12

    def test_constant_round(self, bss25):
        res = chain_objective(bss25, constant_chain_r1())
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.residual == pytest.approx(
            mutual_information(bss25.to_tensor(), "x", "y"), abs=1e-12)

    def test_gain_chain_golden(self, gain):
        res = chain_objective(gain, gain_two_round_chain())
        assert res.residual <= 1e-9
        assert res.objective == pytest.approx(GAIN_CHAIN_OBJECTIVE, abs=1e-9)
        # closed form evaluated independently
        a, b = 0.1, 0.15
        s = 5 * a + b
        oracle = GAIN_H_X - s * (binary_entropy(3 * a / s) - binary_entropy((a + b) / s))
        assert res.objective == pytest.approx(oracle, abs=1e-9)

    def test_builds_the_chain_law_once(self, gain, monkeypatch):
        calls = []
        build = chains._joint_array

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(chains, "_joint_array", counted)
        chain_objective(gain, gain_two_round_chain())
        assert len(calls) == 1

    def test_per_round_identity_random_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pmf = random_full_pmf(rng, max_side=3)
            nx, ny = pmf.shape
            rounds = int(rng.integers(1, 4))
            kernels = []
            prior = ()
            for j in range(1, rounds + 1):
                parent = nx if j % 2 == 1 else ny
                size = int(rng.integers(2, 4))
                cells = parent * int(np.prod(prior, dtype=int) or 1)
                kernels.append(rng.dirichlet(np.ones(size), size=cells)
                               .reshape((parent,) + prior + (size,)))
                prior += (size,)
            res = chain_objective(pmf, AuxiliaryChain("x", tuple(kernels)))
            mi = mutual_information(pmf.to_tensor(), "x", "y")
            gap = res.objective - mi + res.residual - sum(res.per_round_terms)
            assert abs(gap) <= 1e-9


class TestCi1:
    def test_copy_source(self, uniform_copy):
        assert ci1_exact(uniform_copy, "x") == pytest.approx(1.0, abs=1e-12)
        assert ci1_exact(uniform_copy, "y") == pytest.approx(1.0, abs=1e-12)

    def test_independent(self, independent):
        assert ci1_exact(independent, "x") == 0.0

    def test_gain(self, gain):
        assert ci1_exact(gain, "x") == pytest.approx(GAIN_H_X, abs=1e-9)

    def test_unknown_initiator_raises(self, gain):
        with pytest.raises(ValueError, match="initiator"):
            ci1_exact(gain, "z")


class TestDetSearch:
    def test_bss_interaction_does_not_help(self, bss25):
        res = det_chain_search(bss25, 2, (2, 2))
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.residual <= 1e-9

    def test_gain_interaction_helps(self, gain):
        res = det_chain_search(gain, 2, (2, 3))
        assert res.objective <= GAIN_H_X - 0.022
        assert res.objective < ci1_exact(gain, "x")
        assert res.objective < ci1_exact(gain, "y")

    def test_gain_known_chain_in_feasible_set(self, gain):
        known = gain_two_round_chain()
        assert chain_objective(gain, known).residual <= 1e-9
        encodings = {enc for enc, _ in feasible_det_encodings(gain, 2, (2, 3))}
        assert canonical_encoding(known) in encodings

    def test_independent_all_constant(self, independent):
        res = det_chain_search(independent, 3, (2, 2, 2))
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_budget_exceeded_reports_count(self, gain):
        with pytest.raises(BudgetExceeded) as err:
            det_chain_search(gain, 2, (4, 4), budget=10)
        assert str(err.value) == "11 set partitions scored exceed the budget 10"
        # a budget of exactly the moves a search makes lets it finish
        res = det_chain_search(gain, 2, (4, 4))
        assert "moves" not in res.to_json()
        assert det_chain_search(gain, 2, (4, 4), budget=res.moves).moves == res.moves
        with pytest.raises(BudgetExceeded) as err:
            det_chain_search(gain, 2, (4, 4), budget=res.moves - 1)
        assert str(err.value) == (f"{res.moves} set partitions scored exceed "
                                  f"the budget {res.moves - 1}")

    def test_monotone_in_rounds(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            pmf = random_full_pmf(rng, max_side=3)
            v_r = det_chain_search(pmf, 1, (3,)).objective
            v_r1 = det_chain_search(pmf, 2, (3, 2)).objective
            assert v_r1 <= v_r + 1e-12
        # at default caps, up to four rounds
        for pmf in [GAIN, bss_pmf(0.25)] + [_random3(seed) for seed in range(6)]:
            values = [det_chain_search(pmf, r).objective for r in range(1, 5)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), values

    def test_gain_gains_nothing_past_two_rounds(self):
        for rounds in (3, 4):
            res = det_chain_search(GAIN, rounds)
            assert res.objective == pytest.approx(GAIN_CHAIN_OBJECTIVE, abs=1e-12)

    def test_bench_4x4_draw_stays_at_ci1(self):
        pmf = validate_pmf(random_base(0, 4))
        assert ci1_exact(pmf, "x") == pytest.approx(BENCH4_CI1, abs=1e-12)
        for rounds in (2, 3):
            res = det_chain_search(pmf, rounds)
            assert res.objective == pytest.approx(BENCH4_CI1, abs=1e-12)

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("name", ["gain", "rand0", "rand1", "rand2"])
    def test_value_is_label_blind(self, name, rounds):
        p = GAIN.p if name == "gain" else _random3(int(name[4:])).p
        values = [det_chain_search(validate_pmf(p[list(rows)][:, list(cols)]), rounds).objective
                  for rows in itertools.permutations(range(3))
                  for cols in itertools.permutations(range(3))]
        assert len(values) == 36
        assert max(values) - min(values) <= 1e-12
        swapped = det_chain_search(validate_pmf(p.T), rounds, initiator="y")
        assert abs(swapped.objective - values[0]) <= 1e-12

    def test_initiator_symmetry_embedding(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            pmf = random_full_pmf(rng, max_side=3)
            v_y = det_chain_search(pmf, 1, (3,), initiator="y").objective
            v_x2 = det_chain_search(pmf, 2, (1, 3), initiator="x").objective
            assert v_x2 <= v_y + 1e-12

    def test_thread_partition_identical(self, gain, tmp_path, monkeypatch):
        # only the CLI reads a thread count, and the search ignores it
        path = str(tmp_path / "gain.json")
        save_pmf(gain, path)
        argv = ["ici", "--pmf", path, "--rounds", "2", "--mode", "det", "--caps", "2,3"]
        one, four, env = cli_reports_across_threads(argv, monkeypatch)
        assert one == four == env


def _reference_search(pmf, rounds, caps, initiator="x"):
    """Lowest objective over the dense-scored feasible set, ties within 1e-12
    going to the lexicographically smallest encoding."""
    feasible = feasible_det_encodings(pmf, rounds, caps, initiator)
    if not feasible:
        return None
    low = min(obj for _, obj in feasible)
    return min(enc for enc, obj in feasible if obj <= low + 1e-12), low


class TestDetSearchEquivalence:
    @pytest.mark.parametrize("pmf, rounds, caps, initiator", [
        (bss_pmf(0.25), 2, (2, 2), "x"),
        (GAIN, 2, (2, 3), "x"),
        (GAIN, 2, (4, 4), "x"),
        (_random3(5), 2, (4, 4), "x"),
        (_random3(5), 2, (4, 4), "y"),
        (_random3(11), 2, (3, 4), "x"),
        (_random3(11), 2, (3, 4), "y"),
        (GAIN, 1, (3,), "y"),
        (INDEPENDENT, 3, (2, 2, 2), "x"),
    ], ids=["bss", "gain-2-3", "gain-4-4", "rand5-x", "rand5-y", "rand11-x", "rand11-y",
            "r1", "independent-r3"])
    def test_matches_dense_reference(self, pmf, rounds, caps, initiator):
        encoding, low = _reference_search(pmf, rounds, caps, initiator)
        res = det_chain_search(pmf, rounds, caps, initiator=initiator)
        assert res.encoding == encoding
        assert abs(res.objective - low) <= 1e-12

    @pytest.mark.parametrize("pmf, rounds, caps, initiator", [
        (GAIN, 2, (4, 4), "x"),
        (GAIN, 2, (4, 4), "y"),
        (_random3(0), 3, (2, 2, 2), "x"),
        (_random3(0), 3, (2, 2, 2), "y"),
    ], ids=["gain-x", "gain-y", "rand0-r3-x", "rand0-r3-y"])
    def test_states_count_the_rectangles(self, pmf, rounds, caps, initiator):
        res = det_chain_search(pmf, rounds, caps, initiator=initiator)
        nx, ny = pmf.shape
        # one state per (round, live rectangle), leaves included
        assert 0 < res.states <= (rounds + 1) * (2 ** nx - 1) * (2 ** ny - 1)
        assert res.states == det_chain_search(pmf, rounds, caps, initiator=initiator).states
        assert "states" not in res.to_json()

    def test_one_round_states_are_the_root_and_its_blocks(self):
        # on full support every nonempty set of x symbols is a leaf's side
        assert det_chain_search(GAIN, 1, (3,)).states == 1 + (2 ** 3 - 1)

    def test_gain_winner_pinned(self):
        # six exactly tied minima; the smallest encoding wins
        res = det_chain_search(GAIN, 2, (4, 4))
        assert res.encoding == ((0, 0, 1), (0, 0, 1, 0, 1, 0))
        assert res.objective == pytest.approx(GAIN_CHAIN_OBJECTIVE, abs=1e-12)

    def test_no_feasible_chain_agrees(self, bss25):
        from cit import NoFeasibleChain

        assert _reference_search(bss25, 1, (1,)) is None
        with pytest.raises(NoFeasibleChain):
            det_chain_search(bss25, 1, (1,))

    @pytest.mark.parametrize("shape, rounds, caps, initiator", [
        ((2, 2), 2, (2, 2), "x"),
        ((3, 3), 1, (4,), "y"),
        ((2, 3), 2, (2, 3), "y"),
        ((3, 3), 2, (4, 4), "x"),
    ])
    def test_canonical_chains_are_counted_and_ordered(self, shape, rounds, caps, initiator):
        caps = effective_caps(*shape, rounds, caps, initiator)
        encodings = []
        for chain in iter_canonical_chains(*shape, rounds, caps, initiator):
            encoding = tuple(tuple(t.ravel().tolist()) for t in chain.tables)
            assert canonical_encoding(chain) == encoding
            encodings.append(encoding)
        assert len(encodings) == count_canonical_chains(*shape, rounds, caps, initiator)
        assert encodings == sorted(set(encodings))


class TestContinuous:
    def test_copy_source(self, uniform_copy):
        res = continuous_chain_minimize(uniform_copy, 2, (2, 2),
                                        PenaltyConfig(restarts=4, max_iter=3000, seed=0))
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-3)

    def test_gain_seeded_by_det(self, gain):
        det = det_chain_search(gain, 2, (2, 3))
        res = continuous_chain_minimize(gain, 2, (2, 3),
                                        PenaltyConfig(restarts=4, max_iter=3000, seed=0))
        assert res.feasible
        assert res.objective <= det.objective + 1e-3

    def test_handed_det_result_matches_own_search(self, gain):
        config = PenaltyConfig(restarts=2, max_iter=300, seed=0)
        det = det_chain_search(gain, 2, (3, 3))
        own = continuous_chain_minimize(gain, 2, (3, 3), config)
        handed = continuous_chain_minimize(gain, 2, (3, 3), config, det_best=det)
        assert "det-best" in [label for label, _, _ in own.candidates]
        assert handed.candidates == own.candidates
        # a handed error seeds nothing
        failed = continuous_chain_minimize(gain, 2, (3, 3), config,
                                           det_best=BudgetExceeded("over budget"))
        assert "det-best" not in [label for label, _, _ in failed.candidates]

    def test_a_start_that_repeats_an_earlier_one_is_skipped(self):
        # on the bench's 4x4 draw the det winner is the copy of X, so its
        # padded start equals the copy start
        pmf = validate_pmf(random_base(0, 4))
        config = PenaltyConfig(restarts=2, max_iter=300, seed=0)
        res = continuous_chain_minimize(pmf, 2, (4, 4), config)
        labels = [label for label, _, _ in res.candidates]
        assert "det-best" in labels and "copy" not in labels

    def test_initiator_y(self, gain):
        res = continuous_chain_minimize(gain, 2, (2, 3), PenaltyConfig(restarts=2, max_iter=300),
                                        initiator="y")
        assert res.chain.initiator == "y"
        assert res.chain.kernels[0].shape == (3, 2)
        assert res.feasible

    def test_candidate_floor(self, bss25):
        res = continuous_chain_minimize(bss25, 2, (2, 2), PenaltyConfig(restarts=4, max_iter=3000, seed=0))
        mi = mutual_information(bss25.to_tensor(), "x", "y")
        for _, obj, resid in res.candidates:
            if resid <= 1e-4:
                assert obj >= mi - 1e-6


class TestBssClosedForm:
    def test_quarter(self):
        cf = bss_closed_form(0.25)
        assert cf.ci_i == 1.0
        assert cf.sk_capacity == pytest.approx(1 - binary_entropy(0.25), abs=1e-15)
        assert cf.r_sk == pytest.approx(0.8112781244591328, abs=1e-9)

    def test_near_half(self):
        assert bss_closed_form(0.499).r_sk == pytest.approx(0.9999971146079947, abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 0.5, -0.1, 1.0):
            with pytest.raises(DeltaOutOfRange):
                bss_closed_form(bad)

    def test_matches_noninteractive_rate(self):
        for delta in (0.1, 0.25, 0.4):
            cf = bss_closed_form(delta)
            ni = noninteractive_rate(bss_pmf(delta))
            assert cf.r_sk == pytest.approx(ni.r_ni, abs=1e-12)


class TestBinaryStopClassify:
    def test_copy_chain_pins_x(self, bss25):
        atoms = binary_stop_classify(bss25, copy_chain_r1(bss25))
        assert atoms
        for atom in atoms:
            assert "x" in atom.vanishes

    def test_initiator_y_copy_pins_y(self, bss25):
        chain = DeterministicChain("y", (2,), (np.arange(2),))
        atoms = binary_stop_classify(bss25, chain)
        for atom in atoms:
            assert "y" in atom.vanishes

    def test_search_output_classifies(self, bss25):
        res = det_chain_search(bss25, 2, (2, 2))
        atoms = binary_stop_classify(bss25, res.chain)
        assert sum(a.probability for a in atoms) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_chain_rejected(self, bss25):
        with pytest.raises(LemmaViolation):
            binary_stop_classify(bss25, constant_chain_r1())

    def test_requires_dependence(self, independent):
        with pytest.raises(ValueError):
            binary_stop_classify(independent, copy_chain_r1(independent))

    def test_requires_binary(self, gain):
        with pytest.raises(ValueError):
            binary_stop_classify(gain, gain_two_round_chain())


class TestCanonicalization:
    def test_relabeling_found(self):
        # same function with permuted value labels canonicalizes identically
        base = gain_two_round_chain()
        f1 = np.array([1, 1, 0])
        f2 = np.array([[1, 0], [2, 0], [2, 0]])[:, ::-1]
        permuted = DeterministicChain("x", (2, 3), (f1, f2))
        assert canonical_encoding(base) == canonical_encoding(permuted)

    def test_unused_values_dropped(self):
        ch = DeterministicChain("x", (3,), (np.array([0, 0]),))
        assert canonical_encoding(ch) == ((0, 0),)


class TestDefensiveErrors:
    def test_tensor_budget(self, gain):
        from cit import SizeBudgetExceeded

        # declared sizes put the joint tensor over the cell budget; the check
        # must fire before any dense kernel is materialized
        sizes = (4, 13, 157, 600)
        tables = []
        prior = ()
        for s in sizes:
            tables.append(np.zeros((3,) + prior, dtype=int))
            prior += (s,)
        big = DeterministicChain("x", sizes, tuple(tables))
        with pytest.raises(SizeBudgetExceeded):
            chain_objective(gain, big)

    def test_no_feasible_chain_under_constant_caps(self, bss25):
        from cit import NoFeasibleChain

        with pytest.raises(NoFeasibleChain):
            det_chain_search(bss25, 1, (1,))

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_fewer_than_one_round_raises(self, bss25, rounds):
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            det_chain_search(bss25, rounds)
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            continuous_chain_minimize(bss25, rounds, ())
