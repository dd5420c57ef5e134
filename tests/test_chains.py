import contextlib
import io
import itertools
import json

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
    cli,
    continuous_chain_minimize,
    det_chain_search,
    entropy,
    mutual_information,
    noninteractive_rate,
    validate_pmf,
)
from cit.chains import chain_from_json, effective_caps, iter_canonical_chains
from cit.optim import FEASIBILITY_TOL
from cit.pmf import save_pmf
from cit.sources import bss_pmf, gain_pmf, random_pmf
from workloads import random_base

from conftest import (
    canonical_encoding,
    cli_reports_across_threads,
    count_canonical_chains,
    det_start,
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
        padded = chains.padded_chain(bss25, ch, (3,))
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

    @pytest.mark.parametrize("kind", ["deterministc", "Randomized", None])
    def test_an_unknown_kind_is_refused_by_name(self, kind):
        obj = {**gain_two_round_chain().to_json(), "kind": kind}
        if kind is None:
            del obj["kind"]
        with pytest.raises(ValueError, match=f"chain kind must be 'deterministic' or "
                                             f"'randomized', got {kind!r}"):
            chain_from_json(obj)

    def test_simulate_names_an_unknown_chain_kind(self, gain, tmp_path):
        save_pmf(gain, str(tmp_path / "gain.json"))
        obj = {**gain_two_round_chain().as_auxiliary().to_json(), "kind": "deterministc"}
        (tmp_path / "chain.json").write_text(json.dumps(obj))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["simulate", "crsk", "--pmf", str(tmp_path / "gain.json"),
                            "--chain", str(tmp_path / "chain.json"), "--n", "2"])
        assert (code, json.loads(buf.getvalue())) == (2, {"error": {
            "type": "ValueError",
            "message": "chain kind must be 'deterministic' or 'randomized', got 'deterministc'"}})

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
        build = chains._product_law

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(chains, "_product_law", counted)
        chain_objective(gain, gain_two_round_chain())
        assert len(calls) == 1

    def test_a_deterministic_chain_is_feasible_at_the_det_threshold(self):
        # the constant chain leaves I(X;Y) of about 1.15e-5 bits: within the
        # randomized threshold 1e-4, not within the deterministic one 1e-9
        near = validate_pmf([[0.251, 0.249], [0.249, 0.251]])
        det = chain_objective(near, constant_chain_r1())
        aux = chain_objective(near, constant_chain_r1().as_auxiliary())
        assert det.residual == aux.residual
        assert chains.DET_FEASIBILITY_TOL < det.residual <= FEASIBILITY_TOL
        assert (det.feasible, aux.feasible) == (False, True)

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
        res = continuous_chain_minimize(uniform_copy, (2, 2),
                                        PenaltyConfig(restarts=4, max_iter=3000, seed=0),
                                        start=det_start(uniform_copy, (2, 2)))
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-3)

    def test_gain_seeded_by_det(self, gain):
        det = det_chain_search(gain, 2, (2, 3))
        res = continuous_chain_minimize(gain, (2, 3),
                                        PenaltyConfig(restarts=4, max_iter=3000, seed=0),
                                        start=det.chain)
        assert res.feasible
        assert res.objective <= det.objective + 1e-3

    def test_handed_start_is_the_det_best_candidate(self, gain):
        config = PenaltyConfig(restarts=2, max_iter=300, seed=0)
        det = det_chain_search(gain, 2, (3, 3))
        handed = continuous_chain_minimize(gain, (3, 3), config, start=det.chain)
        scored = chain_objective(gain, chains.padded_chain(gain, det.chain, (3, 3)))
        assert handed.candidates[0] == ("det-best", scored.objective, scored.residual)
        # without a start the same candidates run, less the det-best ones
        alone = continuous_chain_minimize(gain, (3, 3), config)
        labels = [label for label, _, _ in handed.candidates]
        assert labels.count("det-best") == 2
        assert [label for label, _, _ in alone.candidates] == \
            [label for label in labels if label != "det-best"]

    @pytest.mark.parametrize("start", [False, True])
    def test_the_descent_never_searches(self, gain, monkeypatch, start):
        det = det_chain_search(gain, 2, (3, 3))
        calls = []
        search = chains.det_chain_search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(chains, "det_chain_search", counted)
        continuous_chain_minimize(gain, (3, 3), PenaltyConfig(restarts=1, max_iter=50),
                                  start=det.chain if start else None)
        assert calls == []

    def test_a_start_spoken_by_the_other_side_raises(self, gain):
        det = det_chain_search(gain, 2, (3, 3), initiator="y")
        with pytest.raises(ValueError, match="initiator 'y'"):
            continuous_chain_minimize(gain, (3, 3), PenaltyConfig(restarts=1, max_iter=50),
                                      start=det.chain)

    def test_a_start_that_repeats_an_earlier_one_is_skipped(self):
        # on the bench's 4x4 draw the det winner is the copy of X, so its
        # padded start equals the copy start
        pmf = validate_pmf(random_base(0, 4))
        config = PenaltyConfig(restarts=2, max_iter=300, seed=0)
        res = continuous_chain_minimize(pmf, (4, 4), config, start=det_start(pmf, (4, 4)))
        labels = [label for label, _, _ in res.candidates]
        assert "det-best" in labels and "copy" not in labels

    def test_initiator_y(self, gain):
        res = continuous_chain_minimize(gain, (2, 3), PenaltyConfig(restarts=2, max_iter=300),
                                        start=det_start(gain, (2, 3), "y"), initiator="y")
        assert res.chain.initiator == "y"
        assert res.chain.kernels[0].shape == (3, 2)
        assert res.feasible

    def test_candidate_floor(self, bss25):
        res = continuous_chain_minimize(bss25, (2, 2),
                                        PenaltyConfig(restarts=4, max_iter=3000, seed=0),
                                        start=det_start(bss25, (2, 2)))
        mi = mutual_information(bss25.to_tensor(), "x", "y")
        for _, obj, resid in res.candidates:
            if resid <= 1e-4:
                assert obj >= mi - 1e-6


class TestChainRoutes:
    LIGHT = PenaltyConfig(restarts=1, max_iter=50)

    @staticmethod
    def named(routes):
        """The routes of a two-round run by name, each at two rounds."""
        triples = list(routes)
        assert all(k == 2 for k, _, _ in triples)
        return {name: res for _, name, res in triples}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every det search and descent a route runs: its name, the caps or
        sizes it ran at, and what it returned or raised."""
        calls = []

        def spy(name, fn):
            def counted(pmf, rounds_or_sizes, *args, **kwargs):
                at = args[0] if name == "det" else rounds_or_sizes
                try:
                    out = fn(pmf, rounds_or_sizes, *args, **kwargs)
                except Exception as exc:
                    calls.append((name, at, exc))
                    raise
                calls.append((name, at, out))
                return out
            return counted

        monkeypatch.setattr(chains, "det_chain_search", spy("det", chains.det_chain_search))
        monkeypatch.setattr(chains, "continuous_chain_minimize",
                            spy("cont", chains.continuous_chain_minimize))
        return calls

    def test_an_over_budget_search_hands_no_start(self, gain, calls):
        routes = self.named(chains.chain_routes(gain, 2, None, 0, self.LIGHT))
        assert list(routes) == ["det", "cont"]
        assert isinstance(routes["det"], BudgetExceeded)
        assert isinstance(routes["cont"], chains.ChainResult)
        labels = [label for label, _, _ in routes["cont"].candidates]
        assert "copy" in labels and "det-best" not in labels
        assert [name for name, _, _ in calls] == ["det", "cont"]

    def test_failed_routes_are_returned(self, gain):
        from cit import NoFeasibleChain, NoFeasiblePoint

        routes = self.named(chains.chain_routes(gain, 2, (1, 2), 2_000_000, self.LIGHT))
        assert isinstance(routes["det"], NoFeasibleChain)
        assert isinstance(routes["cont"], NoFeasiblePoint)

    def test_the_det_winner_starts_the_descent(self, gain, calls):
        routes = self.named(chains.chain_routes(gain, 2, None, 2_000_000, self.LIGHT))
        assert [(name, at) for name, at, _ in calls] == [("det", None), ("cont", (4, 4))]
        scored = chain_objective(gain, chains.padded_chain(gain, routes["det"].chain, (4, 4)))
        assert routes["cont"].candidates[0] == ("det-best", scored.objective, scored.residual)

    @pytest.mark.parametrize("caps, sizes", [(None, (4, 4)), ((2, 3), (2, 3)), ((9, 9), (4, 9))])
    def test_sizes_at_the_det_caps_reuse_its_search(self, gain, calls, caps, sizes):
        routes = self.named(chains.chain_routes(gain, 2, caps, 2_000_000, self.LIGHT, sizes=sizes))
        assert [(name, at) for name, at, _ in calls] == [("det", caps), ("cont", sizes)]
        scored = chain_objective(gain, chains.padded_chain(gain, routes["det"].chain, sizes))
        assert routes["cont"].candidates[0] == ("det-best", scored.objective, scored.residual)

    def test_given_sizes_search_once_more(self, gain, calls):
        routes = self.named(chains.chain_routes(gain, 2, (2, 3), 2_000_000, self.LIGHT,
                                                sizes=(3, 3)))
        assert [(name, at) for name, at, _ in calls] == \
            [("det", (2, 3)), ("det", (3, 3)), ("cont", (3, 3))]
        assert calls[0][2] is routes["det"]
        scored = chain_objective(gain, chains.padded_chain(gain, calls[1][2].chain, (3, 3)))
        assert routes["cont"].candidates[0] == ("det-best", scored.objective, scored.residual)

    @pytest.mark.parametrize("det, cont, want", [
        (False, True, [("det", (4, 4)), ("cont", (4, 4))]),
        (True, False, [("det", None)]),
        (False, False, []),
    ])
    def test_only_the_requested_routes_run(self, gain, calls, det, cont, want):
        routes = self.named(chains.chain_routes(gain, 2, None, 2_000_000, self.LIGHT, det=det,
                                                cont=cont))
        assert [(name, at) for name, at, _ in calls] == want
        assert list(routes) == [name for name, on in (("det", det), ("cont", cont)) if on]

    @pytest.mark.parametrize("rounds, caps, sizes, message", [
        (0, None, None, "rounds must be at least 1"),
        (2, (3,), None, "need one size cap per round: 1 given for 2 rounds"),
        (2, None, (3, 3, 3), "need one size cap per round: 3 given for 2 rounds"),
        (2, (3, 3), (0, 3), "round 1 cap must be at least 1"),
        (2, None, (9, 9), "round 1: |U|=9 exceeds the cardinality ceiling 4"),
        (2, None, (4, 14), "round 2: |U|=14 exceeds the cardinality ceiling 13"),
    ])
    @pytest.mark.parametrize("det, cont", [(True, True), (False, False)])
    def test_bad_rounds_or_caps_raise_before_any_route(self, gain, calls, rounds, caps, sizes,
                                                       message, det, cont):
        with pytest.raises(ValueError, match=message):
            chains.chain_routes(gain, rounds, caps, 2_000_000, self.LIGHT, sizes=sizes,
                                det=det, cont=cont)
        assert calls == []

    def test_routes_run_as_they_are_read(self, gain, calls):
        routes = chains.chain_routes(gain, 2, None, 0, self.LIGHT)
        assert calls == []
        k, name, det = next(routes)
        assert (k, name, [n for n, _, _ in calls]) == (2, "det", ["det"])
        assert isinstance(det, BudgetExceeded)
        assert next(routes)[:2] == (2, "cont")
        assert [n for n, _, _ in calls] == ["det", "cont"]
        assert next(routes, None) is None

    def _ici(self, gain, tmp_path, *flags):
        path = tmp_path / "gain.json"
        save_pmf(gain, str(path))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["ici", "--pmf", str(path), "--rounds", "2", "--restarts", "1",
                            *flags])
        return code, json.loads(buf.getvalue())

    def test_ici_stops_at_a_failed_det_route(self, gain, tmp_path, calls):
        code, out = self._ici(gain, tmp_path, "--mode", "all", "--budget", "0")
        assert [name for name, _, _ in calls] == ["det"]
        det_alone = self._ici(gain, tmp_path, "--mode", "det", "--budget", "0")
        assert (code, out) == det_alone
        assert out["error"] == {"type": "BudgetExceeded",
                                "message": "1 set partitions scored exceed the budget 0"}

    @pytest.mark.parametrize("flags, want", [
        (["--sizes", "4,4"], [("det", None), ("cont", (4, 4))]),
        (["--caps", "2,3", "--sizes", "2,3"], [("det", (2, 3)), ("cont", (2, 3))]),
    ])
    def test_ici_sizes_at_the_det_caps_search_once(self, gain, tmp_path, calls, flags, want):
        code, out = self._ici(gain, tmp_path, "--mode", "all", *flags)
        assert code == 0, out
        assert [(name, at) for name, at, _ in calls] == want

    @pytest.mark.parametrize("mode", ["exact1", "det", "cont", "all"])
    def test_ici_sizes_above_the_ceiling_run_no_route(self, gain, tmp_path, calls, mode):
        code, out = self._ici(gain, tmp_path, "--mode", mode, "--sizes", "9,9")
        assert calls == []
        assert (code, out) == (2, {"error": {
            "type": "ValueError", "message": "round 1: |U|=9 exceeds the cardinality ceiling 4"}})


class TestRoundCounts:
    LIGHT = PenaltyConfig(restarts=1, max_iter=50)

    def test_every_count_from_two_in_order(self, gain):
        routes = chains.chain_routes(gain, 3, (2, 3, 2), 2_000_000, self.LIGHT)
        got = [(k, name, res.chain.rounds) for k, name, res in routes]
        assert got == [(2, "det", 2), (2, "cont", 2), (3, "det", 3), (3, "cont", 3)]

    def test_one_round_runs_at_one(self, gain):
        routes = chains.chain_routes(gain, 1, None, 2_000_000, self.LIGHT, cont=False)
        assert [(k, name) for k, name, _ in routes] == [(1, "det")]

    def test_the_flags_are_checked_at_the_full_count_first(self, gain):
        with pytest.raises(ValueError, match="need one size cap per round: 2 given for 3 rounds"):
            chains.chain_routes(gain, 3, (2, 3), 2_000_000, self.LIGHT)

    @pytest.mark.parametrize("randomized", [False, True])
    def test_constant_rounds_keep_the_scores(self, gain, randomized):
        chain = gain_two_round_chain()
        chain = chain.as_auxiliary() if randomized else chain
        padded = chains.padded_chain(gain, chain, chain.sizes + (1, 1))
        assert type(padded) is type(chain) and padded.sizes == chain.sizes + (1, 1)
        short, long = chain_objective(gain, chain), chain_objective(gain, padded)
        assert (long.objective, long.residual) == (short.objective, short.residual)
        assert long.per_round_terms[:2] == short.per_round_terms
        assert long.per_round_terms[2:] == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_widened_and_longer_keeps_the_scores(self, gain):
        chain = gain_two_round_chain()
        padded = chains.padded_chain(gain, chain, (3, 4, 1))
        assert padded.sizes == (3, 4, 1)
        short, long = chain_objective(gain, chain), chain_objective(gain, padded)
        assert (long.objective, long.residual) == (short.objective, short.residual)

    @pytest.mark.parametrize("randomized, sizes, message", [
        (False, (2,), r"sizes \(2,\) cannot pad the chain's sizes \(2, 3\)"),
        (False, (1, 3), "cannot pad"),
        (True, (2, 2, 1), "cannot pad"),
        (True, (3, 3), "cannot pad"),
    ])
    def test_padding_never_narrows_or_widens_a_randomized_round(self, gain, randomized, sizes,
                                                                message):
        chain = gain_two_round_chain()
        with pytest.raises(ValueError, match=message):
            chains.padded_chain(gain, chain.as_auxiliary() if randomized else chain, sizes)

    def test_ici_never_reports_more_at_more_rounds(self, tmp_path):
        """On the bench's 4x4 draw the 3-round descent ends above the 2-round
        one; ici prints the 2-round chain with a constant third round."""
        path = tmp_path / "rand4.json"
        save_pmf(validate_pmf(random_base(0, 4)), str(path))
        out = {}
        for rounds in (2, 3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(["ici", "--pmf", str(path), "--rounds", str(rounds),
                                "--mode", "all"])
            assert code == 0
            out[rounds] = json.loads(buf.getvalue())["result"]
        for name in ("det", "cont"):
            assert out[3][name]["objective"] <= out[2][name]["objective"]
            assert len(out[3][name]["chain"]["sizes"]) == len(out[3][name]["per_round_terms"]) == 3
        assert out[3]["cont"]["objective"] == out[2]["cont"]["objective"]
        assert out[3]["cont"]["chain"]["sizes"] == out[2]["cont"]["chain"]["sizes"] + [1]


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

    def test_builds_the_chain_law_once(self, bss25, monkeypatch):
        calls = []
        build = chains._joint_array

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(chains, "_joint_array", counted)
        binary_stop_classify(bss25, copy_chain_r1(bss25))
        assert len(calls) == 1

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
            continuous_chain_minimize(bss25, ())


def reference_kernel_checks(kernels):
    """The value checks `AuxiliaryChain` makes on each kernel, one numpy call
    at a time. A NaN entry is refused: it once passed both checks, and a
    chain with a NaN row scored as feasible at 0 bits."""
    for j, k in enumerate(np.asarray(k, dtype=float) for k in kernels):
        if (k < 0).any():
            raise ValueError(f"round {j + 1} kernel has negative entries")
        if np.isnan(k).any():
            raise ValueError(f"round {j + 1} kernel has NaN entries")
        if np.abs(k.sum(axis=-1) - 1.0).max() > 1e-9:
            raise ValueError(f"round {j + 1} kernel slices must sum to 1 within 1e-9")


@pytest.mark.parametrize("kernel", [
    [[0.5, 0.5], [0.25, 0.75]],
    [[0.5, 0.5], [1.2, -0.2]],
    [[float("nan"), 0.5], [0.25, 0.75]],
    [[float("nan"), -0.5], [0.25, 0.75]],
    [[float("nan"), float("nan")], [0.25, 0.75]],
    [[float("inf"), 0.5], [0.25, 0.75]],
    [[float("-inf"), 0.5], [0.25, 0.75]],
    [[0.5, 0.5 + 2e-9], [0.25, 0.75]],
    [[0.5, 0.5 - 2e-9], [0.25, 0.75]],
    [[0.5, 0.5 + 5e-10], [0.25, 0.75 - 5e-10]],
    np.zeros((0, 2)),
    np.zeros((2, 0)),
])
def test_lean_kernel_checks_raise_as_before(kernel):
    """`AuxiliaryChain` takes fewer numpy calls and raises what it raised."""
    def outcome(fn):
        try:
            fn()
        except ValueError as exc:
            return str(exc)
    expected = outcome(lambda: reference_kernel_checks([kernel]))
    assert outcome(lambda: AuxiliaryChain("x", (np.asarray(kernel, dtype=float),))) == expected
    if not np.isfinite(np.asarray(kernel, dtype=float)).all():
        assert expected is not None
