from dataclasses import replace

import numpy as np
import pytest

from cit import (PenaltyConfig, RateConfig, binary_entropy, chains, rate_report, validate_pmf,
                 wyner)
from cit.sources import binary_symmetric_delta, bss_pmf, random_pmf

LIGHT = RateConfig(descent=PenaltyConfig(restarts=4, max_iter=1200))


class TestBss:
    def test_quarter_report(self):
        rep = rate_report(bss_pmf(0.25), LIGHT)
        h = binary_entropy(0.25)
        assert rep.mi == pytest.approx(1 - h, abs=1e-9)
        assert rep.sk_capacity == rep.mi
        assert rep.cir_ub == pytest.approx(1.0, abs=1e-12)
        assert rep.r_sk_r == pytest.approx(h, abs=1e-9)
        assert rep.r_ni == pytest.approx(h, abs=1e-9)
        assert rep.provenance["cir_ub"].startswith("exact")

    def test_copy_source(self, uniform_copy):
        rep = rate_report(uniform_copy, LIGHT)
        assert rep.mi == pytest.approx(1.0, abs=1e-12)
        assert rep.cir_ub == pytest.approx(1.0, abs=1e-9)
        assert rep.r_sk_r == pytest.approx(0.0, abs=1e-9)
        assert rep.r_ni == pytest.approx(0.0, abs=1e-12)
        assert rep.gk_ci == pytest.approx(1.0, abs=1e-12)

    def test_independent(self, independent):
        rep = rate_report(independent, LIGHT)
        assert rep.mi == 0.0
        assert rep.cir_ub == pytest.approx(0.0, abs=1e-9)


def _relabelled(p: np.ndarray, how: str) -> np.ndarray:
    if how == "x-swapped":
        return p[::-1]
    if how == "y-swapped":
        return p[:, ::-1]
    if how == "zero-row":
        return np.insert(p, 1, 0.0, axis=0)
    if how == "zero-column":
        return np.insert(p, 1, 0.0, axis=1)
    return p


@pytest.mark.parametrize("how", ["as-is", "x-swapped", "y-swapped", "zero-row", "zero-column"])
@pytest.mark.parametrize("delta", [0.1, 0.25, 0.4])
def test_relabelled_or_padded_bss_keeps_its_closed_form(delta, how):
    pmf = validate_pmf(_relabelled(bss_pmf(delta).p, how))
    assert binary_symmetric_delta(pmf) == pytest.approx(delta, abs=1e-15)
    rep = rate_report(pmf, replace(LIGHT, rounds=1))
    assert rep.cir_ub == 1.0
    assert rep.provenance["cir_ub"] == "exact (binary symmetric closed form)"


@pytest.mark.parametrize("p", [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]],
                               [[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]]],
                         ids=["x-equals-y", "x-equals-not-y", "independent", "padded-copy"])
def test_copies_and_independent_pairs_are_not_bss(p):
    assert binary_symmetric_delta(validate_pmf(p)) is None


class TestGain:
    def test_interaction_gap(self, gain):
        rep = rate_report(gain, LIGHT)
        assert rep.r_sk_r < rep.r_ni
        gap = rep.r_ni - rep.r_sk_r
        assert 0.02 <= gap <= 0.03
        assert rep.cir_ub < min(rep.ci1_x, rep.ci1_y)
        assert rep.provenance["cir_ub"] == "upper bound"

    @pytest.mark.parametrize("source, caps, budget, raises", [
        ("gain", None, 200_000, None),
        ("gain", (1, 2), 200_000, chains.NoFeasibleChain),
        ("random-4x4", None, 200_000, None),
        ("random-4x4", None, 10, chains.BudgetExceeded),
    ], ids=["gain", "gain-caps-1-2", "random-4x4", "random-4x4-budget-10"])
    def test_searches_once(self, gain, source, caps, budget, raises, monkeypatch):
        # the continuous route reuses the report's search for its det-best
        # start, also when that search raises
        pmf = gain if source == "gain" else random_pmf(np.random.default_rng(4), 4, 4)
        calls = []
        search = chains.det_chain_search

        def counted(*args, **kwargs):
            calls.append((*args[1:3], kwargs["budget"]))
            try:
                return search(*args, **kwargs)
            except Exception as exc:
                calls.append(type(exc))
                raise

        monkeypatch.setattr(chains, "det_chain_search", counted)
        rate_report(pmf, replace(LIGHT, det_caps=caps, det_budget=budget))
        assert calls == [(2, caps, budget)] + ([raises] if raises else [])

    def test_both_descents_run_the_report_descent(self, gain, monkeypatch):
        config = RateConfig(descent=PenaltyConfig(restarts=1, max_iter=50, seed=3))
        seen = []
        cont, wyn = chains.continuous_chain_minimize, wyner.wyner_minimize

        def cont_spy(pmf, sizes, descent, **kwargs):
            seen.append(descent)
            return cont(pmf, sizes, descent, **kwargs)

        def wyner_spy(pmf, descent, **kwargs):
            seen.append(descent)
            return wyn(pmf, descent, **kwargs)

        monkeypatch.setattr(chains, "continuous_chain_minimize", cont_spy)
        monkeypatch.setattr(wyner, "wyner_minimize", wyner_spy)
        rate_report(gain, config)
        assert len(seen) == 2
        assert all(descent is config.descent for descent in seen)

    def test_three_rounds_keep_the_two_round_chain(self, gain):
        # an r-round chain followed by a constant round is an (r+1)-round
        # chain, so the det route finds gain's two-round value at r = 3
        rep = rate_report(gain, replace(LIGHT, rounds=3))
        assert rep.cir_ub <= 1.558871848445 + 1e-9
        assert rep.wyner_ub <= 1.558871848445 + 1e-9


class TestInvariants:
    @pytest.mark.parametrize("delta", [0.1, 0.4])
    def test_orderings(self, delta):
        rep = rate_report(bss_pmf(delta), LIGHT)
        assert rep.sk_capacity == rep.mi
        assert rep.r_sk_r == rep.cir_ub - rep.mi
        assert rep.gk_ci <= rep.mi + 1e-9
        assert rep.mi <= rep.wyner_ub + 1e-6
        assert rep.cir_ub <= min(rep.ci1_x, rep.ci1_y) + 1e-9

    def test_round_one_exact(self, gain):
        rep = rate_report(gain, replace(LIGHT, rounds=1))
        assert rep.cir_ub == rep.ci1_x
        assert rep.provenance["cir_ub"].startswith("exact")

    def test_json_fields(self, gain):
        blob = rate_report(gain, LIGHT).to_json()
        for key in ("h_x", "h_y", "mi", "sk_capacity", "gk_ci", "wyner_ub",
                    "ci1_x", "ci1_y", "cir_ub", "r_ni", "r_sk_r", "rounds",
                    "provenance"):
            assert key in blob


class TestDustCell:
    """A source cell lighter than `chains.ATOM_DUST`, alone in its row and
    column: a chain that gives it an atom of its own leaves its Wyner seed
    slice no atom mass, once 0/0 = NaN, and `cit rates` exited 2 on it."""

    @pytest.fixture
    def dusty(self):
        return validate_pmf([[0.5, 0.0, 0.0], [0.0, 0.5 - 1e-13, 0.0], [0.0, 0.0, 1e-13]])

    @pytest.fixture
    def isolating(self):  # U_1 = X: the dust cell's atom holds 1e-13
        return chains.DeterministicChain("x", (3, 1), (np.arange(3), np.zeros((3, 3), dtype=int)))

    def test_a_pair_left_no_atom_mass_gives_no_seed(self, dusty, isolating):
        assert chains.chain_to_aux_kernel(dusty, isolating, 9) is None

    def test_rates_reports(self, dusty):
        rep = rate_report(dusty, replace(LIGHT, rounds=2))
        assert rep.mi <= rep.wyner_ub + 1e-6 and np.isfinite(rep.wyner_ub)

    def test_rates_reports_when_a_found_chain_isolates_the_dust(self, dusty, isolating,
                                                                monkeypatch):
        found = chains.chain_objective(dusty, isolating)
        assert found.feasible
        monkeypatch.setattr(chains, "chain_routes",
                            lambda *args, **kwargs: iter([(2, "det", found)]))
        rep = rate_report(dusty, replace(LIGHT, rounds=2))
        assert rep.cir_ub == found.objective
        assert rep.mi <= rep.wyner_ub + 1e-6 and np.isfinite(rep.wyner_ub)
