"""One size budget for every dense law: `pmf.LAW_BUDGET` cells, checked by
`pmf.check_law_budget` before anything is drawn or allocated.

Each site builds one law, or a stack of laws (a descent's starts). At
each, a law of exactly the budget is built, and one of a cell more is
refused with SizeBudgetExceeded before the call that would allocate it
runs: the tests replace that call with one that fails if it is reached.
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from cit import (PenaltyConfig, Protocol, SizeBudgetExceeded, chains, checks, cli, pmf,
                 protocols, rates, simulate, sources, wyner)
from cit.chains import DeterministicChain

LIGHT = PenaltyConfig(restarts=1, max_iter=5)


def unreachable(*args, **kwargs):
    raise AssertionError("allocated before the size budget was checked")


@pytest.fixture
def budget(monkeypatch):
    """Set the law budget to `cells`; with `over`, also make `names` (module,
    attribute) unreachable, as the refusal must come first."""
    def set_budget(cells, *names, over=False):
        monkeypatch.setattr(pmf, "LAW_BUDGET", cells)
        if over:
            for module, name in names:
                monkeypatch.setattr(module, name, unreachable)
    return set_budget


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, json.loads(buf.getvalue())


def test_the_rule_and_its_message(budget):
    budget(10)
    pmf.check_law_budget(10, "a law")
    with pytest.raises(SizeBudgetExceeded, match=r"^a law would hold 11 cells \(budget 10\)$"):
        pmf.check_law_budget(11, "a law")


def test_chain_law(gain, budget):
    chain = DeterministicChain("x", (4,), (np.array([0, 1, 2]),))  # a law of 3 * 3 * 4 cells
    budget(36)
    assert chains.chain_objective(gain, chain).feasible
    budget(35, (chains, "_product_law"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="joint tensor would hold 36 cells"):
        chains.chain_objective(gain, chain)


def test_transcript_law(bss25, budget):
    parity = np.array([[0], [1], [1], [0]])
    proto = Protocol(2, (2,), (parity,))  # a law of 4 * 4 * 2 cells, 96 with a J of 3 values
    j_table = np.arange(16).reshape(4, 4) % 3
    budget(32)
    protocols.lemma1_check(bss25, proto)
    budget(96)
    protocols.decomposition_check(bss25, proto, j_table)
    budget(95, (protocols, "_block_laws"), (protocols, "_transcripts"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="transcript law would hold 96 cells"):
        protocols.decomposition_check(bss25, proto, j_table)
    budget(31)
    with pytest.raises(SizeBudgetExceeded, match="transcript law would hold 32 cells"):
        protocols.transcript_law(bss25, proto)


@pytest.mark.parametrize("identity", ["lemma1", "decomp"])
def test_check_cases_are_refused_before_their_draws(identity, budget):
    """The first case's law of (X^n, Y^n, F) is known before its protocol and
    J are drawn; a case within the budget keeps its draws."""
    settings = dict(n=2, alphabet=3, rounds=2)
    _, shape, _ = checks._draw_case(identity, np.random.default_rng(0), **settings)
    cells = int(np.prod(shape[:3]))
    budget(int(np.prod(shape)))
    assert checks.identity_check(identity, 1, 0, **settings)["pass"]
    budget(cells - 1, (protocols, "random_protocol"), (protocols, "random_cr_table"), over=True)
    with pytest.raises(SizeBudgetExceeded, match=f"transcript law would hold {cells} cells"):
        checks.identity_check(identity, 1, 0, **settings)


def test_a_decomp_law_is_held_to_the_budget_with_its_j(budget):
    settings = dict(n=2, alphabet=3, rounds=2)
    _, shape, _ = checks._draw_case("decomp", np.random.default_rng(0), **settings)
    budget(int(np.prod(shape)) - 1, (protocols, "_block_laws"), over=True)
    with pytest.raises(SizeBudgetExceeded, match=f"would hold {int(np.prod(shape))} cells"):
        checks.identity_check("decomp", 1, 0, **settings)


def test_an_el5_chain_is_refused_before_it_is_built(budget):
    """Each round's law so far is checked before that round's kernel is
    drawn: seed 1's chain has two rounds, a law of 2 * 3 * 3 * 2 cells, and
    a budget a cell short stops it at round 2."""
    settings = dict(n=2, alphabet=3, rounds=2)
    shape, _, _ = checks._draw_case("el5", np.random.default_rng(1), **settings)
    assert shape == (2, 3, 3, 2)
    budget(36)
    assert checks.identity_check("el5", 1, 1, **settings)["pass"]
    budget(35, (chains, "AuxiliaryChain"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="joint tensor would hold 36 cells"):
        checks.identity_check("el5", 1, 1, **settings)


def test_chain_descent_stack(gain, budget):
    """No start chain, the copy chain, the constant chain and one restart:
    three laws of 3 * 3 * 4 * 4 cells."""
    budget(3 * 144)
    chains.continuous_chain_minimize(gain, (4, 4), LIGHT)
    budget(3 * 144 - 1, (chains, "_copy_chain"), (chains, "_constant_chain"),
           (chains, "descent_starts"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="a descent of 3 starts would hold 432 cells"):
        chains.continuous_chain_minimize(gain, (4, 4), LIGHT)


def test_wyner_descent_stack(gain, budget):
    """The copy, constant and two sufficient-statistic seeds, one caller
    seed and one restart: six laws of 3 * 3 * 9 cells."""
    extra = [("mine", np.full((3, 3, 9), 1 / 9))]
    budget(6 * 81)
    wyner.wyner_minimize(gain, LIGHT, extra_kernels=extra)
    budget(6 * 81 - 1, (wyner, "deterministic_kernel"), (wyner, "descent_starts"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="a descent of 6 starts would hold 486 cells"):
        wyner.wyner_minimize(gain, LIGHT, extra_kernels=extra)


def test_wyner_seed_table_of_a_chain(gain, budget):
    copy = DeterministicChain("x", (3,), (np.arange(3),))
    budget(81)
    assert chains.chain_to_aux_kernel(gain, copy, 9).shape == (3, 3, 9)
    budget(80, (chains, "_joint_array"), over=True)
    with pytest.raises(SizeBudgetExceeded, match="Wyner seed table would hold 81 cells"):
        chains.chain_to_aux_kernel(gain, copy, 9)


def test_exact_leakage_table(bss25, budget):
    """The dense (K, F) table takes the exact path at the budget; one cell
    over, the leakage is estimated from the trials instead."""
    rep = simulate.cr_sk_simulate(bss25, simulate.default_copy_chain(bss25), n=4,
                                  key_rate=0.1, trials=20, seed=0)
    cells = 1 << (rep.key_bits + sum(rep.stage_bits))
    budget(cells)
    assert simulate.cr_sk_simulate(bss25, simulate.default_copy_chain(bss25), n=4, key_rate=0.1,
                                   trials=20, seed=0).leakage_exact
    budget(cells - 1, (simulate, "_exact_entropies"), over=True)
    assert not simulate.cr_sk_simulate(bss25, simulate.default_copy_chain(bss25), n=4,
                                       key_rate=0.1, trials=20, seed=0).leakage_exact


@pytest.mark.parametrize("cells, failed", [
    (4 * 144 - 1, ["cont"]),   # det-best, copy, constant and one restart
    (8, ["det", "cont"]),      # the det winner's own law is over it too
])
def test_a_route_over_the_budget_is_a_route_error(gain, budget, cells, failed):
    budget(cells)
    routes = {name: res for _, name, res in chains.chain_routes(gain, 2, None, 2_000_000, LIGHT)}
    assert [name for name, res in routes.items()
            if isinstance(res, SizeBudgetExceeded)] == failed


def test_a_report_leaves_a_descent_over_the_budget_out(gain, budget):
    config = rates.RateConfig(rounds=2, descent=LIGHT)
    without = rates.rate_report(gain, rates.RateConfig(rounds=2, descent=LIGHT,
                                                       include_continuous=False))
    budget(4 * 144 - 1, (chains, "penalized_minimize"), over=True)
    assert rates.rate_report(gain, config) == without


# At the real budget: refusals that allocate nothing over it on the way.

def traced(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv, message", [
    # the first case's protocol tables took 230 MB before its law was refused
    (["lemma1", "--n", "16", "--seed", "2", "--count", "1"],
     "transcript law would hold 1410554953728 cells (budget 4194304)"),
    # 136 MB
    (["decomp", "--n", "6", "--alphabet", "4", "--seed", "0", "--count", "20"],
     "transcript law would hold 4718592 cells (budget 4194304)"),
])
def test_check_refuses_before_drawing_tables_over_budget(argv, message):
    (code, out), peak = traced(run_cli, ["check"] + argv)
    assert (code, out) == (2, {"error": {"type": "SizeBudgetExceeded", "message": message}})
    assert peak <= 5_000_000


def test_a_transcript_law_counts_its_transcripts():
    """16 rounds of up to 3 messages on one binary block: the block pairs fit,
    and a case's law of 22.7M cells was once built and scored."""
    code, out = run_cli(["check", "lemma1", "--n", "1", "--alphabet", "2", "--rounds", "16",
                         "--count", "30", "--seed", "0"])
    assert (code, out) == (2, {"error": {
        "type": "SizeBudgetExceeded",
        "message": "transcript law would hold 4478976 cells (budget 4194304)"}})


def test_wyner_refuses_a_stack_over_budget_before_allocating(monkeypatch):
    """|W| = |X||Y| = 576: each start's law holds 576^2 cells, and 36 starts
    peaked at 761 MB."""
    source = sources.random_pmf(np.random.default_rng(0), 24, 24)
    monkeypatch.setattr(wyner, "deterministic_kernel", unreachable)

    def run():
        with pytest.raises(SizeBudgetExceeded,
                           match=r"a descent of 36 starts would hold 11943936 cells"):
            wyner.wyner_minimize(source, PenaltyConfig(restarts=32, max_iter=1))

    _, peak = traced(run)
    assert peak <= 1_000_000
