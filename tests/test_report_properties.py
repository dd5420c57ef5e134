"""End-to-end property sweep: every report invariant on random sources."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cit import PenaltyConfig, RateConfig, rate_report, validate_pmf
from cit.sources import gain_pmf, random_pmf

from workloads import random_base

FAST = RateConfig(det_budget=50_000, descent=PenaltyConfig(restarts=2, max_iter=600))


def _check_report(rep):
    assert rep.sk_capacity == rep.mi
    assert rep.r_sk_r == rep.cir_ub - rep.mi
    assert rep.gk_ci <= rep.mi + 1e-9
    assert rep.mi <= rep.wyner_ub + 1e-6
    assert rep.cir_ub <= min(rep.ci1_x, rep.ci1_y) + 1e-9
    assert rep.cir_ub >= rep.mi - 1e-6
    assert rep.r_ni >= rep.r_sk_r - 1e-9
    assert min(rep.h_x, rep.h_y) + 1e-9 >= rep.cir_ub
    assert rep.provenance["mi"] == "exact"


@pytest.mark.parametrize("seed", range(5))
def test_random_full_support(seed):
    rng = np.random.default_rng(300 + seed)
    pmf = random_pmf(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    _check_report(rate_report(pmf, FAST))


@pytest.mark.parametrize("seed", range(3))
def test_random_sparse_support(seed):
    rng = np.random.default_rng(400 + seed)
    pmf = random_pmf(rng, 3, 3, zeros=0.4)
    _check_report(rate_report(pmf, FAST))


def test_zero_row_and_column():
    pmf = validate_pmf([[0.4, 0.0, 0.1], [0.0, 0.0, 0.0], [0.2, 0.0, 0.3]])
    assert pmf.zero_x_symbols == ("1",)
    assert pmf.zero_y_symbols == ("1",)
    _check_report(rate_report(pmf, FAST))


def test_three_rounds():
    rng = np.random.default_rng(77)
    pmf = random_pmf(rng, 2, 3)
    rep2 = rate_report(pmf, FAST)
    rep3 = rate_report(pmf, replace(FAST, rounds=3))
    _check_report(rep3)
    # more rounds can only help (same caps per round prefix)
    assert rep3.cir_ub <= rep2.cir_ub + 1e-6


def test_large_alphabet_degrades_gracefully():
    # spec-default caps (4) cannot realize an exactly splitting chain for a
    # generic 5x5 source; the report must fall back to the one-round values
    rng = np.random.default_rng(888)
    pmf = random_pmf(rng, 5, 5)
    rep = rate_report(pmf, FAST)
    _check_report(rep)
    assert rep.cir_ub <= min(rep.ci1_x, rep.ci1_y) + 1e-9


@pytest.mark.parametrize("name", ["gain", "rand4-0"])
def test_a_third_round_never_raises_the_bounds(name):
    """At report defaults the r = 3 routes alone once gave `cir_ub` 1.5588718
    on gain against 1.5588674 at r = 2, and 1.7511046 against 1.7444938 on
    the bench's 4x4 draw; r = 3 now also runs the r = 2 routes."""
    pmf = gain_pmf(0.1, 0.15, 0.15) if name == "gain" else validate_pmf(random_base(0, 4))
    rep2, rep3 = (rate_report(pmf, RateConfig(rounds=r)) for r in (2, 3))
    assert rep3.cir_ub <= rep2.cir_ub
    # the r = 2 chains seed the r = 3 Wyner descent too, so it has every start r = 2 had
    assert rep3.wyner_ub <= rep2.wyner_ub


# The exact report fields under the four source changes the paper's
# quantities ignore. The bounds are left out: the descents see the labels.
CHEAP = RateConfig(rounds=1, include_continuous=False,
                   descent=PenaltyConfig(restarts=0, max_iter=1))
EXACT = ("mi", "gk_ci", "ci1_x", "ci1_y", "r_ni")
TABLES = st.builds(
    lambda seed, nx, ny, zeros: random_pmf(np.random.default_rng(seed), nx, ny, zeros).p,
    st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(2, 4), st.sampled_from([0.0, 0.3]))
PROPERTY = settings(max_examples=40, deadline=None)


def _exact_fields(table):
    rep = rate_report(validate_pmf(table), CHEAP)
    return {name: getattr(rep, name) for name in EXACT + ("h_x", "h_y")}


def _assert_close(got, want, names):
    for name in names:
        assert abs(got[name] - want[name]) <= 1e-12, (name, got[name], want[name])


@PROPERTY
@given(TABLES, st.data())
def test_relabelling_symbols_keeps_the_exact_fields(p, data):
    rx = data.draw(st.permutations(range(p.shape[0])))
    ry = data.draw(st.permutations(range(p.shape[1])))
    _assert_close(_exact_fields(p[rx][:, ry]), _exact_fields(p), EXACT + ("h_x", "h_y"))


@PROPERTY
@given(TABLES)
def test_swapping_x_and_y_exchanges_the_sides(p):
    got, want = _exact_fields(p.T), _exact_fields(p)
    _assert_close(got, want, ("mi", "gk_ci", "r_ni"))
    _assert_close({"h_x": got["h_y"], "h_y": got["h_x"], "ci1_x": got["ci1_y"],
                   "ci1_y": got["ci1_x"]}, want, ("h_x", "h_y", "ci1_x", "ci1_y"))


@PROPERTY
@given(TABLES, st.data())
def test_zero_mass_symbols_keep_the_exact_fields(p, data):
    at_x = data.draw(st.integers(0, p.shape[0]))
    at_y = data.draw(st.integers(0, p.shape[1]))
    padded = np.insert(np.insert(p, at_x, 0.0, axis=0), at_y, 0.0, axis=1)
    _assert_close(_exact_fields(padded), _exact_fields(p), EXACT + ("h_x", "h_y"))


@PROPERTY
@given(TABLES, st.sampled_from([0, 1]), st.data())
def test_splitting_a_symbol_keeps_all_but_its_entropy(p, axis, data):
    """Copies with the same conditional row as the symbol they split: every
    exact field holds but the split side's entropy."""
    symbol = data.draw(st.integers(0, p.shape[axis] - 1))
    weights = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3)))
    t = np.moveaxis(p, axis, 0)
    copies = t[symbol] * (weights / weights.sum())[:, None]
    split = np.moveaxis(np.concatenate([t[:symbol], copies, t[symbol + 1:]]), 0, axis)
    kept = ("h_y",) if axis == 0 else ("h_x",)
    _assert_close(_exact_fields(split), _exact_fields(p), EXACT + kept)
