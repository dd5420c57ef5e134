"""End-to-end property sweep: every report invariant on random sources."""

from dataclasses import replace

import numpy as np
import pytest

from cit import PenaltyConfig, RateConfig, rate_report, validate_pmf
from cit.sources import random_pmf

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
