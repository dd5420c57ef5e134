import math
import re

import numpy as np
import pytest

from cit import (
    AuxKernel,
    FiniteAlphabet,
    KernelInvalid,
    PenaltyConfig,
    TensorPMF,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
    rate_report,
    wyner_minimize,
    wyner_objective,
)
from cit.chains import chain_to_aux_kernel, det_chain_search
from cit.rates import REPORT_DESCENT
from cit.sources import bss_pmf
from cit.wyner import _seed_maps, deterministic_kernel

from conftest import random_sparse_pmf

LIGHT = PenaltyConfig(restarts=6, max_iter=1500, seed=0)


class TestObjective:
    def test_pair_copy(self, bss25):
        pair = np.arange(4).reshape(2, 2)
        k = AuxKernel(4, deterministic_kernel(bss25, 4, pair))
        obj, res = wyner_objective(bss25, k)
        t = bss25.to_tensor()
        assert obj == pytest.approx(entropy(t, ("x", "y")), abs=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_constant(self, bss25):
        k = AuxKernel(4, deterministic_kernel(bss25, 4, np.zeros((2, 2), dtype=int)))
        obj, res = wyner_objective(bss25, k)
        t = bss25.to_tensor()
        assert obj == pytest.approx(0.0, abs=1e-12)
        assert res == pytest.approx(mutual_information(t, "x", "y"), abs=1e-12)

    def test_suffstat_kernel_on_gain(self, gain):
        # w = g1*(x) = x renders the pair split with zero residual
        w_of = np.tile(np.arange(3)[:, None], (1, 3))
        k = AuxKernel(9, deterministic_kernel(gain, 9, w_of))
        obj, res = wyner_objective(gain, k)
        assert res <= 1e-12
        assert obj == pytest.approx(entropy(gain.to_tensor(), "x"), abs=1e-12)

    def test_matches_the_named_tensor_route(self):
        # bit for bit: I(X,Y; W) and I(X; Y | W) of the tensor over (x, y, w)
        rng = np.random.default_rng(37)
        for _ in range(300):
            pmf = random_sparse_pmf(rng, max_side=4)
            nx, ny = pmf.shape
            w_size = int(rng.integers(1, nx * ny + 1))
            k = rng.dirichlet(np.ones(w_size), size=(nx, ny))
            k[rng.random(k.shape) < 0.3] = 0.0
            k[k.sum(axis=2) == 0, 0] = 1.0
            k /= k.sum(axis=2, keepdims=True)
            t = TensorPMF(("x", "y", "w"), (pmf.alphabet_x, pmf.alphabet_y,
                                            FiniteAlphabet.of_size(w_size, "w")),
                          pmf.p[:, :, None] * k)
            assert wyner_objective(pmf, AuxKernel(w_size, k)) == (
                mutual_information(t, ("x", "y"), "w"),
                conditional_mutual_information(t, "x", "y", "w"))

    def test_kernel_validation(self):
        with pytest.raises(KernelInvalid):
            AuxKernel(5, np.ones((2, 2, 5)) / 5.0)   # w_size over the support bound
        bad = np.ones((2, 2, 3)) / 3.0
        bad[0, 0, 0] += 0.1
        with pytest.raises(KernelInvalid):
            AuxKernel(3, bad)
        with pytest.raises(KernelInvalid):
            AuxKernel(3, -np.ones((2, 2, 3)) / 3.0)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "kernel has NaN entries"),
        (np.inf, "kernel slices must sum to 1"),
        (-np.inf, "kernel has negative entries"),
    ])
    def test_a_nonfinite_kernel_is_refused(self, bad, message):
        k = np.ones((2, 2, 3)) / 3.0
        k[1, 0, 2] = bad
        with pytest.raises(KernelInvalid, match=message):
            AuxKernel(3, k)


class TestMinimize:
    def test_copy_source(self, uniform_copy):
        res = wyner_minimize(uniform_copy, LIGHT)
        assert res.feasible
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_independent(self, independent):
        res = wyner_minimize(independent, LIGHT)
        assert res.feasible
        assert res.value == pytest.approx(0.0, abs=1e-3)

    def test_w_size_rejected_above_bound(self, bss25):
        with pytest.raises(KernelInvalid):
            wyner_minimize(bss25, w_size=5)

    def test_feasible_candidates_dominate_mi(self, bss25, gain):
        for pmf in (bss25, gain):
            mi = mutual_information(pmf.to_tensor(), "x", "y")
            res = wyner_minimize(pmf, LIGHT)
            for _, obj, resid in res.candidates:
                if resid <= 1e-4:
                    assert obj >= mi - 1e-6

    def test_determinism_same_seed(self, bss25):
        r1 = wyner_minimize(bss25, LIGHT)
        r2 = wyner_minimize(bss25, LIGHT)
        assert r1.value == r2.value
        assert r1.residual == r2.residual
        assert np.array_equal(r1.kernel.k, r2.kernel.k)

    def test_chain_seed_upper_bounds_result(self, gain):
        det = det_chain_search(gain, 2, (2, 3))
        k = chain_to_aux_kernel(gain, det.chain, 9)
        assert k is not None
        res = wyner_minimize(gain, LIGHT, extra_kernels=[("chain", k)])
        assert res.value <= det.objective + 1e-9

    def test_a_kernel_that_repeats_a_seed_is_skipped(self, gain):
        config = PenaltyConfig(restarts=2, max_iter=300, seed=0)
        suffstat_x = deterministic_kernel(gain, 9, dict(_seed_maps(gain, 9))["suffstat-x"])
        plain = wyner_minimize(gain, config)
        dup = wyner_minimize(gain, config, extra_kernels=[("dup", suffstat_x.copy())])
        assert dup.value.hex() == plain.value.hex()
        assert dup.candidates == plain.candidates
        assert dup.starts == plain.starts

    @pytest.mark.parametrize("shape", [(3, 3, 4), (3, 3, 10), (9, 1, 9)])
    def test_a_misshaped_seed_kernel_raises(self, gain, shape):
        k = np.zeros(shape)
        k[..., 0] = 1.0
        message = f"seed kernel 'odd' has shape {shape}, not (3, 3, 9)"
        with pytest.raises(KernelInvalid, match=re.escape(message)):
            wyner_minimize(gain, PenaltyConfig(restarts=1, max_iter=10),
                           extra_kernels=[("odd", k)])

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "has NaN entries"),
        (-np.inf, "has negative entries"),
        (-0.5, "has negative entries"),
        (np.inf, "has a slice of zero or infinite mass"),
        (None, "has a slice of zero or infinite mass"),
    ])
    def test_a_seed_kernel_that_is_no_kernel_raises(self, bss25, bad, message):
        """A NaN seed once scored 0.0 bits at residual 0, below I(X;Y); an
        all-zero slice (`None` here) renormalizes to NaN."""
        k = np.full((2, 2, 4), 0.25)
        if bad is None:
            k[0, 1] = 0.0
        else:
            k[0, 1, 3] = bad
        with pytest.raises(KernelInvalid, match=f"seed kernel 'bad' {message}"):
            wyner_minimize(bss25, PenaltyConfig(restarts=1, max_iter=10),
                           extra_kernels=[("bad", k)])

    def test_report_serializes(self, independent):
        res = wyner_minimize(independent, LIGHT)
        blob = res.to_json()
        assert blob["provenance"] == "upper bound"
        assert len(blob["kernel"]["k"]) == 2


def test_no_feasible_point_with_constant_w(bss25):
    from cit import NoFeasiblePoint

    with pytest.raises(NoFeasiblePoint):
        wyner_minimize(bss25, PenaltyConfig(restarts=2, max_iter=200, seed=0), w_size=1)


# Tripwires for known bound defects: each fails today, and the change that
# mends its ROADMAP item must turn it into a plain test.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a randomized Wyner winner counts as "
                   "feasible at residual 1e-4 and lands below the closed form")
@pytest.mark.parametrize("delta", [0.1, 0.25])
def test_wyner_bound_is_not_below_the_closed_form(delta):
    """Wyner's closed form for the doubly symmetric binary source:
    1 + h(d) - 2 h((1 - sqrt(1 - 2d)) / 2); the descent gives 0.872610
    against 0.872761 at d = 0.1, and 0.608965 against 0.609526 at d = 0.25."""
    closed = (1 + binary_entropy(delta)
              - 2 * binary_entropy((1 - math.sqrt(1 - 2 * delta)) / 2))
    assert wyner_minimize(bss_pmf(delta), REPORT_DESCENT).value >= closed - 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the Wyner descent's bound lies above "
                   "the chains' bound on gain")
def test_wyner_bound_is_at_most_the_chain_bound_on_gain(gain):
    """Wyner's quantity is at most CI_i^r; the report gives 1.5588718 against 1.5588674."""
    rep = rate_report(gain)
    assert rep.wyner_ub <= rep.cir_ub
