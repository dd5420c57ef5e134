import numpy as np
import pytest

from cit import (
    AuxKernel,
    KernelInvalid,
    PenaltyConfig,
    entropy,
    mutual_information,
    wyner_minimize,
    wyner_objective,
)
from cit.chains import chain_to_aux_kernel, det_chain_search
from cit.wyner import _seed_kernels, deterministic_kernel

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

    def test_kernel_validation(self):
        with pytest.raises(KernelInvalid):
            AuxKernel(5, np.ones((2, 2, 5)) / 5.0)   # w_size over the support bound
        bad = np.ones((2, 2, 3)) / 3.0
        bad[0, 0, 0] += 0.1
        with pytest.raises(KernelInvalid):
            AuxKernel(3, bad)
        with pytest.raises(KernelInvalid):
            AuxKernel(3, -np.ones((2, 2, 3)) / 3.0)


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

    def test_monotone_descent_within_stages(self, bss25):
        outcome = wyner_minimize(bss25, PenaltyConfig(restarts=2, max_iter=500, seed=1),
                                 keep_traces=True).outcome
        assert outcome.descent_traces
        for stage_list in outcome.descent_traces:
            for trace in stage_list:
                assert np.all(np.diff(trace) <= 1e-12)

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
        suffstat_x = dict(_seed_kernels(gain, 9))["suffstat-x"]
        plain = wyner_minimize(gain, config)
        dup = wyner_minimize(gain, config, extra_kernels=[("dup", suffstat_x.copy())])
        assert dup.value.hex() == plain.value.hex()
        assert dup.candidates == plain.candidates
        assert dup.restarts_used == plain.restarts_used

    def test_report_serializes(self, independent):
        res = wyner_minimize(independent, LIGHT)
        blob = res.to_json()
        assert blob["provenance"] == "upper bound"
        assert len(blob["kernel"]["k"]) == 2


def test_no_feasible_point_with_constant_w(bss25):
    from cit import NoFeasiblePoint

    with pytest.raises(NoFeasiblePoint):
        wyner_minimize(bss25, PenaltyConfig(restarts=2, max_iter=200, seed=0), w_size=1)
