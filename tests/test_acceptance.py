"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings. Expected values are frozen from direct evaluation of the closed
forms; optimizer results are bracketed by independently computed bounds.
"""

import contextlib
import io
import json
import math
import time

import numpy as np

from cit import (
    AuxKernel,
    PenaltyConfig,
    binary_entropy,
    chain_objective,
    ci1_exact,
    cli,
    continuous_chain_minimize,
    det_chain_search,
    gk_ci,
    minimal_sufficient_statistic,
    mutual_information,
    validate_pmf,
    wyner_minimize,
    wyner_objective,
)
from cit.pmf import conditional_mutual_information, save_pmf
from cit.protocols import decomposition_check, lemma1_check, random_cr_table, random_protocol
from cit.simulate import cr_sk_simulate, default_copy_chain, sw_binning_simulate
from cit.sources import bss_pmf, gain_pmf, random_pmf
from cit.structure import gk_common_function

from conftest import (
    canonical_encoding,
    cli_reports_across_threads,
    feasible_det_encodings,
    gain_two_round_chain,
)

H_BY_DELTA = {0.1: 0.468996, 0.25: 0.811278, 0.4: 0.970951}  # direct evaluation, 6 dp


class _Criterion:
    def __init__(self, num, text, limit=None):
        self.num, self.text, self.limit = num, text, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        suffix = ""
        if self.limit is not None:
            suffix = f" [{elapsed:.1f}s < {self.limit}s]"
            if exc_type is None and elapsed >= self.limit:
                print(f"FAIL criterion {self.num}: {self.text} [runtime {elapsed:.1f}s over {self.limit}s]")
                raise AssertionError(f"criterion {self.num} exceeded its runtime budget")
        print(f"{status} criterion {self.num}: {self.text}{suffix}")
        return False


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())


def test_criterion_1_bss_interaction_does_not_help():
    with _Criterion(1, "binary symmetric sources need no interaction", limit=10):
        for delta, h6 in H_BY_DELTA.items():
            h = binary_entropy(delta)
            assert abs(h - h6) < 1e-6
            rep = _cli_json(["example", "bss", "--delta", str(delta), "--rounds", "2"])
            result = rep["result"]
            assert result["closed_form"]["ci_i"] == 1.0
            assert result["cir_ub"] == 1.0
            assert abs(result["r_sk_r"] - h) <= 1e-9

            pmf = bss_pmf(delta)
            det = det_chain_search(pmf, 2, (2, 2))
            assert abs(det.objective - 1.0) <= 1e-9

            cont = continuous_chain_minimize(
                pmf, 2, (2, 2), PenaltyConfig(restarts=3, max_iter=1200, seed=0))
            assert cont.feasible
            assert cont.objective >= 0.98


def test_criterion_2_interaction_helps_example():
    with _Criterion(2, "two rounds beat one-way on the gain source", limit=60):
        pmf = gain_pmf(0.1, 0.15, 0.15)
        h_x = 1.5812908992306927  # H(0.3, 0.35, 0.35), direct evaluation

        det = det_chain_search(pmf, 2, (2, 3))
        assert det.residual <= 1e-9
        assert det.objective <= h_x - 0.022
        assert det.objective < ci1_exact(pmf, "x")
        assert det.objective < ci1_exact(pmf, "y")

        known = gain_two_round_chain()
        assert chain_objective(pmf, known).residual <= 1e-9
        encodings = {enc for enc, _ in feasible_det_encodings(pmf, 2, (2, 3))}
        assert canonical_encoding(known) in encodings

        rep = _cli_json(["example", "gain", "--a", "0.1", "--b", "0.15",
                         "--c", "0.15", "--rounds", "2"])
        result = rep["result"]
        assert result["r_ni"] - result["r_sk_r"] >= 0.02


def test_criterion_3_wyner_bracket_on_bss():
    with _Criterion(3, "splitting-rate bound lands in the oracle bracket", limit=60):
        delta = 0.25
        # oracle upper bound from the explicit binary auxiliary construction
        a0 = (1 - math.sqrt(1 - 2 * delta)) / 2
        oracle = 1 + binary_entropy(delta) - 2 * binary_entropy(a0)
        assert abs(oracle - 0.6095) < 1e-3

        pmf = bss_pmf(delta)
        res = wyner_minimize(pmf, PenaltyConfig(restarts=32, max_iter=5000, seed=0))
        assert res.feasible
        assert res.value >= 0.1887 - 1e-3
        assert res.value <= 0.6094 + 0.01
        assert res.value <= oracle + 0.01
        assert res.value < 1.0


def test_criterion_4_exact_identity_suites():
    with _Criterion(4, "transcript identities hold exactly at scale", limit=120):
        rng = np.random.default_rng(2024)

        worst = 0.0
        for _ in range(1000):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmf = random_pmf(rng, nx, ny)
            n = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            proto = random_protocol(int(rng.integers(1 << 31)), n, r, sizes, nx, ny)
            worst = max(worst, -lemma1_check(pmf, proto)["slack"])
        assert worst <= 1e-9

        worst = 0.0
        for _ in range(200):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmf = random_pmf(rng, nx, ny)
            r = int(rng.integers(1, 3))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            proto = random_protocol(int(rng.integers(1 << 31)), 2, r, sizes, nx, ny)
            j = random_cr_table(int(rng.integers(1 << 31)), pmf, 2, int(rng.integers(2, 5)))
            worst = max(worst, abs(decomposition_check(pmf, proto, j)["difference"]))
        assert worst <= 1e-9

        from cit import AuxiliaryChain
        worst = 0.0
        for _ in range(500):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmf = random_pmf(rng, nx, ny)
            rounds = int(rng.integers(1, 4))
            kernels = []
            prior = ()
            for jr in range(1, rounds + 1):
                parent = nx if jr % 2 == 1 else ny
                size = int(rng.integers(2, 4))
                cells = parent * int(np.prod(prior, dtype=int) or 1)
                kernels.append(rng.dirichlet(np.ones(size), size=cells)
                               .reshape((parent,) + prior + (size,)))
                prior += (size,)
            res = chain_objective(pmf, AuxiliaryChain("x", tuple(kernels)))
            mi = mutual_information(pmf.to_tensor(), "x", "y")
            worst = max(worst, abs(res.objective - mi + res.residual
                                   - sum(res.per_round_terms)))
        assert worst <= 1e-9


def _split_rows(rng, pmf):
    """Duplicate rows into weighted copies so the minimal statistic collapses
    them back; returns (split pmf, class map from split rows to originals)."""
    rows = []
    class_of = []
    for i, row in enumerate(pmf.p):
        copies = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(copies))
        for w in weights:
            rows.append((w * row).tolist())
            class_of.append(i)
    return validate_pmf(rows), np.array(class_of)


def _lift_kernel(k, class_of, nx_split):
    return k[class_of, :, :]


def _project_kernel(k_split, split, orig, class_of):
    nxo, ny = orig.shape
    w = k_split.shape[2]
    out = np.zeros((nxo, ny, w))
    for xo in range(nxo):
        members = np.nonzero(class_of == xo)[0]
        for y in range(ny):
            mass = split.p[members, y]
            tot = mass.sum()
            if tot > 0:
                out[xo, y] = (mass[:, None] * k_split[members, y, :]).sum(axis=0) / tot
            else:
                out[xo, y, 0] = 1.0
    return out


def test_criterion_5_sufficient_statistic_invariance():
    with _Criterion(5, "quantities invariant under sufficient-statistic collapse"):
        rng = np.random.default_rng(99)
        for _ in range(200):
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            orig = random_pmf(rng, nx, ny)
            split, _ = _split_rows(rng, orig)
            t_o, t_s = orig.to_tensor(), split.to_tensor()
            assert abs(mutual_information(t_o, "x", "y")
                       - mutual_information(t_s, "x", "y")) <= 1e-9
            assert abs(gk_ci(orig) - gk_ci(split)) <= 1e-9
            assert abs(ci1_exact(orig, "x") - ci1_exact(split, "x")) <= 1e-9
            assert abs(ci1_exact(orig, "y") - ci1_exact(split, "y")) <= 1e-9

        # cross-seeded splitting-rate bounds agree within 1e-3
        for seed in (0, 1, 2):
            rng = np.random.default_rng(1000 + seed)
            orig = random_pmf(rng, 2, 2)
            split, class_of = _split_rows(rng, orig)
            w_size = orig.shape[0] * orig.shape[1]
            cfg = PenaltyConfig(restarts=4, max_iter=1200, seed=seed)
            r_o = wyner_minimize(orig, cfg, w_size=w_size)
            r_s = wyner_minimize(split, cfg, w_size=w_size)

            proj = _project_kernel(r_s.kernel.k, split, orig, class_of)
            lift1 = _lift_kernel(r_o.kernel.k, class_of, split.shape[0])
            lift2 = _lift_kernel(proj, class_of, split.shape[0])

            def best(pmf, entries):
                vals = []
                for value, residual in entries:
                    if residual <= 1e-4:
                        vals.append(value)
                return min(vals)

            v_orig = best(orig, [
                (r_o.value, r_o.residual),
                wyner_objective(orig, AuxKernel(w_size, proj)),
            ])
            v_split = best(split, [
                (r_s.value, r_s.residual),
                wyner_objective(split, AuxKernel(w_size, lift1)),
                wyner_objective(split, AuxKernel(w_size, lift2)),
            ])
            assert abs(v_orig - v_split) <= 1e-3


def test_criterion_6_structure_exactness():
    with _Criterion(6, "sufficient statistics and common-function exactness"):
        rng = np.random.default_rng(7)
        for _ in range(500):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            zeros = float(rng.random() * 0.4)
            pmf = random_pmf(rng, nx, ny, zeros=zeros)
            lab = minimal_sufficient_statistic(pmf, "x")
            lifted = pmf.to_tensor().with_function_axis("x", lab.class_of, "g")
            assert conditional_mutual_information(lifted, "x", "y", "g") <= 1e-9
            # minimality: any sufficient coarsening refines to the minimal one
            k = int(rng.integers(1, 4))
            conds = rng.dirichlet(np.ones(ny), size=k)
            assign = np.concatenate([np.arange(k), rng.integers(0, k, max(0, nx - k))])[:nx]
            weights = rng.dirichlet(np.ones(nx))
            suff = validate_pmf((weights[:, None] * conds[assign]).tolist())
            g_star = minimal_sufficient_statistic(suff, "x")
            seen = {}
            ok = True
            for cls, star in zip(assign, g_star.class_of):
                if cls in seen and seen[cls] != star:
                    ok = False
                seen[cls] = star
            assert ok
            # the two common-function labelings agree almost surely, exactly
            lab_x, lab_y = gk_common_function(pmf)
            cx, cy = np.asarray(lab_x.class_of), np.asarray(lab_y.class_of)
            assert pmf.p[cx[:, None] != cy[None, :]].sum() == 0.0

        for pmf in (bss_pmf(0.25), gain_pmf(0.1, 0.15, 0.15)):
            t = pmf.to_tensor()
            mi = mutual_information(t, "x", "y")
            assert gk_ci(pmf) <= mi + 1e-9
            res = wyner_minimize(pmf, PenaltyConfig(restarts=4, max_iter=1200, seed=0))
            for _, obj, resid in res.candidates:
                if resid <= 1e-4:
                    assert mi <= obj + 1e-6


def test_criterion_7_simulator_sanity():
    with _Criterion(7, "finite-blocklength simulators behave sanely", limit=300):
        bss = bss_pmf(0.1)
        anchor = sw_binning_simulate(bss, n=12, rate=1.0, trials=2000, seed=0)
        assert anchor.error_rate <= 0.01

        rate = binary_entropy(0.1) + 0.25
        errors = [sw_binning_simulate(bss, n, rate, trials=2000, seed=0).error_rate
                  for n in (8, 16, 24)]
        assert errors[1] <= errors[0] + 0.05
        assert errors[2] <= errors[1] + 0.05

        copy_src = validate_pmf([[0.5, 0.0], [0.0, 0.5]])
        chain = default_copy_chain(copy_src)
        rep0 = cr_sk_simulate(copy_src, chain, n=16, key_rate=0.0, trials=500, seed=5)
        assert rep0.leakage == 0.0
        assert rep0.uniformity_gap == 0.0

        again = sw_binning_simulate(bss, n=16, rate=rate, trials=500, seed=42)
        again2 = sw_binning_simulate(bss, n=16, rate=rate, trials=500, seed=42)
        assert again == again2
        repa = cr_sk_simulate(copy_src, chain, n=16, key_rate=0.5, trials=500, seed=42)
        repb = cr_sk_simulate(copy_src, chain, n=16, key_rate=0.5, trials=500, seed=42)
        assert repa == repb


def test_criterion_8_thread_count_invariance(tmp_path, monkeypatch):
    with _Criterion(8, "results identical across --threads {1, 4} and CIT_THREADS"):
        bss = bss_pmf(0.25)
        bss_path, gain_path = str(tmp_path / "bss.json"), str(tmp_path / "gain.json")
        save_pmf(bss, bss_path)
        save_pmf(gain_pmf(0.1, 0.15, 0.15), gain_path)

        for argv in (
            ["wyner", "--pmf", bss_path, "--restarts", "6", "--max-iter", "1000", "--seed", "3"],
            ["ici", "--pmf", gain_path, "--rounds", "2", "--mode", "all", "--caps", "2,3",
             "--restarts", "4", "--seed", "3"],
            ["rates", "--pmf", gain_path, "--rounds", "2", "--seed", "3"],
        ):
            reports = cli_reports_across_threads(argv, monkeypatch)
            results = [json.dumps(json.loads(r)["result"]) for r in reports]
            assert results[0] == results[1] == results[2], argv[0]
            # the thread count is read by the CLI only and goes into no report
            assert "threads" not in json.loads(reports[0])["config"]

        s1 = sw_binning_simulate(bss, 12, 0.9, 300, seed=3)
        s2 = sw_binning_simulate(bss, 12, 0.9, 300, seed=3)
        assert s1 == s2
        k1 = cr_sk_simulate(bss, default_copy_chain(bss), 12, 0.1, 300, seed=3)
        k2 = cr_sk_simulate(bss, default_copy_chain(bss), 12, 0.1, 300, seed=3)
        assert k1 == k2
