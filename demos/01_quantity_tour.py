"""Tour of the quantity family for a single joint source.

Builds a small joint pmf, then walks through everything the library can
say about it: entropies, the minimal sufficient statistics, the maximal
common function, the splitting-variable bound, the r-round interactive
values, and the assembled communication rates for key generation.
"""

import numpy as np

from cit import (
    PenaltyConfig,
    RateConfig,
    entropy,
    gk_ci,
    gk_common_function,
    minimal_sufficient_statistic,
    mutual_information,
    noninteractive_rate,
    rate_report,
    validate_pmf,
)

# a 4x3 source with a redundant row (rows 1 and 2 are proportional, so the
# minimal sufficient statistic merges them) and a disconnected symbol pair
pmf = validate_pmf(
    [
        [0.30, 0.10, 0.00],
        [0.08, 0.04, 0.00],
        [0.16, 0.08, 0.00],
        [0.00, 0.00, 0.24],
    ],
    labels_x=["a", "b", "c", "d"],
    labels_y=["0", "1", "2"],
)

t = pmf.to_tensor()
print("=== source ===")
print(np.array2string(pmf.p, precision=3))
print(f"H(X) = {entropy(t, 'x'):.4f} bits, H(Y) = {entropy(t, 'y'):.4f} bits")
print(f"I(X;Y) = {mutual_information(t, 'x', 'y'):.4f} bits  (the key capacity)")

print("\n=== minimal sufficient statistics ===")
g1 = minimal_sufficient_statistic(pmf, "x")
g2 = minimal_sufficient_statistic(pmf, "y")
print(f"g1* on X: {g1.classes()}  ({g1.num_classes} classes)")
print(f"g2* on Y: {g2.classes()}  ({g2.num_classes} classes)")
print("rows b and c merge: they induce the same conditional law on Y")

print("\n=== maximal common function ===")
lab_x, lab_y = gk_common_function(pmf)
print(f"components on X: {lab_x.classes()}")
print(f"components on Y: {lab_y.classes()}")
print(f"H(mcf) = {gk_ci(pmf):.4f} bits (both terminals can compute this for free)")

print("\n=== noninteractive communication ===")
ni = noninteractive_rate(pmf)
print(f"H(g1*) = {ni.h_g1:.4f}, H(g2*) = {ni.h_g2:.4f}")
print(f"one-way rate for a capacity key: R_NI = min(...) - I = {ni.r_ni:.4f} bits/symbol")

print("\n=== full report (2 rounds) ===")
rep = rate_report(pmf, RateConfig(descent=PenaltyConfig(restarts=6, max_iter=2000)))
for field in ("h_x", "h_y", "mi", "gk_ci", "wyner_ub", "ci1_x", "ci1_y",
              "cir_ub", "r_ni", "r_sk_r"):
    tag = rep.provenance.get(field, "")
    print(f"  {field:10s} = {getattr(rep, field):8.4f}   {tag}")
print("\nordering check: H(mcf) <= I <= wyner_ub <= cir_ub candidates hold:")
print(f"  {rep.gk_ci:.4f} <= {rep.mi:.4f} <= {rep.wyner_ub:.4f}")
