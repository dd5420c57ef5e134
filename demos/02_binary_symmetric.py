"""Binary symmetric sources: interaction buys nothing.

For the doubly symmetric binary source with crossover delta, the r-round
interactive optimum equals min{H(X), H(Y)} = 1 bit for every r, so the
minimum communication for a capacity key is exactly h(delta) no matter how
many rounds are allowed. The deterministic search and the randomized
descent both confirm the closed form, and the splitting-variable bound
shows the strict gap between the splitting rate and the interactive rate.
"""

import math

from cit import (
    PenaltyConfig,
    binary_entropy,
    bss_closed_form,
    continuous_chain_minimize,
    det_chain_search,
    wyner_minimize,
)
from cit.sources import bss_pmf

print(f"{'delta':>6} {'h(delta)':>9} {'closed r_sk':>11} {'det r=2':>8} "
      f"{'cont r=2':>9} {'wyner ub':>9} {'aux oracle':>10}")
for delta in (0.05, 0.1, 0.25, 0.4):
    pmf = bss_pmf(delta)
    cf = bss_closed_form(delta)
    det = det_chain_search(pmf, 2, (2, 2))
    cont = continuous_chain_minimize(pmf, 2, (2, 2),
                                     PenaltyConfig(restarts=4, max_iter=1500, seed=0),
                                     det_best=det)
    wy = wyner_minimize(pmf, PenaltyConfig(restarts=8, max_iter=2000, seed=0))
    # explicit binary-auxiliary construction: W flips into X and Y independently
    a0 = (1 - math.sqrt(1 - 2 * delta)) / 2
    oracle = 1 + binary_entropy(delta) - 2 * binary_entropy(a0)
    print(f"{delta:>6.2f} {binary_entropy(delta):>9.5f} {cf.r_sk:>11.5f} "
          f"{det.objective:>8.5f} {cont.objective:>9.5f} {wy.value:>9.5f} {oracle:>10.5f}")

print("""
Reading the table:
  * det r=2 and cont r=2 sit at 1.0: no two-round scheme beats the one-way
    revelation of a full source, so r_sk stays h(delta).
  * the splitting bound (wyner ub) tracks the explicit binary-auxiliary
    construction and stays strictly below 1: the splitting rate and the
    interactive rate genuinely differ for these sources.
""")
