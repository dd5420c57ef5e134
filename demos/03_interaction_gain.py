"""A 3x3 source where talking back saves communication.

On the gain source [[a,a,a],[b,a,a],[a,c,a]] with 2a > b > a and c != a,
both minimal sufficient statistics are the identity, so any one-way scheme
must spend H(X) = H(Y) bits per symbol. A two-round exchange does better:
the first terminal only reveals whether its symbol is 2, and the second
answers whether its own symbol is 0. After those two answers the sources
are conditionally independent, yet the exchange is cheaper than a full
revelation.
"""

import numpy as np

from cit import (PenaltyConfig, RateConfig, chain_objective, ci1_exact, det_chain_search,
                 rate_report)
from cit.chains import DeterministicChain
from cit.sources import gain_pmf

a, b, c = 0.1, 0.15, 0.15
pmf = gain_pmf(a, b, c)
print("source (rows = X, cols = Y):")
print(np.array2string(pmf.p, precision=3))

print(f"\none-way costs: H(g1*(X)) = {ci1_exact(pmf, 'x'):.5f}, "
      f"H(g2*(Y)) = {ci1_exact(pmf, 'y'):.5f} bits")

# the two-round exchange described above
f1 = np.array([0, 0, 1])                 # "is my symbol 2?"
f2 = np.array([[0, 1], [2, 1], [2, 1]])  # "then is mine 0?" (moot when f1 = 1)
known = DeterministicChain("x", (2, 3), (f1, f2))
res = chain_objective(pmf, known)
print(f"\ntwo-round exchange: value {res.objective:.5f} bits, "
      f"dependence residual {res.residual:.2e}")
print(f"per-round information terms: {[round(v, 5) for v in res.per_round_terms]}")

best = det_chain_search(pmf, 2, (2, 3))
print(f"exact deterministic two-round search: best value {best.objective:.5f} "
      f"(encoding {best.encoding})")

rep = rate_report(pmf, RateConfig(descent=PenaltyConfig(restarts=6, max_iter=2000)))
print(f"\ncommunication for a capacity key: one-way {rep.r_ni:.5f} vs "
      f"two-round {rep.r_sk_r:.5f} bits/symbol")
print(f"interaction saves {rep.r_ni - rep.r_sk_r:.5f} bits/symbol")
