"""Assembled rate reports: every quantity the toolkit computes for one source.

The headline outputs are the r-round common-information upper bound and the
derived minimum communication rate for optimum-rate key generation,
r_sk_r = cir_ub - I(X;Y). Provenance strings mark which fields are exact
and which are optimizer upper bounds. The r-round bound is exact for r = 1
(sufficient-statistic entropy) and for doubly symmetric binary sources
(closed form); otherwise it is the minimum over the one-round values, the
deterministic-chain search, and the randomized-chain descent, each run at
every round count from 2 to r, so the bound never rises with r.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from . import chains, structure, wyner
from .optim import PenaltyConfig
from .pmf import JointPMF, entropy, mutual_information
from .sources import binary_symmetric_delta


REPORT_DESCENT = PenaltyConfig(restarts=8, max_iter=2000)


@dataclass(frozen=True)
class RateConfig:
    """One report's settings; `descent` runs both the Wyner and the
    randomized-chain descents."""

    rounds: int = 2
    det_caps: tuple[int, ...] | None = None
    det_budget: int = 200_000
    include_continuous: bool = True
    descent: PenaltyConfig = REPORT_DESCENT

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RateReport:
    """All computed quantities in bits, with per-field provenance."""

    h_x: float
    h_y: float
    mi: float
    sk_capacity: float
    gk_ci: float
    wyner_ub: float
    ci1_x: float
    ci1_y: float
    cir_ub: float
    r_ni: float
    r_sk_r: float
    rounds: int
    provenance: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def rate_report(pmf: JointPMF, config: RateConfig | None = None) -> RateReport:
    """Compute the full quantity family for one source."""
    config = config or RateConfig()
    r = config.rounds
    t = pmf.to_tensor()
    h_x = entropy(t, "x")
    h_y = entropy(t, "y")
    mi = mutual_information(t, "x", "y")
    gk = structure.gk_ci(pmf)
    ni = structure.noninteractive_rate(pmf)
    ci1_x, ci1_y = ni.h_g1, ni.h_g2

    provenance = {
        "h_x": "exact", "h_y": "exact", "mi": "exact", "sk_capacity": "exact",
        "gk_ci": "exact", "ci1_x": "exact", "ci1_y": "exact", "r_ni": "exact",
        "wyner_ub": "upper bound",
    }

    nx, ny = pmf.shape
    delta = binary_symmetric_delta(pmf)
    routes = chains.chain_routes(pmf, r, config.det_caps, config.det_budget, config.descent,
                                 cont=config.include_continuous and delta is None)
    # a failed route, or one whose chain is infeasible, is left out; the
    # one-round values still bound the report
    found = [res for _, _, res in routes if isinstance(res, chains.ChainResult) and res.feasible]

    if delta is not None:
        # doubly symmetric binary: the r-round optimum is exactly min{H(X), H(Y)}
        cir_ub = min(h_x, h_y)
        provenance["cir_ub"] = "exact (binary symmetric closed form)"
    elif r == 1:
        cir_ub = ci1_x
        provenance["cir_ub"] = "exact (sufficient statistic)"
    else:
        cir_ub = min([ci1_x, ci1_y] + [res.objective for res in found])
        provenance["cir_ub"] = "upper bound"
    provenance["r_sk_r"] = provenance["cir_ub"]
    # both bounds are at least I(X;Y); rounding can leave them a few ulps below
    cir_ub = max(cir_ub, mi)

    extra = []
    for i, res in enumerate(found):
        k = chains.chain_to_aux_kernel(pmf, res.chain, nx * ny)
        if k is not None:
            extra.append((f"chain-induced-{i}", k))
    wr = wyner.wyner_minimize(pmf, config.descent, extra_kernels=extra)

    return RateReport(
        h_x=h_x, h_y=h_y, mi=mi, sk_capacity=mi, gk_ci=gk,
        wyner_ub=max(wr.value, mi), ci1_x=ci1_x, ci1_y=ci1_y, cir_ub=cir_ub,
        r_ni=ni.r_ni, r_sk_r=cir_ub - mi, rounds=r, provenance=provenance,
    )
