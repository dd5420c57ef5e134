"""Assembled rate reports: every quantity the toolkit computes for one source.

The headline outputs are the r-round common-information upper bound and the
derived minimum communication rate for optimum-rate key generation,
r_sk_r = cir_ub - I(X;Y). Provenance strings mark which fields are exact
and which are optimizer upper bounds. The r-round bound is exact for r = 1
(sufficient-statistic entropy) and for doubly symmetric binary sources
(closed form); otherwise it is the minimum over the one-round values, the
deterministic-chain search, and the randomized-chain descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import chains, structure, wyner
from .errors import NoFeasiblePoint
from .optim import PenaltyConfig
from .pmf import JointPMF, entropy, mutual_information
from .sources import binary_symmetric_delta


@dataclass(frozen=True)
class RateConfig:
    rounds: int = 2
    seed: int = 0
    det_caps: tuple[int, ...] | None = None
    det_budget: int = 200_000
    include_continuous: bool = True
    continuous_restarts: int = 8
    continuous_max_iter: int = 2000
    wyner_restarts: int = 8
    wyner_max_iter: int = 2000

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "seed": self.seed,
            "det_caps": list(self.det_caps) if self.det_caps else None,
            "det_budget": self.det_budget,
            "include_continuous": self.include_continuous,
            "continuous_restarts": self.continuous_restarts,
            "continuous_max_iter": self.continuous_max_iter,
            "wyner_restarts": self.wyner_restarts,
            "wyner_max_iter": self.wyner_max_iter,
        }


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
        out = {
            "h_x": self.h_x,
            "h_y": self.h_y,
            "mi": self.mi,
            "sk_capacity": self.sk_capacity,
            "gk_ci": self.gk_ci,
            "wyner_ub": self.wyner_ub,
            "ci1_x": self.ci1_x,
            "ci1_y": self.ci1_y,
            "cir_ub": self.cir_ub,
            "r_ni": self.r_ni,
            "r_sk_r": self.r_sk_r,
            "rounds": self.rounds,
        }
        out["provenance"] = dict(self.provenance)
        return out


def rate_report(pmf: JointPMF, rounds: int | None = None, config: RateConfig | None = None) -> RateReport:
    """Compute the full quantity family for one source."""
    config = config or RateConfig()
    r = config.rounds if rounds is None else int(rounds)
    if r < 1:
        raise ValueError("rounds must be at least 1")
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

    seed_chains = []
    candidates: list[float] = [ci1_x]
    if r >= 2:
        candidates.append(ci1_y)
    nx, ny = pmf.shape
    caps = chains.effective_caps(nx, ny, r, config.det_caps, "x")
    delta = binary_symmetric_delta(pmf)
    run_continuous = config.include_continuous and delta is None
    cont_config = PenaltyConfig(
        restarts=config.continuous_restarts,
        max_iter=config.continuous_max_iter,
        seed=config.seed,
    )
    # one search per report, which the continuous route also starts from
    try:
        searched = chains.det_chain_search(pmf, r, config.det_caps, budget=config.det_budget)
    except (chains.BudgetExceeded, chains.NoFeasibleChain) as exc:
        # search over its budget or caps too tight for an exactly splitting
        # chain; the one-round values still bound the report
        searched = exc
    else:
        candidates.append(searched.objective)
        seed_chains.append(searched.chain)

    if run_continuous:
        try:
            cont = chains.continuous_chain_minimize(pmf, r, caps, cont_config,
                                                    det_best=searched)
        except NoFeasiblePoint:
            cont = None
        if cont is not None and cont.feasible:
            candidates.append(cont.objective)
            seed_chains.append(cont.chain)

    if delta is not None:
        # doubly symmetric binary: the r-round optimum is exactly min{H(X), H(Y)}
        cir_ub = min(h_x, h_y)
        provenance["cir_ub"] = "exact (binary symmetric closed form)"
    elif r == 1:
        cir_ub = ci1_x
        provenance["cir_ub"] = "exact (sufficient statistic)"
    else:
        cir_ub = min(candidates)
        provenance["cir_ub"] = "upper bound"
    provenance["r_sk_r"] = provenance["cir_ub"]

    extra = []
    for i, ch in enumerate(seed_chains):
        k = chains.chain_to_aux_kernel(pmf, ch, nx * ny)
        if k is not None:
            extra.append((f"chain-induced-{i}", k))
    wr = wyner.wyner_minimize(
        pmf,
        PenaltyConfig(
            restarts=config.wyner_restarts, max_iter=config.wyner_max_iter,
            seed=config.seed,
        ),
        extra_kernels=extra,
    )

    return RateReport(
        h_x=h_x, h_y=h_y, mi=mi, sk_capacity=mi, gk_ci=gk,
        wyner_ub=wr.value, ci1_x=ci1_x, ci1_y=ci1_y, cir_ub=cir_ub,
        r_ni=ni.r_ni, r_sk_r=cir_ub - mi, rounds=r, provenance=provenance,
    )
