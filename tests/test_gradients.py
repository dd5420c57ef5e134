"""Finite-difference checks of the analytic penalized gradients.

The engines consume per-slice preconditioned gradients g; the true partial
derivative of each implementation's penalized value with respect to an
unconstrained kernel entry is

  splitting variable:  d psi / d k(w|x,y) = p(x,y) * (g + log2 p(x,y))
      (H(X,Y) is computed from p and is constant, so the entropy-derivative
       constants cancel exactly and the -log2 p term in g is extra),
  round kernels:       d psi / d K_j(v|s,w) = mass(s,w) * (g - 1/ln 2)
      (here H(X,Y) is computed from q and varies, leaving one 1/ln 2 unit),

where mass(s, w) is the probability of the slice context. Both relations
are checked against central differences at random entries.
"""

import math

import numpy as np
import pytest

from cit.chains import _chain_value_and_grad_factory, _constant_chain, _product_law
from cit.optim import dirichlet_starts, fixed_xy, penalized_information
from cit.pmf import objective_residual
from cit.sources import random_pmf
from cit.wyner import AuxKernel, _value_and_grad_factory, wyner_objective

LN2_INV = 1.0 / math.log(2)


def _fd(value_fn, kernels, j, index, h=1e-6):
    bumped = [k.copy() for k in kernels]
    bumped[j][index] += h
    up = value_fn(bumped)
    bumped[j][index] -= 2 * h
    down = value_fn(bumped)
    return (up - down) / (2 * h)


class TestWynerGradient:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 17.5])
    def test_matches_finite_differences(self, lam):
        rng = np.random.default_rng(11)
        pmf = random_pmf(rng, 2, 3)
        vag = _value_and_grad_factory(pmf.p)
        k = rng.dirichlet(np.ones(4), size=6).reshape(2, 3, 4)

        def value(kernels):
            return vag([kk[None] for kk in kernels], lam)[0][0]

        _, (grad,) = vag([k[None]], lam)
        grad = grad[0]
        for _ in range(12):
            idx = tuple(int(rng.integers(s)) for s in k.shape)
            numeric = _fd(value, [k], 0, idx)
            mass = pmf.p[idx[0], idx[1]]
            analytic = mass * (grad[idx] + math.log2(mass))
            assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-6)


class TestChainGradient:
    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_matches_finite_differences(self, lam):
        rng = np.random.default_rng(13)
        pmf = random_pmf(rng, 2, 3)
        sizes = (2, 3)
        vag = _chain_value_and_grad_factory(pmf.p, sizes, "x")
        k1 = rng.dirichlet(np.ones(2), size=2).reshape(2, 2)
        k2 = rng.dirichlet(np.ones(3), size=6).reshape(3, 2, 3)
        kernels = [k1, k2]

        def value(ks):
            return vag([kk[None] for kk in ks], lam)[0][0]

        q = pmf.p[:, :, None] * k1[:, None]          # (x, y, u1)
        q = q[..., None] * k2[None, :]               # (x, y, u1, u2)
        slice_mass = [
            pmf.p.sum(axis=1),                       # round 1 context: (x,)
            q.sum(axis=(0, 3)),                      # round 2 context: (y, u1)
        ]

        _, grads = vag([k[None] for k in kernels], lam)
        grads = [g[0] for g in grads]
        for j, k in enumerate(kernels):
            for _ in range(10):
                idx = tuple(int(rng.integers(s)) for s in k.shape)
                numeric = _fd(value, kernels, j, idx)
                mass = slice_mass[j][idx[:-1]]
                analytic = mass * (grads[j][idx] - LN2_INV)
                assert numeric == pytest.approx(analytic, rel=1e-4, abs=1e-6)


class TestPenalizedInformation:
    """The shared routine's value is the exact penalized objective."""

    @pytest.mark.parametrize("lam", [0.0, 1.0, 17.5])
    def test_wyner_kernel(self, lam):
        rng = np.random.default_rng(17)
        pmf = random_pmf(rng, 3, 2)
        k = rng.dirichlet(np.ones(5), size=6).reshape(3, 2, 5)
        (value,), _ = penalized_information((pmf.p[:, :, None] * k)[None], lam, fixed_xy(pmf.p))
        objective, residual = wyner_objective(pmf, AuxKernel(5, k))
        assert abs(value - (objective + lam * residual)) <= 1e-12

    @pytest.mark.parametrize("initiator", ["x", "y"])
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 2, 3)])
    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_chain(self, initiator, sizes, lam):
        pmf = random_pmf(np.random.default_rng(19), 2, 3)
        shapes = [k.shape for k in _constant_chain(2, 3, sizes, initiator).kernels]
        [(_, kernels)] = dirichlet_starts(19, 1, shapes)
        q = _product_law(pmf.p, [k[None] for k in kernels], initiator)
        (value,), _ = penalized_information(q, lam)
        objective, residual = objective_residual(q[0])
        assert abs(value - (objective + lam * residual)) <= 1e-12
