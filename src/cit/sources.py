"""Built-in joint sources used by the CLI, the demos, and the tests."""

from __future__ import annotations

import numpy as np

from .errors import CitError, DeltaOutOfRange
from .pmf import JointPMF, validate_pmf

SYMMETRY_TOL = 1e-12


class ConstraintViolation(CitError):
    """A built-in source's parameter constraint was violated."""


def bss_pmf(delta: float) -> JointPMF:
    """Doubly symmetric binary source: equal marginals, crossover `delta`."""
    if not 0.0 < delta < 0.5:
        raise DeltaOutOfRange(f"delta must lie strictly inside (0, 0.5), got {delta}")
    same = (1.0 - delta) / 2.0
    diff = delta / 2.0
    return validate_pmf([[same, diff], [diff, same]], ["0", "1"], ["0", "1"])


def binary_symmetric_delta(pmf: JointPMF) -> float | None:
    """The crossover probability, in (0, 0.5), when the pmf is doubly
    symmetric binary once its zero-mass rows and columns are dropped, either
    diagonal holding the larger mass, its mirrored entries equal within
    SYMMETRY_TOL; else None."""
    p = pmf.p[pmf.p.sum(axis=1) > 0][:, pmf.p.sum(axis=0) > 0]
    if p.shape != (2, 2):
        return None
    if abs(p[0, 0] - p[1, 1]) > SYMMETRY_TOL or abs(p[0, 1] - p[1, 0]) > SYMMETRY_TOL:
        return None
    off = float(p[0, 1] + p[1, 0])
    delta = min(off, 1.0 - off)
    return delta if 0.0 < delta < 0.5 else None


def gain_pmf(a: float, b: float, c: float) -> JointPMF:
    """3x3 source [[a,a,a],[b,a,a],[a,c,a]] on which interaction helps.

    Constraints: entries nonnegative, 7a+b+c = 1 within 1e-9, c != a, and
    2a > b > a. Violations raise ConstraintViolation naming the constraint.
    """
    if min(a, b, c) < 0:
        raise ConstraintViolation("entries must be nonnegative")
    if abs(7 * a + b + c - 1.0) > 1e-9:
        raise ConstraintViolation(f"7a+b+c must equal 1 within 1e-9, got {7 * a + b + c}")
    if abs(c - a) <= 1e-9:
        raise ConstraintViolation("c must differ from a")
    if not b > a:
        raise ConstraintViolation(f"constraint 2a > b > a violated: b={b} is not > a={a}")
    if not 2 * a > b:
        raise ConstraintViolation(f"constraint 2a > b > a violated: b={b} is not < 2a={2 * a}")
    rows = [[a, a, a], [b, a, a], [a, c, a]]
    return validate_pmf(rows, ["0", "1", "2"], ["0", "1", "2"])


def random_pmf(rng: np.random.Generator, nx: int, ny: int, zeros: float = 0.0) -> JointPMF:
    """Dirichlet-random pmf, optionally with a fraction of cells forced to zero."""
    p = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    if zeros > 0:
        mask = rng.random((nx, ny)) < zeros
        # never kill everything
        if mask.all():
            mask.flat[int(rng.integers(nx * ny))] = False
        p = np.where(mask, 0.0, p)
        p = p / p.sum()
    return validate_pmf(p)
