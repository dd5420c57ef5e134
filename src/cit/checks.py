"""The seeded identity suites that `cit check` runs.

A suite draws `count` random cases from one seed and reports the largest
violation of its identity over them, to 1e-9:

  * lemma1: H(F|X^n) + H(F|Y^n) <= H(F) for a random protocol;
  * decomp: the transcript decomposition of n I(X;Y) through a random
    lookup table J;
  * el5: objective - I(X;Y) + residual = the sum of a random chain's
    per-round terms.

The cases are drawn in order, one after another, and each is held to the
size budget before its tables are drawn, so a case over budget stops the
suite with the error its single-case check raises: (X^n, Y^n, F) before
the protocol, a decomp law with J before it is built, and an el5 chain
before each round's kernel, its error counting the rounds so far. They are
drawn in windows of at most CHECK_WINDOW cases or LAW_BUDGET law cells,
and each window is scored one shape group at a time, at most STACK_CELLS
law cells to a stack (or one larger case): a larger stack runs no faster
and would raise the peak past one case's. Every case scores to the bit as
`lemma1_check`, `decomposition_check` or `chain_objective` scores it alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import chains, protocols, sources
from .pmf import IDENTITY_TOL, LAW_BUDGET, check_law_budget, source_informations

IDENTITIES = ("lemma1", "decomp", "el5")
CHECK_WINDOW = 1024
STACK_CELLS = 2 ** 16


def _draw_case(identity: str, rng: np.random.Generator, *, n: int | None = None,
               alphabet: int, rounds: int) -> tuple[tuple, tuple[int, ...], tuple]:
    """One case, drawn in the generator's order: its group key, its law's
    shape (within the size budget) and its inputs. Only a protocol case
    draws a blocklength, up to `n`."""
    nx = int(rng.integers(2, alphabet + 1))
    ny = int(rng.integers(2, alphabet + 1))
    pmf = sources.random_pmf(rng, nx, ny)
    if identity == "el5":
        r = int(rng.integers(1, rounds + 1))
        kernels = []
        prior: tuple[int, ...] = ()
        for j in range(1, r + 1):
            parent = chains.speaker_size(j, "x", nx, ny)
            size = int(rng.integers(2, 4))
            check_law_budget(nx * ny * math.prod(prior) * size, "joint tensor")  # rounds so far
            flat = rng.dirichlet(np.ones(size), size=parent * math.prod(prior))
            kernels.append(flat.reshape((parent,) + prior + (size,)))
            prior += (size,)
        chain = chains.AuxiliaryChain("x", tuple(kernels))
        shape = chains.law_shape(pmf, chain)
        return shape, shape, (pmf, chain)
    n = int(rng.integers(1, n + 1))
    r = int(rng.integers(1, rounds + 1))
    sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
    shape = protocols.law_shape((nx, ny), n, sizes)
    proto = protocols.random_protocol(int(rng.integers(1 << 31)), n, r, sizes, nx, ny)
    if identity == "lemma1":
        return (nx, ny, n, sizes), shape, (pmf, proto)
    j_table = protocols.random_cr_table(int(rng.integers(1 << 31)), pmf, n, 3)
    shape = protocols.law_shape((nx, ny), n, sizes, j_table)
    return (nx, ny, n, sizes, shape[3]), shape, (pmf, proto, j_table)


def _windows(draw, count: int):
    """`count` drawn cases, a window at a time, as {group key: (law cells, cases)}."""
    window: dict[tuple, tuple[int, list]] = {}
    held = cells = 0
    for _ in range(count):
        key, shape, case = draw()
        window.setdefault(key, (math.prod(shape), []))[1].append(case)
        held += 1
        cells += math.prod(shape)
        if held == CHECK_WINDOW or cells >= LAW_BUDGET:
            yield window
            window, held, cells = {}, 0, 0
    if window:
        yield window


def _violations(identity: str, cases: list[tuple]) -> np.ndarray:
    """Each case's violation as its single-case check gives it, bit for bit,
    from one stacked law: the cases share one group key."""
    columns = tuple(zip(*cases))
    if identity == "lemma1":
        lhs, rhs = protocols.lemma1_sides(*columns)
        loss = -(rhs - lhs)
        return np.where(loss > 0.0, loss, 0.0)  # max(0.0, -slack), as Python's max takes it
    if identity == "decomp":
        lhs, rhs = protocols.decomposition_sides(*columns)
        return np.abs(lhs - rhs)
    objective, residual, terms = chains.chain_scores(*columns)
    # left to right, as Python's sum adds them; .sum() adds 8 or more pairwise
    term_sums = terms.cumsum(axis=1)[:, -1]
    return np.abs(objective - source_informations(columns[0]) + residual - term_sums)


def identity_check(identity: str, count: int, seed: int, *, n: int | None = None,
                   alphabet: int, rounds: int) -> dict:
    """The `identity` suite over `count` cases drawn from `seed`: alphabet
    sizes 2..`alphabet`, blocklengths 1..`n` (lemma1 and decomp, which
    need it; el5 draws none) and 1..`rounds` rounds of 2 or 3 messages or
    chain values."""
    if identity not in IDENTITIES:
        raise ValueError(f"identity must be one of {IDENTITIES}, got {identity!r}")
    if n is None and identity != "el5":
        raise ValueError(f"{identity} needs a largest blocklength n")
    draw = functools.partial(_draw_case, identity, np.random.default_rng(seed),
                             n=n, alphabet=alphabet, rounds=rounds)
    worst = 0.0
    for window in _windows(draw, count):
        for case_cells, group in window.values():
            step = max(1, STACK_CELLS // case_cells)
            for start in range(0, len(group), step):
                worst = max(worst, *_violations(identity, group[start:start + step]).tolist())
    return {
        "identity": identity,
        "count": count,
        "max_violation": worst,
        "pass": bool(worst <= IDENTITY_TOL),
    }
