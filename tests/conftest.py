import contextlib
import io
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from cit import chains, cli, sources, validate_pmf
from cit.hashing import _draw_rows

# the bench's input draws (`workloads`) and its tracer import by module name
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))


@pytest.fixture
def bss25():
    return sources.bss_pmf(0.25)


@pytest.fixture
def gain():
    return sources.gain_pmf(0.1, 0.15, 0.15)


@pytest.fixture
def uniform_copy():
    """X = Y uniform binary."""
    return validate_pmf([[0.5, 0.0], [0.0, 0.5]])


@pytest.fixture
def independent():
    return validate_pmf([[0.25, 0.25], [0.25, 0.25]])


def gain_two_round_chain() -> chains.DeterministicChain:
    """The two-round exchange on the 3x3 gain source: the first terminal
    reveals whether its symbol is 2, then the second reveals whether its
    symbol is 0 unless that is already settled."""
    f1 = np.array([0, 0, 1])                      # x in {0,1} -> 0, x = 2 -> 1
    f2 = np.array([[0, 1], [2, 1], [2, 1]])       # (y, u1) -> u2
    return chains.DeterministicChain("x", (2, 3), (f1, f2))


def det_start(pmf, sizes, initiator="x") -> chains.DeterministicChain | None:
    """The `start` a report hands `continuous_chain_minimize`: the det winner
    at caps `sizes`, or None when that search is over budget or infeasible."""
    try:
        return chains.det_chain_search(pmf, len(sizes), sizes, initiator=initiator).chain
    except (chains.BudgetExceeded, chains.NoFeasibleChain):
        return None


def random_full_pmf(rng: np.random.Generator, max_side: int = 4):
    nx = int(rng.integers(2, max_side + 1))
    ny = int(rng.integers(2, max_side + 1))
    return sources.random_pmf(rng, nx, ny)


def random_sparse_pmf(rng: np.random.Generator, max_side: int = 5):
    """A random pmf with zero cells, and often a zero row or a zero column
    (or both) somewhere inside it."""
    nx = int(rng.integers(2, max_side + 1))
    ny = int(rng.integers(2, max_side + 1))
    p = sources.random_pmf(rng, nx, ny, zeros=float(rng.random() * 0.6)).p.copy()
    if rng.random() < 0.5:
        p[int(rng.integers(nx))] = 0.0
    if rng.random() < 0.5:
        p[:, int(rng.integers(ny))] = 0.0
    if not p.any():
        p[0, 0] = 1.0
    return validate_pmf(p / p.sum())


def cli_reports_across_threads(argv, monkeypatch) -> list[str]:
    """The printed report of `cit argv` under `--threads 1`, under
    `--threads 4` and under `CIT_THREADS=4`, in that order."""
    reports = []
    for flag, env in ((["--threads", "1"], None), (["--threads", "4"], None), ([], "4")):
        with monkeypatch.context() as m:
            if env is None:
                m.delenv("CIT_THREADS", raising=False)
            else:
                m.setenv("CIT_THREADS", env)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(argv) + flag)
        assert code == 0, buf.getvalue()
        reports.append(buf.getvalue())
    return reports


# dense references for audits of `chains.det_chain_search`

def canonical_encoding(chain: chains.DeterministicChain) -> tuple[tuple[int, ...], ...]:
    """Relabel round values by first appearance and drop unused values."""
    tables = [np.array(t) for t in chain.tables]
    rounds = len(tables)
    enc = []
    for j in range(rounds):
        flat = tables[j].ravel()
        relabel: dict[int, int] = {}
        for v in flat.tolist():
            if v not in relabel:
                relabel[v] = len(relabel)
        enc.append(tuple(relabel[v] for v in flat.tolist()))
        inv = sorted(relabel, key=relabel.get)
        for jj in range(j + 1, rounds):
            tables[jj] = np.take(tables[jj], inv, axis=1 + j)
    return tuple(enc)


@lru_cache(maxsize=None)
def _stirling2(cells: int, labels: int) -> int:
    """Number of RGS over `cells` cells using exactly `labels` labels."""
    if cells == 0 or labels == 0:
        return int(cells == labels)
    return labels * _stirling2(cells - 1, labels) + _stirling2(cells - 1, labels - 1)


def count_canonical_chains(x_size, y_size, rounds, caps, initiator="x") -> int:
    """Number of canonical deterministic chains under the given caps: the
    reference count for `chains.iter_canonical_chains`."""
    caps = tuple(int(c) for c in caps)

    @lru_cache(maxsize=None)
    def completions(j: int, prod: int) -> int:
        """The canonical chains that complete a j-round prefix whose round
        sizes multiply to `prod`."""
        if j == rounds:
            return 1
        cells = chains.speaker_size(j + 1, initiator, x_size, y_size) * prod
        return sum(_stirling2(cells, used) * completions(j + 1, prod * used)
                   for used in range(1, min(caps[j], cells) + 1))

    return completions(0, 1)


@lru_cache(maxsize=None)
def _canonical_batch(shape, rounds, caps, initiator):
    """The encoding of every canonical chain in enumeration order, and their
    one-hot kernels padded to `caps`, one chain per row on a leading axis."""
    nx, ny = shape
    encodings = []
    tables: list[list[np.ndarray]] = [[] for _ in range(rounds)]
    for chain in chains.iter_canonical_chains(nx, ny, rounds, caps, initiator):
        encodings.append(tuple(tuple(t.ravel().tolist()) for t in chain.tables))
        for j, t in enumerate(chain.tables):
            # histories past a round's tight size are unreachable; they say 0
            full = np.zeros((t.shape[0],) + caps[:j], dtype=int)
            full[(slice(None),) + tuple(slice(0, s) for s in chain.sizes[:j])] = t
            tables[j].append(full)
    kernels = [(np.stack(ts)[..., None] == np.arange(caps[j])).astype(float)
               for j, ts in enumerate(tables)]
    return encodings, kernels


def feasible_det_encodings(pmf, rounds, size_caps=None, initiator="x"):
    """All canonical encodings with residual at most DET_FEASIBILITY_TOL, with
    their objectives, in enumeration order and scored on the dense joint law
    of all chains at once: the dense reference for the search over
    rectangles."""
    nx, ny = pmf.shape
    # a round's table has `cells` cells and so never uses more labels; caps
    # cut to that give the same chains, and cases that share them share a batch
    caps = []
    for j, cap in enumerate(chains.effective_caps(nx, ny, rounds, size_caps, initiator), start=1):
        caps.append(min(cap, chains.speaker_size(j, initiator, nx, ny) * math.prod(caps)))
    encodings, kernels = _canonical_batch(pmf.shape, rounds, tuple(caps), initiator)
    q = chains._product_law(pmf.p, kernels, initiator)
    n = len(q)

    def h(a):
        a = a.reshape(n, -1)
        return -np.where(a > 0, a * np.log2(np.where(a > 0, a, 1.0)), 0.0).sum(axis=1)

    h_q = h(q)
    h_u = h(q.sum(axis=(1, 2)))
    objective = np.maximum(h(q.sum(axis=tuple(range(3, q.ndim)))) + h_u - h_q, 0.0)
    residual = np.maximum(h(q.sum(axis=2)) + h(q.sum(axis=1)) - h_u - h_q, 0.0)
    return [(enc, float(obj)) for enc, obj, res in zip(encodings, objective, residual)
            if res <= chains.DET_FEASIBILITY_TOL]


# scalar GF(2) reference for `cit.hashing`: Gauss-Jordan on Python ints

def _reduce(rows: list[int], m: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of m-bit rows, each carried as row | ops << m.

    `ops` records which input rows were added together. Returns one
    (pivot bit, reduced row) pair per independent row, in input order; a row
    that depends on earlier ones is dropped. The pivot of a reduced row is
    its lowest set bit, and no other reduced row has that bit set.
    """
    mask = (1 << m) - 1
    basis: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        a = row | 1 << (m + i)
        for bit, b in basis:
            if a & bit:
                a ^= b
        low = a & mask
        if not low:
            continue
        bit = low & -low
        basis = [(pb, b ^ a) if b & bit else (pb, b) for pb, b in basis]
        basis.append((bit, a))
    return basis


def _solve_structures(rows: list[int], m: int) -> tuple[list[int], list[int]]:
    """Right-inverse columns and a null-space basis for full-row-rank rows.

    z(s) = XOR of cols[j] over set bits j of s satisfies rows . z = s; the
    null basis spans all solutions. Raises ValueError when the rows are not
    of full row rank.
    """
    k = len(rows)
    basis = _reduce(rows, m)
    if len(basis) < k:
        raise ValueError("rows are not of full row rank")
    cols = [0] * k
    pivots = 0
    for bit, a in basis:
        pivots |= bit
        ops = a >> m
        while ops:
            low = ops & -ops
            cols[low.bit_length() - 1] ^= bit
            ops ^= low
    null_basis = []
    for c in range(m):
        free = 1 << c
        if pivots & free:
            continue
        v = free
        for bit, a in basis:
            if a & free:
                v ^= bit
        null_basis.append(v)
    return cols, null_basis


def _sample_solved(
    rng: np.random.Generator, k: int, m: int
) -> tuple[list[int], tuple[list[int], list[int]]]:
    """k random m-bit rows of full rank, with their `_solve_structures`."""
    while True:
        rows = _draw_rows(rng, k, m).tolist()
        try:
            return rows, _solve_structures(rows, m)
        except ValueError:
            continue


@pytest.fixture
def rejected_draws(monkeypatch) -> list[list[int]]:
    """The rank-deficient rows `_sample_solved` draws and throws away."""
    rejected = []
    solve = _solve_structures

    def counted(rows, m):
        try:
            return solve(rows, m)
        except ValueError:
            rejected.append(rows)
            raise

    monkeypatch.setitem(globals(), "_solve_structures", counted)
    return rejected
