import contextlib
import io

import numpy as np
import pytest

from cit import chains, cli, sources, validate_pmf


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


def random_full_pmf(rng: np.random.Generator, max_side: int = 4):
    nx = int(rng.integers(2, max_side + 1))
    ny = int(rng.integers(2, max_side + 1))
    return sources.random_pmf(rng, nx, ny)


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


def feasible_det_encodings(pmf, rounds, size_caps=None, initiator="x"):
    """All canonical encodings with residual at most DET_FEASIBILITY_TOL, with
    their objectives, in enumeration order and scored on the dense joint law."""
    nx, ny = pmf.shape
    caps = chains.effective_caps(nx, ny, rounds, size_caps, initiator)
    out = []
    for chain in chains.iter_canonical_chains(nx, ny, rounds, caps, initiator):
        objective, residual = chains._objective_residual(chains._joint_array(pmf, chain))
        if residual <= chains.DET_FEASIBILITY_TOL:
            out.append((tuple(tuple(t.ravel().tolist()) for t in chain.tables), objective))
    return out
