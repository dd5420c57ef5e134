"""`cit check` scores its cases per shape group; the per-case loop is the oracle.

`reference_check` is the loop `cit check` ran before its cases were stacked
(`checks.identity_check` now runs the suites):
it draws each case and scores it at once with the single-case functions
(`lemma1_check`, `decomposition_check`, `chain_objective`). The command must
print the same bytes, each case must get the same violation to the bit, and a
case over a size budget must stop the run with the same error.
"""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from cit import SizeBudgetExceeded, chains, checks, cli, pmf, protocols, sources
from cit.pmf import IDENTITY_TOL, plogp_rows, plogp_sum, source_information

FLAG_SETS = {
    "defaults": [],
    "wide": ["--alphabet", "4", "--n", "3", "--rounds", "3"],
    "one": ["--count", "1"],
}
DEFAULTS = {"count": 100, "n": 2, "alphabet": 3, "rounds": 2}


def settings(flags: list[str]) -> dict:
    out = dict(DEFAULTS)
    for flag, value in zip(flags[::2], flags[1::2]):
        out[flag.removeprefix("--")] = int(value)
    return out


def over_budget(cells, what):
    """The law budget's refusal, as the oracle spells it out for itself."""
    if cells > pmf.LAW_BUDGET:
        raise SizeBudgetExceeded(f"{what} would hold {cells} cells (budget {pmf.LAW_BUDGET})")


def reference_violations(identity, seed, count, n, alphabet, rounds):
    """Each case's violation, in case order, one case drawn and scored at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nx = int(rng.integers(2, alphabet + 1))
        ny = int(rng.integers(2, alphabet + 1))
        source = sources.random_pmf(rng, nx, ny)
        if identity == "el5":
            r = int(rng.integers(1, rounds + 1))
            kernels = []
            prior: tuple[int, ...] = ()
            for j in range(1, r + 1):
                parent = chains.speaker_size(j, "x", nx, ny)
                size = int(rng.integers(2, 4))
                # the budget is checked before each round's draw, not once
                # the whole chain is drawn: a 16-round draw would take 200 MB
                over_budget(nx * ny * math.prod(prior) * size, "joint tensor")
                flat = rng.dirichlet(np.ones(size), size=parent * math.prod(prior))
                kernels.append(flat.reshape((parent,) + prior + (size,)))
                prior += (size,)
            res = chains.chain_objective(source, chains.AuxiliaryChain("x", tuple(kernels)))
            mi = source_information(source)
            yield abs(res.objective - mi + res.residual - sum(res.per_round_terms))
        else:
            n_case = int(rng.integers(1, n + 1))
            r = int(rng.integers(1, rounds + 1))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(r))
            # the law of (X^n, Y^n, F) is checked before the protocol is drawn
            over_budget((nx * ny) ** n_case * math.prod(sizes), "transcript law")
            proto = protocols.random_protocol(int(rng.integers(1 << 31)), n_case, r, sizes, nx, ny)
            if identity == "lemma1":
                chk = protocols.lemma1_check(source, proto)
                yield max(0.0, -chk["slack"])
            else:
                j_table = protocols.random_cr_table(int(rng.integers(1 << 31)), source, n_case, 3)
                chk = protocols.decomposition_check(source, proto, j_table)
                yield abs(chk["difference"])


def reference_check(identity, seed, count, n, alphabet, rounds) -> dict:
    worst = 0.0
    for violation in reference_violations(identity, seed, count, n, alphabet, rounds):
        worst = max(worst, violation)
    return {"identity": identity, "count": count, "max_violation": worst,
            "pass": bool(worst <= IDENTITY_TOL)}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
@pytest.mark.parametrize("identity", ["lemma1", "decomp", "el5"])
@pytest.mark.parametrize("seed", range(5))
def test_output_is_the_per_case_loops(seed, identity, flags):
    code, out = run_cli(["check", identity, "--seed", str(seed)] + flags)
    assert code == 0, out
    report = json.loads(out)
    expected = dict(report, result=reference_check(identity, seed, **settings(flags)))
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS.keys())
@pytest.mark.parametrize("identity", ["lemma1", "decomp", "el5"])
def test_each_case_scores_as_the_single_case_check(identity, flags):
    """Group by group, every case's violation equals the single-case one to
    the bit, the sign of a zero included."""
    s = settings(flags)
    count = s.pop("count")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        groups: dict[tuple, list] = {}
        for index in range(count):
            key, _, case = checks._draw_case(identity, rng, **s)
            groups.setdefault(key, []).append((index, case))
        got = {}
        for members in groups.values():
            violations = checks._violations(identity, [case for _, case in members])
            got.update(zip((index for index, _ in members), violations.tolist()))
        expected = list(reference_violations(identity, seed, count, **s))
        assert [got[i].hex() for i in range(len(expected))] == [v.hex() for v in expected]


@pytest.mark.parametrize("identity", ["lemma1", "decomp", "el5"])
def test_small_windows_and_stacks_score_alike(identity, monkeypatch):
    """Windows of seven cases, stacks of a few cases: the same report."""
    monkeypatch.setattr(checks, "CHECK_WINDOW", 7)
    monkeypatch.setattr(checks, "STACK_CELLS", 2000)
    flags = FLAG_SETS["wide"] + ["--count", "60"]
    code, out = run_cli(["check", identity, "--seed", "3"] + flags)
    assert code == 0, out
    assert json.loads(out)["result"] == reference_check(identity, 3, **settings(flags))


def test_groups_are_stacked_several_cases_at_a_time():
    rng = np.random.default_rng(0)
    keys = [checks._draw_case("lemma1", rng, n=2, alphabet=3, rounds=2)[0] for _ in range(200)]
    assert len(set(keys)) < len(keys) / 3


def test_an_unknown_identity_is_refused():
    with pytest.raises(ValueError, match="identity must be one of"):
        checks.identity_check("lemma2", 1, 0, n=1, alphabet=2, rounds=1)


@pytest.mark.parametrize("argv, message", [
    (["lemma1", "--alphabet", "8", "--n", "4", "--seed", "1"],
     "transcript law would hold 6291456 cells (budget 4194304)"),
    (["decomp", "--alphabet", "6", "--n", "4", "--seed", "1"],
     "transcript law would hold 15116544 cells (budget 4194304)"),
    (["el5", "--rounds", "14", "--count", "20", "--seed", "0"],
     "joint tensor would hold 5668704 cells (budget 4194304)"),
    (["el5", "--rounds", "16", "--count", "20", "--seed", "0"],
     "joint tensor would hold 5038848 cells (budget 4194304)"),
])
def test_the_first_case_over_budget_raises_its_error(argv, message):
    """Budgets are checked as each case is drawn, so the run stops at the case
    where the per-case loop stopped, with its message."""
    s = settings(argv[1:-2])
    with pytest.raises(SizeBudgetExceeded) as raised:
        reference_check(argv[0], int(argv[-1]), **s)
    assert str(raised.value) == message
    code, out = run_cli(["check"] + argv)
    assert code == 2
    assert json.loads(out)["error"] == {"type": "SizeBudgetExceeded", "message": message}


def test_an_el5_chain_over_budget_stops_before_its_next_draw():
    """The first case over budget at 16 rounds crosses the budget at its
    fifteenth round; drawing all sixteen rounds first peaked at 218 MB."""
    tracemalloc.start()
    try:
        code, out = run_cli(["check", "el5", "--rounds", "16", "--count", "20", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and json.loads(out)["error"]["type"] == "SizeBudgetExceeded"
    assert peak <= 2 * 8 * pmf.LAW_BUDGET


def test_peak_memory_is_near_the_per_case_loops():
    argv = ["check", "decomp", "--count", "100", "--n", "3", "--alphabet", "4"]
    tracemalloc.start()
    try:
        list(reference_violations("decomp", 0, 100, 3, 4, 2))
        _, loop_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        code, _ = run_cli(argv)
        _, batched_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert batched_peak <= 2 * loop_peak


class TestPlogpRows:
    @staticmethod
    def block(rng, rows, width, positives):
        """`rows` rows of `width` cells, row i with positives[i] positive cells."""
        out = np.zeros((rows, width))
        for row, k in zip(out, positives):
            row[rng.choice(width, size=k, replace=False)] = rng.dirichlet(np.ones(k)) if k else 0
        return out

    @pytest.mark.parametrize("positives", [
        [0, 0, 0],                 # no positive cell
        [1, 1, 0, 1],              # a single positive
        [1, 2, 3, 4, 5, 6, 7],     # sequential sums
        [8, 9, 15, 16, 17, 64, 127, 128],                    # eight accumulators
        [129, 130, 200, 255, 256, 257, 500, 1000, 1023],     # recursive halves
        [0, 1, 7, 8, 128, 129, 300, 3, 3, 3, 129, 0, 1000],  # mixed, repeated lengths
    ])
    def test_each_row_is_plogp_sum(self, positives):
        rng = np.random.default_rng(len(positives))
        rows = self.block(rng, len(positives), max(positives) + 5, positives)
        got = plogp_rows(rows)
        assert got.shape == (1, len(rows))
        assert [v.hex() for v in got[0].tolist()] == [plogp_sum(row).hex() for row in rows]

    def test_blocks_of_several_widths(self):
        rng = np.random.default_rng(7)
        blocks = [self.block(rng, 6, width, rng.integers(0, width + 1, size=6))
                  for width in (1, 9, 40, 300)]
        got = plogp_rows(*blocks)
        assert got.shape == (4, 6)
        for block, row in zip(blocks, got):
            assert [v.hex() for v in row.tolist()] == [plogp_sum(r).hex() for r in block]

    def test_one_row_per_block(self):
        rows = [np.array([[0.5, 0.0, 0.25, 0.25]]), np.array([[1.0]]), np.zeros((1, 3))]
        got = plogp_rows(*rows)
        assert [v.hex() for v in got[:, 0].tolist()] == [plogp_sum(r).hex() for r in rows]
