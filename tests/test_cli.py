import argparse
import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from cit import __version__, chains, cli, optim

from conftest import gain_two_round_chain


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


@pytest.fixture
def pmf_file(tmp_path):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps({"x": ["0", "1"], "y": ["0", "1"],
                                "p": [[0.5, 0.0], [0.0, 0.5]]}))
    return str(path)


@pytest.fixture
def gain_file(tmp_path):
    path = tmp_path / "gain.json"
    path.write_text(json.dumps({"x": ["0", "1", "2"], "y": ["0", "1", "2"],
                                "p": [[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]]}))
    return str(path)


class TestBasicCommands:
    def test_info(self, pmf_file):
        code, out = run_cli(["info", "--pmf", pmf_file])
        rep = json.loads(out)
        assert code == 0
        assert rep["tool"] == "cit"
        assert rep["result"]["mi"] == pytest.approx(1.0, abs=1e-12)
        # pmf echo matches the (renormalized) input
        assert rep["result"]["pmf"]["p"] == [[0.5, 0.0], [0.0, 0.5]]

    def test_suffstat(self, pmf_file):
        code, out = run_cli(["suffstat", "--pmf", pmf_file])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["x"]["classes"] == {"0": 0, "1": 1}

    def test_gk(self, pmf_file):
        code, out = run_cli(["gk", "--pmf", pmf_file])
        rep = json.loads(out)
        assert rep["result"]["h_mcf"] == pytest.approx(1.0, abs=1e-12)

    def test_wyner(self, pmf_file):
        code, out = run_cli(["wyner", "--pmf", pmf_file, "--restarts", "4",
                             "--max-iter", "800", "--seed", "3"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("penalty, schedule", [
        (["--penalty", "5,50"], [5.0, 50.0]),
        ([], [1.0, 10.0, 100.0, 1000.0]),
    ])
    def test_wyner_echoes_its_penalty_schedule(self, pmf_file, penalty, schedule):
        code, out = run_cli(["wyner", "--pmf", pmf_file, "--restarts", "1",
                             "--max-iter", "20"] + penalty)
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config) == ["pmf", "w_size", "restarts", "penalty_schedule",
                                "max_iter", "seed"]
        assert config["penalty_schedule"] == schedule
        assert (config["w_size"], config["restarts"], config["max_iter"]) == (None, 1, 20)

    def test_wyner_counts_every_descended_start(self, gain_file):
        # gain's four seeded kernels descend before the three restarts
        code, out = run_cli(["wyner", "--pmf", gain_file, "--restarts", "3",
                             "--max-iter", "20"])
        assert code == 0
        rep = json.loads(out)
        assert (rep["result"]["starts"], rep["config"]["restarts"]) == (7, 3)

    def test_wyner_lists_each_candidates_iterations_and_stops(self, tmp_path):
        """Each candidate carries its iterations and one stop reason per
        penalty stage. On bss, random-0's first stage hits the step floor
        within 100 iterations and its other three are cut at `--max-iter`:
        doubling the cap adds one cap per slot that reads max_iter."""
        path = tmp_path / "bss.json"
        path.write_text(json.dumps({"x": ["0", "1"], "y": ["0", "1"],
                                    "p": [[0.375, 0.125], [0.125, 0.375]]}))
        found = {}
        for cap in (100, 200):
            code, out = run_cli(["wyner", "--pmf", str(path), "--restarts", "2",
                                 "--max-iter", str(cap)])
            assert code == 0, out
            res = json.loads(out)["result"]
            exact, descended = res["candidates"][:4], res["candidates"][4:]
            assert [(c["iterations"], c["stops"]) for c in exact] == [(0, [])] * 4
            assert res["iterations"] == sum(c["iterations"] for c in descended)
            for c in descended:
                assert len(c["stops"]) == 4
                assert set(c["stops"]) <= {"stall", "step_floor", "max_iter"}
                assert c["iterations"] >= cap * c["stops"].count("max_iter")
            found[cap] = {c["label"]: c for c in descended}
            assert found[cap]["random-0"]["stops"] == ["step_floor"] + ["max_iter"] * 3
        assert found[200]["random-0"]["iterations"] - found[100]["random-0"]["iterations"] == 300

    @pytest.mark.parametrize("argv", [
        ["rates", "--caps"],
        ["ici", "--mode", "det", "--caps"],
        ["ici", "--mode", "cont", "--sizes"],
        ["ici", "--mode", "exact1", "--caps"],
        ["ici", "--mode", "det", "--sizes"],
        ["ici", "--mode", "cont", "--sizes", "3,3", "--caps"],
    ], ids=["rates", "ici-det", "ici-cont", "ici-exact1", "ici-det-sizes", "ici-cont-caps"])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_caps_need_one_entry_per_round(self, gain_file, argv, count):
        code, out = run_cli(argv[:1] + ["--pmf", gain_file, "--rounds", "2"] + argv[1:]
                            + [",".join(["3"] * count)])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": f"need one size cap per round: {count} given for 2 rounds"}

    def test_ici_all_modes(self, pmf_file):
        code, out = run_cli(["ici", "--pmf", pmf_file, "--rounds", "2",
                             "--mode", "all", "--caps", "2,2", "--restarts", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["exact1"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert rep["result"]["det"]["objective"] == pytest.approx(1.0, abs=1e-9)

    def test_ici_initiator_y_reaches_every_route(self, tmp_path):
        # transposed gain source: Y carries the gain source's X
        gain = [[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]]
        path = tmp_path / "gain_t.json"
        path.write_text(json.dumps({"x": ["0", "1", "2"], "y": ["0", "1", "2"],
                                    "p": [list(col) for col in zip(*gain)]}))
        code, out = run_cli(["ici", "--pmf", str(path), "--rounds", "2", "--mode", "all",
                             "--initiator", "y", "--caps", "2,3", "--restarts", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["det"]["chain"]["initiator"] == "y"
        assert rep["result"]["cont"]["chain"]["initiator"] == "y"
        assert rep["result"]["cont"]["chain"]["sizes"] == [2, 3]

    def test_ici_all_searches_once(self, tmp_path, monkeypatch):
        # the cont route takes the det route's search for its det-best start
        path = tmp_path / "gain.json"
        path.write_text(json.dumps({"x": ["0", "1", "2"], "y": ["0", "1", "2"],
                                    "p": [[0.1, 0.1, 0.1], [0.15, 0.1, 0.1],
                                          [0.1, 0.15, 0.1]]}))
        argv = ["ici", "--pmf", str(path), "--rounds", "2", "--restarts", "2"]
        calls = []
        search = chains.det_chain_search

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return search(*args, **kwargs)

        monkeypatch.setattr(chains, "det_chain_search", counted)
        code, out = run_cli(argv + ["--mode", "all"])
        assert code == 0
        assert calls == [(2, None)]
        # the cont route that searches for itself lands on the same chain
        _, alone = run_cli(argv + ["--mode", "cont"])
        assert json.loads(out)["result"]["cont"] == json.loads(alone)["result"]["cont"]

    @pytest.mark.parametrize("mode, sizes, want", [
        ("cont", [], [((4, 4), 100_000)]),
        ("all", ["--sizes", "3,3"], [(None, 100_000), ((3, 3), 100_000)]),
    ])
    def test_ici_budget_binds_the_cont_search(self, gain_file, monkeypatch, mode, sizes, want):
        # the cont route's det-best start comes from one search at --budget
        # for its own sizes, not from a second search at the default budget
        calls = []
        search = chains.det_chain_search

        def counted(*args, **kwargs):
            calls.append((args[2], kwargs.get("budget")))
            return search(*args, **kwargs)

        monkeypatch.setattr(chains, "det_chain_search", counted)
        code, out = run_cli(["ici", "--pmf", gain_file, "--rounds", "2", "--restarts", "2",
                             "--mode", mode, "--budget", "100000"] + sizes)
        assert code == 0, out
        assert calls == want

    def test_ici_cont_over_budget_starts_without_det_best(self, gain_file, monkeypatch):
        results = []
        minimize = chains.continuous_chain_minimize

        def kept(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(chains, "continuous_chain_minimize", kept)
        code, out = run_cli(["ici", "--pmf", gain_file, "--rounds", "2", "--restarts", "2",
                             "--mode", "cont", "--budget", "0"])
        assert code == 0, out
        labels = [label for label, _, _ in results[0].candidates]
        assert "det-best" not in labels and "copy" in labels

    def test_ici_det_reaches_three_rounds_at_default_caps(self, tmp_path):
        p = [[0.2, 0.05, 0.1], [0.05, 0.15, 0.05], [0.1, 0.05, 0.25]]
        path = tmp_path / "rand3.json"
        path.write_text(json.dumps({"x": ["0", "1", "2"], "y": ["0", "1", "2"], "p": p}))
        code, out = run_cli(["ici", "--pmf", str(path), "--rounds", "3", "--mode", "det"])
        assert code == 0, out
        det = json.loads(out)["result"]["det"]
        assert det["feasible"] and len(det["chain"]["sizes"]) == 3

    def test_rates(self, pmf_file):
        code, out = run_cli(["rates", "--pmf", pmf_file, "--rounds", "2"])
        rep = json.loads(out)
        assert rep["result"]["r_sk_r"] == pytest.approx(0.0, abs=1e-9)
        assert rep["config"]["rounds"] == 2

    @pytest.mark.parametrize("command", ["rates", "example"])
    def test_rate_reports_echo_their_descent(self, pmf_file, command):
        argv = ["rates", "--pmf", pmf_file] if command == "rates" else ["example", "bss"]
        code, out = run_cli(argv + ["--seed", "5"])
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config)[-5:] == ["rounds", "det_caps", "det_budget",
                                     "include_continuous", "descent"]
        assert config["descent"] == {"restarts": 8,
                                     "penalty_schedule": list(optim.PENALTY_SCHEDULE),
                                     "max_iter": 2000, "seed": 5}

    def test_check_commands(self):
        for identity in ("lemma1", "decomp", "el5"):
            code, out = run_cli(["check", identity, "--seed", "5", "--count", "20"])
            rep = json.loads(out)
            assert code == 0, identity
            assert rep["result"]["pass"] is True
            assert rep["result"]["max_violation"] <= 1e-9

    def test_simulate_sw_sweep_csv(self, pmf_file):
        code, out = run_cli(["simulate", "sw", "--pmf", pmf_file, "--n", "8,10",
                             "--rate", "0.5", "--trials", "50", "--seed", "1",
                             "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "error_rate" in lines[0]
        # each row carries the envelope: tool, version, command, seed, config
        rows = list(csv.DictReader(io.StringIO(out)))
        for row, n in zip(rows, (8, 10)):
            assert {k: json.loads(row[k]) for k in ("tool", "version", "command", "seed")} == \
                {"tool": "cit", "version": __version__, "command": "simulate", "seed": 1}
            assert {k: json.loads(v) for k, v in row.items() if k.startswith("config.")} == \
                {"config.kind": "sw", "config.pmf": pmf_file, "config.rate": 0.5,
                 "config.trials": 50, "config.n": [8, 10]}
            assert json.loads(row["n"]) == n

    def test_simulate_csv_quotes_lists(self, tmp_path):
        gain = [[0.1, 0.1, 0.1], [0.15, 0.1, 0.1], [0.1, 0.15, 0.1]]
        pmf_path = tmp_path / "gain.json"
        pmf_path.write_text(json.dumps({"x": ["0", "1", "2"], "y": ["0", "1", "2"], "p": gain}))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(gain_two_round_chain().to_json()))
        argv = ["simulate", "crsk", "--pmf", str(pmf_path), "--chain", str(chain_path),
                "--key-rate", "0.0", "--trials", "20", "--seed", "1", "--slack", "0.1"]
        code, out = run_cli(argv + ["--n", "3,4", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        assert len(body) == 2
        assert all(len(row) == len(header) for row in body)
        _, js = run_cli(argv + ["--n", "3,4"])
        reports = json.loads(js)["result"]
        for row, rep in zip(body, reports):
            assert len(rep["stage_bits"]) == 2
            assert json.loads(row[header.index("stage_bits")]) == rep["stage_bits"]
            assert json.loads(row[header.index("config.kind")]) == "crsk"
            assert json.loads(row[header.index("config.chain")]) == str(chain_path)
            assert json.loads(row[header.index("config.n")]) == [3, 4]
        # the envelope's seed and each report's own take one column
        assert header.count("seed") == 1 and header[:4] == ["tool", "version", "command", "seed"]
        # one report: the envelope flattens to key,value rows, lists included
        code, out = run_cli(argv + ["--n", "4", "--format", "csv"])
        flat = dict(csv.reader(io.StringIO(out)))
        assert json.loads(flat["result.stage_bits"]) == reports[1]["stage_bits"]
        assert json.loads(flat["config.n"]) == [4]
        assert json.loads(flat["config.kind"]) == "crsk"

    def test_simulate_crsk(self, pmf_file):
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--n", "12",
                             "--key-rate", "0.5", "--trials", "60", "--seed", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["cr_error_rate"] == 0.0


class TestExamples:
    def test_bss_report(self):
        code, out = run_cli(["example", "bss", "--delta", "0.25", "--rounds", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["closed_form"]["ci_i"] == 1.0
        assert rep["result"]["cir_ub"] == pytest.approx(1.0, abs=1e-12)
        assert rep["result"]["r_sk_r"] == pytest.approx(0.8112781244591328, abs=1e-9)

    def test_gain_report(self):
        code, out = run_cli(["example", "gain", "--a", "0.1", "--b", "0.15",
                             "--c", "0.15", "--rounds", "2"])
        rep = json.loads(out)
        assert code == 0
        assert rep["result"]["r_sk_r"] < rep["result"]["r_ni"]

    @pytest.mark.parametrize("argv, fragment", [
        (["--a", "0.1", "--b", "0.25", "--c", "0.05"], "2a > b > a"),
        (["--a", "0.1", "--b", "0.05", "--c", "0.25"], "2a > b > a"),
        (["--a", "0.1", "--b", "0.2", "--c", "0.1"], "c must differ"),
        (["--a", "0.2", "--b", "0.25", "--c", "0.15"], "7a+b+c"),
    ])
    def test_gain_rejects_bad_parameters(self, argv, fragment):
        code, out = run_cli(["example", "gain"] + argv)
        assert code == 2
        err = json.loads(out)
        assert fragment in err["error"]["message"]

    def test_bss_rejects_bad_delta(self):
        code, out = run_cli(["example", "bss", "--delta", "0.6"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DeltaOutOfRange"


class TestErrorsAndIO:
    def test_missing_file(self):
        code, out = run_cli(["info", "--pmf", "/nonexistent.json"])
        assert code == 2
        assert "error" in json.loads(out)

    def test_invalid_pmf(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"x": ["0"], "y": ["0"], "p": [[4.0]]}))
        code, out = run_cli(["info", "--pmf", str(path)])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotNormalized"

    def test_output_file(self, pmf_file, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(["info", "--pmf", pmf_file, "--output", str(target)])
        assert code == 0
        assert out == ""
        rep = json.loads(target.read_text())
        assert rep["result"]["mi"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [["info", "--pmf", "PMF"], ["check", "el5", "--count", "2"]])
    def test_an_unwritable_output_is_an_error_report(self, pmf_file, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        argv = [pmf_file if a == "PMF" else a for a in argv]
        code, out = run_cli(argv + ["--output", str(target)])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "FileNotFoundError" and str(target) in error["message"]
        assert not target.parent.exists()

    def test_a_failed_check_exits_1_after_its_report(self, monkeypatch):
        failed = {"identity": "el5", "count": 1, "max_violation": 1.0, "pass": False}
        monkeypatch.setattr(cli.checks, "identity_check", lambda *args, **kwargs: failed)
        code, out = run_cli(["check", "el5", "--count", "1"])
        assert code == 1
        assert json.loads(out)["result"] == failed

    def test_reports_reparse_and_carry_metadata(self, pmf_file):
        code, out = run_cli(["rates", "--pmf", pmf_file, "--rounds", "1"])
        rep = json.loads(out)
        for key in ("tool", "version", "command", "seed", "config", "result"):
            assert key in rep

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_simulate_sw_needs_a_trial(self, pmf_file, trials):
        code, out = run_cli(["simulate", "sw", "--pmf", pmf_file, "--n", "8",
                             "--rate", "0.5", "--trials", trials])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "need at least one trial"}

    def test_simulate_crsk_needs_a_positive_blocklength(self, pmf_file):
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--n", "0"])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "blocklength must be at least 1, got 0"}

    def test_simulate_sw_needs_a_positive_blocklength(self, pmf_file):
        code, out = run_cli(["simulate", "sw", "--pmf", pmf_file, "--n", "0", "--rate", "0.5"])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "blocklength must be at least 1, got 0"}

    @pytest.mark.parametrize("argv", [["check", "lemma1"],["simulate", "sw", "--rate", "0.5"],
                                      ["simulate", "crsk"], ["rates"], ["wyner"],
                                      ["example", "bss"]])
    def test_negative_seed_is_a_usage_error(self, pmf_file, argv, capsys):
        if argv[0] in ("simulate", "rates", "wyner"):
            argv = argv + ["--pmf", pmf_file]
        code, out = run_cli(argv + ["--seed", "-1"])
        assert (code, out) == (2, "")
        assert "argument --seed: must be a nonnegative integer, got '-1'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_simulate_crsk_needs_a_finite_slack(self, pmf_file, value, capsys):
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--slack", value])
        assert (code, out) == (2, "")
        assert f"argument --slack: must be a finite number, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_crsk_needs_a_finite_key_rate(self, pmf_file, value, capsys):
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--key-rate", value])
        assert (code, out) == (2, "")
        assert f"argument --key-rate: must be a finite number, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value, rule", [
        ("nan", "must be a finite number, got 'nan'"),
        ("1,inf", "must be a finite number, got 'inf'"),
        ("", "must list at least one number, got ''"),
        (" , ", "must list at least one number, got ' , '"),
        ("0", "must be a positive number, got '0'"),
        ("-1", "must be a positive number, got '-1'"),
    ])
    def test_wyner_needs_a_finite_penalty_schedule(self, pmf_file, value, rule, capsys):
        code, out = run_cli(["wyner", "--pmf", pmf_file, "--penalty", value])
        assert (code, out) == (2, "")
        assert f"argument --penalty: {rule}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sw", "--rate", "0.7"], ["crsk"]], ids=["sw", "crsk"])
    @pytest.mark.parametrize("value", [",", ""])
    def test_simulate_needs_a_blocklength(self, pmf_file, argv, value, capsys):
        code, out = run_cli(["simulate", argv[0], "--pmf", pmf_file, "--n", value] + argv[1:])
        assert (code, out) == (2, "")
        assert f"argument --n: must list at least one integer, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        (["rates"], "--caps", "2,a"),
        (["ici", "--rounds", "2"], "--sizes", "2,x"),
        (["simulate", "crsk"], "--n", "3,a"),
    ], ids=["rates-caps", "ici-sizes", "crsk-n"])
    def test_integer_lists_name_the_rule(self, pmf_file, argv, flag, value, capsys):
        code, out = run_cli(argv + ["--pmf", pmf_file, flag, value])
        assert (code, out) == (2, "")
        assert f"argument {flag}: must list integers, got {value!r}" in capsys.readouterr().err

    def test_simulate_crsk_names_the_slack_that_empties_a_stage(self, pmf_file):
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--slack", "-1"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "stage 1: slack -1.0 would leave its hash -16 output bits; "
                       "it needs at least 0"}
        # a negative slack that leaves the hash no bits still runs
        code, out = run_cli(["simulate", "crsk", "--pmf", pmf_file, "--slack", "-0.2",
                             "--n", "4", "--trials", "5"])
        assert code == 0, out

    def test_simulate_sw_rejects_a_nan_rate(self, pmf_file):
        code, out = run_cli(["simulate", "sw", "--pmf", pmf_file, "--n", "8",
                             "--rate", "nan", "--trials", "5"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "RateOutOfRange",
            "message": "rate must lie in (0, log2 |X|] = (0, 1.0000], got nan"}

    @pytest.mark.parametrize("identity, flag, value, rule", [
        (identity, flag, value, rule)
        for identity in ("lemma1", "decomp", "el5")
        for flag, value, rule in [
            ("--count", "0", "must be a positive integer"),
            ("--count", "-1", "must be a positive integer"),
            ("--n", "0", "must be a positive integer"),
            ("--rounds", "0", "must be a positive integer"),
            ("--alphabet", "1", "must be an integer of at least 2"),
        ]
        if (identity, flag) != ("el5", "--n")  # el5 has no --n
    ])
    def test_check_rejects_values_it_cannot_run(self, identity, flag, value, rule, capsys):
        code, out = run_cli(["check", identity, flag, value])
        assert (code, out) == (2, "")
        assert f"argument {flag}: {rule}, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("identity", ["lemma1", "decomp", "el5"])
    def test_check_echoes_the_smallest_values_it_runs(self, identity):
        n = [] if identity == "el5" else ["--n", "1"]  # a chain draws no blocklength
        code, out = run_cli(["check", identity, "--count", "1"] + n + ["--rounds", "1",
                                                                      "--alphabet", "2"])
        assert code == 0, out
        assert json.loads(out)["config"] == {"identity": identity, "count": 1,
                                             **({"n": 1} if n else {}),
                                             "alphabet": 2, "rounds": 1}

    @pytest.mark.parametrize("argv, flag, value", [
        (["wyner"], "--max-iter", "-1"),
        (["rates"], "--budget", "-5"),
        (["ici", "--rounds", "1"], "--budget", "-1"),
    ])
    def test_negative_counts_are_usage_errors(self, pmf_file, argv, flag, value, capsys):
        code, out = run_cli(argv + ["--pmf", pmf_file, flag, value])
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be a nonnegative integer, got {value!r}" in \
            capsys.readouterr().err

    def test_zero_counts_keep_their_meaning(self, pmf_file):
        code, out = run_cli(["wyner", "--pmf", pmf_file, "--max-iter", "0", "--restarts", "2"])
        assert code == 0, out
        code, out = run_cli(["rates", "--pmf", pmf_file, "--rounds", "1", "--budget", "0"])
        assert code == 0, out
        assert json.loads(out)["config"]["det_budget"] == 0
        code, out = run_cli(["ici", "--pmf", pmf_file, "--rounds", "1", "--mode", "det",
                             "--budget", "0"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "BudgetExceeded"

    @pytest.mark.parametrize("mode", ["all", "det", "cont", "exact1"])
    def test_ici_needs_a_round(self, pmf_file, mode):
        code, out = run_cli(["ici", "--pmf", pmf_file, "--rounds", "0", "--mode", mode])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError",
                                            "message": "rounds must be at least 1"}

    @pytest.mark.parametrize("argv, restarts", [(["wyner", "--max-iter", "50"], "-1"),
                                                (["ici", "--rounds", "2", "--mode", "cont"], "-2")])
    def test_negative_restarts_are_an_error(self, pmf_file, argv, restarts, capsys):
        # a usage error: argparse rejects it before any route runs
        argv = argv[:1] + ["--pmf", pmf_file] + argv[1:]
        code, out = run_cli(argv + ["--restarts", restarts])
        assert (code, out) == (2, "")
        assert f"argument --restarts: must be a nonnegative integer, got {restarts!r}" in \
            capsys.readouterr().err
        # no random starts is still a valid run
        code, out = run_cli(argv + ["--restarts", "0"])
        assert code == 0, out

    def test_threads_env_fallback(self, pmf_file, monkeypatch):
        monkeypatch.setenv("CIT_THREADS", "4")
        code, out = run_cli(["info", "--pmf", pmf_file])
        assert code == 0

    @pytest.mark.parametrize("value", ["-3", "0", "abc", "2.5"])
    def test_threads_rejects_what_is_no_thread_count(self, pmf_file, value, capsys):
        code, out = run_cli(["gk", "--pmf", pmf_file, "--threads", value])
        assert (code, out) == (2, "")
        assert f"--threads: thread count must be a positive integer, got {value!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "0", "abc"])
    def test_threads_env_rejects_what_is_no_thread_count(self, pmf_file, value, monkeypatch,
                                                         capsys):
        monkeypatch.setenv("CIT_THREADS", value)
        code, out = run_cli(["gk", "--pmf", pmf_file])
        assert (code, out) == (2, "")
        assert f"$CIT_THREADS: thread count must be a positive integer, got {value!r}" in \
            capsys.readouterr().err

    def test_threads_flag_overrides_env(self, pmf_file, monkeypatch):
        monkeypatch.setenv("CIT_THREADS", "abc")
        code, _ = run_cli(["gk", "--pmf", pmf_file, "--threads", "1"])
        assert code == 0


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("cit ")]
    assert len(lines) == 13
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_lists_each_commands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        if line.startswith("* `"):
            names, flags = line[2:].split(": ", 1)
            for name in re.findall(r"`([^`]+)`", names):
                path = tuple(word for word in name.split() if "|" not in word)
                listed[path] = set(re.findall(r"`(--[\w-]+)`", flags))
    common = {"-h", "--help", "--pmf", "--output", "--format", "--seed", "--threads"}
    defined = {path: {flag for a in leaf._actions for flag in a.option_strings} - common
               for path, leaf in _leaves(cli._build_parser())}
    assert listed == defined


def _leaves(parser, path=()):
    """(command path, parser) for every parser that takes no sub-command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaves(sub, path + (name,))


# cheap values for every leaf; a flag is read whether or not it is given
LEAF_ARGV = {
    ("info",): ["--pmf", "{pmf}"],
    ("suffstat",): ["--pmf", "{pmf}"],
    ("gk",): ["--pmf", "{pmf}"],
    ("wyner",): ["--pmf", "{pmf}", "--restarts", "0", "--max-iter", "0"],
    ("ici",): ["--pmf", "{pmf}", "--rounds", "1", "--restarts", "0"],
    ("rates",): ["--pmf", "{pmf}", "--rounds", "1"],
    ("check", "lemma1"): ["--count", "1", "--n", "1", "--alphabet", "2", "--rounds", "1"],
    ("check", "decomp"): ["--count", "1", "--n", "1", "--alphabet", "2", "--rounds", "1"],
    ("check", "el5"): ["--count", "1", "--alphabet", "2", "--rounds", "1"],
    ("simulate", "sw"): ["--pmf", "{pmf}", "--rate", "0.5", "--n", "2", "--trials", "1"],
    ("simulate", "crsk"): ["--pmf", "{pmf}", "--n", "2", "--trials", "1", "--key-rate", "0"],
    ("example", "bss"): ["--rounds", "1"],
    ("example", "gain"): ["--rounds", "1"],
}
# read by `_emit` or `run`, not by `_dispatch`
EMIT_ONLY = {"threads", "format", "output"}
SEED_EMIT_ONLY = {("info",), ("suffstat",), ("gk",)}


def test_every_leaf_reads_every_flag_it_defines(pmf_file):
    parser = cli._build_parser()
    assert cli._build_parser() is parser  # built once per process
    leaves = dict(_leaves(parser))
    assert set(leaves) == set(LEAF_ARGV)
    for path, leaf in leaves.items():
        argv = list(path) + [a.format(pmf=pmf_file) for a in LEAF_ARGV[path]]
        reads = set()

        class Logged(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = Logged(**vars(parser.parse_args(argv)))
        with contextlib.redirect_stdout(io.StringIO()):
            cli._dispatch(args)
        defined = {a.dest for a in leaf._actions if not isinstance(a, argparse._HelpAction)}
        unread = defined - reads - EMIT_ONLY - ({"seed"} if path in SEED_EMIT_ONLY else set())
        assert not unread, f"{' '.join(path)} never reads {sorted(unread)}"


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "sw", "--rate", "0.5"], "--chain"),
    (["simulate", "sw", "--rate", "0.5"], "--key-rate"),
    (["simulate", "sw", "--rate", "0.5"], "--slack"),
    (["simulate", "crsk"], "--rate"),
    (["example", "bss"], "--a"),
    (["example", "bss"], "--b"),
    (["example", "bss"], "--c"),
    (["example", "gain"], "--delta"),
    (["check", "el5"], "--n"),
])
def test_a_flag_its_kind_does_not_read_is_a_usage_error(pmf_file, argv, flag, capsys):
    if argv[0] == "simulate":
        argv = argv + ["--pmf", pmf_file]
    code, out = run_cli(argv + [flag, "0.1"])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err


def test_simulate_sw_needs_a_rate(pmf_file, capsys):
    code, out = run_cli(["simulate", "sw", "--pmf", pmf_file, "--n", "8"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --rate" in capsys.readouterr().err
