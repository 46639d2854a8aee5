"""Command-line interface: subcommands, exit codes, JSON payloads."""

import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import sympair
from sympair import cli, verify

SPEC_15_11 = {"p": 5, "m": 1, "n": 15, "lambda": 1, "generator": [1, 4, 0, 4, 1]}
SPEC_24_3 = {"p": 5, "m": 1, "n": 24,
             "defining_set": sorted(set(range(24)) - {0, 19, 23})}


def _write_spec(tmp_path, spec, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def _run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_analyze_human_output(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    rc, out = _run(capsys, ["analyze", spec])
    assert rc == cli.EXIT_OK == 0
    assert "[15,11]" in out or "d_hamming" in out
    assert "3" in out and "6" in out


def test_analyze_json_output(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    rc, out = _run(capsys, ["analyze", spec, "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["d_hamming"]["value"] == 3
    assert payload["d_pair"]["value"] == 6
    assert payload["mds_pair"] is True
    assert payload["bounds"]["singleton_pair_max_dp"] == 6


def test_analyze_writes_report_file(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    out_path = tmp_path / "report.json"
    rc, _ = _run(capsys, ["analyze", spec, "--out", str(out_path)])
    assert rc == 0
    saved = json.loads(out_path.read_text())
    assert saved["d_pair"]["value"] == 6


def test_analyze_missing_file_is_input_error(tmp_path, capsys):
    rc, _ = _run(capsys, ["analyze", str(tmp_path / "absent.json")])
    assert rc == cli.EXIT_INPUT == 2


def test_analyze_malformed_spec_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = _run(capsys, ["analyze", str(bad)])
    assert rc == 2
    bad.write_text(json.dumps(dict(SPEC_15_11, surprise=1)))
    rc, _ = _run(capsys, ["analyze", str(bad)])
    assert rc == 2


def test_analyze_non_utf8_spec_is_input_error(tmp_path, capsys):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    rc = cli.main(["analyze", str(bad)])
    assert rc == cli.EXIT_INPUT == 2
    assert str(bad) in capsys.readouterr().err


def test_deeply_nested_spec_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)  # json.loads raises RecursionError, not JSONDecodeError
    rc = cli.main(["analyze", str(deep)])
    assert rc == cli.EXIT_INPUT == 2
    assert "is not valid UTF-8 JSON" in capsys.readouterr().err


def test_analyze_budget_emits_partial_and_exit_3(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    rc, out = _run(capsys, ["analyze", spec, "--json", "--budget", "50"])
    assert rc == cli.EXIT_BUDGET == 3
    payload = json.loads(out)
    assert payload["budget_exhausted"] == "d_pair"
    assert payload["d_hamming"]["value"] == 3
    assert payload["d_pair"]["is_lower_bound"] is True


def test_analyze_budget_message_names_the_budget_given(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    rc, out = _run(capsys, ["analyze", spec, "--budget", "50"])
    assert rc == cli.EXIT_BUDGET == 3
    assert "(21 used, budget 50)" in out


def test_analyze_negative_budget_is_input_error(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    rc = cli.main(["analyze", spec, "--budget", "-5"])
    assert rc == cli.EXIT_INPUT == 2
    assert "budget must be an integer >= 0" in capsys.readouterr().err


def test_analyze_strategy_flag(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_24_3)
    rc, out = _run(capsys, ["analyze", spec, "--json", "--strategy", "exhaustive"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["d_hamming"]["method"] == "exhaustive"
    assert payload["d_hamming"]["value"] == 19
    assert payload["d_pair"]["value"] == 23


def test_dependency_strategy_flag(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC_15_11)
    for argv in (["analyze", spec], ["construct", "mds_3p_6", "--p", "5"]):
        rc, out = _run(capsys, argv + ["--json", "--strategy", "dependency"])
        assert rc == 0
        payload = json.loads(out)
        payload = payload.get("report", payload)
        assert payload["d_hamming"]["method"] == "dependency"
        assert payload["d_pair"]["method"] == "dependency"
        assert (payload["d_hamming"]["value"], payload["d_pair"]["value"]) == (3, 6)
    # an unknown strategy is a usage error; the product formula is a method
    # that "auto" picks, not a strategy
    for strategy in ("parity", "castagnoli"):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["analyze", spec, "--strategy", strategy])
        assert exc_info.value.code == cli.EXIT_INPUT == 2


def test_construct_round_trip_matches_analyze(tmp_path, capsys):
    out_spec = tmp_path / "family.json"
    rc, out = _run(capsys, ["construct", "mds_3p_6", "--p", "5", "--json",
                            "--out", str(out_spec)])
    assert rc == 0
    construct_payload = json.loads(out)
    assert construct_payload["family"]["family"] == "MDS_3P_6"
    assert construct_payload["code_spec"] == SPEC_15_11
    assert json.loads(out_spec.read_text()) == SPEC_15_11

    rc2, out2 = _run(capsys, ["analyze", str(out_spec), "--json"])
    assert rc2 == 0
    analyzed = json.loads(out2)
    fresh = dict(analyzed)
    baked = dict(construct_payload["report"])
    fresh.pop("perf", None)
    baked.pop("perf", None)
    assert json.dumps(fresh) == json.dumps(baked)


def test_construct_certifies_both_distances(capsys):
    rc, out = _run(capsys, ["construct", "mds_n_6", "--q", "3", "--n", "8", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["report"]["d_hamming"]["value"] == 4
    assert payload["report"]["d_pair"]["value"] == 6
    assert payload["report"]["mds_pair"] is True


def test_construct_parameter_validation(capsys):
    rc, _ = _run(capsys, ["construct", "mds_3p_7", "--p", "4"])
    assert rc == 2
    rc, _ = _run(capsys, ["construct", "mds_n_6", "--q", "3"])  # missing --n
    assert rc == 2
    rc, _ = _run(capsys, ["construct", "mds_3p_7", "--p", "5", "--q", "3"])
    assert rc == 2
    with pytest.raises(SystemExit):
        cli.main(["construct", "no_such_family", "--p", "5"])


def test_verify_single_check(capsys):
    rc, out = _run(capsys, ["verify", "--only", "code-24-3-19-gf5"])
    assert rc == 0
    assert "PASS code-24-3-19-gf5" in out
    assert "1/1 checks passed" in out


def test_verify_json_output(capsys):
    rc, out = _run(capsys, ["verify", "--only", "pair-metric-identities", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["name"] == "pair-metric-identities"
    assert payload[0]["passed"] is True
    assert "tier" not in payload[0]


def test_verify_runs_every_check_in_order(capsys):
    rc, out = _run(capsys, ["verify", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert [r["name"] for r in payload] == list(verify.EXPECTED)
    assert len(payload) == 17
    assert all(r["passed"] and "tier" not in r for r in payload)


def test_verify_unknown_check_is_input_error(capsys):
    rc, _ = _run(capsys, ["verify", "--only", "no-such-check"])
    assert rc == 2


def test_run_checks_rejects_a_bare_string():
    with pytest.raises(sympair.errors.BadParameterError, match="list of check names"):
        verify.run_checks(only="code-24-3-19-gf5")


def test_verify_detects_tampered_expectations(capsys, monkeypatch):
    frozen = dict(verify.EXPECTED["code-24-3-19-gf5"])
    frozen["d_hamming"] = 18
    monkeypatch.setitem(verify.EXPECTED, "code-24-3-19-gf5", frozen)
    rc, out = _run(capsys, ["verify", "--only", "code-24-3-19-gf5"])
    assert rc == cli.EXIT_FAILURE == 1
    assert "FAIL code-24-3-19-gf5" in out
    assert "d_hamming" in out
    assert "18" in out and "19" in out


def test_search_json_sorted_and_deterministic(capsys):
    rc, out = _run(capsys, ["search", "--q", "3", "--n", "4", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["q"] == 3 and payload["n"] == 4
    assert payload["truncated"] is False
    entries = payload["entries"]
    assert len(entries) == 6
    ranks = [(-e["d_pair"], -e["k"]) for e in entries]
    assert ranks == sorted(ranks)
    assert entries[0]["d_pair"] == 4
    assert any(e["is_mds_pair"] for e in entries)

    rc2, out2 = _run(capsys, ["search", "--q", "3", "--n", "4", "--json"])
    assert out2 == out


def test_search_human_table(capsys):
    rc, out = _run(capsys, ["search", "--q", "2", "--n", "7"])
    assert rc == 0
    assert "[7,4]" in out or "7" in out
    assert "MDS" in out


def test_search_names_a_bad_length(capsys):
    rc = cli.main(["search", "--q", "4", "--n", "0"])
    assert rc == cli.EXIT_INPUT == 2
    assert "length must be an integer >= 1, got 0" in capsys.readouterr().err


def test_search_budget_truncates_with_exit_3(capsys):
    rc, out = _run(capsys, ["search", "--q", "3", "--n", "8", "--json",
                            "--budget", "500"])
    assert rc == 3
    payload = json.loads(out)
    assert payload["truncated"] is True
    assert 0 < len(payload["entries"]) < 30


@pytest.mark.parametrize("command", [
    ["analyze", "SPEC"], ["construct", "mds_3p_6", "--p", "5"], ["verify"],
    ["search", "--q", "3", "--n", "8"]])
def test_jobs_option_is_gone(tmp_path, command):
    argv = [_write_spec(tmp_path, SPEC_15_11) if a == "SPEC" else a for a in command]
    for option in (["--jobs", "2"], ["--seed", "0"], ["--tier", "full"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv + option)
        assert exc_info.value.code == 2


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--help"])
    assert exc_info.value.code == 0


def test_boolean_defining_set_exponent_is_input_error(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"p": 2, "m": 1, "n": 3, "defining_set": [True]})
    rc = cli.main(["analyze", spec])
    assert rc == cli.EXIT_INPUT == 2
    assert "exponent True" in capsys.readouterr().err


HUGE_PRIME = 10**30 + 57  # a 31-digit prime, far above gf.Q_LIMIT


def _limit_memory():  # a regression should fail the test, not fill the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["construct", "mds_3p_6", "--p", str(HUGE_PRIME)],
    ["construct", "mds_n_6", "--q", str(HUGE_PRIME), "--n", "8"],
    ["search", "--q", str(HUGE_PRIME), "--n", "8"],
    ["analyze", {"p": HUGE_PRIME, "m": 1, "n": 4, "lambda": 1, "generator": [1]}],
    ["analyze", {"p": 2, "m": 10**12, "n": 4, "lambda": 1, "generator": [1]}],
    # huge lengths: x^n - lambda and the cyclotomic cosets would take O(n) memory
    ["construct", "mds_n_6", "--q", "65536", "--n", str(2**32 - 1)],
    ["search", "--q", "2", "--n", str(10**12)],
    ["analyze", {"p": 2, "m": 1, "n": 10**12, "lambda": 1, "generator": [1, 1]}],
    # valid codes whose parity-check matrix (deg g * n cells) is far above the cap:
    # the binary [65536, 1] repetition code and the binary zero code of length 8192
    ["analyze", {"p": 2, "m": 1, "n": 65536, "lambda": 1, "generator": [1] * 65536}],
    ["analyze", {"p": 2, "m": 1, "n": 8192, "lambda": 1, "generator": [1] + [0] * 8191 + [1]}],
], ids=["construct-3p6-p", "construct-n6-q", "search-q", "analyze-p", "analyze-m",
        "construct-n6-n", "search-n", "analyze-n", "analyze-H-k1", "analyze-H-zero"])
def test_huge_field_order_exits_2_quickly(tmp_path, argv):
    argv = [_write_spec(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    src = str(pathlib.Path(sympair.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sympair.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=10,
                          preexec_fn=_limit_memory)
    assert proc.returncode == cli.EXIT_INPUT, proc.stderr
    assert "exceeds the supported limit" in proc.stderr
