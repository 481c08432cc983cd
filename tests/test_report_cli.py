import csv
import json
import math

import pytest

from drgc.cli import _config, _parser, main
from drgc.report import default_targets, emit, verify_all, verify_one
from drgc.search import SearchConfig

FAST = SearchConfig(exact_cap=20, seeds=(0, 1), refine_budget=2000)


def test_verify_one_cube():
    r = verify_one("cube", FAST)
    assert r["status"] == "OK"
    assert r["exact_h"] == {"num": 1, "den": 3}
    assert r["spectrum_crosscheck"] is True
    assert r["array"] == "{3,2,1;1,2,3}"
    methods = {c["method"] for c in r["certificates"]}
    assert "descendant" in methods and "girth-cycle" in methods


def test_verify_one_family_target():
    r = verify_one("johnson:6,3", FAST)
    assert r["status"] == "OK"
    assert any(c["method"] == "descendant" and c["verdict"] == "ok"
               for c in r["certificates"])


def test_verify_one_g6_target():
    from drgc.catalog import catalog_load
    from drgc.graph import g6_encode
    g, _ = catalog_load("petersen")
    r = verify_one(g6_encode(g), FAST)
    assert r["status"] == "OK" and r["k"] == 3 and r["n"] == 10


def test_verify_one_cubic_theta1_g6():
    # C7 has a cubic theta_1, so lambda_1 is only known as a float; the
    # verdicts still come from the exact eigenvalue count
    from drgc.graph import Graph, g6_encode
    c7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    r = verify_one(g6_encode(c7), FAST)
    assert r["theta1"].keys() == {"approx"}
    assert r["status"] == "OK" and r["exact_h"] == {"num": 1, "den": 3}
    assert r["best"]["verdict"] == "ok"


def test_verify_one_parameters_only():
    r = verify_one("gh33-incidence", FAST)
    assert r["parameters_only"] is True
    assert r["status"] == "OPEN"
    assert r["lambda1"]["approx"] == pytest.approx(0.25)
    assert r["theta1"]["u"] == "3"


def test_heawood_lambda1_serialization():
    r = verify_one("heawood", FAST)
    lam = r["lambda1"]
    assert lam["u"] == "1" and lam["w"] == "-1/3" and lam["s"] == 2
    assert abs(lam["approx"] - (3 - math.sqrt(2)) / 3) < 1e-12


def test_emit_json_roundtrip_and_csv_rows():
    cfg = FAST
    report = verify_all(cfg, targets=["cube", "petersen", "gh33-incidence"])
    data = emit(report, "json")
    parsed = json.loads(data)
    assert parsed["schema"] == 1
    assert parsed["counts"]["OK"] == 2 and parsed["counts"]["OPEN"] == 1
    csv_data = emit(report, "csv").decode().splitlines()
    assert csv_data[0] == "# schema: 1"
    expected_rows = sum(len(r["certificates"]) + len(r["bounds"])
                        for r in parsed["records"])
    assert len(csv_data) == expected_rows + 2      # schema comment + header


def test_default_targets_cover_catalog_and_grid():
    targets = default_targets()
    assert "cube" in targets and "gh33-incidence" in targets
    assert "johnson:6,3" in targets and "dualpolarc:3,3" in targets
    assert len(targets) == len(set(targets))


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "flag-gh22" in out and "OPEN" in out


def test_cli_spectrum(capsys):
    assert main(["spectrum", "heawood"]) == 0
    out = capsys.readouterr().out
    assert "{3,2,2;1,1,3}" in out and "1.41421356237" in out


def test_cli_verify_json(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "petersen", "--exact-cap", "12", "--seeds", "0",
                 "-o", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())["records"][0]
    assert rec["status"] == "OK"


def test_cli_bad_target(capsys):
    assert main(["verify", "johnson:3,2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_usage_errors_exit_1(capsys):
    # argparse's own status 2 would read as "violation found"
    assert main(["verify", "--format", "xml", "petersen"]) == 1
    assert main(["verify", "--seeds", "1,,2", "petersen"]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'xml'" in err and "got '1,,2'" in err
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    assert "--refine-budget" in capsys.readouterr().out


def test_cli_defaults_are_search_config():
    for command in (["verify", "petersen"], ["verify-all"]):
        assert _config(_parser().parse_args(command)) == SearchConfig()
    args = _parser().parse_args(["verify-all", "--seeds", "3,1"])
    assert _config(args) == SearchConfig(seeds=(3, 1))


def test_non_integer_family_parameter_is_an_error_record(capsys):
    assert main(["verify", "johnson:6,"]) == 1
    assert "non-integer parameter" in capsys.readouterr().err
    report = verify_all(FAST, targets=["petersen", "johnson:6,x"])
    assert report["records"][0] == verify_one("petersen", FAST)
    assert report["records"][1] == {
        "id": "johnson:6,x", "status": "ERROR",
        "error": "ParamDomain: family spec 'johnson:6,x' has a non-integer "
                 "parameter"}
    assert report["counts"] == {"OK": 1, "OPEN": 0, "VIOLATION": 0, "ERROR": 1}


def test_verify_all_bad_target_becomes_error_record(monkeypatch, tmp_path, capsys):
    # "C~~" is graph6 for n = 4 with one body character too many
    targets = ["cube", "C~~", "petersen"]
    report = verify_all(FAST, targets=targets)
    assert [r["id"] for r in report["records"]] == targets
    assert report["records"][1] == {
        "id": "C~~", "status": "ERROR",
        "error": "MalformedGraph6: expected 1 body chars, got 2"}
    assert report["records"][0] == verify_one("cube", FAST)
    assert report["records"][2] == verify_one("petersen", FAST)
    assert report["counts"] == {"OK": 2, "OPEN": 0, "VIOLATION": 0, "ERROR": 1}
    assert "ERROR" not in verify_all(FAST, targets=["cube"])["counts"]
    rows = list(csv.reader(emit(report, "csv").decode().splitlines()[1:]))
    assert ["C~~", "", "", "", "error",
            "MalformedGraph6: expected 1 body chars, got 2"] + [""] * 7 + \
        ["ERROR"] in rows
    assert all(len(row) == len(rows[0]) for row in rows)
    # the command verifies every target and then exits 1
    monkeypatch.setattr("drgc.report.default_targets", lambda: targets)
    out = tmp_path / "r.json"
    code = main(["verify-all", "--exact-cap", "20", "--seeds", "0,1",
                 "--refine-budget", "2000", "-o", str(out)])
    assert code == 1
    assert json.loads(out.read_text()) == json.loads(emit(report, "json"))
    assert "ERROR=1" in capsys.readouterr().err
