import ast
import csv
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from drgc import catalog, search, spectral
from drgc.catalog import catalog_list
from drgc.cli import _config, _parser, main
from drgc.errors import DataCorrupt, MalformedGraph6, SearchFailed
from drgc.families import default_grid, theory_values
from drgc.graph import bfs_distances, cut_stats
from drgc.report import (ARRAY_RULES, GRAPH_RULES, _resolve, default_targets,
                         emit, gather_bounds, verify_all, verify_one)
from drgc.search import SearchConfig, cert_key, exact_cheeger
from drgc.spectral import _minors, at_most_lambda1, exact_theta1

FAST = SearchConfig(exact_cap=20, seeds=(0, 1))


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


def _add_manifest_rows(tmp_path, monkeypatch, rows):
    """Point the catalog at a copy of its data whose manifest ends in rows;
    the catalog reads the copy's manifest, and the packaged one again once
    the environment is restored."""
    work = tmp_path / "catalog"
    shutil.copytree(catalog.data_dir(), work)
    with open(work / "manifest.tsv", "a", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)
    monkeypatch.setenv("DRGC_DATA_DIR", str(work))


@pytest.mark.parametrize("array, theta1, graph", [
    ("{3,2;1,1}", "1|0|1", "petersen"),                  # srg-local-cut
    ("{4,3,3;1,1,4}", "0|1|3", "incidence-pg23")],       # bipartite-diam3
    ids=("petersen", "incidence-pg23"))
def test_parameters_only_entry_gets_the_array_bounds(array, theta1, graph,
                                                     tmp_path, monkeypatch):
    # the paper settles these arrays from their parameters alone, so an entry
    # without a graph is settled by the same bounds as the graph with its array
    _add_manifest_rows(tmp_path, monkeypatch,
                       [("graphless", "parameters-only", array, theta1, "OPEN", "-")])
    r, ref = verify_one("graphless", FAST), verify_one(graph, FAST)
    assert r["parameters_only"] and not ref["parameters_only"]
    assert r["status"] == ref["status"] == "OK"
    assert r["bounds"] and r["bounds"] == [{**b, "graph": "graphless"}
                                           for b in ref["bounds"]]
    for key in ("n", "k", "D", "array", "theta1", "lambda1", "window"):
        assert r[key] == ref[key], key
    assert r["certificates"] == []
    assert r["spectrum_crosscheck"] is r["best"] is r["exact_h"] is None


@pytest.mark.parametrize("theta1", ["2|0|1", "1000000000001/1000000000000|0|1"],
                         ids=("float", "exact"))
def test_parameters_only_entry_with_wrong_theta1_is_corrupt(theta1, tmp_path,
                                                            monkeypatch):
    # theta_1 of {3,2;1,1} is 1; the second value passes the float check
    _add_manifest_rows(tmp_path, monkeypatch,
                       [("graphless", "parameters-only", "{3,2;1,1}", theta1, "OPEN", "-")])
    with pytest.raises(DataCorrupt, match="graphless"):
        verify_one("graphless", FAST)
    assert verify_all(FAST, targets=["graphless"])["records"][0]["status"] == "ERROR"


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


def test_golden_report_of_the_exact_targets():
    """verify_all over the 34 default targets with n <= exact_cap writes
    these bytes.  Only these targets are pinned because their reports do
    not depend on the BLAS build or thread count: the exact oracle's
    float32 sums are exact integers, and their witnesses draw no Gaussians
    and take no eigenvectors."""
    cap = SearchConfig().exact_cap
    targets = [e.name for e in catalog_list() if e.array.v <= cap] + \
        [str(spec) for spec in default_grid() if theory_values(spec).v <= cap]
    assert len(targets) == 34
    report = verify_all(targets=targets)
    assert hashlib.sha256(emit(report)).hexdigest() == \
        "114812325fc9f9476f82845ae804fc2740d5d64efe2d734a2781a3f7ee4e22f5"
    assert hashlib.sha256(emit(report, "csv")).hexdigest() == \
        "b98f0536bac6896205b17c6eb18c319fe2a1e319c8a9b839b9a60b98bb68ec36"


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "flag-gh22" in out and "OPEN" in out


def test_cli_spectrum(capsys):
    assert main(["spectrum", "heawood"]) == 0
    out = capsys.readouterr().out
    assert "{3,2,2;1,1,3}" in out and "1.41421356237" in out
    assert main(["spectrum", "gh33-incidence"]) == 0     # parameters-only
    out = capsys.readouterr().out
    assert "{4,3,3,3,3,3;1,1,1,1,1,4}" in out and "thetas: 4 3" in out


@pytest.mark.parametrize("argv", (["list"], ["spectrum", "heawood"],
                                  ["verify", "petersen", "--exact-cap", "12"]),
                         ids=("list", "spectrum", "verify"))
def test_cli_closed_stdout_exits_without_traceback(argv):
    """A reader that closes the pipe before the command writes, as in
    `drgc list | head`: exit 1 with nothing on stderr, whether the output
    is still buffered at the end (the default for a pipe) or each write
    fails at once (PYTHONUNBUFFERED)."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "drgc.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env={**env, **unbuffered},
                                  timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (1, ""), unbuffered


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


def test_cli_family_past_max_vertices(capsys):
    # hamming:5000,10 has 10^5000 vertices, more digits than str(int) allows,
    # so the message names the cap instead of the count
    assert main(["verify", "hamming:5000,10"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: hamming:5000,10 has more than MAX_VERTICES = 20000 "
                   "vertices\n")


def test_cli_mistyped_catalog_name_names_the_target_forms(capsys):
    """A target that is no catalog name and has no ':' is decoded as graph6;
    when that fails the error names all three accepted forms."""
    for command in ("verify", "spectrum"):
        assert main([command, "petersn"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: 'petersn' is not a catalog name (see drgc list), "
                       "a family spec such as johnson:6,3, or a graph6 string "
                       "(expected 196 body chars, got 6)\n")
    with pytest.raises(MalformedGraph6):
        _resolve("petersn")


def test_cli_usage_errors_exit_1(capsys):
    # argparse's own status 2 would read as "violation found"
    assert main(["verify", "--format", "xml", "petersen"]) == 1
    assert main(["verify", "--seeds", "1,,2", "petersen"]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'xml'" in err and "got '1,,2'" in err
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--exact-cap" in out and "--refine-budget" not in out


@pytest.mark.parametrize("seed", ("-1", "4294967296"))
def test_cli_seed_out_of_range_is_a_usage_error(seed, capsys):
    assert main(["verify", "coxeter", "--seeds", f"0,{seed}"]) == 1
    err = capsys.readouterr().err
    assert f"argument --seeds: seed {seed} outside 0..4294967295\n" in err
    assert "Traceback" not in err


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
    error = ("MalformedGraph6: 'C~~' is not a catalog name (see drgc list), a "
             "family spec such as johnson:6,3, or a graph6 string (expected 1 "
             "body chars, got 2)")
    report = verify_all(FAST, targets=targets)
    assert [r["id"] for r in report["records"]] == targets
    assert report["records"][1] == {"id": "C~~", "status": "ERROR", "error": error}
    assert report["records"][0] == verify_one("cube", FAST)
    assert report["records"][2] == verify_one("petersen", FAST)
    assert report["counts"] == {"OK": 2, "OPEN": 0, "VIOLATION": 0, "ERROR": 1}
    assert "ERROR" not in verify_all(FAST, targets=["cube"])["counts"]
    rows = list(csv.reader(emit(report, "csv").decode().splitlines()[1:]))
    assert ["C~~", "", "", "", "error", error] + [""] * 7 + ["ERROR"] in rows
    assert all(len(row) == len(rows[0]) for row in rows)
    # the command verifies every target and then exits 1
    monkeypatch.setattr("drgc.report.default_targets", lambda: targets)
    out = tmp_path / "r.json"
    code = main(["verify-all", "--exact-cap", "20", "--seeds", "0,1",
                 "-o", str(out)])
    assert code == 1
    assert json.loads(out.read_text()) == json.loads(emit(report, "json"))
    assert "ERROR=1" in capsys.readouterr().err


def test_exact_oracle_disagreement_becomes_error_record(monkeypatch):
    # the recount of the exact oracle's cut is an explicit check, not an
    # assert: under python -O it still runs, and it fails one target only
    exact = search.exact_cheeger

    def wrong_for_petersen(g, cap):
        h, S = exact(g, cap)
        return (h + 1 if g.n == 10 else h), S

    monkeypatch.setattr(search, "exact_cheeger", wrong_for_petersen)
    report = verify_all(FAST, targets=["petersen", "cube"])
    assert report["records"][0] == {
        "id": "petersen", "status": "ERROR",
        "error": "SelfCheckFailed: exact_cheeger gave h = 4/3, but its cut "
                 "recounts to 1/3"}
    monkeypatch.setattr(search, "exact_cheeger", exact)
    assert report["records"][1] == verify_one("cube", FAST)
    assert report["counts"] == {"OK": 1, "OPEN": 0, "VIOLATION": 0, "ERROR": 1}


@pytest.mark.parametrize("target, witness", [
    ("cube", "descendant"), ("heawood", "girth_cycle_cut"),
    ("flag-pg22", "triangle_chain_cut"), ("flag-gq22", "triangle_octagon_cut")])
def test_raising_witness_becomes_error_record(target, witness, monkeypatch):
    # gather_bounds runs each witness only where it applies, so a witness
    # that raises there fails its target instead of dropping its certificate
    def fail(*args):
        raise SearchFailed(f"{witness} found no cut")

    monkeypatch.setattr(f"drgc.report.{witness}", fail)
    assert verify_all(FAST, targets=[target])["records"] == [
        {"id": target, "status": "ERROR",
         "error": f"SearchFailed: {witness} found no cut"}]


def test_every_witness_rule_applies_somewhere():
    """Each rule of the witness table applies to a default target or, for the
    doubled-Grassmann rule, which no default target reaches, to the family
    spec doubledgrassmann:2,1 (the Heawood graph), which it settles."""
    extra = "doubledgrassmann:2,1"
    graph_hits, array_hits = [0] * len(GRAPH_RULES), [0] * len(ARRAY_RULES)
    for target in default_targets() + [extra]:
        _, g, spec, ia = _resolve(target)
        t1 = exact_theta1(ia)
        for i, (applies, _) in enumerate(ARRAY_RULES):
            array_hits[i] += applies(ia, spec)
        if g is not None:
            for i, (applies, _) in enumerate(GRAPH_RULES):
                graph_hits[i] += applies(g, ia, t1, spec)
    # each build's first global is the witness builder it names
    idle = [build.__code__.co_names[0]
            for rules, hits in ((GRAPH_RULES, graph_hits), (ARRAY_RULES, array_hits))
            for (_, build), n in zip(rules, hits) if not n]
    assert idle == []
    bounds = verify_one(extra, FAST)["bounds"]
    assert [b["verdict"] for b in bounds if b["method"] == "doubled-grassmann"] == ["ok"]


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so every self-check is a raise
    src = pathlib.Path(search.__file__).parent
    found = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# -- the Cheeger floor h >= lambda_1/2 and the search skip that rests on it ----

def _resolved(target):
    _, g, spec, ia = _resolve(target)
    certs, _ = gather_bounds(g, ia, exact_theta1(ia), spec)
    return g, ia, certs


def _count_searches(monkeypatch):
    """Route report's best_upper_bound through a wrapper that records the n
    of each graph searched."""
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g.n)
        return search.best_upper_bound(g, *args, **kwargs)

    monkeypatch.setattr("drgc.report.best_upper_bound", counted)
    return calls


def lambda1_at_most(ia, r) -> bool:
    """lambda_1 <= r, decided exactly from the Sturm minors of xI - L at
    x = k(1 - r): theta_1 >= x iff two eigenvalues lie strictly above x, or
    x is itself an eigenvalue with one (theta_0 = k) above it."""
    minors = _minors(ia, ia.k * (1 - Fraction(r)))
    signs = [m > 0 for m in minors if m]
    above = sum(s != t for s, t in zip(signs, signs[1:]))
    return above >= 2 or above == 1 and minors[-1] == 0


def _small_targets():
    cap = SearchConfig().exact_cap
    return [e.name for e in catalog_list() if e.array.v <= cap] + \
        [str(s) for s in default_grid() if theory_values(s).v <= cap]


# the exact-small targets with a witness of ratio lambda_1/2
FLOOR_SMALL = {"cube", "4-cube", "johnson:4,2", "johnson:6,3", "hamming:2,2",
               "hamming:3,2", "hamming:4,2", "halvedcube:4", "halvedcube:5",
               "foldedcube:4", "foldedcube:5"}


@pytest.mark.parametrize("target", _small_targets())
def test_exact_h_meets_cheeger_floor(target):
    g, ia, certs = _resolved(target)
    h, _ = exact_cheeger(g)
    assert lambda1_at_most(ia, 2 * h)
    # the skip's test: 2 ratio <= lambda_1 holds only for a cut of ratio h
    floor = [c for c in certs if at_most_lambda1(ia, 2 * c.ratio)]
    assert all(c.ratio == h for c in floor)
    assert bool(floor) == (target in FLOOR_SMALL)


def test_floor_targets_cover_every_small_target_named():
    assert FLOOR_SMALL <= set(_small_targets())


SKIPPED = ["johnson:8,4", "halvedcube:6", "halvedcube:7", "halvedcube:8",
           "foldedcube:6", "foldedcube:7", "foldedcube:8"]


@pytest.mark.parametrize("target", SKIPPED)
def test_floor_skip_returns_the_full_search_best(target, monkeypatch):
    searched = _count_searches(monkeypatch)
    r = verify_one(target)
    assert searched == []
    g, ia, certs = _resolved(target)
    full = min([*certs, search.best_upper_bound(g, SearchConfig())], key=cert_key)
    best = r["best"]
    assert (best["method"], tuple(best["S"]),
            Fraction(best["ratio"]["num"], best["ratio"]["den"])) == \
        (full.method, full.S, full.ratio)
    assert best["verdict"] == "ok" and r["status"] == "OK"


@pytest.mark.parametrize("target", ["johnson:8,3", "doubled-odd-4"])
def test_floor_skip_keeps_searching_above_the_floor(target, monkeypatch):
    """A witness that settles the graph but lies above lambda_1/2 leaves room
    for the search, which beats it here."""
    g, ia, certs = _resolved(target)
    assert any(at_most_lambda1(ia, c.ratio) for c in certs)
    assert not any(at_most_lambda1(ia, 2 * c.ratio) for c in certs)
    searched = _count_searches(monkeypatch)
    r = verify_one(target, FAST)
    assert searched == [g.n]
    best = r["best"]["ratio"]
    assert best["approx"] < min(c.ratio for c in certs)


def test_floor_skip_needs_a_method_before_refine(monkeypatch):
    """A floor witness named after "refine" could lose a tie to a refinement
    certificate, so the search still runs."""
    def renamed(*args):
        certs, bounds = gather_bounds(*args)
        return [replace(c, method="zz-" + c.method) for c in certs], bounds

    monkeypatch.setattr("drgc.report.gather_bounds", renamed)
    searched = _count_searches(monkeypatch)
    r = verify_one("halvedcube:6", FAST)
    assert searched == [32]
    assert r["best"]["method"] == "refine"
    assert r["best"]["ratio"]["num"] * 3 == r["best"]["ratio"]["den"]


def test_floor_skip_leaves_the_exact_oracle_below_the_cap(monkeypatch):
    calls = []
    exact = search.exact_cheeger
    monkeypatch.setattr(search, "exact_cheeger",
                        lambda *args: calls.append(1) or exact(*args))
    r = verify_one("cube")              # a witness meets lambda_1/2 = 1/3
    assert calls == [1]
    assert r["exact_h"] == {"num": 1, "den": 3}


def test_floor_skip_on_foldedcube_12_runs_no_search(monkeypatch):
    expect = verify_one("foldedcube:12")

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "eigensystem", refuse)
    monkeypatch.setattr(search, "local_refine", refuse)
    r = verify_one("foldedcube:12")
    assert r == expect
    assert r["n"] == 2048 and r["spectrum_crosscheck"] is True
    assert (r["best"]["method"], r["best"]["ratio"]["num"],
            r["best"]["ratio"]["den"]) == ("bipartite-half", 1, 6)
    assert r["lambda1"]["u"] == "1/3" and r["lambda1"]["w"] == "0"


# -- eigenvectors only up to search.EIGENVECTOR_CAP ----------------------------

def _refuse_eigenvectors(monkeypatch):
    """Make every eigenvector computation raise, and record the graphs that
    report._resolve hands to the pipeline."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvectors were computed")

    monkeypatch.setattr(search, "eigensystem", refuse)
    monkeypatch.setattr("numpy.linalg.eigh", refuse)
    graphs = []

    def resolved(target):
        found = _resolve(target)
        graphs.append(found[1])
        return found

    monkeypatch.setattr("drgc.report._resolve", resolved)
    return graphs


def test_no_eigenvectors_above_the_cap(monkeypatch):
    expect = {t: verify_one(t) for t in ("hamming:3,7", "odd:6")}
    graphs = _refuse_eigenvectors(monkeypatch)
    for target, record in expect.items():
        r = verify_one(target)
        assert r == record
        assert r["n"] > search.EIGENVECTOR_CAP
        assert r["status"] == "OK" and r["spectrum_crosscheck"] is True
        assert r["best"]["method"] == "refine"
    assert [g.n for g in graphs] == [343, 462]


def test_crosscheck_solves_no_graph_sized_matrix(monkeypatch):
    """Above EIGENVECTOR_CAP the only eigensolve of verify_one is
    drg_spectrum's, on the (D + 1) x (D + 1) intersection matrix: the
    cross-check counts eigenvalues exactly, without dense_spectrum."""
    monkeypatch.setattr(search, "EIGENVECTOR_CAP", 34)
    graphs = _refuse_eigenvectors(monkeypatch)
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("dense_spectrum called")

    monkeypatch.setattr("numpy.linalg.eigvalsh", recorded)
    monkeypatch.setattr("drgc.report.dense_spectrum", refuse)
    monkeypatch.setattr(spectral, "dense_spectrum", refuse)
    r = verify_one("odd:4", FAST)                # n = 35, D = 3
    assert r["spectrum_crosscheck"] is True and r["status"] == "OK"
    assert graphs[0].n == 35 and sizes and set(sizes) == {4}


def test_eigenvector_cap_is_read_at_call_time(monkeypatch):
    """A target above a patched cap takes the distance path: no eigenvector,
    and the sweep follows vertex 0's spherical vector, whose order is the
    balls around vertex 0, ties by vertex."""
    monkeypatch.setattr(search, "EIGENVECTOR_CAP", 34)
    graphs = _refuse_eigenvectors(monkeypatch)
    r = verify_one("odd:4")                     # n = 35
    g = graphs[0]
    assert r["status"] == "OK" and r["spectrum_crosscheck"] is True
    dist = bfs_distances(g, 0)
    order = sorted(range(g.n), key=lambda v: (dist[v], v))
    total = 2 * g.num_edges

    def ratio(S):
        st = cut_stats(g, S)
        return Fraction(st.boundary, min(st.vol, total - st.vol))

    prefixes = [frozenset(order[:j]) for j in range(1, g.n)]
    assert frozenset(search.sweep_cut(g).S) == min(prefixes, key=ratio)


# -- valency 2 is outside the conjecture's scope --------------------------------

def _polygon(n):
    from drgc.graph import Graph, g6_encode
    return g6_encode(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))


def test_polygons_past_c8_are_out_of_scope(tmp_path):
    c7, c8, c9, c10 = (_polygon(n) for n in (7, 8, 9, 10))
    for g6, h in ((c7, (1, 3)), (c8, (1, 4)), (c9, (1, 4)), (c10, (1, 5))):
        r = verify_one(g6, FAST)
        assert r["exact_h"] == {"num": h[0], "den": h[1]}
        assert r["status"] == ("OK" if g6 in (c7, c8) else "OUT_OF_SCOPE")
        assert main(["verify", g6, "-o", str(tmp_path / "r.json")]) == 0
    report = verify_all(FAST, targets=[c7, c9, c10])
    assert report["counts"] == {"OK": 1, "OPEN": 0, "VIOLATION": 0,
                                "OUT_OF_SCOPE": 2}
    assert "OUT_OF_SCOPE" not in verify_all(FAST, targets=[c7, c8])["counts"]
