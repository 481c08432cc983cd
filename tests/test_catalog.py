import importlib.util
import pathlib
import shutil
from itertools import combinations

import numpy as np
import pytest

import drgc.graph
from drgc import catalog as cat
from drgc import families
from drgc.algebra import enumerate_subspaces, field
from drgc.catalog import catalog_entry, catalog_list, catalog_load
from drgc.errors import DataCorrupt, UnknownName
from drgc.graph import (Graph, _block_rows, edge_arrays, g6_encode,
                        intersection_array, line_graph)
from reference_algebra import form_eval, subspace_elements
from reference_graphs import (ag2_minus_parallel_class, bipartite_double,
                              dense_bipartite_graph, k55_minus_matching,
                              shrikhande)


# -- reference builders: the earlier pair-loop incidence constructions, kept as
# oracles for the catalog entries now built by the family code

def petersen():
    keys = list(combinations(range(5), 2))
    idx = {k: i for i, k in enumerate(keys)}
    edges = [(idx[a], idx[b]) for a, b in combinations(keys, 2)
             if not set(a) & set(b)]
    return Graph.from_edges(10, edges)


def _pg2_points_lines(q):
    F = field(q)
    points = enumerate_subspaces(3, 1, F)
    lines = enumerate_subspaces(3, 2, F)
    line_sets = [subspace_elements(F, L) for L in lines]
    return points, lines, line_sets


def pg2_incidence(q):
    points, lines, line_sets = _pg2_points_lines(q)
    np_ = len(points)
    edges = []
    for i, P in enumerate(points):
        vec = P[0]
        for j, ls in enumerate(line_sets):
            if vec in ls:
                edges.append((i, np_ + j))
    return Graph.from_edges(np_ + len(lines), edges)


def pg2_nonincidence(q=2):
    points, lines, line_sets = _pg2_points_lines(q)
    np_ = len(points)
    edges = []
    for i, P in enumerate(points):
        vec = P[0]
        for j, ls in enumerate(line_sets):
            if vec not in ls:
                edges.append((i, np_ + j))
    return Graph.from_edges(np_ + len(lines), edges)


def symplectic_gq_incidence(q):
    F = field(q)
    points = enumerate_subspaces(4, 1, F)
    lines = [L for L in enumerate_subspaces(4, 2, F)
             if all(form_eval("symplectic", F, u, v) == 0 for u in L for v in L)]
    line_sets = [subspace_elements(F, L) for L in lines]
    np_ = len(points)
    edges = []
    for i, P in enumerate(points):
        vec = P[0]
        for j, ls in enumerate(line_sets):
            if vec in ls:
                edges.append((i, np_ + j))
    return Graph.from_edges(np_ + len(lines), edges)


REFERENCE_BUILDS = {
    "petersen": petersen,
    "heawood": lambda: pg2_incidence(2),
    "incidence-pg23": lambda: pg2_incidence(3),
    "nonincidence-pg22": pg2_nonincidence,
    "tutte-coxeter": lambda: symplectic_gq_incidence(2),
    "incidence-gq33": lambda: symplectic_gq_incidence(3),
    "shrikhande": shrikhande,
    "k55-minus-matching": k55_minus_matching,
    "incidence-ag24": lambda: ag2_minus_parallel_class(4),
    "pappus": lambda: ag2_minus_parallel_class(3),
}


@pytest.mark.parametrize("name", REFERENCE_BUILDS)
def test_builder_entries_match_reference(name):
    assert catalog_load(name)[0].adj == REFERENCE_BUILDS[name]().adj


def test_double_entry_matches_reference():
    """desargues, the catalog's double: rule on petersen, against the
    row-loop bipartite double."""
    pet, _ = catalog_load("petersen")
    assert catalog_load("desargues")[0].adj == bipartite_double(pet).adj


def test_bipartite_builders_in_row_blocks_match_dense_build(monkeypatch):
    """Every bipartite_graph call of the catalog's builders and its double:
    rule, with BLOCK_CELLS patched so that every biadjacency block spans
    several row blocks, against the whole n x n adjacency."""
    monkeypatch.setattr(drgc.graph, "BLOCK_CELLS", 12)
    checked = []

    def bipartite_graph(block):
        g = families.bipartite_graph(block)
        assert -(-block.shape[0] // _block_rows(block.shape[1])) >= 2
        for got, want in zip(edge_arrays(g),
                             edge_arrays(dense_bipartite_graph(block))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        checked.append(g.n)
        return g

    monkeypatch.setattr(cat, "bipartite_graph", bipartite_graph)
    for build in cat._BUILDERS.values():
        build()
    cat._build(catalog_entry("desargues"))
    assert sorted(checked) == [10, 14, 18, 20, 30, 32, 80]


# -- the data script: its generators rebuild every embedded graph6 file ---------

def _load_data_script():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "gen_catalog_data", root / "scripts" / "gen_catalog_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DATA_SCRIPT = _load_data_script()


def test_data_script_covers_exactly_the_embedded_files():
    embedded = sorted(e.graphref[len("g6:"):] for e in catalog_list()
                      if e.graphref.startswith("g6:"))
    assert embedded == sorted(p.name for p in cat.data_dir().glob("*.g6"))
    assert embedded == sorted(f"{name}.g6" for name in DATA_SCRIPT.TARGETS)


@pytest.mark.parametrize("name", DATA_SCRIPT.TARGETS)
def test_data_script_reproduces_embedded_file(name):
    builder, array = DATA_SCRIPT.TARGETS[name]
    assert str(catalog_entry(name).array) == array
    embedded = (cat.data_dir() / f"{name}.g6").read_text(encoding="ascii")
    assert g6_encode(builder()) + "\n" == embedded


def test_catalog_size_and_statuses():
    entries = catalog_list()
    assert len(entries) >= 25
    open_entries = [e.name for e in entries if e.status == "OPEN"]
    assert open_entries == ["flag-gh22", "gh33-incidence"]
    po = [e for e in entries if e.source == "parameters-only"]
    assert [e.name for e in po] == ["gh33-incidence"]
    assert float(po[0].lambda1) == pytest.approx(0.25)


def test_every_loadable_entry_verifies():
    for e in catalog_list():
        if e.source == "parameters-only":
            continue
        g, entry = catalog_load(e.name)
        assert intersection_array(g) == entry.array


def test_key_entries():
    g, e = catalog_load("biggs-smith")
    assert g.n == 102 and str(e.array) == "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}"
    g, e = catalog_load("foster")
    assert g.n == 90 and e.theta1.triple() == (0, 1, 6)
    g, e = catalog_load("k55-minus-matching")
    assert str(e.array) == "{4,3,1;1,3,4}" and e.theta1 == 1
    g, e = catalog_load("tutte-12-cage")
    assert g.n == 126


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog_load("nonexistent-graph")
    with pytest.raises(UnknownName):
        catalog_load("gh33-incidence")      # parameters-only has no graph


def test_flag_graphs_are_line_graphs():
    hea, _ = catalog_load("heawood")
    flag, e = catalog_load("flag-pg22")
    assert intersection_array(line_graph(hea)) == e.array
    cage, _ = catalog_load("tutte-coxeter")
    flag, e = catalog_load("flag-gq22")
    assert intersection_array(line_graph(cage)) == e.array


def test_incidence_construction_invariants():
    # PG(2,q) incidence: 2(q^2+q+1) vertices, girth 6
    from drgc.graph import girth
    for name, q in (("heawood", 2), ("incidence-pg23", 3)):
        g, _ = catalog_load(name)
        assert g.n == 2 * (q * q + q + 1)
        assert girth(g)[0] == 6
    # W(3,q) incidence: 2(q^2+1)(q+1) vertices, array {q+1,q,q,q;1,1,1,q+1}
    for name, q in (("tutte-coxeter", 2), ("incidence-gq33", 3)):
        g, e = catalog_load(name)
        assert g.n == 2 * (q * q + 1) * (q + 1)
        assert e.array.b == (q + 1, q, q, q) and e.array.c == (1, 1, 1, q + 1)


def test_flag_gq22_local_structure():
    # a_1 = 1 and k = 4: each closed neighborhood is two triangles at a point
    g, e = catalog_load("flag-gq22")
    assert e.array.a(1) == 1 and e.array.k == 4
    for x in (0, 7, 19):
        nbrs = g.adj[x]
        inner = sum(1 for i, u in enumerate(nbrs) for v in nbrs[i + 1:]
                    if v in g.adj[u])
        assert inner == 2


def test_data_corruption_detected(tmp_path, monkeypatch):
    src = pathlib.Path(cat.data_dir())
    work = tmp_path / "catalog"
    shutil.copytree(src, work)
    # swap the Foster graph's data for the Coxeter graph's
    (work / "foster.g6").write_text((work / "coxeter.g6").read_text())
    monkeypatch.setenv("DRGC_DATA_DIR", str(work))
    with pytest.raises(DataCorrupt):
        catalog_load("foster")


def test_catalog_cache_follows_the_data_dir(tmp_path, monkeypatch):
    # the Foster graph is loaded and cached from the packaged data first; a
    # copy of the data whose foster.g6 holds the Coxeter graph is still read
    # and checked, and the packaged graph is served again afterwards
    g, _ = catalog_load("foster")
    work = tmp_path / "catalog"
    shutil.copytree(cat.data_dir(), work)
    (work / "foster.g6").write_text((work / "coxeter.g6").read_text())
    monkeypatch.setenv("DRGC_DATA_DIR", str(work))
    with pytest.raises(DataCorrupt, match="foster"):
        catalog_load("foster")
    monkeypatch.undo()
    assert catalog_load("foster")[0] is g
