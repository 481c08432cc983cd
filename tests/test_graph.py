import random
from itertools import combinations

import numpy as np
import pytest

from drgc.catalog import catalog_list, catalog_load
from drgc.errors import (Acyclic, EmptySet, FullSet, MalformedGraph6,
                         NotBipartite, NotDistanceRegular, Unreachable)
from drgc.families import FamilySpec, construct, default_grid, theory_values
from drgc.graph import (Graph, IntersectionArray, bfs_distances,
                        bipartite_double, cut_stats, distance_matrix, g6_decode,
                        g6_encode, girth, halved_graph, induced_subgraph,
                        intersection_array, line_graph, two_coloring)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def girth_oracle(g):
    """Shortest cycle by edge removal + BFS: independent of the implementation."""
    best = None
    for u, v in g.edges():
        rows = [[w for w in g.adj[x] if (x, w) not in ((u, v), (v, u))]
                for x in range(g.n)]
        h = Graph(g.n, rows)
        dist = [-1] * h.n
        dist[u] = 0
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                for b in h.adj[a]:
                    if dist[b] < 0:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if dist[v] >= 0 and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


# -- bfs ------------------------------------------------------------------------

def test_bfs_cube_distance_multiset():
    g, _ = catalog_load("cube")
    assert sorted(bfs_distances(g, 0)) == [0, 1, 1, 1, 2, 2, 2, 3]


def test_bfs_heawood_sphere_sizes_match_recurrence():
    g, entry = catalog_load("heawood")
    expected = entry.array.sphere_sizes()
    for v in range(g.n):
        dist = bfs_distances(g, v)
        sizes = tuple(dist.count(i) for i in range(max(dist) + 1))
        assert sizes == expected == (1, 3, 6, 4)


def test_bfs_k2_and_disconnected():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert bfs_distances(k2, 0) == [0, 1]
    two = Graph(2, [[], []])
    with pytest.raises(Unreachable):
        bfs_distances(two, 0)


# -- intersection arrays -----------------------------------------------------------

def test_intersection_array_dodecahedron():
    g, _ = catalog_load("dodecahedron")
    assert str(intersection_array(g)) == "{3,2,1,1,1;1,1,1,2,3}"


def test_intersection_array_petersen_srg_parameters():
    g, _ = catalog_load("petersen")
    ia = intersection_array(g)
    assert ia.D == 2 and ia.k == 3 and ia.a(1) == 0 and ia.c[1] == 1


def test_intersection_array_rejects_path():
    with pytest.raises(NotDistanceRegular):
        intersection_array(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_intersection_array_rejects_prism_with_witness():
    # triangular prism: 3-regular but triangle edges and rung edges differ
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (0, 3), (1, 4), (2, 5)])
    assert prism.regular_degree() == 3
    with pytest.raises(NotDistanceRegular) as err:
        intersection_array(prism)
    assert err.value.witness is not None


def test_sphere_sizes_all_base_vertices():
    for name in ("heawood", "petersen", "coxeter", "odd-4", "icosahedron"):
        g, entry = catalog_load(name)
        expected = entry.array.sphere_sizes()
        for v in range(g.n):
            dist = bfs_distances(g, v)
            assert tuple(dist.count(i) for i in range(len(expected))) == expected


def test_array_validation_rejects_bad_monotonicity():
    with pytest.raises(NotDistanceRegular):
        IntersectionArray((3, 3), (1, 1))
    with pytest.raises(NotDistanceRegular):
        IntersectionArray((3, 2), (2, 2))


def test_array_antipodal_predicate():
    for name, expect in (("icosahedron", True), ("k55-minus-matching", True),
                         ("heawood", False), ("dodecahedron", True),
                         ("line-petersen", True)):    # 3-cover of K5, D odd
        _, entry = catalog_load(name)
        assert entry.array.is_antipodal() == expect, name


def test_antipodal_predicate_matches_distance_d_fibres():
    """The array predicate agrees with the graph: 'equal or at distance D'
    is an equivalence relation, for every catalog and grid graph, n <= 256."""
    graphs = [catalog_load(e.name)[0] for e in catalog_list()
              if e.source != "parameters-only" and e.array.v <= 256]
    graphs += [construct(spec) for spec in default_grid()
               if theory_values(spec).v <= 256]
    for g in graphs:
        dm = distance_matrix(g)
        fibre = (dm == dm.max()) | np.eye(g.n, dtype=bool)
        antipodal = all((fibre[fibre[x]] == fibre[x]).all() for x in range(g.n))
        assert intersection_array(g).is_antipodal() == antipodal, g.name


# -- girth --------------------------------------------------------------------------

def test_girth_examples():
    heawood, _ = catalog_load("heawood")
    assert girth(heawood) == girth_oracle(heawood) == 6
    cage, _ = catalog_load("tutte-12-cage")
    assert girth(cage) == 12
    assert girth(complete(4)) == 3
    with pytest.raises(Acyclic):
        girth(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


def test_girth_matches_oracle_on_catalog():
    for name in ("petersen", "pappus", "dodecahedron", "line-petersen", "flag-pg22"):
        g, _ = catalog_load(name)
        assert girth(g) == girth_oracle(g)


def test_girth_cycle_is_a_cycle():
    g, _ = catalog_load("heawood")
    length, cyc = girth(g, with_cycle=True)
    assert len(cyc) == length
    sub, _ = induced_subgraph(g, cyc)
    assert all(len(r) == 2 for r in sub.adj)


def test_girth_at_most_half_n_for_small_valency_corpus():
    # supporting lemma: k >= 3, D >= 3 forces g <= n/2
    for name in ("cube", "heawood", "pappus", "coxeter", "tutte-coxeter",
                 "dodecahedron", "desargues", "tutte-12-cage", "biggs-smith",
                 "foster", "nonincidence-pg22", "line-petersen", "4-cube",
                 "flag-pg22", "incidence-pg23", "incidence-ag24", "odd-4",
                 "flag-gq22", "doubled-odd-4", "incidence-gq33", "flag-gh22"):
        g, entry = catalog_load(name)
        if entry.array.D >= 3:
            assert 2 * girth(g) <= g.n, name


# -- cut statistics -----------------------------------------------------------------

def test_cut_stats_cube_face():
    g, _ = catalog_load("cube")
    dist = bfs_distances(g, 0)
    # one 4-cycle face: 0, two neighbors sharing a common distance-2 vertex
    a, b = g.adj[0][0], g.adj[0][1]
    common = [w for w in range(g.n) if dist[w] == 2
              and w in g.adj[a] and w in g.adj[b]]
    S = {0, a, b, common[0]}
    st = cut_stats(g, S)
    assert st.boundary == 4 and st.vol == 12
    # h(S) = 4/12 = 1/3 (Theorem window's lower end for the cube)


def test_cut_stats_independent_set():
    g, _ = catalog_load("petersen")
    S = {0, 1}
    if 1 not in g.adj[0]:
        st = cut_stats(g, S)
        assert st.inside == 0 and st.vol == st.boundary


def test_cut_stats_k55_minus_matching_side():
    # one side of the bipartition: every edge crosses, so h(S) = 1
    g, _ = catalog_load("k55-minus-matching")
    sideA, _ = two_coloring(g)
    st = cut_stats(g, sideA)
    assert st.boundary == 20 and st.inside == 0 and st.vol == 20


def test_cut_stats_errors_and_symmetry():
    g, _ = catalog_load("cube")
    with pytest.raises(EmptySet):
        cut_stats(g, set())
    with pytest.raises(FullSet):
        cut_stats(g, set(range(8)))
    rng = random.Random(7)
    for _ in range(50):
        S = {v for v in range(8) if rng.random() < 0.5} or {0}
        if len(S) == 8:
            S.discard(0)
        comp = set(range(8)) - S
        st, stc = cut_stats(g, S), cut_stats(g, comp)
        assert st.boundary == stc.boundary
        assert st.vol + stc.vol == 3 * 8


# -- structural transforms -----------------------------------------------------------

def test_line_graph_arrays():
    pet, _ = catalog_load("petersen")
    assert str(intersection_array(line_graph(pet))) == "{4,2,1;1,1,4}"
    hea, _ = catalog_load("heawood")
    assert str(intersection_array(line_graph(hea))) == "{4,2,2;1,1,2}"


def test_line_graph_c5_is_c5():
    lg = line_graph(cycle(5))
    assert lg.n == 5 and intersection_array(lg) == intersection_array(cycle(5))


def test_line_graph_regularity():
    for name in ("cube", "petersen", "heawood", "4-cube"):
        g, entry = catalog_load(name)
        k = entry.array.k
        assert line_graph(g).regular_degree() == 2 * (k - 1)


def test_bipartite_double_examples():
    pet, _ = catalog_load("petersen")
    assert str(intersection_array(bipartite_double(pet))) == "{3,2,2,1,1;1,1,2,2,3}"
    o4 = construct(FamilySpec("odd", (4,)))
    assert str(intersection_array(bipartite_double(o4))) == \
        "{4,3,3,2,2,1,1;1,1,2,2,3,3,4}"
    # the double of a bipartite graph splits into two copies
    k2 = Graph.from_edges(2, [(0, 1)])
    dk2 = bipartite_double(k2)
    assert dk2.n == 4 and dk2.num_edges == 2
    assert all(len(r) == 1 for r in dk2.adj)


def test_halved_graph_examples():
    h42 = construct(FamilySpec("hamming", (4, 2)))
    half = halved_graph(h42)
    assert half.n == 8 and half.regular_degree() == 6
    c3 = halved_graph(cycle(6))
    assert c3.n == 3 and c3.regular_degree() == 2
    foster, _ = catalog_load("foster")
    hf = halved_graph(foster)
    assert hf.n == 45 and hf.regular_degree() == 6
    with pytest.raises(NotBipartite):
        halved_graph(complete(3))


def test_induced_subgraph_examples():
    sub, order = induced_subgraph(complete(4), {1, 3})
    assert sub.n == 2 and sub.num_edges == 1 and order == [1, 3]
    hea, _ = catalog_load("heawood")
    star, _ = induced_subgraph(hea, {0, *hea.adj[0]})
    degs = sorted(len(r) for r in star.adj)
    assert degs == [1, 1, 1, 3]     # a_1 = 0: no edges inside the neighborhood
    with pytest.raises(EmptySet):
        induced_subgraph(hea, set())


# -- graph6 ---------------------------------------------------------------------------

def test_g6_roundtrip_catalog():
    for name in ("petersen", "heawood", "biggs-smith"):
        g, _ = catalog_load(name)
        assert g6_decode(g6_encode(g)).adj == g.adj


def test_g6_k1_shortest():
    assert g6_encode(Graph(1, [[]])) == "@"
    assert g6_decode("@").n == 1


def test_g6_long_header():
    g = cycle(100)
    text = g6_encode(g)
    assert g6_decode(text).adj == g.adj


def test_g6_malformed():
    with pytest.raises(MalformedGraph6):
        g6_decode("")
    with pytest.raises(MalformedGraph6):
        g6_decode("I?")      # truncated body
    with pytest.raises(MalformedGraph6):
        g6_decode("I?LRCecq?extra")


def test_foster_g6_decodes_to_90_vertices():
    g, entry = catalog_load("foster")
    assert g.n == 90 and intersection_array(g) == entry.array
