import random
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest

import drgc.catalog
import drgc.families
import drgc.graph
from drgc.catalog import catalog_load
from drgc.errors import (Acyclic, EmptySet, FullSet, GraphError,
                         MalformedGraph6, NotBipartite, NotDistanceRegular,
                         NotRegular, SelfCheckFailed, TooLarge, Unreachable)
from drgc.families import FamilySpec, bipartite_graph, construct
from drgc.graph import (Graph, IntersectionArray, _block_rows, adjacency_matrix,
                        bfs_distances, cut_stats, distance_matrix, edge_arrays,
                        eigensystem, g6_decode, g6_encode, girth,
                        intersection_array, line_graph, two_coloring)
from drgc.report import _resolve, default_targets, verify_one
import reference_graphs
from reference_graphs import catalog_and_grid


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def reference_graph(n, adj):
    """The earlier constructor, kept as an oracle: (adj, num_edges) after its
    Python validation loop, which raises at the first bad entry by row, then
    by ascending neighbour (repeats count once)."""
    rows = [set(row) for row in adj]
    adj = tuple(tuple(sorted(row)) for row in rows)
    if len(adj) != n:
        raise GraphError(f"adjacency has {len(adj)} rows for n={n}")
    for u, row in enumerate(adj):
        for v in row:
            if v == u:
                raise GraphError(f"self-loop at {u}")
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range")
            if u not in rows[v]:
                raise GraphError(f"asymmetric adjacency {u}->{v}")
    return adj, sum(map(len, adj)) // 2


def reference_edge_arrays(adj):
    """The earlier edge_arrays, built from the adjacency tuples."""
    n = len(adj)
    degs = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    first = np.concatenate(([0], np.cumsum(degs)))
    src = np.repeat(np.arange(n), degs)
    dst = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=int(first[-1]))
    return src, dst, first


def reference_regular_degree(adj):
    degs = {len(r) for r in adj}
    return degs.pop() if len(degs) == 1 else None


def graph_or_failure(n, rows):
    """(adj, num_edges) of Graph(n, rows), or the class and message it raises."""
    try:
        g = Graph(n, rows)
    except GraphError as err:
        return type(err), str(err)
    return g.adj, g.num_edges


def reference_or_failure(n, rows):
    try:
        return reference_graph(n, rows)
    except GraphError as err:
        return type(err), str(err)


def complete_bipartite(r):
    """K_{r,r}: distance-regular with k = r."""
    return Graph.from_edges(2 * r, [(i, r + j) for i in range(r) for j in range(r)])


def complete_prism(r):
    """K_r x K_2, vertex i + r s for i < r and s < 2: r-regular and not
    distance-regular for r > 2, since an edge of a K_r copy has r - 2 common
    neighbours and a rung has none."""
    edges = [(i + r * s, j + r * s) for s in range(2) for i, j in combinations(range(r), 2)]
    return Graph.from_edges(2 * r, edges + [(i, i + r) for i in range(r)])


def cycle_prism(r):
    """C_r x K_2: 3-regular, and not distance-regular for r > 4."""
    return Graph.from_edges(2 * r, [(i, (i + 1) % r) for i in range(r)] +
                            [(r + i, r + (i + 1) % r) for i in range(r)] +
                            [(i, r + i) for i in range(r)])


def generalized_petersen(n, k):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def reference_distance_matrix(g):
    """The earlier all-pairs distances, kept as an oracle: one float32
    product frontier @ A per level."""
    n = g.n
    A = adjacency_matrix(g, np.float32)
    dm = np.full((n, n), -1, dtype=np.int16)
    np.fill_diagonal(dm, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.astype(np.float32)
    d = 0
    while True:
        d += 1
        nxt = (frontier @ A) > 0.5
        new = nxt & ~reached
        if not new.any():
            break
        dm[new] = d
        reached |= new
        frontier = new.astype(np.float32)
    if (dm < 0).any():
        raise Unreachable("graph is disconnected")
    return dm


def reference_intersection_array(g):
    """The earlier check, kept as an oracle: two float32 matmuls per distance
    i, one against the pairs at distance i - 1 and one against i + 1."""
    k = g.regular_degree()
    if k is None:
        raise NotRegular("graph is not regular")
    if g.n == 1 or k == 0:
        raise NotRegular("trivial graph")
    dm = reference_distance_matrix(g)
    diam = int(dm.max())
    A = adjacency_matrix(g, np.float32)
    b = []
    c = []
    for i in range(1, diam + 1):
        pairs = dm == i
        cnt_prev = (dm == i - 1).astype(np.float32) @ A
        cvals = cnt_prev[pairs]
        c_i = int(cvals[0])
        bad = np.nonzero(pairs & (np.rint(cnt_prev).astype(np.int64) != c_i))
        if bad[0].size:
            x, y = int(bad[0][0]), int(bad[1][0])
            raise NotDistanceRegular(
                f"c_{i} differs at pair ({x},{y})", witness=(x, y, i))
        cnt_next = (dm == i + 1).astype(np.float32) @ A
        bvals = cnt_next[pairs]
        b_i = int(bvals[0])
        bad = np.nonzero(pairs & (np.rint(cnt_next).astype(np.int64) != b_i))
        if bad[0].size:
            x, y = int(bad[0][0]), int(bad[1][0])
            raise NotDistanceRegular(
                f"b_{i} differs at pair ({x},{y})", witness=(x, y, i))
        c.append(c_i)
        if i < diam:
            b.append(b_i)
        elif b_i != 0:
            raise NotDistanceRegular(f"b_D = {b_i} != 0")
    ia = IntersectionArray((k, *b), tuple(c))
    if ia.v != g.n:
        raise NotDistanceRegular(f"sphere sizes sum to {ia.v} != n = {g.n}")
    return ia


def array_or_failure(check, g):
    """check(g), or the (class, message, witness) of the error it raises."""
    try:
        return check(g)
    except GraphError as err:
        return type(err), str(err), getattr(err, "witness", None)


def girth_oracle(g):
    """Shortest cycle by edge removal + BFS: independent of the implementation."""
    best = None
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    for u, v in edges:
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


def test_intersection_array_first_bad_pair_at_distance_3():
    # Moebius-Kantor graph: girth 6, so c_1, b_1, c_2, b_2 are constant
    g = generalized_petersen(8, 3)
    got = array_or_failure(intersection_array, g)
    assert got == array_or_failure(reference_intersection_array, g)
    assert got == (NotDistanceRegular, "c_3 differs at pair (0,10)", (0, 10, 3))


def test_intersection_array_constant_c_varying_b():
    # GP(9,2): every c_i is constant over its distance class, b_2 is not;
    # GP(13,5): c_3 is constant and b_3, read from residue 4 % 3 = 1, is not
    for (n, k), expect in (((9, 2), ("b_2 differs at pair (9,13)", (9, 13, 2))),
                           ((13, 5), ("b_3 differs at pair (0,5)", (0, 5, 3)))):
        g = generalized_petersen(n, k)
        got = array_or_failure(intersection_array, g)
        assert got == array_or_failure(reference_intersection_array, g)
        assert got == (NotDistanceRegular, *expect)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (0, 3), (1, 4), (2, 5)])
    assert array_or_failure(intersection_array, prism) == \
        array_or_failure(reference_intersection_array, prism)


def test_intersection_array_matches_reference_on_catalog_and_grid():
    graphs = catalog_and_grid() + [
        ("C7", cycle(7)), ("C8", cycle(8)), ("K5", complete(5)),
        ("L(C9)", line_graph(cycle(9)))]
    for name, g in graphs:
        assert intersection_array(g) == reference_intersection_array(g), name


def test_intersection_array_matches_reference_with_wide_counts():
    # k = 256 and k = 257 take uint16 counts; K_257 x K_2 breaks b_1, with
    # 255 common neighbours on a K_257 edge and none on a rung
    for g in (complete_bipartite(256), complete_prism(257)):
        assert array_or_failure(intersection_array, g) == \
            array_or_failure(reference_intersection_array, g)
    assert intersection_array(complete_bipartite(256)) == \
        IntersectionArray((256, 255), (1, 256))
    assert array_or_failure(intersection_array, complete_prism(257))[0] is \
        NotDistanceRegular


def varying_counts(g):
    """The (label, i) whose count c(x, y) or b(x, y) takes more than one
    value over the pairs at distance i, counted pair by pair."""
    k = g.regular_degree()
    dm = reference_distance_matrix(g).astype(np.int64)
    # around[x, y, s] is d(x, z) for the s-th neighbour z of y
    around = dm[:, edge_arrays(g).dst.reshape(g.n, k)]
    counts = {"c": (around < dm[:, :, None]).sum(axis=2),
              "b": (around > dm[:, :, None]).sum(axis=2)}
    return [(label, i) for i in range(1, dm.max() + 1) for label in "cb"
            if np.unique(counts[label][dm == i]).size > 1]


def prism(g):
    """g x K_2: vertex v + n s for v < n and s < 2."""
    n = g.n
    edges = [(u + n * s, v + n * s) for s in range(2) for u in range(n)
             for v in g.adj[u] if u < v]
    return Graph.from_edges(2 * n, edges + [(v, v + n) for v in range(n)])


def test_intersection_array_finds_a_single_varying_count():
    """Graphs whose only fault is one count at one distance: with diameter 2
    the check counts the running sum alone, and it must see a varying
    lambda (b_1, on K_4 x K_2) and a varying mu (c_2, on the Moebius ladder
    C_8(1,4)); with diameter 3, it must see a varying b_2 alone, on the
    Clebsch graph (the folded 5-cube on 16 vertices, srg(16,5,0,2)) times
    K_2, where every c_i is constant and b_2 is 1 or 4.  On the Petersen
    graph times K_2, c_2 and b_2 vary together, (1, 1) or (2, 2), so that
    the running sum alone misses them at diameter 3 and c must be
    counted."""
    wagner = Graph.from_edges(8, [(i, (i + s) % 8) for i in range(8)
                                  for s in (1, 4)])
    clebsch = Graph.from_edges(16, [(u, u ^ m) for u in range(16)
                                    for m in (1, 2, 4, 8, 15) if u < u ^ m])
    for g, faults, D in ((complete_prism(4), [("b", 1)], 2),
                         (wagner, [("c", 2)], 2),
                         (prism(clebsch), [("b", 2)], 3),
                         (prism(generalized_petersen(5, 2)),
                          [("c", 2), ("b", 2)], 3)):
        assert distance_matrix(g).max() == D
        assert varying_counts(g) == faults
        got = array_or_failure(intersection_array, g)
        assert got == array_or_failure(reference_intersection_array, g)
        assert got[0] is NotDistanceRegular
        assert got[1].startswith("%s_%d differs" % faults[0])


def test_intersection_array_with_wide_counts_at_diameter_3():
    """k = 256 takes uint16 counts, and at diameter 3 the check counts c as
    well as the running sum.  K_257,257 less a perfect matching is
    distance-regular; K_258,258 less the 2-factor {i, (i)'}, {i, (i + 1)'}
    is not: two vertices on one side have 254 or 255 common neighbours."""
    r = 257
    passing = Graph.from_edges(2 * r, [(i, r + j) for i in range(r)
                                       for j in range(r) if i != j])
    r = 258
    failing = Graph.from_edges(2 * r, [(i, r + j) for i in range(r)
                                       for j in range(r)
                                       if j not in (i, (i + 1) % r)])
    for g in (passing, failing):
        assert g.regular_degree() == 256
        dm = distance_matrix(g)
        assert dm.max() == 3
        assert drgc.graph._count_dtype(dm, 256) == np.uint16
        assert array_or_failure(intersection_array, g) == \
            array_or_failure(reference_intersection_array, g)
    assert intersection_array(passing) == \
        IntersectionArray((256, 255, 1), (1, 255, 256))
    got = array_or_failure(intersection_array, failing)
    assert got[0] is NotDistanceRegular and got[1].startswith("c_2 differs")


def test_intersection_array_matches_reference_on_generalized_petersen():
    # k = n / 2 merges the inner edges, so GP(n, n/2) is not even regular
    for n in range(3, 21):
        for k in range(1, n // 2 + 1):
            g = generalized_petersen(n, k)
            assert array_or_failure(intersection_array, g) == \
                array_or_failure(reference_intersection_array, g), (n, k)


def switched_hamming_3_10():
    """hamming:3,10 (n = 1000) after one 2-switch among its last vertices,
    a, b, c, d >= 700: still 27-regular, no longer distance-regular."""
    g = construct(FamilySpec("hamming", (3, 10)))
    n = g.n
    rows = [set(row) for row in g.adj]
    a = n - 1
    b = max(rows[a])
    c = next(v for v in range(n - 2, 0, -1)
             if v not in rows[a] and v != b and
             any(w not in rows[b] and w not in (a, b) for w in rows[v]))
    d = next(w for w in sorted(rows[c], reverse=True)
             if w not in rows[b] and w not in (a, b))
    assert min(a, b, c, d) >= 700
    for u, v in ((a, b), (c, d)):
        rows[u].discard(v)
        rows[v].discard(u)
    for u, v in ((a, c), (b, d)):
        rows[u].add(v)
        rows[v].add(u)
    return Graph(n, rows)


def test_intersection_array_failure_past_the_first_row_block():
    # the switch keeps the graph 27-regular, and the first pair that breaks
    # distance-regularity lies past the first two blocks (262 rows each)
    switched = switched_hamming_3_10()
    step = _block_rows(switched.n)
    assert -(-switched.n // step) >= 3 and 700 >= 2 * step
    assert switched.regular_degree() == 27
    got = array_or_failure(intersection_array, switched)
    assert got == array_or_failure(reference_intersection_array, switched)
    assert got[0] is NotDistanceRegular and min(got[2][:2]) >= step


def test_intersection_array_when_vertex_0_has_short_eccentricity():
    # GP(6,2) is regular and vertex 0 reaches every vertex within 3 steps,
    # but the diameter is 4: distance 4's first pair lies outside row 0
    g = generalized_petersen(6, 2)
    dm = reference_distance_matrix(g)
    assert dm[0].max() == 3 < dm.max() == 4
    got = array_or_failure(intersection_array, g)
    assert got == array_or_failure(reference_intersection_array, g)
    assert got[0] is NotDistanceRegular


def test_intersection_array_matches_reference_on_large_diameters():
    # cycle(300) has diameter 150, past the int8 distances; the prism over
    # C_300 is 3-regular and not distance-regular
    for g in (cycle(300), cycle_prism(300)):
        assert array_or_failure(intersection_array, g) == \
            array_or_failure(reference_intersection_array, g)
    assert intersection_array(cycle(300)).D == 150


@pytest.mark.parametrize("step", [None, 7])
def test_pair_counts_match_reference_past_distance_127(step):
    """The check's per-pair accumulators on int16 distances, against a
    recount that compares each neighbour's distance with d - 1 and d + 1:
    every pair of cycle(300) and of the prism over C_300, of which those at
    distance 128 or more read past the int8 range.  The expected counts
    per distance are random values in 0..k, so that the accumulators'
    starts step by every size, wrapping modulo 2^16; c must read
    c(x, y) - c_ref[d] and s (b(x, y) - b_ref[d]) - (c(x, y) - c_ref[d]),
    with and without c counted.  step None is one block of all rows; 7 is
    blocks of 7 rows through reused buffers."""
    rng = random.Random(3)
    for g in (cycle(300), cycle_prism(300)):
        n, k = g.n, g.regular_degree()
        dm = distance_matrix(g)
        assert dm.dtype == np.int16 and dm.max() >= 128
        nbrs = edge_arrays(g).dst.reshape(n, k)
        c_ref, b_ref = ([rng.randint(0, k) for _ in range(dm.max() + 1)]
                        for _ in range(2))
        # around[x, y, s] is d(x, z) for the s-th neighbour z of y
        around = dm.astype(np.int64)[:, nbrs]
        d = dm.astype(np.int64)[:, :, None]
        dev_c = (around == d - 1).sum(axis=2) - np.array(c_ref)[dm]
        dev_b = (around == d + 1).sum(axis=2) - np.array(b_ref)[dm]
        want_c, want_s = dev_c % 2 ** 16, (dev_b - dev_c) % 2 ** 16
        far = dm >= 128
        assert far.any() and dev_c[far].any() and dev_b[far].any()
        for count_c in (True, False):
            blocks = [(c if c is None else c.copy(), s.copy()) for _, c, s in
                      drgc.graph._pair_counts(dm, nbrs, step or n, c_ref,
                                              b_ref, count_c)]
            s = np.concatenate([s for _, s in blocks]).T
            assert np.array_equal(s[far], want_s[far])
            assert np.array_equal(s, want_s)
            if count_c:
                c = np.concatenate([c for c, _ in blocks]).T
                assert np.array_equal(c[far], want_c[far])
                assert np.array_equal(c, want_c)
            else:
                assert all(c is None for c, _ in blocks)


def test_check_fault_without_a_failing_pair_raises(monkeypatch):
    """A row block that the fast check flags, but where the recount of every
    pair finds no pair that breaks a constant, is a fault of the check: it
    raises SelfCheckFailed and does not return the array."""
    real = drgc.graph._pair_counts
    calls = []

    def false_flag(*args):
        calls.append(args)
        for lo, c, s in real(*args):
            if len(calls) == 1:   # the check, not the recount after it
                s = s.copy()
                s[0, 0] += 1
            yield lo, c, s

    monkeypatch.setattr(drgc.graph, "BLOCK_CELLS", 12)
    monkeypatch.setattr(drgc.graph, "_pair_counts", false_flag)
    g = generalized_petersen(5, 2)
    with pytest.raises(SelfCheckFailed, match="no pair breaks a constant"):
        intersection_array(g)
    monkeypatch.setattr(drgc.graph, "_pair_counts", real)
    assert intersection_array(g) == IntersectionArray((3, 2), (1, 1))


def test_intersection_array_disconnected_regular_graph():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    got = array_or_failure(intersection_array, two_triangles)
    assert got == array_or_failure(reference_intersection_array, two_triangles)
    assert got[0] is Unreachable


def test_distance_matrix_matches_reference():
    rng = random.Random(7)
    graphs = [cycle(300), generalized_petersen(6, 2), complete(1),
              Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
              Graph.from_edges(6, [(0, i) for i in range(1, 6)])]
    for n in (2, 9, 30, 64):
        graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                           if rng.random() < 3 / n]))
    for g in graphs:
        got = array_or_failure(distance_matrix, g)
        want = array_or_failure(reference_distance_matrix, g)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
    assert distance_matrix(cycle(300)).max() == 150


def test_blocked_stages_match_reference_in_small_row_blocks(monkeypatch):
    """The distance matrix and the intersection-array check with BLOCK_CELLS
    patched so that every graph spans several row blocks: the comparisons
    above, on their graphs, give the same results."""
    monkeypatch.setattr(drgc.graph, "BLOCK_CELLS", 12)
    triangular_prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4),
                                            (4, 5), (3, 5), (0, 3), (1, 4),
                                            (2, 5)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    graphs = [generalized_petersen(n, k) for n in range(3, 21)
              for k in range(1, n // 2 + 1)]
    graphs += [triangular_prism, two_triangles, cycle(7), cycle(300),
               complete(5), line_graph(cycle(9)), switched_hamming_3_10(),
               complete_bipartite(256), complete_prism(257)]
    graphs += [g for _, g in catalog_and_grid(max_n=256)]
    for g in graphs:
        # a copy, without the array a catalog graph cached when it loaded
        g = Graph.from_edge_arrays(g.n, *edge_arrays(g)[:2])
        assert -(-g.n // _block_rows(g.n)) >= 2
        assert array_or_failure(intersection_array, g) == \
            array_or_failure(reference_intersection_array, g)
        got = array_or_failure(distance_matrix, g)
        want = array_or_failure(reference_distance_matrix, g)
        assert got == want if isinstance(want, tuple) else np.array_equal(got, want)


def test_construct_and_check_hold_no_other_n_by_n_array():
    """On foldedcube:12 (n = 2048) construct's traced peak stays below n^2
    bytes, and intersection_array's peak above what was held before it
    below 2 n^2: the int8 distance matrix and blocks of rows."""
    drgc.families._vertex_keys.cache_clear()
    tracemalloc.start()
    try:
        g = construct(FamilySpec("foldedcube", (12,)))
        construct_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        intersection_array(g)
        check_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert g.n == 2048
    assert construct_peak < g.n ** 2 and check_peak < 2 * g.n ** 2


def test_failing_check_holds_no_n_by_n_array(monkeypatch):
    """On the circulant C_2048(1,5), which is not distance-regular, the
    check and the recount that names its first failing pair walk row
    blocks: above the int16 distance matrix they read, their traced peak
    stays below 2 n^2."""
    n = 2048
    g = Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in (1, 5)])
    real = drgc.graph.distance_matrix
    held = []

    def traced_distance_matrix(g):
        dm = real(g)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return dm

    monkeypatch.setattr(drgc.graph, "distance_matrix", traced_distance_matrix)
    tracemalloc.start()
    try:
        with pytest.raises(NotDistanceRegular) as err:
            intersection_array(g)
        peak = tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "c_2 differs at pair (0,4)"
    assert err.value.witness == (0, 4, 2)
    assert real(g).dtype == np.int16 and peak < 2 * n ** 2


def test_intersection_array_cached():
    g = generalized_petersen(5, 2)
    ia = intersection_array(g)
    assert intersection_array(g) is ia


def test_dense_stages_refuse_graphs_over_the_vertex_limit(monkeypatch):
    assert drgc.families.MAX_VERTICES == drgc.graph.MAX_VERTICES
    monkeypatch.setattr(drgc.graph, "MAX_VERTICES", 11)
    for stage in (adjacency_matrix, distance_matrix, intersection_array,
                  eigensystem):
        with pytest.raises(TooLarge, match=f"{stage.__name__}: n = 12"):
            stage(cycle(12))
    assert intersection_array(cycle(11)).D == 5
    # a graph6 input reaches the dense stages without passing construct's cap
    with pytest.raises(TooLarge, match="intersection_array: n = 12"):
        verify_one(g6_encode(cycle(12)))


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
    for name, g in catalog_and_grid(256):
        dm = distance_matrix(g)
        fibre = (dm == dm.max()) | np.eye(g.n, dtype=bool)
        antipodal = all((fibre[fibre[x]] == fibre[x]).all() for x in range(g.n))
        assert intersection_array(g).is_antipodal() == antipodal, name


# -- girth --------------------------------------------------------------------------

def reference_girth(g, with_cycle=False):
    """The earlier girth: a forest test, a pruned BFS per root for the length,
    then a second BFS from the best root to recover the cycle."""
    if g.num_edges < g.n:
        # a graph with a cycle has m >= n on some component; cheap necessary test
        if _is_forest(g):
            raise Acyclic("graph has no cycle")
    best = g.n + 1
    best_root = -1
    for root in range(g.n):
        found = _shortest_cycle_through(g, root, best)
        if found < best:
            best, best_root = found, root
            if best == 3:
                break
    if best > g.n:
        raise Acyclic("graph has no cycle")
    if not with_cycle:
        return best
    return best, _recover_cycle(g, best_root, best)


def _is_forest(g: Graph) -> bool:
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [(s, -1)]
        seen[s] = True
        while stack:
            u, parent = stack.pop()
            skip_parent = parent >= 0
            for w in g.adj[u]:
                if w == parent and skip_parent:
                    skip_parent = False
                    continue
                if seen[w]:
                    return False
                seen[w] = True
                stack.append((w, u))
    return True


def _shortest_cycle_through(g, root, cap):
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    best = cap
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            if 2 * du + 1 >= best:
                return best
            for w in g.adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    cyc = du + dist[w] + 1
                    if cyc < best:
                        best = cyc
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return best


def _recover_cycle(g, root, length):
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in g.adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    if du + dist[w] + 1 == length:
                        cyc = set()
                        for z in (u, w):
                            while z != -1:
                                cyc.add(z)
                                z = parent[z]
                        if len(cyc) == length:
                            return frozenset(cyc)
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    raise GraphError("cycle recovery failed")  # pragma: no cover


def test_girth_examples():
    heawood, _ = catalog_load("heawood")
    assert girth(heawood)[0] == girth_oracle(heawood) == 6
    cage, _ = catalog_load("tutte-12-cage")
    assert girth(cage)[0] == 12
    assert girth(complete(4)) == (3, frozenset({0, 1, 2}))
    with pytest.raises(Acyclic):
        girth(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))


def test_girth_matches_oracle_on_catalog():
    for name in ("petersen", "pappus", "dodecahedron", "line-petersen", "flag-pg22"):
        g, _ = catalog_load(name)
        assert girth(g)[0] == girth_oracle(g)


def test_girth_matches_reference_on_default_targets():
    """One BFS per root gives the same (length, cycle) as the earlier
    length-then-recover pair, on every default target with n <= 256."""
    for name, g in catalog_and_grid(256):
        assert girth(g) == reference_girth(g, with_cycle=True), name


def test_girth_matches_reference_off_the_catalog():
    forest = Graph.from_edges(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
    for graph in (forest, Graph(0, [])):
        with pytest.raises(Acyclic):
            reference_girth(graph, with_cycle=True)
        with pytest.raises(Acyclic):
            girth(graph)
    # a tree component first, then a 5-cycle and a 4-cycle sharing no vertex
    disconnected = Graph.from_edges(
        12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3),
             (8, 9), (9, 10), (10, 11), (11, 8)])
    # a triangle with a pendant path and a chord-split hexagon
    irregular = Graph.from_edges(
        10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3),
             (5, 6), (6, 7), (7, 8), (8, 6), (8, 9)])
    for graph in (disconnected, irregular, generalized_petersen(8, 3),
                  line_graph(generalized_petersen(5, 2))):
        assert girth(graph) == reference_girth(graph, with_cycle=True)
    assert girth(disconnected) == (4, frozenset({8, 9, 10, 11}))
    assert girth(irregular) == (3, frozenset({6, 7, 8}))


def test_girth_from_the_array():
    """min(2i + 1 : a_i > 0, 2i : c_i > 1) is the girth of every default
    target with k >= 3 and D >= 3, and the scan that stops at it returns the
    full scan's cycle."""
    checked = 0
    for target in default_targets():
        _, g, _, _ = _resolve(target)
        if g is None:
            continue
        ia = intersection_array(g)
        if ia.k >= 3 and ia.D >= 3:
            full = girth(g)
            assert ia.girth() == full[0], target
            assert girth(g, ia.girth()) == full, target
            checked += 1
    assert checked == 48
    assert IntersectionArray((2, 1, 1, 1), (1, 1, 1, 1)).girth() == 9     # C9
    assert IntersectionArray((2, 1, 1, 1, 1), (1, 1, 1, 1, 2)).girth() == 10
    with pytest.raises(Acyclic):
        IntersectionArray((1,), (1,)).girth()                             # K2


def test_girth_cycle_is_a_cycle():
    g, _ = catalog_load("heawood")
    length, cyc = girth(g)
    assert len(cyc) == length
    pos = {v: i for i, v in enumerate(sorted(cyc))}
    sub = Graph(length, [[pos[w] for w in g.adj[v] if w in pos] for v in pos])
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
            assert 2 * girth(g)[0] <= g.n, name


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


def _reference_two_coloring(g):
    """Classes of a breadth-first 2-colouring from vertex 0, or None when an
    edge joins two vertices of one colour."""
    color = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    nxt.append(w)
        frontier = nxt
    if any(color[u] == color[w] for u in range(g.n) for w in g.adj[u]):
        return None
    return ([v for v in range(g.n) if color[v] == 0],
            [v for v in range(g.n) if color[v] == 1])


def test_two_coloring_matches_breadth_first_reference():
    bipartite = 0
    for name, g in catalog_and_grid(max_n=256) + [("C5", cycle(5))]:
        expect = _reference_two_coloring(g)
        if expect is None:
            with pytest.raises(NotBipartite):
                two_coloring(g)
        else:
            assert two_coloring(g) == expect, name
            bipartite += 1
    assert bipartite > 10
    with pytest.raises(Unreachable):
        two_coloring(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_cut_stats_matches_adjacency_list_recount():
    # GP(8,4) and the path are irregular, so their arcs are not k per vertex
    rng = random.Random(3)
    graphs = [catalog_load(name)[0] for name in ("petersen", "coxeter", "tutte-12-cage")]
    graphs += [generalized_petersen(8, 4),
               Graph.from_edges(7, [(i, i + 1) for i in range(6)])]
    assert graphs[-2].regular_degree() is graphs[-1].regular_degree() is None
    for g in graphs:
        for _ in range(20):
            S = set(rng.sample(range(g.n), rng.randrange(1, g.n)))
            inside = sum(w in S for u in S for w in g.adj[u])
            vol = sum(len(g.adj[u]) for u in S)
            st = cut_stats(g, S)
            assert st == (len(S), inside, vol - inside, vol)
            assert all(type(x) is int for x in st)
    with pytest.raises(IndexError):
        cut_stats(g, {0, g.n})
    with pytest.raises(IndexError):
        cut_stats(g, {-1})


def test_edge_arrays_cached():
    g, _ = catalog_load("heawood")
    src, dst, first = edge_arrays(g)
    assert list(zip(src.tolist(), dst.tolist())) == \
        [(u, v) for u in range(g.n) for v in g.adj[u]]
    assert all(tuple(dst[first[v]:first[v + 1]]) == g.adj[v] for v in range(g.n))
    assert not dst.flags.writeable
    assert edge_arrays(g) is edge_arrays(g)


def test_graph_rejects_bad_adjacency_naming_first_pair():
    with pytest.raises(GraphError, match=r"asymmetric adjacency 0->2"):
        Graph(3, [[1, 2], [0], []])
    with pytest.raises(GraphError, match="self-loop at 1"):
        Graph(3, [[1], [0, 1], []])
    with pytest.raises(GraphError, match="vertex 3 out of range"):
        Graph(3, [[1], [0, 3], []])


def test_graph_rejects_entries_that_are_not_vertex_numbers():
    for rows in ([[1.5], [0]], [["1"], [0]], [[1.0], [0]], [[1], [None]]):
        with pytest.raises(GraphError, match="not vertex numbers"):
            Graph(2, rows)
    with pytest.raises(GraphError, match="not vertex numbers"):
        Graph.from_edges(2, [(0, 1.0)])
    # Python and numpy integers are vertex numbers
    g = Graph(3, [[np.int64(1)], [0, np.uint8(2)], [np.int32(1)]])
    assert g.adj == ((1,), (0, 2), (1,))
    assert all(type(v) is int for row in g.adj for v in row)
    assert Graph.from_edges(3, np.array([[0, 1], [1, 2]])).adj == g.adj


def test_from_edges_names_an_out_of_range_vertex():
    for bad in (5, 3, -1, 2 ** 63, 2 ** 70):
        for edge in ((0, bad), (bad, 0)):
            with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
                Graph.from_edges(3, [(0, 1), edge])
    with pytest.raises(GraphError, match="self-loop at 2"):
        Graph.from_edges(3, [(0, 1), (2, 2)])


def corrupted_rows(rng, n):
    """Adjacency rows of a random graph on n vertices after a few random
    corruptions: self-loops, out-of-range and negative ids, one-sided entries
    and deletions, repeated entries, and a missing or extra row."""
    rows = [[] for _ in range(n)]
    for u, v in combinations(range(n), 2):
        if rng.random() < 0.3:
            rows[u].append(v)
            rows[v].append(u)
    for _ in range(rng.randrange(4)):
        u = rng.randrange(n)
        kind = rng.randrange(5)
        if kind == 0:
            rows[u].append(u)
        elif kind == 1:
            rows[u].append(rng.choice([n + rng.randrange(3), -1 - rng.randrange(3)]))
        elif kind == 2:
            rows[u].append(rng.randrange(n))
        elif kind == 3 and rows[u]:
            rows[u].remove(rng.choice(rows[u]))
        elif kind == 4 and rows[u]:
            rows[u].append(rng.choice(rows[u]))
    if rng.random() < 0.1:
        if rng.random() < 0.5:
            rows.pop(rng.randrange(n))
        else:
            rows.append([])
    for row in rows:
        rng.shuffle(row)
    return rows


def test_graph_validation_matches_reference_on_corrupted_rows():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(3000):
        n = rng.randrange(1, 10)
        rows = corrupted_rows(rng, n)
        want = reference_or_failure(n, rows)
        assert graph_or_failure(n, rows) == want, (n, rows)
        outcomes.add(want[1].split()[0] if want[0] is GraphError else "valid")
    assert outcomes == {"valid", "self-loop", "vertex", "asymmetric", "adjacency"}
    # a vertex id too large for int64 is out of range too
    assert graph_or_failure(2, [[1, 2 ** 70], [0]]) == \
        (GraphError, f"vertex {2 ** 70} out of range")


def test_graph_from_edge_arrays_matches_rows():
    """Graph.from_edge_arrays on np.nonzero of a dense 0/1 matrix against
    Graph on the matrix's rows: the same graph and edge arrays, or the same
    first bad entry (a diagonal entry, a one-sided entry, or a column past
    n)."""
    rng = random.Random(12)
    outcomes = set()
    for _ in range(500):
        n = rng.randrange(1, 9)
        A = np.zeros((n, n + rng.choice((0, 0, 0, 1))), dtype=bool)
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.3:
                A[u, v] = A[v, u] = True
        for _ in range(rng.randrange(3)):
            A[rng.randrange(n), rng.randrange(A.shape[1])] ^= True
        rows = [np.flatnonzero(row).tolist() for row in A]
        want = graph_or_failure(n, rows)
        try:
            g = Graph.from_edge_arrays(n, *np.nonzero(A))
        except GraphError as err:
            assert (type(err), str(err)) == want, A
            outcomes.add(str(err).split()[0])
            continue
        assert (g.adj, g.num_edges) == want, A
        for got, ref in zip(edge_arrays(g), edge_arrays(Graph(n, rows))):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not got.flags.writeable
        outcomes.add("valid")
    assert outcomes == {"valid", "self-loop", "vertex", "asymmetric"}


def assert_graph_matches_reference(h, rows):
    """h, built from rows, against the earlier constructor and array
    builders: adjacency, edge count, degree and the three read-only edge
    arrays."""
    adj, num_edges = reference_graph(h.n, rows)
    assert h.adj == adj and h.num_edges == num_edges
    assert all(type(v) is int for row in h.adj[:3] for v in row)
    k = h.regular_degree()
    assert k == reference_regular_degree(adj) and type(k) in (int, type(None))
    for got, want in zip(edge_arrays(h), reference_edge_arrays(adj)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


def test_graph_matches_reference_on_catalog_and_grid():
    rng = random.Random(5)
    graphs = [g for _, g in catalog_and_grid()]
    graphs += [Graph(0, []), complete(1), cycle(5)]
    for g in graphs:
        assert_graph_matches_reference(g, g.adj)
        # the same graph from shuffled rows with a repeated entry per row
        rows = [list(row) + list(row[:1]) for row in g.adj]
        for row in rows:
            rng.shuffle(row)
        assert_graph_matches_reference(Graph(g.n, rows), rows)
    irregular = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert irregular.regular_degree() is None


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
    """The catalog's double: rule, bipartite_graph on the boolean adjacency,
    against the row-loop double."""
    def double(g):
        h = bipartite_graph(adjacency_matrix(g, bool))
        assert h.adj == reference_graphs.bipartite_double(g).adj
        return h

    pet, _ = catalog_load("petersen")
    assert str(intersection_array(double(pet))) == "{3,2,2,1,1;1,1,2,2,3}"
    o4 = construct(FamilySpec("odd", (4,)))
    assert str(intersection_array(double(o4))) == \
        "{4,3,3,2,2,1,1;1,1,2,2,3,3,4}"
    # the double of a bipartite graph splits into two copies
    dk2 = double(Graph.from_edges(2, [(0, 1)]))
    assert dk2.n == 4 and dk2.num_edges == 2
    assert all(len(r) == 1 for r in dk2.adj)


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
    # n = 4 takes one body char in "?" .. "~"
    for text in ("C\u20ac", "C\u00e9", "C>", "C", "C??", "C\ud800"):
        with pytest.raises(MalformedGraph6, match="body"):
            g6_decode(text)
    with pytest.raises(MalformedGraph6, match="bad body byte '>'"):
        g6_decode("I?>RCecq?")   # the first bad char is named
    for text in ("~??>?", "~?>??", ">"):
        with pytest.raises(MalformedGraph6, match="bad header byte"):
            g6_decode(text)


def test_g6_decode_matches_bit_loop_reference():
    """The array decoder against the earlier bit-by-bit one, on every
    embedded graph6 file and on random graphs with short (n <= 62) and long
    headers."""
    texts = [path.read_text(encoding="ascii")
             for path in sorted(drgc.catalog.data_dir().glob("*.g6"))]
    assert len(texts) == 6
    rng = random.Random(17)
    for n in range(71):
        p = rng.random()
        texts.append(g6_encode(Graph.from_edges(
            n, [e for e in combinations(range(n), 2) if rng.random() < p])))
    for text in texts:
        got, want = g6_decode(text), reference_graphs.g6_decode(text)
        assert (got.n, got.adj) == (want.n, want.adj), text
        assert g6_encode(got) == text.strip()


def test_foster_g6_decodes_to_90_vertices():
    g, entry = catalog_load("foster")
    assert g.n == 90 and intersection_array(g) == entry.array
