import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from drgc import search, spectral
from drgc.catalog import catalog_list, catalog_load
from drgc.errors import EmptySet, FullSet, NotRegular, RangeError, TooLarge
from drgc.families import FamilySpec, construct, default_grid, theory_values
from drgc.graph import (Graph, adjacency_matrix, bfs_distances, cut_stats,
                        eigensystem, intersection_array)
from drgc.search import (SearchConfig, best_upper_bound, exact_cheeger,
                         local_refine, sweep_cut)
from drgc.witness import make_certificate
from reference_graphs import bincount_sweep_order, catalog_and_grid


def brute_force_cheeger(g):
    """Reference enumeration, written independently of the Gray-code walk."""
    best = None
    for size in range(1, g.n // 2 + 1):
        for S in combinations(range(g.n), size):
            if 2 * size == g.n and 0 not in S:
                continue
            st = cut_stats(g, S)
            r = Fraction(st.boundary, st.vol)
            if best is None or r < best:
                best = r
    return best


def test_exact_cube():
    g, _ = catalog_load("cube")
    h, S = exact_cheeger(g)
    assert h == Fraction(1, 3)
    assert h == brute_force_cheeger(g)


def test_exact_dodecahedron():
    g, _ = catalog_load("dodecahedron")
    h, S = exact_cheeger(g)
    assert h == Fraction(1, 5)
    assert cut_stats(g, S).boundary == Fraction(1, 5) * cut_stats(g, S).vol


def test_exact_petersen_in_window():
    g, e = catalog_load("petersen")
    h, _ = exact_cheeger(g)
    assert h == brute_force_cheeger(g)
    assert Fraction(1, 3) <= h <= Fraction(2, 3)


def test_exact_matches_brute_force_small():
    for name in ("k55-minus-matching", "icosahedron", "heawood"):
        g, _ = catalog_load(name)
        assert exact_cheeger(g)[0] == brute_force_cheeger(g), name


def test_exact_cap():
    g, _ = catalog_load("coxeter")      # 28 vertices
    with pytest.raises(TooLarge):
        exact_cheeger(g, exact_cap=24)
    with pytest.raises(TooLarge):
        SearchConfig(exact_cap=31)


def test_seeds_outside_the_mersenne_twister_range():
    for seed in (-1, 2 ** 32):
        with pytest.raises(RangeError, match=f"seed {seed} outside 0..4294967295"):
            SearchConfig(seeds=(0, seed))
    assert SearchConfig(seeds=(0, 2 ** 32 - 1)).seeds == (0, 2 ** 32 - 1)


def test_exact_reaches_past_default_cap():
    g, _ = catalog_load("incidence-pg23")      # 26 vertices
    h, S = exact_cheeger(g, exact_cap=26)
    assert h == Fraction(4, 13)
    st = cut_stats(g, S)
    assert Fraction(st.boundary, st.vol) == h and len(S) <= g.n // 2


def test_exact_half_size_optimum_holds_vertex_0():
    g, _ = catalog_load("cube")      # h = 1/3 only at |S| = 4 = n/2 (a face)
    h, S = exact_cheeger(g)
    assert h == Fraction(1, 3) and len(S) == 4 and 0 in S


def test_sweep_within_theorem_window():
    for name in ("cube", "petersen", "heawood", "dodecahedron", "foster",
                 "biggs-smith", "desargues"):
        g, e = catalog_load(name)
        cert = sweep_cut(g)
        lam = float(e.lambda1)
        assert float(cert.ratio) <= math.sqrt(lam * (2 - lam)) + 1e-9, name


def test_sweep_even_bipartite_half():
    g, _ = catalog_load("desargues")      # sides of 10
    cert = sweep_cut(g)
    assert float(cert.ratio) <= 0.5 + 1e-12


def test_refine_never_increases_and_deterministic(monkeypatch):
    g, _ = catalog_load("dodecahedron")
    start = frozenset(range(10))
    r0 = Fraction(cut_stats(g, start).boundary, cut_stats(g, start).vol)
    monkeypatch.setattr(search, "REFINE_BUDGET", 5000)
    a = local_refine(g, start, seed=3)
    b = local_refine(g, start, seed=3)
    assert a.ratio <= r0
    assert a.S == b.S and a.ratio == b.ratio


def test_refine_reaches_optimum_on_dodecahedron(monkeypatch):
    g, _ = catalog_load("dodecahedron")
    sw = sweep_cut(g)
    monkeypatch.setattr(search, "REFINE_BUDGET", 20000)
    cert = local_refine(g, sw.S, seed=0)
    assert cert.ratio == Fraction(1, 5)


def test_refine_fixed_point(monkeypatch):
    g, _ = catalog_load("dodecahedron")
    _, S = exact_cheeger(g)
    monkeypatch.setattr(search, "REFINE_BUDGET", 1000)
    cert = local_refine(g, S, seed=0)
    assert cert.ratio == Fraction(1, 5)


def test_refine_reads_its_budget_at_call_time(monkeypatch):
    # a patched REFINE_BUDGET reaches a direct call: the walk stops after
    # one move, short of where the full walk ends
    g, _ = catalog_load("dodecahedron")
    start = frozenset(range(5))
    monkeypatch.setattr(search, "REFINE_BUDGET", 1)
    cert = local_refine(g, start)
    assert cert == reference_local_refine(g, start, budget=1)
    assert cert != reference_local_refine(g, start)


def test_exact_beats_all_other_certificates():
    from drgc.witness import girth_cycle_cut, bipartite_half_cut
    g, e = catalog_load("heawood")
    h, _ = exact_cheeger(g)
    assert h <= girth_cycle_cut(g, e.array).ratio
    assert h <= bipartite_half_cut(g).ratio
    assert h <= sweep_cut(g).ratio


def test_best_upper_bound_uses_exact_when_small():
    g, _ = catalog_load("cube")
    cert = best_upper_bound(g, SearchConfig())
    assert cert.method in ("exact",) and cert.ratio == Fraction(1, 3)


def test_best_upper_bound_deterministic_on_large():
    g, _ = catalog_load("foster")
    cfg = SearchConfig()
    a = best_upper_bound(g, cfg)
    b = best_upper_bound(g, cfg)
    assert a.S == b.S and a.ratio == b.ratio


# -- numpy local refinement against the pure-Python loop ----------------------

def reference_local_refine(g, S, budget: int = 100_000, seed: int = 0,
                           tabu_len: int = 50,
                           plateau_patience: int = 200, swap_cap: int = 40_000,
                           seen: set | None = None):
    """Pure-Python local refinement, one candidate move at a time: the
    reference the bucketed move scan of ``local_refine`` must reproduce
    exactly (same S, ratio and stats for the same arguments).

    On a regular graph, ``seen`` collects the cases of the bucket scan that
    the walk reached, with a the least din in S and b the greatest outside:
    "least L+1" (a swap scan whose least key din[u] - din[w] + A(u, w) is
    a - b + 1), "strict swap from a+1" (a chosen swap whose u has din a + 1)
    and "tabu zero pair" (a plateau step that drops a key-0 swap for tabu)."""
    rng = random.Random(seed)
    n = g.n
    degs = [len(g.adj[v]) for v in range(n)]
    total = 2 * g.num_edges
    half = n // 2
    inS = [False] * n
    din = [0] * n            # neighbors inside S
    S = set(S)
    for v in S:
        inS[v] = True
    for v in S:
        for w in g.adj[v]:
            din[w] += 1
    vol = sum(degs[v] for v in S)
    boundary = sum(degs[v] - din[v] for v in S)

    def rkey(b, vl):
        return (b, min(vl, total - vl))

    def rless(x, y):
        return x[0] * y[1] < y[0] * x[1]

    def requal(x, y):
        return x[0] * y[1] == y[0] * x[1]

    def apply_move(vs_out, vs_in):
        nonlocal vol, boundary
        for u in vs_out:
            inS[u] = False
            S.discard(u)
            vol -= degs[u]
            boundary += 2 * din[u] - degs[u]
            for w in g.adj[u]:
                din[w] -= 1
        for u in vs_in:
            inS[u] = True
            S.add(u)
            vol += degs[u]
            boundary += degs[u] - 2 * din[u]
            for w in g.adj[u]:
                din[w] += 1

    cur = rkey(boundary, vol)
    best, best_S = cur, frozenset(S)
    tabu: list[int] = []
    stale = 0
    moves = 0
    while moves < budget and stale <= plateau_patience:
        strict = None          # (key, kind, moved tuple)
        plateau = []
        size = len(S)
        for v in range(n):
            if inS[v]:
                if size == 1:
                    continue
                key = rkey(boundary + 2 * din[v] - degs[v], vol - degs[v])
                moved = (v,)
            else:
                if size >= half:
                    continue
                key = rkey(boundary + degs[v] - 2 * din[v], vol + degs[v])
                moved = (v,)
            if rless(key, cur) and (strict is None or rless(key, strict[0])):
                strict = (key, moved)
            elif requal(key, cur):
                plateau.append((key, moved))
        # swaps only when single moves stall and the pair scan is affordable
        if strict is None and len(S) * (n - len(S)) <= swap_cap:
            Sl = sorted(S)
            out = [v for v in range(n) if not inS[v]]
            if seen is not None:
                a = min(din[u] for u in Sl)
                b = max(din[w] for w in out)
                if min(din[u] - din[w] + (w in g.adj[u])
                       for u in Sl for w in out) == a - b + 1:
                    seen.add("least L+1")
            for u in Sl:
                b_u = boundary + 2 * din[u] - degs[u]
                v_u = vol - degs[u]
                adj_u = set(g.adj[u])
                for w in out:
                    dw = din[w] - (1 if w in adj_u else 0)
                    key = rkey(b_u + degs[w] - 2 * dw, v_u + degs[w])
                    if rless(key, cur) and (strict is None or rless(key, strict[0])):
                        strict = (key, (u, w))
                    elif requal(key, cur):
                        plateau.append((key, (u, w)))
        if strict is not None:
            _, moved = strict
            stale = 0
            if seen is not None and len(moved) == 2 and din[moved[0]] == a + 1:
                seen.add("strict swap from a+1")
        else:
            usable = [pm for pm in plateau if not any(m in tabu for m in pm[1])]
            if seen is not None and any(len(pm[1]) == 2 and pm not in usable
                                        for pm in plateau):
                seen.add("tabu zero pair")
            if not usable:
                break
            _, moved = usable[rng.randrange(len(usable))]
            stale += 1
        apply_move([m for m in moved if inS[m]], [m for m in moved if not inS[m]])
        cur = rkey(boundary, vol)
        tabu.extend(moved)
        del tabu[:-tabu_len]
        moves += 1
        if rless(cur, best):
            best, best_S = cur, frozenset(S)
    return make_certificate(g, best_S, "refine")


def _graph(name):
    return construct(FamilySpec.parse(name)) if ":" in name else catalog_load(name)[0]


def _starts(n, rng):
    """|S| = 1, |S| = n/2 (a prefix and a random half) and two random sets."""
    return [frozenset({0}), frozenset(range(n // 2)),
            frozenset(rng.sample(range(n), n // 2)),
            frozenset(rng.sample(range(n), n // 4)),
            frozenset(rng.sample(range(n), n // 3))]


@pytest.mark.parametrize("name", ["dodecahedron", "coxeter", "incidence-gq33",
                                  "hamming:3,3", "foldedhalvedcube:5",
                                  "flag-gh22"])
def test_refine_matches_reference(name, monkeypatch):
    """Strict single moves, strict swaps and tabu-filtered plateau swaps all
    occur in these walks; the numpy scan must pick the same move at every step.
    foldedhalvedcube:5 (k = 45) and flag-gh22 (k = 4) are the default walks
    that scan swaps most often."""
    g = _graph(name)
    rng = random.Random(2024)
    monkeypatch.setattr(search, "REFINE_BUDGET", 2000)
    for i, start in enumerate(_starts(g.n, rng)):
        for seed in (0, 5):
            assert local_refine(g, start, seed, plateau_patience=60) == \
                reference_local_refine(g, start, 2000, seed, plateau_patience=60), \
                (name, i, seed)
    # pair scan over the cap: plateau walks of single moves only
    start = _starts(g.n, rng)[2]
    monkeypatch.setattr(search, "SWAP_CAP", 0)
    monkeypatch.setattr(search, "REFINE_BUDGET", 500)
    assert local_refine(g, start, 1) == \
        reference_local_refine(g, start, 500, 1, swap_cap=0)


def _circulant(n, jumps):
    return Graph.from_edges(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def test_refine_matches_reference_on_random_circulants(monkeypatch):
    """Regular graphs that are not distance-regular, from many random starts.
    The walks reach every case of the bucket scan that the catalog walks may
    miss: a least swap key of L + 1, a strict swap from a row of din a + 1,
    and key-0 swaps filtered out by the tabu list."""
    rng = random.Random(16)
    seen = set()
    monkeypatch.setattr(search, "REFINE_BUDGET", 150)
    for _ in range(30):
        n = rng.randrange(8, 28)
        g = _circulant(n, rng.sample(range(1, n // 2 + 1), rng.randrange(1, 4)))
        for _ in range(4):
            start = frozenset(rng.sample(range(n), rng.randrange(1, n)))
            seed = rng.randrange(100)
            assert local_refine(g, start, seed, plateau_patience=30) == \
                reference_local_refine(g, start, 150, seed, plateau_patience=30,
                                       seen=seen), (g.adj, start, seed)
    assert seen == {"least L+1", "strict swap from a+1", "tabu zero pair"}


def test_refine_refuses_inexact_sizes(monkeypatch):
    g, _ = catalog_load("petersen")     # total degree 30
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 30)
    monkeypatch.setattr(search, "REFINE_BUDGET", 10)
    assert local_refine(g, {0, 1}) == reference_local_refine(g, {0, 1}, budget=10)
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 29)
    with pytest.raises(TooLarge, match="local_refine.*29"):
        local_refine(g, {0, 1})


def test_refine_refuses_irregular_graphs_and_trivial_sets():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotRegular, match="not regular"):
        local_refine(path, {0, 1})
    with pytest.raises(NotRegular, match="no edges"):
        local_refine(Graph(4, [[], [], [], []]), {0, 1})
    g, _ = catalog_load("petersen")
    with pytest.raises(EmptySet):
        local_refine(g, set())
    with pytest.raises(FullSet):
        local_refine(g, range(10))


# -- numpy prefix sweep against the pure-Python loop ---------------------------

def reference_sweep_order(g, x) -> frozenset:
    """Best prefix cut for an arbitrary vertex scoring vector."""
    degs = [len(g.adj[v]) for v in range(g.n)]
    total = 2 * g.num_edges
    order = sorted(range(g.n), key=lambda v: (-x[v], v))
    in_S = [False] * g.n
    vol = boundary = 0
    best = None
    best_i = 0
    for i, v in enumerate(order[:-1]):
        in_S[v] = True
        vol += degs[v]
        for w in g.adj[v]:
            boundary += -1 if in_S[w] else 1
        r = Fraction(boundary, min(vol, total - vol))
        if best is None or r < best:
            best, best_i = r, i
    return frozenset(order[:best_i + 1])


def _default_targets(max_n):
    return [e.name for e in catalog_list() if e.array.v <= max_n] + \
        [str(s) for s in default_grid() if theory_values(s).v <= max_n]


@pytest.mark.parametrize("name", _default_targets(256))
def test_sweep_matches_reference(name):
    """The second eigenvector, a three-valued integer vector (long runs of
    ties) and a vector of 1.0, 0.0 and -0.0 (the zeros compare equal, so
    they are ordered by vertex)."""
    g = _graph(name)
    rng = random.Random(name)
    vectors = [eigensystem(g)[1][:, -2],
               np.array([float(rng.randrange(3)) for _ in range(g.n)]),
               np.array([rng.choice((1.0, 0.0, -0.0)) for _ in range(g.n)])]
    for x in vectors:
        assert search._sweep_order(g, x) == reference_sweep_order(g, x)


def test_sweep_matches_bincount_reference():
    """The later-neighbour sweep against its earlier bincount form, on the
    catalog and grid graphs up to 256 vertices and two irregular graphs
    (K_5 with a path of 6 vertices hung on it, and a 30-vertex random graph
    on a Hamiltonian path), each with seeded Gaussian vectors in which
    runs of entries are forced to tie."""
    lollipop = Graph.from_edges(11, list(combinations(range(5), 2)) +
                                [(i, i + 1) for i in range(4, 10)])
    rng = random.Random(11)
    sparse = Graph.from_edges(30, [(i, i + 1) for i in range(29)] +
                              [e for e in combinations(range(30), 2)
                               if e[1] > e[0] + 1 and rng.random() < 0.15])
    assert lollipop.regular_degree() is sparse.regular_degree() is None
    graphs = catalog_and_grid(max_n=256) + [("lollipop", lollipop), ("sparse", sparse)]
    rs = np.random.RandomState(5)
    for name, g in graphs:
        for _ in range(3):
            x = rs.randn(g.n)
            x[rs.randint(g.n, size=g.n // 2)] = x[rs.randint(g.n)]
            assert search._sweep_order(g, x) == bincount_sweep_order(g, x), name
        tied = rs.randint(3, size=g.n).astype(float)
        assert search._sweep_order(g, tied) == bincount_sweep_order(g, tied), name


def test_sweep_refuses_inexact_sizes(monkeypatch):
    g, _ = catalog_load("petersen")     # total degree 30
    x = eigensystem(g)[1][:, -2]
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 30)
    assert search._sweep_order(g, x) == reference_sweep_order(g, x)
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 29)
    with pytest.raises(TooLarge, match="sweep.*29"):
        search._sweep_order(g, x)
    with pytest.raises(TooLarge, match="sweep.*29"):
        sweep_cut(g)


# -- meet-in-the-middle exact oracle against the pure-Python Gray walk --------

def reference_exact_cheeger(g, exact_cap: int = 24):
    """Pure-Python Gray walk, one subset per step: the reference that
    ``exact_cheeger`` must reproduce exactly, h and S both.

    Global minimum of boundary/vol(S) over all S with |S| <= n/2.

    Returns (h, S) with h an exact Fraction.  Subsets are enumerated by
    bitmask in Gray-code order; at |S| = n/2 each complementary pair is
    visited once (canonical side contains vertex 0).
    """
    n = g.n
    if n > exact_cap:
        raise TooLarge(f"n = {n} exceeds exact cap {exact_cap}")
    degs = [len(g.adj[v]) for v in range(n)]
    nbr_mask = [0] * n
    for u in range(n):
        for w in g.adj[u]:
            nbr_mask[u] |= 1 << w
    half = n // 2
    best_num, best_den, best_mask = 1, 0, 0   # ratio = +inf
    mask = 0
    size = 0
    vol = 0
    inside = 0
    for i in range(1, 1 << n):
        gray = i ^ (i >> 1)
        bit = gray ^ (mask)
        v = bit.bit_length() - 1
        common = (nbr_mask[v] & mask).bit_count()   # v is never its own neighbor
        if gray > mask:     # vertex v added
            mask = gray
            size += 1
            vol += degs[v]
            inside += 2 * common
        else:               # vertex v removed
            mask = gray
            size -= 1
            vol -= degs[v]
            inside -= 2 * common
        if size == 0 or size > half:
            continue
        if 2 * size == n and not mask & 1:
            continue
        boundary = vol - inside
        # compare boundary/vol < best_num/best_den exactly
        if boundary * best_den < best_num * vol:
            best_num, best_den, best_mask = boundary, vol, mask
    S = frozenset(v for v in range(n) if best_mask >> v & 1)
    return Fraction(best_num, best_den), S


SMALL_DEFAULT_TARGETS = _default_targets(16)


def _exact_both_block_sizes(g, monkeypatch):
    """exact_cheeger(g) at the module's block size, and again at blocks of
    two rows, so that ties between blocks are decided too."""
    result = exact_cheeger(g)
    with monkeypatch.context() as m:
        m.setattr(search, "EXACT_BLOCK", 2)
        assert exact_cheeger(g) == result
    return result


@pytest.mark.parametrize("name", SMALL_DEFAULT_TARGETS)
def test_exact_matches_gray_walk_on_default_targets(name, monkeypatch):
    g = _graph(name)
    assert _exact_both_block_sizes(g, monkeypatch) == reference_exact_cheeger(g)


def _random_graph(n, p, rng):
    """A seeded G(n, p) sample redrawn until no vertex is isolated."""
    while True:
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        if all(g.adj):
            return g


def test_exact_matches_gray_walk_on_random_graphs(monkeypatch):
    """Irregular graphs have many equal ratios, so this exercises the Gray
    order among ties and the canonical side at |S| = n/2 on both parities."""
    rng = random.Random(6)
    for i in range(30):
        n = 2 + i % 15
        g = _random_graph(n, rng.choice((0.2, 0.35, 0.6, 0.9)), rng)
        assert _exact_both_block_sizes(g, monkeypatch) == \
            reference_exact_cheeger(g), (i, g.adj)


def test_exact_skips_volume_zero_sets():
    """Isolated vertices give sets of volume 0, which are never chosen; with
    no edges at all no set qualifies."""
    for adj in ([[], [2], [1]], [[1], [0], [], [4], [3], []],
                [[], [], [3], [2, 4], [3]]):
        g = Graph(len(adj), adj)
        assert exact_cheeger(g) == reference_exact_cheeger(g), adj
    with pytest.raises(EmptySet):
        exact_cheeger(Graph(3, [[], [], []]))


# -- theta_1-vectors from distances (above search.EIGENVECTOR_CAP) -----------

def _drg_targets():
    return [e.name for e in catalog_list() if e.source != "parameters-only"] + \
        [str(s) for s in default_grid()] + ["odd:6", "hamming:3,7"]


@pytest.mark.parametrize("name", _drg_targets())
def test_theta1_vectors_are_eigenvectors(name):
    """E R solves A X = theta_1 X to rounding for Gaussian columns, and its
    column for e_0 is vertex 0's spherical vector u_{d(0, y)}."""
    g = _graph(name)
    ia = intersection_array(g)
    theta1 = spectral.drg_spectrum(ia).theta1
    R = np.random.RandomState(0).randn(g.n, 3)
    X = search._theta1_vectors(g, R)
    A = adjacency_matrix(g)
    assert np.linalg.norm(X, axis=0).min() > 1e-3 * np.linalg.norm(R, axis=0).max()
    assert np.linalg.norm(A @ X - theta1 * X) <= 1e-9 * np.linalg.norm(X)
    u = spectral.standard_sequence(ia, theta1)
    x0 = search._theta1_vectors(g, np.eye(g.n, 1))[:, 0]
    assert np.array_equal(x0, np.array(u)[bfs_distances(g, 0)])


def test_eigenspace_starts_match_fresh_generators(monkeypatch):
    """_theta1_columns on both sources of theta_1-vectors: column 0 is eigh's
    second eigenvector up to the cap and vertex 0's spherical vector
    u_{d(0, y)} above it, and the seed columns are the vectors that a fresh
    RandomState(seed) per seed gave.  johnson:8,3's theta_1 has
    multiplicity 7 and johnson:7,3 has 35 vertices: an odd number of draws
    leaves a cached Gaussian behind, which reseeding must drop."""
    seeds = (0, 1, 9, 12345, 2 ** 31 - 1)

    def fresh_columns(g):
        if g.n <= search.EIGENVECTOR_CAP:
            vals, vecs = eigensystem(g)
            basis = vecs[:, np.abs(vals - vals[-2]) < 1e-8]
            return [vecs[:, -2]] + [
                basis @ np.random.RandomState(s).randn(basis.shape[1]) for s in seeds]
        ia = intersection_array(g)
        u = spectral.standard_sequence(ia, spectral.drg_spectrum(ia).theta1)
        R = np.column_stack([np.random.RandomState(s).randn(g.n) for s in seeds])
        return [np.array(u)[bfs_distances(g, 0)]] + list(search._theta1_vectors(g, R).T)

    def check(g):
        got = search._theta1_columns(g, seeds)
        want = fresh_columns(g)
        assert got.shape == (g.n, 1 + len(seeds))
        for x, y in zip(got.T, want):
            assert np.array_equal(x, y)
        assert np.array_equal(search._theta1_columns(g, ())[:, 0], want[0])

    g = construct(FamilySpec("johnson", (8, 3)))
    vals = eigensystem(g)[0]
    assert (np.abs(vals - vals[-2]) < 1e-8).sum() == 7
    check(g)
    monkeypatch.setattr(search, "EIGENVECTOR_CAP", 34)
    g = construct(FamilySpec("johnson", (7, 3)))
    assert g.n == 35
    check(g)


def test_search_solves_one_eigensystem_per_target(monkeypatch):
    """Between exact_cap and EIGENVECTOR_CAP, coxeter (28 vertices) takes its
    sweep vector and every seeded start from one eigh."""
    calls = []
    solve = search.eigensystem
    monkeypatch.setattr(search, "eigensystem",
                        lambda g: calls.append(g.n) or solve(g))
    g, _ = catalog_load("coxeter")
    assert SearchConfig().exact_cap < g.n <= search.EIGENVECTOR_CAP
    best_upper_bound(g)
    assert calls == [28]


@pytest.mark.parametrize("seed", (0, 1, 9, 12345, 2 ** 31 - 1, 2 ** 32 - 1))
def test_gaussians_match_randomstate_bit_for_bit(seed):
    """Seed's cached stream returns RandomState(seed).randn(m) exactly,
    whether the lengths grow (the cache draws more) or shrink (it slices a
    prefix).  An odd m leaves the partner of its last normal in the cache,
    where the next longer request must find it."""
    lengths = (0, 1, 2, 7, 35, 1716, 2049)
    for order in (lengths, lengths[::-1]):
        search._normal_stream.cache_clear()
        for m in order:
            want = np.random.RandomState(seed).randn(m)
            got = search._normal_stream(seed).first(m)
            assert got.shape == (m,) and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            got[:] = 0              # a copy: the cached normals stay
    assert np.array_equal(search._normal_stream(seed).first(7),
                          np.random.RandomState(seed).randn(7))


def test_search_does_not_import_numpy_random():
    """verify_one draws its seeded Gaussians on both sources of
    theta_1-vectors, biggs-smith (dense eigenbasis) and hamming:3,7
    (343 vertices, E R), without importing numpy.random, and the second
    target reuses the first one's streams."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "from drgc import search\n"
            "from drgc.report import verify_one\n"
            "for target in ('biggs-smith', 'hamming:3,7'):\n"
            "    verify_one(target)\n"
            "info = search._normal_stream.cache_info()\n"
            "print(info.misses, info.hits, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8", "8", "False"]   # one stream per seed
