import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from drgc import search
from drgc.catalog import catalog_load
from drgc.errors import TooLarge
from drgc.families import FamilySpec, construct
from drgc.graph import cut_stats
from drgc.search import (SearchConfig, best_upper_bound, exact_cheeger,
                         local_refine, sweep_cut)
from drgc.witness import make_certificate


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


def test_sweep_within_theorem_window():
    for name in ("cube", "petersen", "heawood", "dodecahedron", "foster",
                 "biggs-smith", "desargues"):
        g, e = catalog_load(name)
        cert = sweep_cut(g, e.lambda1)
        lam = float(e.lambda1)
        assert float(cert.ratio) <= math.sqrt(lam * (2 - lam)) + 1e-9, name


def test_sweep_even_bipartite_half():
    g, e = catalog_load("desargues")      # sides of 10
    cert = sweep_cut(g, e.lambda1)
    assert float(cert.ratio) <= 0.5 + 1e-12


def test_refine_never_increases_and_deterministic():
    g, e = catalog_load("dodecahedron")
    start = frozenset(range(10))
    r0 = Fraction(cut_stats(g, start).boundary, cut_stats(g, start).vol)
    a = local_refine(g, start, budget=5000, seed=3, lambda1=e.lambda1)
    b = local_refine(g, start, budget=5000, seed=3, lambda1=e.lambda1)
    assert a.ratio <= r0
    assert a.S == b.S and a.ratio == b.ratio


def test_refine_reaches_optimum_on_dodecahedron():
    g, e = catalog_load("dodecahedron")
    sw = sweep_cut(g, e.lambda1)
    cert = local_refine(g, sw.S, budget=20000, seed=0, lambda1=e.lambda1)
    assert cert.ratio == Fraction(1, 5)


def test_refine_fixed_point():
    g, _ = catalog_load("dodecahedron")
    _, S = exact_cheeger(g)
    cert = local_refine(g, S, budget=1000, seed=0)
    assert cert.ratio == Fraction(1, 5)


def test_exact_beats_all_other_certificates():
    from drgc.witness import girth_cycle_cut, bipartite_half_cut
    g, e = catalog_load("heawood")
    h, _ = exact_cheeger(g)
    assert h <= girth_cycle_cut(g, e.lambda1).ratio
    assert h <= bipartite_half_cut(g, e.lambda1).ratio
    assert h <= sweep_cut(g, e.lambda1).ratio


def test_best_upper_bound_uses_exact_when_small():
    g, e = catalog_load("cube")
    cert = best_upper_bound(g, SearchConfig(), e.lambda1)
    assert cert.method in ("exact",) and cert.ratio == Fraction(1, 3)


def test_best_upper_bound_deterministic_on_large():
    g, e = catalog_load("foster")
    cfg = SearchConfig()
    a = best_upper_bound(g, cfg, e.lambda1)
    b = best_upper_bound(g, cfg, e.lambda1)
    assert a.S == b.S and a.ratio == b.ratio


# -- numpy local refinement against the pure-Python loop ----------------------

def reference_local_refine(g, S, budget: int = 100_000, seed: int = 0,
                           lambda1=None, tabu_len: int = 50,
                           plateau_patience: int = 200, swap_cap: int = 40_000):
    """Pure-Python local refinement, one candidate move at a time: the
    reference the numpy move scan of ``local_refine`` must reproduce exactly
    (same S, ratio and stats for the same arguments)."""
    rng = random.Random(seed)
    n = g.n
    degs = [g.degree(v) for v in range(n)]
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
        else:
            usable = [pm for pm in plateau if not any(m in tabu for m in pm[1])]
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
    return make_certificate(g, best_S, "refine", lambda1)


def _graph(name):
    return construct(FamilySpec.parse(name)) if ":" in name else catalog_load(name)[0]


def _starts(n, rng):
    """|S| = 1, |S| = n/2 (a prefix and a random half) and two random sets."""
    return [frozenset({0}), frozenset(range(n // 2)),
            frozenset(rng.sample(range(n), n // 2)),
            frozenset(rng.sample(range(n), n // 4)),
            frozenset(rng.sample(range(n), n // 3))]


@pytest.mark.parametrize("name", ["dodecahedron", "coxeter", "incidence-gq33",
                                  "hamming:3,3"])
def test_refine_matches_reference(name):
    """Strict single moves, strict swaps and tabu-filtered plateau swaps all
    occur in these walks; the numpy scan must pick the same move at every step."""
    g = _graph(name)
    rng = random.Random(2024)
    for i, start in enumerate(_starts(g.n, rng)):
        for seed in (0, 5):
            args = (g, start, 2000, seed, None)
            assert local_refine(*args, plateau_patience=60) == \
                reference_local_refine(*args, plateau_patience=60), (name, i, seed)
    # pair scan over the cap: plateau walks of single moves only
    args = (g, _starts(g.n, rng)[2], 500, 1, None)
    assert local_refine(*args, swap_cap=0) == reference_local_refine(*args, swap_cap=0)


def test_refine_refuses_inexact_sizes(monkeypatch):
    g, _ = catalog_load("petersen")     # total degree 30
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 30)
    assert local_refine(g, {0, 1}, budget=10) == \
        reference_local_refine(g, {0, 1}, budget=10)
    monkeypatch.setattr(search, "REFINE_TOTAL_CAP", 29)
    with pytest.raises(TooLarge, match="local_refine.*29"):
        local_refine(g, {0, 1}, budget=10)
