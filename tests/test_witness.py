import random
from fractions import Fraction
from itertools import combinations

import pytest

from drgc import witness
from drgc.catalog import catalog_load
from drgc.errors import DrgcError, InfeasibleParams, ParamDomain, SelfCheckFailed
from drgc.exact import SqrtVal
from drgc.families import FamilySpec, construct, descendant, theory_values
from drgc.graph import Graph, IntersectionArray, cut_stats, intersection_array
from drgc.spectral import at_most_lambda1
from drgc.witness import (antipodal_fibre_cut, avg_valency_certificate,
                          balanced_partition_bound, ball_cut,
                          bipartite_diameter3_verdict, bipartite_half_cut,
                          doubled_grassmann_verdict,
                          girth_cycle_cut, gq33_incidence_witness,
                          gq_gh_incidence_verdict, greedy_dense_subset,
                          make_certificate, shilla_cut, srg_certify,
                          triangle_chain_cut, triangle_octagon_cut,
                          twelve_cage_witness)


def cross_edges(g, A, B) -> int:
    """Ordered edges from A into B, recounted from the adjacency lists."""
    A, B = frozenset(A), frozenset(B)
    return sum(1 for a in A for w in g.adj[a] if w in B)


# -- certificates recompute their own arithmetic -------------------------------------

def test_certificate_recomputed_from_scratch():
    g, _ = catalog_load("petersen")
    cert = make_certificate(g, {0, 1, 2, 3}, "test")
    st = cut_stats(g, set(cert.S))
    assert cert.stats == st and cert.ratio == Fraction(st.boundary, st.vol)
    assert cert.verdict == "unknown"        # only the report judges certificates


def test_certificate_normalizes_large_sets():
    g, _ = catalog_load("petersen")
    big = set(range(8))
    cert = make_certificate(g, big, "test")
    assert len(cert.S) == 2
    assert set(cert.S) == set(range(10)) - big


# -- average-valency certificates ------------------------------------------------------

def test_avg_valency_johnson_descendant():
    spec = FamilySpec.parse("johnson:6,3")
    g = construct(spec)
    cert = avg_valency_certificate(g, descendant(spec), theory_values(spec).theta1)
    assert cert.ratio == Fraction(9 - 6, 9)      # (k - k')/k with k' = 6
    assert at_most_lambda1(intersection_array(g), cert.ratio)


def test_avg_valency_single_vertex():
    g, e = catalog_load("petersen")
    cert = avg_valency_certificate(g, {0}, e.theta1)
    assert cert.ratio == 1


def test_avg_valency_foster_target_numbers():
    # any S with |S| = 39 and 48 inside edges gives k' = 96/39 >= sqrt(6)
    kprime = Fraction(2 * 48, 39)
    assert kprime * kprime >= 6
    g, e = catalog_load("foster")
    with pytest.raises(DrgcError):
        avg_valency_certificate(g, range(46), e.theta1)    # 46 > 45 = n/2


# -- ball and sphere cuts ---------------------------------------------------------------

def test_ball_cut_petersen_reproduces_srg_bound():
    g, _ = catalog_load("petersen")
    cert = ball_cut(g, 1, "ball")
    k, b1, c2 = 3, 2, 1
    assert cert.ratio == max(Fraction(b1, k + 1), Fraction(c2, k)) == Fraction(1, 2)


def test_ball_cut_radius_zero():
    g, _ = catalog_load("petersen")
    cert = ball_cut(g, 0, "ball")
    assert len(cert.S) == 1 and cert.ratio == 1


def test_ball_cut_radius_out_of_range():
    from drgc.errors import RangeError
    g, _ = catalog_load("petersen")
    with pytest.raises(RangeError):
        ball_cut(g, 2, "ball")      # radius must stay below the diameter
    with pytest.raises(RangeError):
        ball_cut(g, 3, "sphere")


def test_shilla_hamming33():
    # H(3,3) has theta_1 = 3 = a_3, and Gamma_3 is under half the graph
    g = construct(FamilySpec.parse("hamming:3,3"))
    ia = intersection_array(g)
    assert ia.a(3) == 3
    lam1 = theory_values(FamilySpec.parse("hamming:3,3")).lambda1
    cert = shilla_cut(g, ia)
    assert cert.ratio == Fraction(ia.c[2], ia.k) == Fraction(1, 2) == lam1
    assert at_most_lambda1(ia, cert.ratio)       # c_3/k = lambda_1 exactly


def test_shilla_odd4_exception():
    # O_4 is Shilla but Gamma_3 exceeds half the graph; the cut is honest
    g, _ = catalog_load("odd-4")
    ia = intersection_array(g)
    sphere = ia.sphere_sizes()[3]
    assert 2 * sphere > ia.v
    cert = shilla_cut(g, ia)
    assert not at_most_lambda1(ia, cert.ratio)  # this method fails here, as it must


# -- strongly regular certification ------------------------------------------------------

def test_srg_petersen_local_branch():
    b = srg_certify(IntersectionArray((3, 2), (1, 1)))
    assert b.method == "srg-local-cut" and b.value == Fraction(1, 2)
    assert b.lambda1 == Fraction(2, 3) and b.verdict == "ok"


def test_srg_conference_13():
    b = srg_certify(IntersectionArray((6, 3), (1, 3)))
    assert b.method == "srg-conference" and b.value == Fraction(1, 2)
    # lambda_1 = (v - sqrt(v))/(v - 1) at v = 13
    assert b.lambda1 == SqrtVal(Fraction(13, 12), Fraction(-1, 12), 13)


def test_srg_50_7_0_1_balanced_branch():
    b = srg_certify(IntersectionArray((7, 6), (1, 1)))
    assert b.method == "srg-balanced"
    assert b.value == Fraction(5, 7) == b.lambda1


def test_srg_infeasible():
    with pytest.raises((InfeasibleParams, Exception)):
        srg_certify(IntersectionArray((6, 4), (1, 1)))   # fails integrality


def test_balanced_partition_bound_values():
    assert balanced_partition_bound(3, -3, 8) == 1
    assert balanced_partition_bound(7, -3, 50) == Fraction(5, 7)
    assert balanced_partition_bound(6, -2, 9) == Fraction(20, 27)


def test_balanced_partition_bound_realizable_on_k333():
    # srg(9,6,3,6) = K_{3,3,3}: some balanced cut meets the odd-v bound 20/27
    edges = [(u, v) for u, v in combinations(range(9), 2) if u % 3 != v % 3]
    g = Graph.from_edges(9, edges)
    bound = balanced_partition_bound(6, -2, 9)
    best = min(Fraction(cut_stats(g, S).boundary, cut_stats(g, S).vol)
               for S in combinations(range(9), 4))
    assert best <= bound


# -- greedy dense subset (averaging lemma) -----------------------------------------------

def test_greedy_full_set():
    g, _ = catalog_load("petersen")
    B = set(g.adj[0])
    assert greedy_dense_subset(g, {0}, B, len(B)) == frozenset(B)


def test_greedy_c6_singleton():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    B1 = greedy_dense_subset(c6, {0}, {1, 5}, 1)
    assert cross_edges(c6, {0}, B1) == 1       # >= 2/2


def test_greedy_meets_average_and_optimum():
    rng = random.Random(42)
    for trial in range(1000):
        n = rng.randrange(6, 16)
        p = rng.uniform(0.2, 0.7)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p}
        g = Graph.from_edges(n, edges)
        verts = list(range(n))
        rng.shuffle(verts)
        asz = rng.randrange(1, n - 1)
        A = frozenset(verts[:asz])
        B = frozenset(verts[asz:])
        rp = rng.randrange(1, len(B) + 1)
        sel = greedy_dense_subset(g, A, B, rp)
        achieved = cross_edges(g, A, sel)
        assert achieved >= Fraction(rp * cross_edges(g, A, B), len(B))
        if len(B) <= 12:
            best = max(cross_edges(g, A, C)
                       for C in combinations(sorted(B), rp))
            assert achieved == best


# -- bipartite half cut ------------------------------------------------------------------

def test_half_cut_c4():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cert = bipartite_half_cut(c4)
    assert cert.ratio <= Fraction(1, 2)


def test_half_cut_heawood_odd_sides():
    g, e = catalog_load("heawood")
    cert = bipartite_half_cut(g)
    assert cert.ratio <= Fraction(1, 2) + Fraction(1, 2 * 49)
    assert at_most_lambda1(e.array, cert.ratio)


def test_half_cut_gq33_even_sides():
    # sides of 40 are even, so the guarantee is 1/2; that alone exceeds
    # lambda_1 = (4-sqrt(6))/4 here, but the realized cut lands below it
    g, e = catalog_load("incidence-gq33")
    cert = bipartite_half_cut(g)
    assert cert.ratio <= Fraction(1, 2)
    assert e.lambda1 < Fraction(1, 2)
    assert cert.ratio < e.lambda1 and at_most_lambda1(e.array, cert.ratio)


def test_half_cut_respects_guarantee_on_catalog_bipartite():
    from drgc.catalog import catalog_list
    checked = 0
    for entry in catalog_list():
        if entry.source == "parameters-only" or not entry.array.is_bipartite():
            continue
        g, _ = catalog_load(entry.name)
        r = g.n // 2
        cert = bipartite_half_cut(g)
        guarantee = Fraction(1, 2) if r % 2 == 0 \
            else Fraction(1, 2) + Fraction(1, 2 * r * r)
        assert cert.ratio <= guarantee, entry.name
        checked += 1
    assert checked >= 10


# -- analytic verdict tables ----------------------------------------------------------------

def test_doubled_grassmann_verdicts():
    assert doubled_grassmann_verdict(5, 2).verdict == "ok"
    b = doubled_grassmann_verdict(4, 1)
    assert b.verdict == "ok"
    assert Fraction(1, 2 * 21 ** 2) < Fraction(1, 4 ** 2)   # r = [3 1]_4 = 21
    assert doubled_grassmann_verdict(2, 2).verdict == "open"
    assert doubled_grassmann_verdict(3, 2).verdict == "open"
    assert doubled_grassmann_verdict(2, 1).verdict == "ok"
    assert doubled_grassmann_verdict(3, 1).verdict == "ok"
    with pytest.raises(ParamDomain):
        doubled_grassmann_verdict(1, 1)


def test_gq_verdicts():
    assert gq_gh_incidence_verdict("GQ", 7).verdict == "ok"
    b = gq_gh_incidence_verdict("GQ", 7)
    assert b.lambda1 == (SqrtVal(8) - SqrtVal.sqrt(14)) / 8
    assert float(b.lambda1) > 0.5
    assert gq_gh_incidence_verdict("GQ", 2).verdict == "deferred-to-catalog"
    assert gq_gh_incidence_verdict("GQ", 3).verdict == "deferred-to-catalog"
    for q in (4, 5):
        assert gq_gh_incidence_verdict("GQ", q).verdict == "open"
    for q in (8, 9, 11, 13, 16):
        assert gq_gh_incidence_verdict("GQ", q).verdict == "ok"


def test_gh_verdicts():
    assert gq_gh_incidence_verdict("GH", 2).verdict == "deferred-to-catalog"
    for q in (3, 4, 5, 7, 8, 9):
        assert gq_gh_incidence_verdict("GH", q).verdict == "open"
    for q in (11, 13, 16):
        assert gq_gh_incidence_verdict("GH", q).verdict == "ok"
    b = gq_gh_incidence_verdict("GH", 16)
    v = 2 * (16 ** 4 + 16 ** 2 + 1) * 17
    assert v == 2236962
    assert b.value < Fraction(10, 17)
    assert b.lambda1 > Fraction(10, 17)      # (17 - sqrt(48))/17 > 10/17, exact


def test_bip3_verdicts():
    b = bipartite_diameter3_verdict(IntersectionArray((4, 3, 1), (1, 3, 4)))
    assert b.lambda1 == Fraction(3, 4)          # theta1 = sqrt(4-3) = 1
    assert b.value <= Fraction(26, 50) and b.verdict == "ok"
    b = bipartite_diameter3_verdict(IntersectionArray((4, 3, 3), (1, 1, 4)))
    assert b.lambda1 == (SqrtVal(4) - SqrtVal.sqrt(3)) / 4
    # generic k = 10, c2 = 2: lambda1 = (10 - sqrt(8))/10 > 26/50
    lam = (SqrtVal(10) - SqrtVal.sqrt(8)) / 10
    assert lam > Fraction(26, 50)
    with pytest.raises(ParamDomain):
        bipartite_diameter3_verdict(IntersectionArray((3, 2, 1), (1, 2, 3)))


# -- antipodal diameter-3 --------------------------------------------------------------------

def test_icosahedron_ball_branch():
    g, e = catalog_load("icosahedron")
    ia = intersection_array(g)
    assert ia.D == 3 and ia.is_antipodal()
    cert = antipodal_fibre_cut(g, ia, e.theta1)
    assert cert.method == "antipodal-ball"
    # measured average valency 10/3 beats sqrt(5) exactly: (10/3)^2 > 5
    st = cut_stats(g, set(cert.S))
    kprime = Fraction(st.inside, st.size)
    assert kprime == Fraction(10, 3) and kprime * kprime > 5
    assert at_most_lambda1(ia, cert.ratio)


def test_k55_fibre_branch():
    g, e = catalog_load("k55-minus-matching")
    ia = intersection_array(g)
    assert ia.D == 3 and ia.is_antipodal()
    cert = antipodal_fibre_cut(g, ia, e.theta1)
    assert cert.method == "antipodal-fibre"
    assert cert.ratio <= Fraction(3, 4) and at_most_lambda1(ia, cert.ratio)


def test_crown12_fibre_degenerate():
    # K_6,6 minus a matching: array {5,4,1;1,4,5}, fibre size r = b1/c2 = 1
    edges = [(i, 6 + j) for i in range(6) for j in range(6) if i != j]
    g = Graph.from_edges(12, edges)
    ia = intersection_array(g)
    assert str(ia) == "{5,4,1;1,4,5}"
    assert ia.b[1] // ia.c[1] == 1
    from drgc.spectral import exact_theta1
    t1 = exact_theta1(ia)
    cert = antipodal_fibre_cut(g, ia, t1)
    assert cert.method == "antipodal-fibre" and len(cert.S) == 6   # (r+1)t = 2*3


def test_not_antipodal():
    g, _ = catalog_load("heawood")
    ia = intersection_array(g)
    assert not (ia.D == 3 and ia.is_antipodal())


# -- girth cycle cut -----------------------------------------------------------------------

def test_girth_cut_heawood():
    g, e = catalog_load("heawood")
    cert = girth_cycle_cut(g, e.array)
    assert cert.ratio == Fraction(1, 3) and len(cert.S) == 6
    assert at_most_lambda1(e.array, cert.ratio)


def test_girth_cut_equality_cases():
    for name in ("coxeter", "tutte-coxeter"):
        g, e = catalog_load(name)
        cert = girth_cycle_cut(g, e.array)
        assert cert.ratio == Fraction(1, 3) == e.lambda1.as_fraction()
        assert at_most_lambda1(e.array, cert.ratio)
    g, e = catalog_load("4-cube")
    cert = girth_cycle_cut(g, e.array)
    assert cert.ratio == Fraction(1, 2) == e.lambda1.as_fraction()


def test_girth_cut_insufficient_for_dodecahedron():
    g, e = catalog_load("dodecahedron")
    cert = girth_cycle_cut(g, e.array)
    assert cert.ratio == Fraction(1, 3)
    assert not at_most_lambda1(e.array, cert.ratio)   # 1/3 > (3-sqrt(5))/3


# -- explicit witnesses ----------------------------------------------------------------------

def test_twelve_cage_witness_expected_counts():
    g, e = catalog_load("tutte-12-cage")
    assert intersection_array(g).sphere_sizes()[1:4] == (3, 6, 12)
    cert = twelve_cage_witness(g, e.array)
    a = len(cert.S) - 47 if len(cert.S) <= 63 else None
    assert at_most_lambda1(e.array, cert.ratio)
    if a is not None:                        # measured a < 17
        assert cert.stats.boundary == a + 17
        assert cert.ratio <= Fraction(16 + 17, 3 * (16 + 47))
    else:                                    # a = 17: complement side reported
        assert cert.ratio == Fraction(34, 3 * 62)
    assert float(cert.ratio) < 0.183 < float(e.lambda1)


def test_twelve_cage_tree_check_is_a_raise(monkeypatch):
    # a "path" that stays at one vertex grows a tree of 4 vertices, not 8; the
    # check is an explicit raise, so it survives python -O
    g, e = catalog_load("tutte-12-cage")
    monkeypatch.setattr(witness, "_simple_paths",
                        lambda adj, path, nverts: iter([(path[0],) * nverts]))
    with pytest.raises(SelfCheckFailed, match="has 4 vertices, not 8"):
        twelve_cage_witness(g, e.array)


def test_gq33_witness_expected_counts():
    g, e = catalog_load("incidence-gq33")
    cert = gq33_incidence_witness(g, e.array)
    assert len(cert.S) == 32
    assert cert.stats.boundary == 48
    assert cert.ratio == Fraction(3, 8)
    assert at_most_lambda1(e.array, cert.ratio)   # 3/8 < (4-sqrt(6))/4 exactly


def test_explicit_witnesses_refuse_other_arrays():
    from drgc.errors import WrongGraph
    g, e = catalog_load("heawood")
    with pytest.raises(WrongGraph):
        twelve_cage_witness(g, e.array)
    with pytest.raises(WrongGraph):
        gq33_incidence_witness(g, e.array)


def test_flag_pg22_triangle_chain():
    g, e = catalog_load("flag-pg22")
    cert = triangle_chain_cut(g)
    assert len(cert.S) == 7 and cert.stats.boundary == 10
    assert cert.ratio == Fraction(10, 28)
    assert at_most_lambda1(e.array, cert.ratio)


def test_flag_gq22_triangle_octagon():
    g, e = catalog_load("flag-gq22")
    cert = triangle_octagon_cut(g)
    assert len(cert.S) == 16 and cert.stats.boundary == 16
    assert cert.ratio == Fraction(1, 4) == e.lambda1.as_fraction()
    assert at_most_lambda1(e.array, cert.ratio)
