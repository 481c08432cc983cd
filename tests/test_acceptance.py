"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from drgc.catalog import catalog_list, catalog_load
from drgc.exact import SqrtVal
from drgc.families import FamilySpec, construct, default_grid, descendant, theory_values
from drgc.graph import IntersectionArray, cut_stats, intersection_array
from drgc.report import emit, verify_all
from drgc.search import SearchConfig, best_upper_bound, exact_cheeger
from drgc.spectral import at_most_lambda1, dense_spectrum, drg_spectrum
from drgc.witness import (gq33_incidence_witness, greedy_dense_subset,
                          srg_certify, triangle_chain_cut, triangle_octagon_cut,
                          twelve_cage_witness)
from reference_graphs import distinct_values


def cross_edges(g, A, B) -> int:
    """Ordered edges from A into B, recounted from the adjacency lists."""
    A, B = frozenset(A), frozenset(B)
    return sum(1 for a in A for w in g.adj[a] if w in B)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {desc}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num:02d} {desc}: PASS", flush=True)


@lru_cache(maxsize=None)
def grid_graph(spec_text):
    return construct(FamilySpec.parse(spec_text))


def all_verified_graphs():
    """(id, graph, exact theta1) for every catalog graph and grid instance."""
    out = []
    for e in catalog_list():
        if e.source == "parameters-only":
            continue
        g, entry = catalog_load(e.name)
        out.append((e.name, g, entry.theta1))
    for spec in default_grid():
        out.append((str(spec), grid_graph(str(spec)), theory_values(spec).theta1))
    return out


def test_criterion_1_exact_values():
    with criterion(1, "exact Cheeger constants: cube 1/3, dodecahedron 1/5, <10s each"):
        t0 = time.time()
        g, _ = catalog_load("cube")
        assert exact_cheeger(g)[0] == Fraction(1, 3)
        assert time.time() - t0 < 10
        t0 = time.time()
        g, _ = catalog_load("dodecahedron")
        assert exact_cheeger(g)[0] == Fraction(1, 5)
        assert time.time() - t0 < 10


def test_criterion_2_theorem_window():
    with criterion(2, "lambda1/2 <= h <= sqrt(lambda1(2-lambda1)) for all n<=24"):
        checked = 0
        for gid, g, theta1 in all_verified_graphs():
            if g.n > 24:
                continue
            k = g.regular_degree()
            lam1 = (SqrtVal(k) - theta1) / k
            h, _ = exact_cheeger(g)
            # lower bound, exact: 2h >= lambda1
            assert SqrtVal.of(2 * h) >= lam1, gid
            # upper bound, exact: h^2 <= lambda1 (2 - lambda1)
            rhs = lam1 * 2 - lam1 * lam1
            assert SqrtVal.of(h * h) <= rhs, gid
            checked += 1
        assert checked >= 20


def test_criterion_3_spectrum_oracle_equivalence():
    with criterion(3, "dense spectrum = tridiagonal spectrum; theta1 = closed form"):
        for gid, g, theta1 in all_verified_graphs():
            assert g.n <= 2000, gid
            ia = intersection_array(g)
            sp = drg_spectrum(ia)
            dv = distinct_values(dense_spectrum(g))
            assert len(dv) == ia.D + 1, gid
            assert all(abs(a - b) <= 1e-8 for a, b in zip(sp.thetas, dv)), gid
            if theta1.is_rational:
                # exact: the closed form is a root of the characteristic polynomial
                from drgc.spectral import exact_theta1
                assert exact_theta1(ia) == theta1, gid
            else:
                assert abs(float(theta1) - sp.theta1) <= 1e-9, gid


def test_criterion_4_descendants():
    with criterion(4, "descendants: 2|S| <= v and k' >= theta1 exactly, all grid specs"):
        for spec in default_grid():
            g = grid_graph(str(spec))
            tv = theory_values(spec)
            S = descendant(spec)
            assert 2 * len(S) <= g.n, spec
            st = cut_stats(g, S)
            kprime = Fraction(st.inside, st.size)
            assert kprime >= tv.theta1.as_fraction(), spec
        spec = FamilySpec.parse("hermitianforms:2,2")
        st = cut_stats(grid_graph(str(spec)), descendant(spec))
        assert Fraction(st.inside, st.size) == theory_values(spec).theta1.as_fraction()


def test_criterion_5_witness_count_reproduction():
    with criterion(5, "named witnesses hit their exact expected counts"):
        g, e = catalog_load("tutte-12-cage")
        cert = twelve_cage_witness(g, e.array)
        if len(cert.S) <= g.n // 2 and len(cert.S) >= 47:
            a = len(cert.S) - 47
            assert cert.stats.boundary == a + 17
            assert cert.ratio <= Fraction(33, 189)
        else:            # a = 17, the complement was reported
            assert cert.ratio == Fraction(34, 3 * 62)
        assert at_most_lambda1(e.array, cert.ratio)

        g, e = catalog_load("incidence-gq33")
        cert = gq33_incidence_witness(g, e.array)
        assert len(cert.S) == 32 and cert.stats.boundary == 48
        assert cert.ratio == Fraction(3, 8)
        assert e.lambda1 > Fraction(3, 8)     # exact: 3/8 < (4-sqrt 6)/4

        g, e = catalog_load("flag-gq22")
        cert = triangle_octagon_cut(g)
        assert len(cert.S) == 16 and cert.stats.boundary == 16
        assert cert.ratio == Fraction(1, 4) == e.lambda1.as_fraction()

        g, e = catalog_load("flag-pg22")
        cert = triangle_chain_cut(g)
        assert cert.ratio <= Fraction(10, 28) and at_most_lambda1(e.array, cert.ratio)


def test_criterion_6_search_targets():
    with criterion(6, "search: Biggs-Smith <= 1/9 and Foster OK, each < 60 s"):
        cfg = SearchConfig()
        t0 = time.time()
        g, e = catalog_load("biggs-smith")
        cert = best_upper_bound(g, cfg)
        assert cert.ratio <= Fraction(1, 9)
        assert time.time() - t0 < 60
        t0 = time.time()
        g, e = catalog_load("foster")
        cert = best_upper_bound(g, cfg)
        assert at_most_lambda1(e.array, cert.ratio)   # ratio <= (3-sqrt6)/3, exact
        k = 3
        kprime = k * (1 - cert.ratio)
        assert kprime * kprime >= 6           # average valency beats sqrt(6)
        assert 2 * len(cert.S) <= g.n
        assert time.time() - t0 < 60


def feasible_srg_arrays(vmax):
    out = []
    for v in range(5, vmax + 1):
        for k in range(2, v - 1):
            denom = v - 1 - k
            if denom <= 0:
                continue
            step = denom // math.gcd(k, denom)
            for b1 in range(step, k, step):
                a1 = k - 1 - b1
                c2 = k * b1 // denom
                if not 1 <= c2 <= k:
                    continue
                disc = (a1 - c2) ** 2 + 4 * (k - c2)
                r = math.isqrt(disc)
                if r * r == disc and r > 0:
                    num = 2 * k + (v - 1) * (a1 - c2)
                    if num % r or (v - 1 - num // r) % 2:
                        continue
                    m2 = (v - 1 + num // r) // 2
                    if m2 < 0 or v - 1 - m2 < 0:
                        continue
                    out.append((v, k, a1, c2))
                elif v % 4 == 1 and (k, a1, c2) == \
                        ((v - 1) // 2, (v - 5) // 4, (v - 1) // 4):
                    out.append((v, k, a1, c2))
    return out


def test_criterion_7_srg_totality():
    with criterion(7, "srg_certify succeeds on every feasible tuple with v <= 500"):
        tuples = feasible_srg_arrays(500)
        assert len(tuples) > 3000
        assert (50, 7, 0, 1) in tuples
        for (v, k, a1, c2) in tuples:
            ia = IntersectionArray((k, k - 1 - a1), (1, c2))
            bound = srg_certify(ia)
            assert bound.verdict == "ok", (v, k, a1, c2)
        b = srg_certify(IntersectionArray((7, 6), (1, 1)))
        assert b.method == "srg-balanced" and b.value == Fraction(5, 7) == b.lambda1


def test_criterion_8_greedy_selection_suite():
    with criterion(8, "greedy subset selection: 1000 random instances + exhaustive check"):
        from drgc.graph import Graph
        rng = random.Random(2024)
        exhaustive_checked = 0
        for _ in range(1000):
            n = rng.randrange(6, 16)
            p = rng.uniform(0.2, 0.7)
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p}
            g = Graph.from_edges(n, edges)
            verts = list(range(n))
            rng.shuffle(verts)
            asz = rng.randrange(1, n - 1)
            A, B = frozenset(verts[:asz]), frozenset(verts[asz:])
            rp = rng.randrange(1, len(B) + 1)
            sel = greedy_dense_subset(g, A, B, rp)
            got = cross_edges(g, A, sel)
            assert got >= Fraction(rp * cross_edges(g, A, B), len(B))
            if len(B) <= 12:
                assert got == max(cross_edges(g, A, C)
                                  for C in combinations(sorted(B), rp))
                exhaustive_checked += 1
        assert exhaustive_checked > 100


def test_criterion_9_analytic_verdict_tables():
    with criterion(9, "doubled-Grassmann and GQ/GH verdict tables match expectations"):
        from drgc.witness import doubled_grassmann_verdict, gq_gh_incidence_verdict
        prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
        for q in prime_powers:
            for t in (1, 2, 3):
                verdict = doubled_grassmann_verdict(q, t).verdict
                expect = "open" if (q in (2, 3) and t > 1) else "ok"
                assert verdict == expect, ("dGrassmann", q, t, verdict)
        for q in prime_powers:
            verdict = gq_gh_incidence_verdict("GQ", q).verdict
            expect = ("deferred-to-catalog" if q in (2, 3)
                      else "open" if q in (4, 5) else "ok")
            assert verdict == expect, ("GQ", q, verdict)
        for q in prime_powers:
            verdict = gq_gh_incidence_verdict("GH", q).verdict
            expect = ("deferred-to-catalog" if q == 2
                      else "open" if q in (3, 4, 5, 7, 8, 9) else "ok")
            assert verdict == expect, ("GH", q, verdict)


def test_criterion_10_full_run():
    with criterion(10, "verify-all: 0 violations, exactly the two open cases, "
                       "byte-identical reruns, < 15 min"):
        cfg = SearchConfig()
        t0 = time.time()
        report1 = verify_all(cfg)
        run1 = time.time() - t0
        assert run1 < 15 * 60
        assert report1["counts"]["VIOLATION"] == 0
        assert report1["counts"]["OPEN"] == 2
        assert report1["open_graphs"] == ["flag-gh22", "gh33-incidence"]
        assert all(r["spectrum_crosscheck"] is True
                   for r in report1["records"] if not r["parameters_only"])
        t0 = time.time()
        report2 = verify_all(cfg)
        assert time.time() - t0 < 15 * 60
        assert emit(report1, "json") == emit(report2, "json")
        assert emit(report1, "csv") == emit(report2, "csv")
