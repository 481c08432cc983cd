import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from drgc import search, spectral
from drgc.catalog import catalog_list, catalog_load
from drgc.errors import RangeError, TooLarge
from drgc.exact import SqrtVal
from drgc.families import FamilySpec, construct, default_grid
from drgc.graph import (Graph, IntersectionArray, adjacency_matrix, g6_decode,
                        g6_encode, intersection_array)
from drgc.spectral import (Spectrum, _minors, at_most_lambda1, dense_spectrum,
                           drg_spectrum, exact_theta1, spectrum_certified,
                           srg_eigenvalues, cheeger_window)
from reference_graphs import distinct_values


def test_drg_spectrum_heawood():
    sp = drg_spectrum(IntersectionArray((3, 2, 2), (1, 1, 3)))
    expect = [3, math.sqrt(2), -math.sqrt(2), -3]
    assert all(abs(a - b) < 1e-10 for a, b in zip(sp.thetas, expect))


def test_drg_spectrum_gq33():
    sp = drg_spectrum(IntersectionArray((4, 3, 3, 3), (1, 1, 1, 4)))
    assert abs(sp.theta1 - math.sqrt(6)) < 1e-10


def test_drg_spectrum_c4():
    sp = drg_spectrum(IntersectionArray((2, 1), (1, 2)))
    assert [round(t, 9) for t in sp.thetas] == [2, 0, -2]


def test_drg_spectrum_always_d_plus_one_values():
    for e in catalog_list():
        sp = drg_spectrum(e.array)
        assert len(sp.thetas) == e.array.D + 1
        assert sp.thetas[0] == pytest.approx(e.array.k)
        assert all(a > b + 1e-9 for a, b in zip(sp.thetas, sp.thetas[1:]))


def test_dense_matches_tridiagonal():
    for name in ("petersen", "cube", "heawood", "odd-4", "flag-gq22"):
        g, entry = catalog_load(name)
        dv = distinct_values(dense_spectrum(g))
        sp = drg_spectrum(entry.array)
        assert len(dv) == entry.array.D + 1
        assert all(abs(a - b) < 1e-8 for a, b in zip(sp.thetas, dv))


def test_dense_spectrum_values_petersen():
    g, _ = catalog_load("petersen")
    vals = sorted(dense_spectrum(g), reverse=True)
    expect = [3] + [1] * 5 + [-2] * 4
    assert all(abs(a - b) < 1e-9 for a, b in zip(vals, expect))


def test_dense_spectrum_k2_and_cap(monkeypatch):
    vals = dense_spectrum(Graph.from_edges(2, [(0, 1)]))
    assert np.allclose(sorted(vals), [-1, 1])
    monkeypatch.setattr(spectral, "DENSE_CAP", 2)
    with pytest.raises(TooLarge):
        dense_spectrum(Graph(3, [[], [], []]))


def test_cheeger_window():
    w = cheeger_window(Fraction(2, 3))
    assert w.lower == pytest.approx(1 / 3)
    assert w.upper == pytest.approx(math.sqrt(8 / 9))
    w = cheeger_window(1)
    assert (w.lower, w.upper) == (0.5, 1.0)
    lam = (3 - math.sqrt(5)) / 3
    assert cheeger_window(lam).lower == pytest.approx(0.12732, abs=1e-5)
    with pytest.raises(RangeError):
        cheeger_window(0)
    with pytest.raises(RangeError):
        cheeger_window(2.5)


def test_classical_parameters():
    # bilinear forms at (q,D,e) = (2,2,2): theta1 = 1, matches dense spectrum
    g = construct(FamilySpec("bilinearforms", (2, 2, 2)))
    dv = distinct_values(dense_spectrum(g))
    assert abs(dv[1] - 1) < 1e-9
    # Hermitian forms handled by the dedicated formula, not classical b > 1
    from drgc.families import theory_values
    tv = theory_values(FamilySpec("hermitianforms", (2, 2)))
    assert tv.theta1 == (2 ** 2 - 1) // 3 == 1


def test_exact_theta1_matches_catalog():
    for e in catalog_list():
        t = exact_theta1(e.array)
        assert t is not None, e.name
        assert t == e.theta1, e.name



# -- exact theta_1 against the characteristic-polynomial path ------------------------

def charpoly(ia: IntersectionArray) -> list[int]:
    """Monic integer characteristic polynomial of the intersection matrix,
    ascending coefficients."""
    # f_{i+1}(x) = (x - a_i) f_i(x) - b_{i-1} c_i f_{i-1}(x)
    prev = [1]
    cur = [-ia.a(0), 1]
    for i in range(1, ia.D + 1):
        shifted = [0] + cur
        term = [-ia.a(i) * c for c in cur] + [0]
        scale = ia.b[i - 1] * ia.c[i - 1]
        nxt = [s + t for s, t in zip(shifted, term)]
        for j, c in enumerate(prev):
            nxt[j] -= scale * c
        prev, cur = cur, nxt
    return cur


def _poly_eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _divide_by_quadratic(poly, B: int, C: int):
    """Divide by x^2 - Bx + C; returns quotient or None if remainder nonzero."""
    rem = list(poly)
    quot = [0] * max(len(poly) - 2, 0)
    for i in range(len(poly) - 1, 1, -1):
        coef = rem[i]
        quot[i - 2] = coef
        rem[i] = 0
        rem[i - 1] += B * coef
        rem[i - 2] -= C * coef
    if rem[0] == 0 and rem[1] == 0:
        return quot
    return None


def reference_exact_theta1(ia: IntersectionArray) -> SqrtVal | None:
    """theta_1 from integer root and quadratic-factor tests on charpoly."""
    poly = charpoly(ia)
    thetas = drg_spectrum(ia).thetas
    target = thetas[1]
    # integer root?  (monic integer polynomial: rational roots are integers)
    for cand in {math.floor(target), math.ceil(target), round(target)}:
        if abs(cand - target) < 1e-6 and _poly_eval(poly, Fraction(cand)) == 0:
            return SqrtVal(cand)
    # quadratic factor pairing theta_1 with another root
    for partner in thetas:
        if partner == target:
            continue
        B, C = target + partner, target * partner
        Bi, Ci = round(B), round(C)
        if abs(B - Bi) > 1e-6 or abs(C - Ci) > 1e-6:
            continue
        disc = Bi * Bi - 4 * Ci
        if disc <= 0 or _divide_by_quadratic(poly, Bi, Ci) is None:
            continue
        root = SqrtVal(Fraction(Bi, 2), Fraction(1, 2), disc)
        if abs(float(root) - target) < 1e-6:
            return root
    return None


def test_exact_theta1_matches_charpoly_reference():
    """Every catalog and grid array, and the graph6 cycles C5-C12: theta_1 =
    2cos(2pi/n) is rational for C6, quadratic for C5, C8, C10 and C12, and of
    higher degree (no exact value) for C7, C9 and C11."""
    arrays = {e.array for e in catalog_list()}
    arrays |= {intersection_array(construct(spec)) for spec in default_grid()}
    for ia in arrays:
        t1 = exact_theta1(ia)
        assert t1 is not None, ia
        assert t1.triple() == reference_exact_theta1(ia).triple(), ia
    kinds = {}
    for n in range(5, 13):
        cn = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        ia = intersection_array(g6_decode(g6_encode(cn)))
        t1, ref = exact_theta1(ia), reference_exact_theta1(ia)
        assert (t1 is None) == (ref is None), n
        if t1 is None:
            kinds[n] = "none"
        else:
            assert t1.triple() == ref.triple(), n
            assert float(t1) == pytest.approx(2 * math.cos(2 * math.pi / n)), n
            kinds[n] = "rational" if t1.is_rational else "quadratic"
    assert kinds == {5: "quadratic", 6: "rational", 7: "none", 8: "quadratic",
                     9: "none", 10: "quadratic", 11: "none", 12: "quadratic"}


def test_exact_theta1_refuses_near_misses(monkeypatch):
    """A candidate is accepted only where the characteristic polynomial is
    exactly 0: C7's theta_1 (cubic) replaced by floats within 1e-9 of the
    integer 1 and of sqrt 2, neither of which is an eigenvalue of C7."""
    c7 = IntersectionArray((2, 1, 1), (1, 1, 1))
    for fake in ((2.0, 1 + 1e-9, -0.5, -1.8),
                 (2.0, math.sqrt(2) + 1e-9, -0.5, -math.sqrt(2))):
        monkeypatch.setattr(spectral, "drg_spectrum", lambda ia: Spectrum(fake))
        assert exact_theta1(c7) is None, fake
    monkeypatch.setattr(spectral, "drg_spectrum",
                        lambda ia: Spectrum((2.0, math.sqrt(2) + 1e-9, 0.0,
                                             -math.sqrt(2), -2.0)))
    c8 = IntersectionArray((2, 1, 1, 1), (1, 1, 1, 2))
    assert exact_theta1(c8) == SqrtVal(0, 1, 2)


def test_exact_theta1_integer_at_large_valency():
    """Classical parameters (d, b, alpha, beta) = (8, 16, 0, 256): b_i =
    256 16^i [8-i], c_i = [i] and theta_1 = 256 [7] - 1 (Brouwer, Cohen and
    Neumaier, §8.4), with k about 7.3e10.  The float theta_1 misses that
    integer by 2e-6, and the exact eigenvalue count still accepts it."""
    def br(n):
        return (16 ** n - 1) // 15
    ia = IntersectionArray(tuple(256 * 16 ** i * br(8 - i) for i in range(8)),
                           tuple(br(i) for i in range(1, 9)))
    theta1 = 256 * br(7) - 1
    assert theta1 == 4581298431
    assert abs(drg_spectrum(ia).theta1 - theta1) > 1e-6
    assert exact_theta1(ia) == SqrtVal(theta1)

@pytest.mark.parametrize("e", (9, 13, 15, 16))
def test_exact_theta1_quadratic_at_large_magnitude(e, monkeypatch):
    """The conference array {(v-1)/2, (v-1)/4; 1, (v-1)/4} has theta_1 =
    -1/2 + sqrt(v)/2.  At v = 10^13 + 1 the float B = theta_1 + theta' is
    off by 2.4e-4, so the candidate is judged by its root, not by B and C.
    At v = 10^16 + 1 the float C is off by about 1/2, and the answer may be
    None; at every v the only discriminant ever factored is v itself (a
    wrong one can take minutes of trial division)."""
    v = 10 ** e + 1
    ia = IntersectionArray(((v - 1) // 2, (v - 1) // 4), (1, (v - 1) // 4))
    discs = []

    def built(*args):
        discs.extend(args[2:])
        return SqrtVal(*args)

    monkeypatch.setattr(spectral, "SqrtVal", built)
    want = SqrtVal(Fraction(-1, 2), Fraction(1, 2), v)
    got = exact_theta1(ia)
    assert set(discs) <= {v}
    if e < 16:
        assert got == want
    else:
        assert got is None or got == want


def test_exact_theta1_quadratic_with_a_large_prime_discriminant():
    """At the prime v = 100000000000097 the conference array's theta_1 is
    -1/2 + sqrt(v)/2, and reducing sqrt(v) to square-free form trial-divides
    only up to the cube root of v (about 46000 steps, not 10^7)."""
    v = 100000000000097
    ia = IntersectionArray(((v - 1) // 2, (v - 1) // 4), (1, (v - 1) // 4))
    assert exact_theta1(ia) == SqrtVal(Fraction(-1, 2), Fraction(1, 2), v)


def test_srg_eigenvalues():
    t1, t2 = srg_eigenvalues(3, 0, 1)
    assert t1 == 1 and t2 == -2
    t1, t2 = srg_eigenvalues(6, 2, 3)      # conference srg(13,...)
    assert not t1.is_rational
    assert float(t1) == pytest.approx((math.sqrt(13) - 1) / 2)


# -- exact verdicts: the Sturm count against lambda_1 ----------------------------

@functools.cache
def _default_arrays() -> frozenset:
    """The arrays of every catalog entry and every default grid graph."""
    arrays = {e.array for e in catalog_list()}
    arrays |= {intersection_array(construct(spec)) for spec in default_grid()}
    return frozenset(arrays)


def test_at_most_lambda1_matches_exact_comparison():
    """Every catalog and grid array, at every p/d in [0, 2] with d <= 24,
    against the SqrtVal comparison with (k - theta_1)/k."""
    ratios = {Fraction(p, d) for d in range(1, 25) for p in range(2 * d + 1)}
    for ia in _default_arrays():
        t1 = exact_theta1(ia)
        assert t1 is not None, ia
        lam1 = (SqrtVal(ia.k) - t1) / ia.k
        for r in ratios:
            assert at_most_lambda1(ia, r) == (r <= lam1), (str(ia), r)


def test_at_most_lambda1_equality_cases():
    # Shilla sphere on hamming:3,3 and the triangle octagon on flag-gq22 both
    # meet lambda_1 exactly; anything above it must fail
    gq22 = next(e.array for e in catalog_list() if e.name == "flag-gq22")
    for ia, lam1 in ((IntersectionArray((6, 4, 2), (1, 2, 3)), Fraction(1, 2)),
                     (gq22, Fraction(1, 4))):
        assert (SqrtVal(ia.k) - exact_theta1(ia)) / ia.k == lam1
        assert at_most_lambda1(ia, lam1)
        assert not at_most_lambda1(ia, lam1 + Fraction(1, 10 ** 12))


def test_at_most_lambda1_cubic_theta1():
    # C7: theta_1 = 2cos(2pi/7) is cubic, so exact_theta1 has no value; the
    # float lambda_1 lies about 1.6e-16 above the true one and must fail
    c7 = IntersectionArray((2, 1, 1), (1, 1, 1))
    assert exact_theta1(c7) is None
    f = Fraction(drg_spectrum(c7).lambda1)
    assert not at_most_lambda1(c7, f)
    assert at_most_lambda1(c7, f - Fraction(1, 10 ** 15))
    with pytest.raises(TypeError):
        at_most_lambda1(c7, drg_spectrum(c7).lambda1)


def test_scaled_minors_are_the_rational_minors_times_q_powers():
    """_minors(ia, p, q) is the integer form of _minors at p/q: its i-th
    entry is q^i times the i-th minor, so the Sturm signs agree."""
    points = [(0, 1), (1, 1), (-3, 2), (7, 3), (-22, 7), (5, 12), (355, 113),
              (-(1 << 40) - 1, 1 << 30)]
    for e in catalog_list():
        for p, q in points:
            scaled = _minors(e.array, p, q)
            exact = _minors(e.array, Fraction(p, q))
            assert all(type(m) is int for m in scaled)
            assert scaled == [q ** i * m for i, m in enumerate(exact)], \
                (e.name, p, q)


# -- the spectrum cross-check: one Sturm count per window ----------------------

# J(13, 6): b_i = (6 - i)(7 - i), c_i = i^2 (n = 1716, D = 6)
JOHNSON_13_6 = IntersectionArray(tuple((6 - i) * (7 - i) for i in range(6)),
                                 tuple(i * i for i in range(1, 7)))


def test_spectrum_certified_on_every_default_array():
    arrays = _default_arrays() | {JOHNSON_13_6}
    biggs_smith = next(e.array for e in catalog_list() if e.name == "biggs-smith")
    assert biggs_smith in arrays and biggs_smith.D == 7
    for ia in arrays:
        assert spectrum_certified(ia, drg_spectrum(ia).thetas), str(ia)


def test_certified_window_is_within_1e_8():
    # half-width plus the rounding of a centre to the grid
    assert (spectral.CERT_HALF + 0.5) / spectral.CERT_SCALE < 1e-8
    ia = IntersectionArray((3, 2, 2), (1, 1, 3))      # Heawood: +-sqrt 2
    thetas = list(drg_spectrum(ia).thetas)
    for shift, ok in ((5e-9, True), (-5e-9, True), (1e-8, False),
                      (-1e-8, False)):
        moved = thetas[:1] + [thetas[1] + shift] + thetas[2:]
        assert spectrum_certified(ia, moved) is ok, shift


@pytest.mark.parametrize("name", ["petersen", "biggs-smith", "johnson:13,6"])
def test_spectrum_certified_refuses_wrong_spectra(name):
    ia = JOHNSON_13_6 if name == "johnson:13,6" else \
        next(e.array for e in catalog_list() if e.name == name)
    thetas = list(drg_spectrum(ia).thetas)
    assert spectrum_certified(ia, thetas)
    wrong = [
        thetas[:1] + [thetas[1] + 1e-6] + thetas[2:],      # theta_1 moved
        thetas[:1] + [thetas[1] - 1e-6] + thetas[2:],
        thetas + [thetas[1]],                               # a duplicate added
        thetas[:2] + [thetas[1]] + thetas[3:],              # theta_2 := theta_1
        thetas[:2] + [thetas[1] - 4e-9] + thetas[3:],       # two in one window
        thetas[:1] + [float("nan")] + thetas[2:],
    ]
    wrong += [thetas[:i] + thetas[i + 1:] for i in range(len(thetas))]   # dropped
    for w in wrong:
        assert not spectrum_certified(ia, w), w


@pytest.mark.parametrize("name", ["hamming:3,7", "odd:6"])
def test_dense_spectrum_above_eigenvector_cap_matches_eigh(name, monkeypatch):
    """Above the search's EIGENVECTOR_CAP, as below it, dense_spectrum's
    eigenvalues come from eigvalsh, without eigh, and agree with eigh's."""
    g = construct(FamilySpec.parse(name))
    assert g.n > search.EIGENVECTOR_CAP
    want = distinct_values(np.linalg.eigh(adjacency_matrix(g))[0])

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr("numpy.linalg.eigh", refuse)
    got = distinct_values(dense_spectrum(g))
    assert len(got) == len(want) == intersection_array(g).D + 1
    assert np.allclose(got, want, rtol=0, atol=1e-9)
