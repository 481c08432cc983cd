import random
from itertools import combinations, product

import numpy as np
import pytest

from drgc import algebra
from drgc.algebra import (SUPPORTED_Q, enumerate_subspaces, field, gb,
                          isotropic_subspaces, matrix_rank, nullspace, rref,
                          span_rows)
from drgc.errors import BadField, RangeError, SelfCheckFailed, TooLarge
import reference_algebra
from reference_algebra import form_eval, subspace_elements


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    F = field(q)
    elems = range(q)
    for a in elems:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))


@pytest.mark.parametrize("q", [4, 9, 16])
def test_frobenius_conjugation_involutive(q):
    F = field(q)
    for a in range(q):
        assert F.conj(F.conj(a)) == a
    # conjugation is an automorphism
    for a in range(q):
        for b in range(q):
            assert F.conj(F.mul(a, b)) == F.mul(F.conj(a), F.conj(b))


def test_unsupported_field():
    with pytest.raises(BadField):
        field(6)
    with pytest.raises(BadField):
        field(32)


# -- gaussian binomials -------------------------------------------------------------

def test_gb_basics():
    assert gb(2, 1, 2) == 3
    assert gb(3, 1, 3) == 13
    assert gb(5, 1, 2) == 31
    assert gb(4, 4, 5) == 1 and gb(4, 0, 5) == 1
    assert gb(3, 5, 2) == 0                      # out of range -> 0
    for m, r, q in [(5, 2, 3), (6, 3, 2), (4, 2, 4)]:
        assert gb(m, r, q) == gb(m, m - r, q)    # symmetry


def test_gb_odd_values_for_doubled_grassmann():
    for t in (1, 2, 3):
        assert gb(2 * t + 1, t, 4) % 2 == 1


def brute_force_subspace_count(n, e, q):
    """Count e-subspaces of GF(q)^n by collecting row spaces of all e-tuples."""
    F = field(q)
    vectors = list(product(range(q), repeat=n))
    seen = set()
    for combo in combinations(vectors[1:], e):    # skip the zero vector
        R, _ = rref(F, combo)
        if len(R) == e:
            seen.add(R)
    return len(seen)


def test_gb_counts_subspaces_brute_force():
    assert gb(4, 2, 2) == brute_force_subspace_count(4, 2, 2) == 35
    assert gb(3, 1, 3) == brute_force_subspace_count(3, 1, 3) == 13
    assert gb(3, 2, 2) == brute_force_subspace_count(3, 2, 2) == 7


# -- subspace enumeration -------------------------------------------------------------

def test_enumerate_counts_match_gb():
    cases = [(2, 1, 2), (4, 2, 2), (3, 1, 3), (4, 2, 3), (5, 2, 2)]
    for n, e, q in cases:
        subs = enumerate_subspaces(n, e, field(q))
        assert len(subs) == gb(n, e, q)
        assert subs == sorted(subs)              # deterministic order
        assert len(set(subs)) == len(subs)


def enumerate_or_failure(enumerate, n, e, F):
    try:
        return enumerate(n, e, F)
    except (RangeError, TooLarge) as err:
        return type(err), str(err)


def assert_all_rref_bases(bases, n, e, q):
    """bases is every e-subspace of GF(q)^n once, in sorted tuple order: the
    rows are strictly increasing, each is a reduced row-echelon basis (which
    is unique to its subspace), and there are [n e]_q of them."""
    N = len(bases)
    assert bases.shape == (gb(n, e, q), e, n) and bases.max() < q
    flat = bases.reshape(N, e * n).astype(np.int16)
    step = flat[1:] - flat[:-1]
    lead = (step != 0).argmax(axis=1)
    assert (step[np.arange(N - 1), lead] > 0).all()
    pivots = (bases != 0).argmax(axis=2)                     # (N, e)
    assert (np.diff(pivots, axis=1) > 0).all()
    at_pivots = bases[np.arange(N)[:, None], :, pivots]     # (N, e, e) columns
    assert (at_pivots == np.eye(e, dtype=bases.dtype)).all()


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_enumerate_subspaces_match_reference(q):
    # every dimension with q^n <= 1000; at q = 2, n = 9 the middle dimensions
    # (3309747 subspaces) pass SUBSPACE_CAP, and both refuse them alike.  The
    # Python oracle takes about 6 us per subspace, so the lists of more than
    # 40000 subspaces (q = 2, n = 8 and 9, up to 788035) are checked
    # structurally instead; GF(3)^6's 33880 3-subspaces meet the oracle
    F = field(q)
    n = 0
    while q ** n <= 1000:
        for e in range(-1, n + 2):
            if 40000 < gb(n, e, q) <= algebra.SUBSPACE_CAP:
                assert_all_rref_bases(algebra._rref_array(n, e, q), n, e, q)
                continue
            got = enumerate_or_failure(enumerate_subspaces, n, e, F)
            assert got == enumerate_or_failure(reference_algebra.enumerate_subspaces,
                                               n, e, F), (n, e)
        n += 1


def test_enumerate_cap(monkeypatch):
    monkeypatch.setattr(algebra, "SUBSPACE_CAP", 1000)
    with pytest.raises(TooLarge):
        enumerate_subspaces(10, 5, field(4))
    # both entry points refuse before numpy allocates anything
    monkeypatch.setattr(algebra, "np", None)
    for call in (lambda: enumerate_subspaces(10, 5, field(4)),
                 lambda: isotropic_subspaces(field(4), 10, 5)):
        with pytest.raises(TooLarge, match="subspaces exceeds cap 1000"):
            call()


def test_enumerate_count_check_raises(monkeypatch):
    # the listed bases are counted against the Gaussian binomial by an
    # explicit check, which python -O keeps
    monkeypatch.setattr(algebra, "gb", lambda m, r, q: gb(m, r, q) + 1)
    with pytest.raises(SelfCheckFailed, match=r"listed 35 2-subspaces of GF\(2\)\^4"):
        enumerate_subspaces(4, 2, field(2))


def test_subspace_elements_and_span():
    F = field(2)
    U, _ = rref(F, [(1, 0, 1), (0, 1, 1)])
    (row,) = span_rows(F, [U])
    elems = {v for v in product(range(2), repeat=3) if row[4 * v[0] + 2 * v[1] + v[2]]}
    assert len(elems) == 4 and (0, 0, 0) in elems and (1, 1, 0) in elems


def reference_span_rows(F, subspaces):
    """span_rows from the Python span, one subspace at a time."""
    n = len(subspaces[0][0])
    weights = F.q ** np.arange(n - 1, -1, -1)
    X = np.zeros((len(subspaces), F.q ** n), dtype=bool)
    for row, U in zip(X, subspaces):
        row[np.array(sorted(subspace_elements(F, U))) @ weights] = True
    return X


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_span_rows_match_reference(q):
    # q = 4 and q = 9 are extension fields, which no grid subspace family uses
    F = field(q)
    cases = [(n, e) for n in range(1, 6) for e in range(1, n + 1) if q ** n <= 1000]
    for n, e in cases:
        subspaces = enumerate_subspaces(n, e, F)
        X = span_rows(F, subspaces)
        assert X.dtype == bool and X.shape == (len(subspaces), q ** n)
        assert (X.sum(axis=1) == q ** e).all()
        assert np.array_equal(X, reference_span_rows(F, subspaces)), (n, e)
    for n, e in [(4, 2)] + [(6, 3)] * (q <= 3):
        iso = isotropic_subspaces(F, n, e)
        assert np.array_equal(span_rows(F, iso), reference_span_rows(F, iso)), (n, e)


# -- forms ------------------------------------------------------------------------------

def test_symplectic_form():
    F = field(2)
    for v in product(range(2), repeat=4):
        assert form_eval("symplectic", F, v, v) == 0      # alternating
    assert form_eval("symplectic", F, (1, 0, 0, 0), (0, 1, 0, 0)) == 1


def test_isotropic_line_count_w33():
    F = field(3)
    lines = enumerate_subspaces(4, 2, F)
    iso = [L for L in lines
           if all(form_eval("symplectic", F, u, v) == 0 for u in L for v in L)]
    assert len(iso) == 40            # (q^2+1)(q+1) at q = 3
    assert isotropic_subspaces(F, 4, 2) == iso


@pytest.mark.parametrize("q,D", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2),
                                 (5, 2), (7, 2), (8, 2), (9, 2)])
def test_isotropic_subspaces_match_reference(q, D):
    F = field(q)
    iso = isotropic_subspaces(F, 2 * D, D)
    assert iso == reference_algebra.isotropic_subspaces(F, 2 * D, D)
    # the dual polar graph's vertex count, prod (q^i + 1) over i = 1..D
    assert len(iso) == np.prod([q ** i + 1 for i in range(1, D + 1)])


def test_isotropic_subspaces_small_and_odd_dimensions():
    F = field(3)
    assert isotropic_subspaces(F, 5, 1) == enumerate_subspaces(5, 1, F)
    assert isotropic_subspaces(F, 4, 0) == [()]
    with pytest.raises(BadField, match="even dimension"):
        isotropic_subspaces(F, 5, 2)


def test_matrix_rank():
    F = field(3)
    assert matrix_rank(F, [(0, 0), (0, 0)]) == 0
    assert matrix_rank(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    # outer product has rank 1
    u, v = (1, 2, 1), (2, 1, 0)
    M = [tuple(F.mul(a, b) for b in v) for a in u]
    assert matrix_rank(F, M) == 1


def test_rank_subadditivity_random():
    rng = random.Random(0)
    F = field(3)
    for _ in range(200):
        A = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        B = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        AB = [tuple(F.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B)]
        assert matrix_rank(F, AB) <= matrix_rank(F, A) + matrix_rank(F, B)


def test_nullspace():
    F = field(2)
    basis = nullspace(F, [(1, 1, 0), (0, 0, 1)], 3)
    assert len(basis) == 1 and basis[0] == (1, 1, 0)
