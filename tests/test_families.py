from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import drgc.graph
from drgc.algebra import (SUPPORTED_Q, enumerate_subspaces, field,
                          isotropic_subspaces, matrix_rank)
from drgc.errors import GraphError, NoDescendant, ParamDomain, TooLarge
from drgc.families import (FAMILIES, NO_DESCENDANT, FamilySpec, _alt_full,
                           _even_strings, _graph_from_rows, _hamming_keys,
                           _quad_rank, _upper_pairs, construct, default_grid,
                           descendant, half_dual_polar_descendant_check,
                           theory_values)
from drgc.graph import (Graph, _block_rows, cut_stats, edge_arrays,
                        intersection_array)
from drgc.spectral import dense_spectrum, drg_spectrum
from reference_algebra import form_eval, subspace_elements
from reference_graphs import (bipartite_double, dense_construct, distinct_values,
                              shrikhande)


# -- reference constructions: the earlier pair-predicate builds, kept as oracles

def reference_graph(keys, adjacent):
    """Test adjacent(a, b) on every unordered pair of keys."""
    rows = [[] for _ in keys]
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            if adjacent(a, keys[j]):
                rows[i].append(j)
                rows[j].append(i)
    return Graph(len(keys), rows)


def hdist(a, b):
    return sum(x != y for x, y in zip(a, b))


def reference_construct(spec):
    fam, p = spec.family, spec.params
    if fam == "johnson":
        n, e = p
        keys = [frozenset(c) for c in combinations(range(1, n + 1), e)]
        return reference_graph(keys, lambda a, b: len(a & b) == e - 1)
    if fam == "hamming":
        d, q = p
        return reference_graph(_hamming_keys(d, q), lambda a, b: hdist(a, b) == 1)
    if fam == "doob":
        d1, d2 = p
        factors = [shrikhande()] * d1 + [reference_graph(range(4), lambda a, b: True)] * d2
        adjs = [[set(r) for r in f.adj] for f in factors]
        keys = list(product(*[range(f.n) for f in factors]))

        def adjacent(a, b):
            diff = [i for i in range(len(a)) if a[i] != b[i]]
            return len(diff) == 1 and b[diff[0]] in adjs[diff[0]][a[diff[0]]]

        return reference_graph(keys, adjacent)
    if fam == "halvedcube":
        (n,) = p
        return reference_graph(_even_strings(n), lambda a, b: hdist(a, b) == 2)
    if fam == "foldedcube":
        (n,) = p
        keys = list(product((0, 1), repeat=n - 1))
        return reference_graph(keys, lambda a, b: hdist(a, b) in (1, n - 1))
    if fam == "foldedhalvedcube":
        (n,) = p
        return reference_graph(_even_strings(2 * n - 1),
                               lambda a, b: hdist(a, b) in (2, 2 * n - 2))
    if fam in ("odd", "doubledodd"):
        (k,) = p
        keys = [frozenset(c) for c in combinations(range(1, 2 * k), k - 1)]
        g = reference_graph(keys, lambda a, b: not a & b)
        return g if fam == "odd" else bipartite_double(g)
    if fam in ("grassmann", "dualpolarc"):
        if fam == "grassmann":
            q, n, e = p
            keys = enumerate_subspaces(n, e, field(q))
        else:
            q, e = p
            keys = [U for U in enumerate_subspaces(2 * e, e, field(q))
                    if all(form_eval("symplectic", field(q), u, v) == 0
                           for u, v in combinations(U, 2))]
        elems = [subspace_elements(field(q), U) for U in keys]
        return reference_graph(range(len(keys)),
                               lambda i, j: len(elems[i] & elems[j]) == q ** (e - 1))
    if fam == "doubledgrassmann":
        q, t = p
        F = field(q)
        small = enumerate_subspaces(2 * t + 1, t, F)
        big = [subspace_elements(F, W) for W in enumerate_subspaces(2 * t + 1, t + 1, F)]
        edges = [(i, len(small) + j) for i, U in enumerate(small)
                 for j, ws in enumerate(big) if all(u in ws for u in U)]
        return Graph.from_edges(len(small) + len(big), edges)
    F = field(p[0] if fam != "hermitianforms" else p[0] ** 2)
    if fam == "bilinearforms":
        q, D, e = p
        keys = list(product(product(range(q), repeat=e), repeat=D))

        def adjacent(a, b):
            diff = [tuple(F.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
            return matrix_rank(F, diff) == 1
    elif fam == "alternatingforms":
        q, n = p
        pairs = _upper_pairs(n)
        keys = list(product(range(q), repeat=len(pairs)))

        def adjacent(a, b):
            upper = {pr: F.sub(x, y) for pr, x, y in zip(pairs, a, b)}
            return matrix_rank(F, [tuple(r) for r in _alt_full(F, n, upper)]) == 2
    elif fam == "hermitianforms":
        r, D = p
        fixed = [a for a in range(F.q) if F.conj(a) == a]
        pairs = _upper_pairs(D)
        keys = sorted(product(*([fixed] * D + [list(range(F.q))] * len(pairs))))

        def full(key):
            M = [[0] * D for _ in range(D)]
            for i in range(D):
                M[i][i] = key[i]
            for t, (i, j) in enumerate(pairs):
                M[i][j] = key[D + t]
                M[j][i] = F.conj(key[D + t])
            return M

        def adjacent(a, b):
            diff = [tuple(F.sub(x, y) for x, y in zip(ra, rb))
                    for ra, rb in zip(full(a), full(b))]
            return matrix_rank(F, diff) == 1
    elif fam == "quadraticforms":
        q, n = p
        monos = [(i, j) for i in range(n) for j in range(i, n)]
        keys = list(product(range(q), repeat=len(monos)))

        def adjacent(a, b):
            coeffs = {mo: F.sub(x, y) for mo, x, y in zip(monos, a, b)}
            return _quad_rank(F, coeffs, n) in (1, 2)
    return reference_graph(keys, adjacent)


CONSTRUCT_SPECS = default_grid() + [FamilySpec.parse(s) for s in (
    "johnson:13,6", "doob:2,1", "odd:6", "doubledodd:5", "hermitianforms:2,3",
    "bilinearforms:3,2,2", "doubledgrassmann:2,2", "doubledgrassmann:3,1")]


@pytest.mark.parametrize("spec", CONSTRUCT_SPECS, ids=str)
def test_construct_matches_pair_predicate_reference(spec):
    assert construct(spec).adj == reference_construct(spec).adj


@pytest.mark.parametrize("spec", CONSTRUCT_SPECS, ids=str)
def test_construct_in_row_blocks_matches_dense_build(spec, monkeypatch):
    """construct with BLOCK_CELLS patched so that every graph spans several
    row blocks: the same edge arrays as the whole n x n expression."""
    monkeypatch.setattr(drgc.graph, "BLOCK_CELLS", 12)
    g = construct(spec)
    assert -(-g.n // _block_rows(g.n)) >= 2
    for got, want in zip(edge_arrays(g), edge_arrays(dense_construct(spec))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("cells", [2 ** 18, 12], ids=("one-block", "row-blocks"))
@pytest.mark.parametrize("entry, message", [
    ((3, 3), "self-loop at 3"), ((2, 5), "asymmetric adjacency 2->5")],
    ids=("diagonal", "asymmetric"))
def test_graph_from_rows_names_a_bad_entry_as_from_edge_arrays(entry, message,
                                                               cells, monkeypatch):
    """rows() of an 8-cycle with one entry set on the diagonal or above it
    alone: the keys builder raises the GraphError that Graph.from_edge_arrays
    raises on the same matrix, in one block or in several."""
    monkeypatch.setattr(drgc.graph, "BLOCK_CELLS", cells)
    A = np.zeros((8, 8), dtype=bool)
    A[np.arange(8), (np.arange(8) + 1) % 8] = True
    A |= A.T
    A[entry] = True
    with pytest.raises(GraphError) as want:
        Graph.from_edge_arrays(8, *np.nonzero(A))
    with pytest.raises(GraphError) as got:
        _graph_from_rows(8, lambda lo, hi: A[lo:hi])
    assert str(got.value) == str(want.value) == message


# -- reference descendants: the earlier per-family key enumeration, kept as an
# oracle for the shared labeling

def reference_descendant(spec):
    fam, p = spec.family, spec.params

    if fam == "johnson":
        n, e = p
        keys = [frozenset(c) for c in combinations(range(1, n + 1), e)]
        return frozenset(i for i, k in enumerate(keys) if 1 in k)
    if fam == "hamming":
        d, q = p
        keys = _hamming_keys(d, q)
        return frozenset(i for i, k in enumerate(keys) if k[0] == 0)
    if fam == "doob":
        d1, d2 = p
        if d2 > 0:
            sizes = [16] * d1 + [4] * d2
            keys = list(product(*[range(s) for s in sizes]))
            return frozenset(i for i, k in enumerate(keys) if k[d1] == 0)
        # 6-wheel in the first Shrikhande factor: a vertex and its hexagon
        sh = shrikhande()
        wheel = {0} | set(sh.adj[0])
        sizes = [16] * d1
        keys = list(product(*[range(s) for s in sizes]))
        return frozenset(i for i, k in enumerate(keys) if k[0] in wheel)
    if fam == "halvedcube":
        (n,) = p
        keys = _even_strings(n)
        return frozenset(i for i, k in enumerate(keys) if k[0] == 0)
    if fam == "foldedcube":
        (n,) = p
        keys = list(product((0, 1), repeat=n - 1))
        return frozenset(i for i, k in enumerate(keys) if k[0] == 0)
    if fam == "foldedhalvedcube":
        (n,) = p
        keys = _even_strings(2 * n - 1)
        return frozenset(i for i, k in enumerate(keys) if k[0] == 0 and k[1] == 0)
    if fam == "odd":
        (k,) = p
        keys = [frozenset(c) for c in combinations(range(1, 2 * k), k - 1)]
        inA = [{1, 2} <= s and not s & {3, 4} for s in keys]
        inB = [{3, 4} <= s and not s & {1, 2} for s in keys]
        return frozenset(i for i in range(len(keys)) if inA[i] or inB[i])
    if fam == "doubledodd":
        (m,) = p
        keys = [frozenset(c) for c in combinations(range(1, 2 * m), m - 1)]
        n = len(keys)
        out = set()
        for i, s in enumerate(keys):
            if 2 in s and 1 not in s:
                out.add(i)              # copy 0
            if 1 in s and 2 not in s:
                out.add(n + i)          # copy 1
        return frozenset(out)
    if fam == "grassmann":
        q, n, e = p
        keys = enumerate_subspaces(n, e, field(q))
        return frozenset(i for i, U in enumerate(keys)
                         if all(row[0] == 0 for row in U))
    if fam == "bilinearforms":
        q, D, e = p
        keys = list(product(product(range(q), repeat=e), repeat=D))
        zero = tuple([0] * e)
        return frozenset(i for i, M in enumerate(keys) if M[0] == zero)
    if fam == "alternatingforms":
        q, n = p
        pairs = _upper_pairs(n)
        keys = list(product(range(q), repeat=len(pairs)))
        touch0 = [t for t, (i, j) in enumerate(pairs) if i == 0]
        return frozenset(ix for ix, k in enumerate(keys)
                         if all(k[t] == 0 for t in touch0))
    if fam == "hermitianforms":
        r, D = p
        q = r * r
        F = field(q)
        fixed = [a for a in range(q) if F.conj(a) == a]
        pairs = _upper_pairs(D)
        keys = sorted(product(*([fixed] * D + [list(range(q))] * len(pairs))))
        touch0 = [D + t for t, (i, j) in enumerate(pairs) if i == 0]
        return frozenset(ix for ix, k in enumerate(keys)
                         if k[0] == 0 and all(k[t] == 0 for t in touch0))
    if fam == "quadraticforms":
        q, n = p
        monos = [(i, j) for i in range(n) for j in range(i, n)]
        keys = list(product(range(q), repeat=len(monos)))
        touch0 = [t for t, (i, j) in enumerate(monos) if i == 0]
        return frozenset(ix for ix, k in enumerate(keys)
                         if all(k[t] == 0 for t in touch0))
    if fam == "dualpolarc":
        q, D = p
        F = field(q)
        keys = [U for U in enumerate_subspaces(2 * D, D, F)
                if all(form_eval("symplectic", F, u, v) == 0 for u, v in combinations(U, 2))]
        e1 = tuple([1] + [0] * (2 * D - 1))
        return frozenset(i for i, U in enumerate(keys)
                         if e1 in subspace_elements(F, U))
    raise AssertionError(f"no reference descendant for {fam}")


DESCENDANT_SPECS = default_grid() + [FamilySpec.parse(s) for s in (
    "johnson:13,6", "foldedcube:12", "doob:2,1", "odd:6", "doubledodd:5",
    "hermitianforms:2,3", "bilinearforms:3,2,2", "dualpolarc:3,3")]


@pytest.mark.parametrize("spec", DESCENDANT_SPECS, ids=str)
def test_descendant_matches_reference(spec):
    assert descendant(spec) == reference_descendant(spec)


def test_construct_and_descendant_share_one_key_enumeration(monkeypatch):
    # verify_one runs construct then descendant on the same spec: the second
    # reads the cached keys instead of enumerating the subspaces again
    import drgc.families as fam
    calls = []
    monkeypatch.setattr(fam, "isotropic_subspaces",
                        lambda *a: calls.append(a) or isotropic_subspaces(*a))
    fam._vertex_keys.cache_clear()
    spec = FamilySpec.parse("dualpolarc:2,2")
    g = construct(spec)
    S = descendant(spec)
    assert len(calls) == 1 and 2 * len(S) <= g.n


def test_spec_parsing_and_domain():
    spec = FamilySpec.parse("johnson:6,3")
    assert spec.family == "johnson" and spec.params == (6, 3)
    assert str(spec) == "johnson:6,3"
    with pytest.raises(ParamDomain):
        FamilySpec.parse("johnson:3,2")       # n < 2e
    with pytest.raises(ParamDomain):
        FamilySpec.parse("nosuch:1")
    with pytest.raises(ParamDomain):
        FamilySpec.parse("grassmann:6,4,2")   # unsupported field order
    with pytest.raises(ParamDomain):
        FamilySpec.parse("johnson")
    # a wrong parameter count names the parameters of the family's definition
    with pytest.raises(ParamDomain, match=r"^hamming\(2,\): need \(d, q\)$"):
        FamilySpec.parse("hamming:2")
    with pytest.raises(ParamDomain, match=r"^grassmann\(2, 4\): need \(q, n, e\)$"):
        FamilySpec.parse("grassmann:2,4")
    for text in ("johnson:6,x", "johnson:6,", "hamming:2.5,2"):
        with pytest.raises(ParamDomain, match="non-integer parameter"):
            FamilySpec.parse(text)


def test_too_large():
    with pytest.raises(TooLarge):
        construct(FamilySpec("hamming", (10, 4)))


def test_johnson_52_theta1_from_spectrum():
    g = construct(FamilySpec.parse("johnson:5,2"))
    assert g.n == 10 and g.regular_degree() == 6
    dv = distinct_values(dense_spectrum(g))
    assert abs(dv[1] - 1) < 1e-9            # (e-1)(n-e-1) - 1 = 1


def test_known_arrays():
    assert str(intersection_array(construct(FamilySpec.parse("hamming:3,2")))) \
        == "{3,2,1;1,2,3}"
    assert str(intersection_array(construct(FamilySpec.parse("odd:4")))) \
        == "{4,3,3;1,1,2}"
    assert str(intersection_array(construct(FamilySpec.parse("doubledgrassmann:2,1")))) \
        == "{3,2,2;1,1,3}"     # incidence graph of the Fano plane


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_projective_plane_over_every_field(q):
    """The points and lines of PG(2,q), built through the field's tables,
    form a generalized triangle: a wrong multiplication table is not a field
    and gives no projective plane."""
    g = construct(FamilySpec.parse(f"doubledgrassmann:{q},1"))
    assert g.n == 2 * (q * q + q + 1)
    assert str(intersection_array(g)) == f"{{{q + 1},{q},{q};1,1,{q + 1}}}"


def test_gq33_companion_size():
    # incidence bipartite companion of the q=3 symplectic quadrangle
    from drgc.catalog import catalog_load
    g, _ = catalog_load("incidence-gq33")
    assert g.n == 2 * (3 ** 2 + 1) * (3 + 1) == 80


def test_doob_same_array_as_hamming():
    assert intersection_array(construct(FamilySpec.parse("doob:1,0"))) == \
        intersection_array(construct(FamilySpec.parse("hamming:2,4")))
    assert intersection_array(construct(FamilySpec.parse("doob:1,1"))) == \
        intersection_array(construct(FamilySpec.parse("hamming:3,4")))


def test_doubledodd_is_double_of_odd():
    g = construct(FamilySpec.parse("doubledodd:4"))
    o4 = construct(FamilySpec.parse("odd:4"))
    assert intersection_array(g) == intersection_array(bipartite_double(o4))


@pytest.mark.parametrize("spec", default_grid(), ids=str)
def test_grid_theory_values_match_spectrum(spec):
    tv = theory_values(spec)
    g = construct(spec)
    assert g.n == tv.v and g.regular_degree() == tv.k
    ia = intersection_array(g)
    sp = drg_spectrum(ia)
    assert abs(sp.theta1 - float(tv.theta1)) < 1e-9
    assert 0 < float(tv.lambda1) <= 1 + 1e-12


@pytest.mark.parametrize("spec", default_grid(), ids=str)
def test_grid_descendants(spec):
    tv = theory_values(spec)
    g = construct(spec)
    S = descendant(spec)
    assert 2 * len(S) <= g.n
    st = cut_stats(g, S)
    kprime = Fraction(st.inside, st.size)
    assert kprime >= tv.theta1.as_fraction()     # exact rational comparison


def test_hermitian_descendant_exact_equality():
    spec = FamilySpec.parse("hermitianforms:2,2")
    g = construct(spec)
    S = descendant(spec)
    st = cut_stats(g, S)
    assert Fraction(st.inside, st.size) == theory_values(spec).theta1.as_fraction()


def test_descendant_examples():
    # triples containing a fixed element induce the one-smaller Johnson graph
    spec = FamilySpec.parse("johnson:6,3")
    S = descendant(spec)
    assert len(S) == 10
    def induced(g, S):
        pos = {v: i for i, v in enumerate(sorted(S))}
        return Graph(len(pos),
                     [[pos[w] for w in g.adj[v] if w in pos] for v in pos])

    sub = induced(construct(spec), S)
    assert intersection_array(sub) == \
        intersection_array(construct(FamilySpec.parse("johnson:5,2")))
    # strings starting 0 in the 3-cube induce a 4-cycle
    spec = FamilySpec.parse("hamming:3,2")
    sub = induced(construct(spec), descendant(spec))
    assert sub.n == 4 and sub.regular_degree() == 2


def test_doubled_grassmann_has_no_descendant():
    with pytest.raises(NoDescendant):
        descendant(FamilySpec.parse("doubledgrassmann:2,2"))
    with pytest.raises(NoDescendant):
        descendant(FamilySpec.parse("halfdualpolar:2,4"))
    # report.gather_bounds runs descendant on every family outside
    # NO_DESCENDANT, and test_descendant_matches_reference covers each of them
    assert set(NO_DESCENDANT) == {"doubledgrassmann", "halfdualpolar"}
    assert {spec.family for spec in DESCENDANT_SPECS} == \
        set(FAMILIES) - set(NO_DESCENDANT)


def test_half_dual_polar_is_parameters_only():
    with pytest.raises(ParamDomain):
        construct(FamilySpec.parse("halfdualpolar:2,4"))
    tv = theory_values(FamilySpec.parse("halfdualpolar:2,4"))
    assert tv.k > float(tv.theta1) > 0
    for q in (2, 3):
        for n in (4, 5, 6):
            ok, trace = half_dual_polar_descendant_check(q, n)
            assert ok, trace


def test_doubled_grassmann_theta1_irrational():
    tv = theory_values(FamilySpec.parse("doubledgrassmann:2,2"))
    assert tv.theta1.triple() == (0, 3, 2)      # sqrt(2) * [2 1]_2
    g = construct(FamilySpec.parse("doubledgrassmann:2,2"))
    assert g.n == 310 == tv.v
    sp = drg_spectrum(intersection_array(g))
    assert abs(sp.theta1 - float(tv.theta1)) < 1e-9


def test_theory_values_cheap_without_construction():
    tv = theory_values(FamilySpec.parse("grassmann:3,8,4"))
    assert tv.v > 10 ** 6        # far beyond any construction cap
    assert tv.theta1.is_rational


def test_folded_cube_theta1():
    for n in (4, 5, 6, 7, 8):
        tv = theory_values(FamilySpec(("foldedcube"), (n,)))
        assert tv.theta1 == n - 4


def test_halved_cube_theta1():
    for n in (4, 5, 6, 7, 8):
        tv = theory_values(FamilySpec("halvedcube", (n,)))
        assert tv.theta1 == Fraction((n - 2) ** 2 - n, 2)
