"""The infinite families at concrete parameters: constructors, descendant
subgraphs, and closed-form eigenvalue data.

Each family's vertex labeling has one owner, _vertex_keys: the natural vertex
keys (subsets, strings, RREF matrices, coefficient tuples; (side, key) for the
bipartite doubles) in sorted order, and vertex i of construct(spec) is key i.
descendant selects its vertex set from the same keys, so the two cannot drift
apart, and descendant sets are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from .algebra import (SUPPORTED_Q, enumerate_subspaces, field,
                      isotropic_subspaces, matrix_rank, nullspace, span_rows)
from .errors import NoDescendant, ParamDomain, SelfCheckFailed, TooLarge
from .exact import SqrtVal
from .graph import MAX_VERTICES, Graph, _block_rows

FAMILIES = ("johnson", "hamming", "doob", "halvedcube", "foldedcube",
            "foldedhalvedcube", "odd", "doubledodd", "grassmann",
            "bilinearforms", "alternatingforms", "hermitianforms",
            "quadraticforms", "dualpolarc", "halfdualpolar",
            "doubledgrassmann")
# families settled analytically, with no explicit descendant subgraph
NO_DESCENDANT = ("doubledgrassmann", "halfdualpolar")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamDomain(f"unknown family {self.family!r}")
        _validate(self.family, self.params)

    def __str__(self):
        return f"{self.family}:{','.join(map(str, self.params))}"

    @staticmethod
    def parse(text: str) -> "FamilySpec":
        fam, _, rest = text.strip().lower().partition(":")
        if not rest:
            raise ParamDomain(f"family spec {text!r} needs parameters")
        try:
            return FamilySpec(fam, tuple(int(x) for x in rest.split(",")))
        except ValueError:
            raise ParamDomain(f"family spec {text!r} has a non-integer "
                              "parameter") from None


@dataclass(frozen=True)
class TheoryValues:
    k: int
    v: int
    theta1: SqrtVal

    @property
    def lambda1(self) -> SqrtVal:
        return (SqrtVal(self.k) - self.theta1) / self.k


def _validate(fam: str, p: tuple[int, ...]):
    def need(cond, msg):
        if not cond:
            raise ParamDomain(f"{fam}{p}: {msg}")

    if fam == "johnson":
        need(len(p) == 2 and p[0] >= 2 * p[1] >= 2, "need n >= 2e >= 2")
    elif fam == "hamming":
        need(len(p) == 2 and p[0] >= 1 and p[1] >= 2, "need d >= 1, q >= 2")
    elif fam == "doob":
        need(len(p) == 2 and p[0] >= 1 and p[1] >= 0, "need d1 >= 1, d2 >= 0")
    elif fam in ("halvedcube", "foldedcube"):
        need(len(p) == 1 and p[0] >= 3, "need n >= 3")
    elif fam == "foldedhalvedcube":
        need(len(p) == 1 and p[0] >= 3, "need n >= 3 (graph is on 2^(2n-2) vertices)")
    elif fam == "odd":
        need(len(p) == 1 and p[0] >= 3, "need valency k >= 3")
    elif fam == "doubledodd":
        need(len(p) == 1 and p[0] >= 2, "need m >= 2")
    elif fam == "grassmann":
        need(len(p) == 3, "need (q, n, e)")
        q, n, e = p
        need(q in SUPPORTED_Q, f"q = {q} unsupported")
        need(1 <= e and n >= 2 * e, "need n >= 2e >= 2")
    elif fam == "bilinearforms":
        need(len(p) == 3, "need (q, D, e)")
        q, D, e = p
        need(q in SUPPORTED_Q and 1 <= D <= e, "need q supported, 1 <= D <= e")
    elif fam == "alternatingforms":
        need(len(p) == 2, "need (q, n)")
        q, n = p
        need(q in SUPPORTED_Q and n >= 3, "need q supported, n >= 3")
    elif fam == "hermitianforms":
        need(len(p) == 2, "need (r, D)")
        r, D = p
        need(r * r in SUPPORTED_Q and D >= 1, "need r^2 supported, D >= 1")
    elif fam == "quadraticforms":
        need(len(p) == 2, "need (q, n)")
        q, n = p
        need(q in SUPPORTED_Q and n >= 2, "need q supported, n >= 2")
    elif fam == "dualpolarc":
        need(len(p) == 2, "need (q, D)")
        q, D = p
        need(q in SUPPORTED_Q and D >= 1, "need q supported, D >= 1")
    elif fam == "halfdualpolar":
        need(len(p) == 2, "need (q, n)")
        q, n = p
        need(q >= 2 and n >= 4, "need q >= 2, n >= 4")
    elif fam == "doubledgrassmann":
        need(len(p) == 2, "need (q, t)")
        q, t = p
        need(q in SUPPORTED_Q and t >= 1, "need q supported, t >= 1")


def _gauss1(m: int, q: int) -> int:
    return (q ** m - 1) // (q - 1) if m >= 0 else 0


# -- closed-form k, v, theta_1 -------------------------------------------------

def theory_values(spec: FamilySpec) -> TheoryValues:
    fam, p = spec.family, spec.params
    if fam == "johnson":
        n, e = p
        return TheoryValues(e * (n - e), comb(n, e), SqrtVal((e - 1) * (n - e - 1) - 1))
    if fam == "hamming":
        d, q = p
        return TheoryValues(d * (q - 1), q ** d, SqrtVal(q * (d - 1) - d))
    if fam == "doob":
        d1, d2 = p
        d = 2 * d1 + d2
        return TheoryValues(3 * d, 4 ** d, SqrtVal(6 * d1 + 3 * d2 - 4))
    if fam == "halvedcube":
        (n,) = p
        return TheoryValues(comb(n, 2), 2 ** (n - 1),
                            SqrtVal(Fraction((n - 2) ** 2 - n, 2)))
    if fam == "foldedcube":
        (n,) = p
        return TheoryValues(n, 2 ** (n - 1), SqrtVal(n - 4))
    if fam == "foldedhalvedcube":
        (n,) = p
        return TheoryValues(n * (2 * n - 1), 2 ** (2 * n - 2),
                            SqrtVal(2 * (n - 2) ** 2 - n))
    if fam == "odd":
        (k,) = p
        return TheoryValues(k, comb(2 * k - 1, k - 1), SqrtVal(k - 2))
    if fam == "doubledodd":
        (m,) = p
        return TheoryValues(m, 2 * comb(2 * m - 1, m - 1), SqrtVal(m - 1))
    if fam == "grassmann":
        q, n, e = p
        from .algebra import gb
        k = q * _gauss1(e, q) * _gauss1(n - e, q)
        t1 = q * q * _gauss1(e - 1, q) * _gauss1(n - e - 1, q) - 1
        return TheoryValues(k, gb(n, e, q), SqrtVal(t1))
    if fam == "bilinearforms":
        q, D, e = p
        k = _gauss1(D, q) * (q ** e - 1)
        t1 = Fraction((q ** (D - 1) - 1) * (q ** e - q), q - 1) - 1
        return TheoryValues(k, q ** (D * e), SqrtVal(t1))
    if fam == "alternatingforms":
        q, n = p
        Dh, m = n // 2, 2 * ((n + 1) // 2) - 1
        k = _gauss1(Dh, q * q) * (q ** m - 1)
        t1 = _gauss1(Dh - 1, q * q) * (q ** m - q * q) - 1
        return TheoryValues(k, q ** (n * (n - 1) // 2), SqrtVal(t1))
    if fam == "hermitianforms":
        r, D = p
        k = (r ** (2 * D) - 1) // (r + 1)
        t1 = (r ** (2 * D - 2) - 1) // (r + 1)
        return TheoryValues(k, r ** (D * D), SqrtVal(t1))
    if fam == "quadraticforms":
        q, n = p
        Dh, m = (n + 1) // 2, 2 * (n // 2) + 1
        k = _gauss1(Dh, q * q) * (q ** m - 1)
        t1 = _gauss1(Dh - 1, q * q) * (q ** m - q * q) - 1
        return TheoryValues(k, q ** (n * (n + 1) // 2), SqrtVal(t1))
    if fam == "dualpolarc":
        q, D = p
        v = 1
        for i in range(1, D + 1):
            v *= q ** i + 1
        return TheoryValues(q * _gauss1(D, q), v, SqrtVal(q * _gauss1(D - 1, q) - 1))
    if fam == "halfdualpolar":
        q, n = p
        Dh, m = n // 2, 2 * ((n + 1) // 2) - 1
        beta = Fraction(_gauss1(m + 1, q) - 1)
        alpha = Fraction(q * q + q)
        b = q * q
        k = Fraction(_gauss1(Dh, b)) * beta
        t1 = Fraction(_gauss1(Dh, b) - 1, b) * (beta - alpha) - 1
        v = 1
        for i in range(1, n):
            v *= q ** i + 1
        if k.denominator != 1 or t1.denominator != 1:
            raise SelfCheckFailed(f"{spec}: k = {k} or theta_1 = {t1} is not integral")
        return TheoryValues(int(k), v, SqrtVal(t1))
    if fam == "doubledgrassmann":
        q, t = p
        from .algebra import gb
        theta1 = SqrtVal(0, _gauss1(t, q), q)
        return TheoryValues(_gauss1(t + 1, q), 2 * gb(2 * t + 1, t, q), theta1)
    raise ParamDomain(f"no theory values for {fam}")


# -- vertex keys ----------------------------------------------------------------


def _hamming_keys(d, q):
    return list(product(range(q), repeat=d))


def _even_strings(length):
    return [s for s in product((0, 1), repeat=length) if sum(s) % 2 == 0]


def _upper_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _monomials(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


@lru_cache(maxsize=1)
def _vertex_keys(spec: FamilySpec) -> list:
    """The sorted vertex keys of construct(spec); cached for the construct ->
    descendant sequence of one target."""
    fam, p = spec.family, spec.params
    if fam == "johnson":
        n, e = p
        return list(combinations(range(n), e))
    if fam == "hamming":
        d, q = p
        return _hamming_keys(d, q)
    if fam == "doob":
        d1, d2 = p     # Shrikhande vertex numbers, then K4 vertex numbers
        return list(product(*([range(16)] * d1 + [range(4)] * d2)))
    if fam == "halvedcube":
        (n,) = p
        return _even_strings(n)
    if fam == "foldedcube":
        (n,) = p
        return list(product((0, 1), repeat=n - 1))
    if fam == "foldedhalvedcube":
        (n,) = p
        return _even_strings(2 * n - 1)
    if fam == "odd":
        (k,) = p
        return list(combinations(range(2 * k - 1), k - 1))
    if fam == "doubledodd":
        (m,) = p
        sets = list(combinations(range(2 * m - 1), m - 1))
        return [(side, s) for side in (0, 1) for s in sets]
    if fam == "grassmann":
        q, n, e = p
        return enumerate_subspaces(n, e, field(q))
    if fam == "bilinearforms":
        q, D, e = p
        return list(product(product(range(q), repeat=e), repeat=D))
    if fam == "alternatingforms":
        q, n = p
        return list(product(range(q), repeat=len(_upper_pairs(n))))
    if fam == "hermitianforms":
        r, D = p
        F = field(r * r)
        fixed = [a for a in range(F.q) if F.conj(a) == a]
        return sorted(product(*([fixed] * D + [range(F.q)] * len(_upper_pairs(D)))))
    if fam == "quadraticforms":
        q, n = p
        return list(product(range(q), repeat=len(_monomials(n))))
    if fam == "dualpolarc":
        q, D = p
        return isotropic_subspaces(field(q), 2 * D, D)
    if fam == "doubledgrassmann":
        q, t = p
        F = field(q)
        return [(0, U) for U in enumerate_subspaces(2 * t + 1, t, F)] + \
            [(1, W) for W in enumerate_subspaces(2 * t + 1, t + 1, F)]
    raise ParamDomain(f"{fam} has no vertex keys")


def _side(keys, side: int) -> list:
    return [key for s, key in keys if s == side]


# -- constructors ---------------------------------------------------------------
#
# Every family describes its adjacency by a function rows(lo, hi) that
# returns rows lo..hi-1 of the boolean n x n matrix as one numpy expression
# over its keys, and _graph_from_rows asks for one block of
# graph._block_rows(n) rows at a time and keeps only the arcs (np.nonzero), so
# construction holds no n x n array.  Most families test the inner products
# X @ X.T of a 0/1 incidence matrix X (_gram_rows): set-membership rows count
# common elements, one-hot digit rows count agreeing digits, and
# subspace-element indicator rows count common vectors (q^dim of the
# intersection).  The forms families are Cayley graphs: b ~ a when a - b lies
# in a connection set C, found once with the rank predicate against the zero
# key.  Doob graphs move in exactly one factor coordinate.  The bipartite
# doubles give rows of their biadjacency block to _bipartite_from_rows.


def _shrikhande() -> np.ndarray:
    """Adjacency of the Shrikhande graph, Doob's factor: the Cayley graph on
    Z4 x Z4 (vertex 4a + b) with connection set {+-(1,0), +-(0,1), +-(1,1)},
    whose differences (da, db) have codes 4da + db in {4, 12, 1, 3, 5, 15}."""
    a, b = np.divmod(np.arange(16), 4)
    return np.isin(4 * ((a[:, None] - a) % 4) + (b[:, None] - b) % 4,
                   (4, 12, 1, 3, 5, 15))


def _nonzero_rows(r: int, c: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of the boolean r x c matrix whose rows lo..hi-1 are
    rows(lo, hi), asked for one block of _block_rows(c) rows at a time."""
    step = _block_rows(c)
    src, dst = [], []
    for lo in range(0, r, step):
        i, j = np.nonzero(rows(lo, min(lo + step, r)))
        src.append(i + lo)
        dst.append(j)
    return np.concatenate(src), np.concatenate(dst)


def _graph_from_rows(n: int, rows) -> Graph:
    """The graph whose adjacency rows lo..hi-1 are rows(lo, hi)."""
    return Graph.from_edge_arrays(n, *_nonzero_rows(n, n, rows))


def _bipartite_from_rows(r: int, c: int, rows) -> Graph:
    """The bipartite graph whose biadjacency rows lo..hi-1 are rows(lo, hi):
    the block's r rows are the first vertices, its c columns the rest."""
    i, j = _nonzero_rows(r, c, rows)
    j = j + r
    return Graph.from_edge_arrays(r + c, np.concatenate((i, j)),
                                  np.concatenate((j, i)))


def bipartite_graph(block: np.ndarray) -> Graph:
    """The bipartite graph with the given biadjacency block."""
    return _bipartite_from_rows(*block.shape, lambda lo, hi: block[lo:hi])


def _gram_rows(X: np.ndarray, Y: np.ndarray, test):
    """rows(lo, hi) of test(X @ Y.T) for two 0/1 matrices.  The inner
    products are computed in float32, exact for these counts (all below
    2**24), with X and Y cast once."""
    Xf = X.astype(np.float32)
    Yf = Xf if Y is X else Y.astype(np.float32)
    return lambda lo, hi: test(Xf[lo:hi] @ Yf.T)


def _set_rows(ground: int, keys) -> np.ndarray:
    """Indicator rows of subsets of range(ground), given as tuples."""
    members = np.array(keys, dtype=np.intp)
    X = np.zeros((len(members), ground), dtype=bool)
    X[np.arange(len(members))[:, None], members] = True
    return X


def _hamming_rows(keys, q: int, distances):
    """rows(lo, hi) of the digit strings at one of the given Hamming
    distances, that is with the length minus that many agreeing digits; the
    inner products of one-hot digit rows count the agreements."""
    K = np.array(keys, dtype=np.intp)
    onehot = (K[:, :, None] == np.arange(q)).reshape(len(K), -1)
    agreements = [K.shape[1] - dist for dist in distances]
    return _gram_rows(onehot, onehot, lambda agree: np.isin(agree, agreements))


def _incidence_rows(F, small, big):
    """rows(lo, hi) of small[i] <= big[j], for subspaces of one F^n: exactly
    when all q^dim vectors of small[i] lie in big[j]."""
    full = F.q ** len(small[0])
    return _gram_rows(span_rows(F, small), span_rows(F, big),
                      lambda inside: inside == full)


def incidence_block(F, small, big) -> np.ndarray:
    """The whole small x big incidence block of _incidence_rows."""
    return _incidence_rows(F, small, big)(0, len(small))


def _doob_rows(keys, factors):
    """rows(lo, hi) of the keys that differ in exactly one coordinate, by a
    step of that coordinate's factor graph (adjacency matrix)."""
    K = np.array(keys, dtype=np.intp)

    def rows(lo, hi):
        differ = np.zeros((hi - lo, len(K)), dtype=np.uint8)
        edge = np.zeros((hi - lo, len(K)), dtype=bool)
        for f, col in zip(factors, K.T):
            differ += col[lo:hi, None] != col
            edge |= f[col[lo:hi, None], col]
        return (differ == 1) & edge

    return rows


def _difference_rows(F, keys, in_C):
    """rows(lo, hi) of a ~ b when the coordinatewise difference a - b lies in
    C, the keys accepted by in_C.  Every forms family has C = -C, so this is
    symmetric."""
    q = F.q
    K = np.array(keys, dtype=np.intp).reshape(len(keys), -1)
    length = K.shape[1]
    sub = np.array([[F.sub(x, y) for y in range(q)] for x in range(q)],
                   dtype=np.uint8)
    member = np.zeros(q ** length, dtype=bool)
    member[K @ (q ** np.arange(length - 1, -1, -1))] = [in_C(key) for key in keys]
    dtype = np.min_scalar_type(q ** length - 1)

    def rows(lo, hi):
        code = np.zeros((hi - lo, len(K)), dtype=dtype)
        for col in K.T:
            code *= q
            code += sub[col[lo:hi, None], col[None, :]]
        return member[code]

    return rows


def _alt_full(F, n, upper):
    M = [[0] * n for _ in range(n)]
    for (i, j), val in upper.items():
        M[i][j] = val
        M[j][i] = F.neg(val)
    return M


def _quad_rank(F, coeffs, n):
    """Rank of the quadratic form sum a_ij x_i x_j (i <= j)."""
    # Gram matrix of the polarization B(e_i,e_j)
    B = [[0] * n for _ in range(n)]
    for (i, j), a in coeffs.items():
        if i == j:
            B[i][i] = F.add(a, a)
        else:
            B[i][j] = a
            B[j][i] = a
    rankB = matrix_rank(F, [tuple(r) for r in B])
    rad = nullspace(F, [tuple(r) for r in B], n)

    def qval(x):
        acc = 0
        for (i, j), a in coeffs.items():
            acc = F.add(acc, F.mul(a, F.mul(x[i], x[j])))
        return acc

    extra = 1 if any(qval(x) for x in rad) else 0
    return rankB + extra


def construct(spec: FamilySpec) -> Graph:
    tv = theory_values(spec)
    if tv.v > MAX_VERTICES:
        raise TooLarge(f"{spec} has {tv.v} vertices (cap {MAX_VERTICES})")
    fam, p = spec.family, spec.params
    if fam == "halfdualpolar":
        raise ParamDomain(f"{fam} is parameters-only (no constructor); "
                          "use theory_values / half_dual_polar_descendant_check")
    keys = _vertex_keys(spec)

    if fam == "johnson":
        n, e = p
        X = _set_rows(n, keys)
        rows = _gram_rows(X, X, lambda common: common == e - 1)
    elif fam == "hamming":
        d, q = p
        rows = _hamming_rows(keys, q, (1,))
    elif fam == "doob":
        d1, d2 = p
        rows = _doob_rows(keys, [_shrikhande()] * d1 + [~np.eye(4, dtype=bool)] * d2)
    elif fam == "halvedcube":
        rows = _hamming_rows(keys, 2, (2,))
    elif fam == "foldedcube":
        (n,) = p
        rows = _hamming_rows(keys, 2, (1, n - 1))
    elif fam == "foldedhalvedcube":
        (n,) = p
        rows = _hamming_rows(keys, 2, (2, 2 * n - 2))
    elif fam == "odd":
        (k,) = p
        X = _set_rows(2 * k - 1, keys)
        rows = _gram_rows(X, X, lambda common: common == 0)
    elif fam == "doubledodd":
        (m,) = p
        X = _set_rows(2 * m - 1, _side(keys, 0))
        rows = _gram_rows(X, X, lambda common: common == 0)
    elif fam == "grassmann":
        q, n, e = p
        X = span_rows(field(q), keys)
        rows = _gram_rows(X, X, lambda common: common == q ** (e - 1))
    elif fam == "bilinearforms":
        q, D, e = p
        F = field(q)
        rows = _difference_rows(F, keys, lambda M: matrix_rank(F, M) == 1)
    elif fam == "alternatingforms":
        q, n = p
        F = field(q)
        pairs = _upper_pairs(n)

        def rank2(key):
            M = _alt_full(F, n, dict(zip(pairs, key)))
            return matrix_rank(F, [tuple(r) for r in M]) == 2

        rows = _difference_rows(F, keys, rank2)
    elif fam == "hermitianforms":
        r, D = p
        F = field(r * r)
        pairs = _upper_pairs(D)

        def rank1(key):
            M = [[0] * D for _ in range(D)]
            for i in range(D):
                M[i][i] = key[i]
            for t, (i, j) in enumerate(pairs):
                M[i][j] = key[D + t]
                M[j][i] = F.conj(key[D + t])
            return matrix_rank(F, [tuple(row) for row in M]) == 1

        rows = _difference_rows(F, keys, rank1)
    elif fam == "quadraticforms":
        q, n = p
        F = field(q)
        monos = _monomials(n)
        rows = _difference_rows(
            F, keys, lambda key: _quad_rank(F, dict(zip(monos, key)), n) in (1, 2))
    elif fam == "dualpolarc":
        q, D = p
        X = span_rows(field(q), keys)
        rows = _gram_rows(X, X, lambda common: common == q ** (D - 1))
    elif fam == "doubledgrassmann":
        q, t = p
        rows = _incidence_rows(field(q), _side(keys, 0), _side(keys, 1))
    else:  # pragma: no cover
        raise ParamDomain(f"no constructor for {fam}")

    if fam in ("doubledodd", "doubledgrassmann"):
        g = _bipartite_from_rows(len(keys) // 2, len(keys) // 2, rows)
    else:
        g = _graph_from_rows(len(keys), rows)
    k = g.regular_degree()
    if k != tv.k or g.n != tv.v:
        raise ParamDomain(
            f"{spec}: constructed (v,k)=({g.n},{k}) != theory ({tv.v},{tv.k})")
    return g


# -- descendant subgraphs --------------------------------------------------------

def descendant(spec: FamilySpec) -> frozenset:
    """The half-size induced subgraph with average valency >= theta_1, as a
    vertex set of construct(spec)'s labeling: the indices of the keys that
    pass the family's predicate."""
    fam, p = spec.family, spec.params
    if fam == "johnson":
        keep = lambda key: 0 in key
    elif fam in ("hamming", "halvedcube", "foldedcube"):
        keep = lambda key: key[0] == 0
    elif fam == "doob":
        d1, d2 = p
        if d2 > 0:
            keep = lambda key: key[d1] == 0
        else:   # 6-wheel in the first Shrikhande factor: a vertex and its hexagon
            wheel = {0} | set(np.flatnonzero(_shrikhande()[0]).tolist())
            keep = lambda key: key[0] in wheel
    elif fam == "foldedhalvedcube":
        keep = lambda key: key[0] == key[1] == 0
    elif fam == "odd":
        def keep(key):
            s = set(key)
            return ({0, 1} <= s and not s & {2, 3}) or ({2, 3} <= s and not s & {0, 1})
    elif fam == "doubledodd":
        # side 0 keeps the sets with 1 and without 0, side 1 the reverse
        keep = lambda key: 1 - key[0] in key[1] and key[0] not in key[1]
    elif fam == "grassmann":
        keep = lambda U: all(row[0] == 0 for row in U)
    elif fam == "bilinearforms":
        keep = lambda M: not any(M[0])
    elif fam == "alternatingforms":
        # zero first row: _upper_pairs lists the n - 1 pairs (0, j) first
        n = p[1]
        keep = lambda key: not any(key[:n - 1])
    elif fam == "hermitianforms":
        # zero first row: the diagonal entry 0, then the pairs (0, j) at D..2D-2
        D = p[1]
        keep = lambda key: key[0] == 0 and not any(key[D:2 * D - 1])
    elif fam == "quadraticforms":
        # no monomial x_0 x_j: _monomials lists the n pairs (0, j) first
        n = p[1]
        keep = lambda key: not any(key[:n])
    elif fam == "dualpolarc":
        # e1 in U: in RREF a vector with pivot column 0 is the first row plus
        # rows that are 0 at column 0, and the first row is 0 at every later
        # pivot, so e1 is in U exactly when it is the first row
        e1 = tuple([1] + [0] * (2 * p[1] - 1))
        keep = lambda U: U[0] == e1
    elif fam in NO_DESCENDANT:
        raise NoDescendant(f"{fam}: handled analytically, no explicit descendant")
    else:  # pragma: no cover
        raise NoDescendant(f"no descendant for {fam}")
    return frozenset(i for i, key in enumerate(_vertex_keys(spec)) if keep(key))


def half_dual_polar_descendant_check(q: int, n: int) -> tuple[bool, str]:
    """Symbolic check that the halved dual polar graph's descendant valency
    exceeds theta_1: q*[n-1 choose 2]_{q^2} > q^3*[n-2 choose 2]_{q^2}."""
    from .algebra import gb
    lhs = q * gb(n - 1, 2, q * q)
    rhs = q ** 3 * gb(n - 2, 2, q * q)
    return lhs > rhs, f"q[{n-1} 2]_(q^2) = {lhs} vs q^3[{n-2} 2]_(q^2) = {rhs}"


# -- default verification grid ---------------------------------------------------

def default_grid() -> list[FamilySpec]:
    """Every family instance verified by the batch harness (complete-graph
    cases D = 1 are excluded: lambda_1 > 1 there and the bounds are vacuous)."""
    specs: list[FamilySpec] = []
    for n in range(4, 10):
        for e in range(2, n // 2 + 1):
            specs.append(FamilySpec("johnson", (n, e)))
    for q in (2, 3, 4):
        for d in range(2, 5):
            specs.append(FamilySpec("hamming", (d, q)))
    specs += [FamilySpec("doob", (1, 0)), FamilySpec("doob", (1, 1))]
    specs += [FamilySpec("halvedcube", (n,)) for n in range(4, 9)]
    specs += [FamilySpec("foldedcube", (n,)) for n in range(4, 9)]
    specs += [FamilySpec("foldedhalvedcube", (n,)) for n in (4, 5)]
    specs += [FamilySpec("odd", (k,)) for k in (3, 4, 5)]
    specs += [FamilySpec("doubledodd", (m,)) for m in (2, 3, 4)]
    specs += [FamilySpec("grassmann", (q, n, 2)) for q in (2, 3) for n in (4, 5)]
    specs += [FamilySpec("bilinearforms", (2, 2, e)) for e in (2, 3)]
    specs += [FamilySpec("alternatingforms", (2, 4))]
    specs += [FamilySpec("hermitianforms", (2, 2))]
    specs += [FamilySpec("quadraticforms", (2, 3))]
    specs += [FamilySpec("dualpolarc", (q, D)) for q in (2, 3) for D in (2, 3)]
    return specs
