"""The infinite families at concrete parameters: constructors, descendant
subgraphs, and closed-form eigenvalue data.

Each family is defined once, by a function of its named parameters
(_johnson(n, e), _grassmann(q, n, e), ...) that checks them, raising
ParamDomain, and returns a _Family record: the closed-form TheoryValues, the
sorted vertex keys, the adjacency rows over those keys, the descendant
predicate on a key, and whether the rows are a bipartite double's
biadjacency block.  theory_values, _vertex_keys, construct and descendant
dispatch over that table, and FAMILIES is its keys.  To add a family, write
one more definition under @_family, named _<family> and taking the spec's
parameters in order, and add its instances to default_grid.

Each family's vertex labeling has one owner, _vertex_keys: the natural vertex
keys (subsets, strings, RREF matrices, coefficient tuples; (side, key) for the
bipartite doubles) in sorted order, and vertex i of construct(spec) is key i.
descendant selects its vertex set from the same keys, so the two cannot drift
apart, and descendant sets are reproducible across runs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod

import numpy as np

from .algebra import (SUPPORTED_Q, enumerate_subspaces, field, gb,
                      isotropic_subspaces, matrix_rank, nullspace, span_rows)
from .errors import NoDescendant, ParamDomain, SelfCheckFailed, TooLarge
from .exact import SqrtVal
from .graph import MAX_VERTICES, Graph, _block_rows

# families settled analytically, with no explicit descendant subgraph
NO_DESCENDANT = ("doubledgrassmann", "halfdualpolar")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamDomain(f"unknown family {self.family!r}")
        _define(self)

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


@dataclass(frozen=True)
class _Family:
    """One family at concrete parameters.  keys() lists the sorted vertex
    keys, and rows(keys) returns the rows(lo, hi) of the adjacency matrix
    over them, or of the biadjacency block of side 0 against side 1 when
    bipartite; both are None for a parameters-only family.  keep is the
    descendant predicate on a key, None for a family settled analytically."""
    theory: TheoryValues
    keys: Callable[[], list] | None
    rows: Callable[[list], Callable] | None
    keep: Callable[[tuple], bool] | None
    bipartite: bool = False


_DEFINITIONS: dict[str, Callable[..., _Family]] = {}


def _family(define):
    """Register a definition _<family> under the name <family>."""
    _DEFINITIONS[define.__name__[1:]] = define
    return define


def _need(cond: bool, msg: str):
    if not cond:
        raise ParamDomain(msg)


# -- vertex keys ----------------------------------------------------------------


def _hamming_keys(d, q):
    return list(product(range(q), repeat=d))


def _even_strings(length):
    return [s for s in product((0, 1), repeat=length) if sum(s) % 2 == 0]


def _upper_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _monomials(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _side(keys, side: int) -> list:
    return [key for s, key in keys if s == side]


# -- constructors ---------------------------------------------------------------
#
# Every family describes its adjacency by a function rows(lo, hi) that
# returns rows lo..hi-1 of the boolean n x n matrix as one numpy expression
# over its keys, and _graph_from_rows asks for one block of
# graph._block_rows(n) rows at a time and keeps only the arcs, as the sorted
# keys u*n + v of np.flatnonzero that Graph.from_edge_keys takes, so
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


def _row_keys(r: int, c: int, rows) -> np.ndarray:
    """np.flatnonzero of the boolean r x c matrix whose rows lo..hi-1 are
    rows(lo, hi), asked for one block of _block_rows(c) rows at a time: the
    sorted keys i*c + j of its True entries (i, j)."""
    step = _block_rows(c)
    keys = []
    for lo in range(0, r, step):
        block = np.flatnonzero(rows(lo, min(lo + step, r)))
        block += lo * c
        keys.append(block)
    return np.concatenate(keys)


def _graph_from_rows(n: int, rows) -> Graph:
    """The graph whose adjacency rows lo..hi-1 are rows(lo, hi)."""
    return Graph.from_edge_keys(n, _row_keys(n, n, rows))


def _bipartite_from_rows(r: int, c: int, rows) -> Graph:
    """The bipartite graph whose biadjacency rows lo..hi-1 are rows(lo, hi):
    the block's r rows are the first vertices, its c columns the rest."""
    i, j = np.divmod(_row_keys(r, c, rows), c)
    j += r
    n = r + c
    return Graph.from_edge_keys(n, np.concatenate((i * n + j, j * n + i)))


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


def _common_rows(X: np.ndarray, common: int):
    """rows(lo, hi) of the pairs of 0/1 rows of X with exactly `common`
    common entries."""
    return _gram_rows(X, X, lambda inner: inner == common)


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


# -- family definitions --------------------------------------------------------


@_family
def _johnson(n, e):
    _need(n >= 2 * e >= 2, "need n >= 2e >= 2")
    return _Family(
        TheoryValues(e * (n - e), comb(n, e), SqrtVal((e - 1) * (n - e - 1) - 1)),
        lambda: list(combinations(range(n), e)),
        lambda keys: _common_rows(_set_rows(n, keys), e - 1),
        lambda key: 0 in key)


@_family
def _hamming(d, q):
    _need(d >= 1 and q >= 2, "need d >= 1, q >= 2")
    return _Family(TheoryValues(d * (q - 1), q ** d, SqrtVal(q * (d - 1) - d)),
                   lambda: _hamming_keys(d, q),
                   lambda keys: _hamming_rows(keys, q, (1,)),
                   lambda key: key[0] == 0)


@_family
def _doob(d1, d2):
    _need(d1 >= 1 and d2 >= 0, "need d1 >= 1, d2 >= 0")
    d = 2 * d1 + d2
    if d2 > 0:
        keep = lambda key: key[d1] == 0
    else:   # 6-wheel in the first Shrikhande factor: a vertex and its hexagon
        wheel = {0} | set(np.flatnonzero(_shrikhande()[0]).tolist())
        keep = lambda key: key[0] in wheel
    return _Family(
        TheoryValues(3 * d, 4 ** d, SqrtVal(6 * d1 + 3 * d2 - 4)),
        # Shrikhande vertex numbers, then K4 vertex numbers
        lambda: list(product(*([range(16)] * d1 + [range(4)] * d2))),
        lambda keys: _doob_rows(keys, [_shrikhande()] * d1 +
                                [~np.eye(4, dtype=bool)] * d2),
        keep)


@_family
def _halvedcube(n):
    _need(n >= 3, "need n >= 3")
    return _Family(TheoryValues(comb(n, 2), 2 ** (n - 1),
                                SqrtVal(Fraction((n - 2) ** 2 - n, 2))),
                   lambda: _even_strings(n),
                   lambda keys: _hamming_rows(keys, 2, (2,)),
                   lambda key: key[0] == 0)


@_family
def _foldedcube(n):
    _need(n >= 3, "need n >= 3")
    return _Family(TheoryValues(n, 2 ** (n - 1), SqrtVal(n - 4)),
                   lambda: list(product((0, 1), repeat=n - 1)),
                   lambda keys: _hamming_rows(keys, 2, (1, n - 1)),
                   lambda key: key[0] == 0)


@_family
def _foldedhalvedcube(n):
    _need(n >= 3, "need n >= 3 (graph is on 2^(2n-2) vertices)")
    return _Family(TheoryValues(n * (2 * n - 1), 2 ** (2 * n - 2),
                                SqrtVal(2 * (n - 2) ** 2 - n)),
                   lambda: _even_strings(2 * n - 1),
                   lambda keys: _hamming_rows(keys, 2, (2, 2 * n - 2)),
                   lambda key: key[0] == key[1] == 0)


@_family
def _odd(k):
    _need(k >= 3, "need valency k >= 3")

    def keep(key):
        s = set(key)
        return ({0, 1} <= s and not s & {2, 3}) or ({2, 3} <= s and not s & {0, 1})

    return _Family(TheoryValues(k, comb(2 * k - 1, k - 1), SqrtVal(k - 2)),
                   lambda: list(combinations(range(2 * k - 1), k - 1)),
                   lambda keys: _common_rows(_set_rows(2 * k - 1, keys), 0), keep)


@_family
def _doubledodd(m):
    _need(m >= 2, "need m >= 2")
    return _Family(
        TheoryValues(m, 2 * comb(2 * m - 1, m - 1), SqrtVal(m - 1)),
        lambda: [(side, s) for side in (0, 1)
                 for s in combinations(range(2 * m - 1), m - 1)],
        lambda keys: _common_rows(_set_rows(2 * m - 1, _side(keys, 0)), 0),
        # side 0 keeps the sets with 1 and without 0, side 1 the reverse
        lambda key: 1 - key[0] in key[1] and key[0] not in key[1],
        bipartite=True)


@_family
def _grassmann(q, n, e):
    _need(q in SUPPORTED_Q, f"q = {q} unsupported")
    _need(1 <= e and n >= 2 * e, "need n >= 2e >= 2")
    F = field(q)
    k = q * gb(e, 1, q) * gb(n - e, 1, q)
    t1 = q * q * gb(e - 1, 1, q) * gb(n - e - 1, 1, q) - 1
    return _Family(TheoryValues(k, gb(n, e, q), SqrtVal(t1)),
                   lambda: enumerate_subspaces(n, e, F),
                   lambda keys: _common_rows(span_rows(F, keys), q ** (e - 1)),
                   lambda U: all(row[0] == 0 for row in U))


@_family
def _bilinearforms(q, D, e):
    _need(q in SUPPORTED_Q and 1 <= D <= e, "need q supported, 1 <= D <= e")
    F = field(q)
    k = gb(D, 1, q) * (q ** e - 1)
    t1 = Fraction((q ** (D - 1) - 1) * (q ** e - q), q - 1) - 1
    return _Family(
        TheoryValues(k, q ** (D * e), SqrtVal(t1)),
        lambda: list(product(product(range(q), repeat=e), repeat=D)),
        lambda keys: _difference_rows(F, keys, lambda M: matrix_rank(F, M) == 1),
        lambda M: not any(M[0]))


@_family
def _alternatingforms(q, n):
    _need(q in SUPPORTED_Q and n >= 3, "need q supported, n >= 3")
    F = field(q)
    Dh, m = n // 2, 2 * ((n + 1) // 2) - 1
    k = gb(Dh, 1, q * q) * (q ** m - 1)
    t1 = gb(Dh - 1, 1, q * q) * (q ** m - q * q) - 1
    pairs = _upper_pairs(n)

    def rank2(key):
        M = _alt_full(F, n, dict(zip(pairs, key)))
        return matrix_rank(F, [tuple(r) for r in M]) == 2

    return _Family(TheoryValues(k, q ** (n * (n - 1) // 2), SqrtVal(t1)),
                   lambda: list(product(range(q), repeat=len(pairs))),
                   lambda keys: _difference_rows(F, keys, rank2),
                   # zero first row: _upper_pairs lists the n - 1 pairs (0, j) first
                   lambda key: not any(key[:n - 1]))


@_family
def _hermitianforms(r, D):
    _need(r * r in SUPPORTED_Q and D >= 1, "need r^2 supported, D >= 1")
    F = field(r * r)
    k = (r ** (2 * D) - 1) // (r + 1)
    t1 = (r ** (2 * D - 2) - 1) // (r + 1)
    pairs = _upper_pairs(D)
    fixed = [a for a in range(F.q) if F.conj(a) == a]

    def rank1(key):
        M = [[0] * D for _ in range(D)]
        for i in range(D):
            M[i][i] = key[i]
        for t, (i, j) in enumerate(pairs):
            M[i][j] = key[D + t]
            M[j][i] = F.conj(key[D + t])
        return matrix_rank(F, [tuple(row) for row in M]) == 1

    return _Family(
        TheoryValues(k, r ** (D * D), SqrtVal(t1)),
        lambda: sorted(product(*([fixed] * D + [range(F.q)] * len(pairs)))),
        lambda keys: _difference_rows(F, keys, rank1),
        # zero first row: the diagonal entry 0, then the pairs (0, j) at D..2D-2
        lambda key: key[0] == 0 and not any(key[D:2 * D - 1]))


@_family
def _quadraticforms(q, n):
    _need(q in SUPPORTED_Q and n >= 2, "need q supported, n >= 2")
    F = field(q)
    Dh, m = (n + 1) // 2, 2 * (n // 2) + 1
    k = gb(Dh, 1, q * q) * (q ** m - 1)
    t1 = gb(Dh - 1, 1, q * q) * (q ** m - q * q) - 1
    monos = _monomials(n)
    return _Family(
        TheoryValues(k, q ** (n * (n + 1) // 2), SqrtVal(t1)),
        lambda: list(product(range(q), repeat=len(monos))),
        lambda keys: _difference_rows(
            F, keys, lambda key: _quad_rank(F, dict(zip(monos, key)), n) in (1, 2)),
        # no monomial x_0 x_j: _monomials lists the n pairs (0, j) first
        lambda key: not any(key[:n]))


@_family
def _dualpolarc(q, D):
    _need(q in SUPPORTED_Q and D >= 1, "need q supported, D >= 1")
    F = field(q)
    v = prod(q ** i + 1 for i in range(1, D + 1))
    # e1 in U: in RREF a vector with pivot column 0 is the first row plus
    # rows that are 0 at column 0, and the first row is 0 at every later
    # pivot, so e1 is in U exactly when it is the first row
    e1 = tuple([1] + [0] * (2 * D - 1))
    return _Family(TheoryValues(q * gb(D, 1, q), v,
                                SqrtVal(q * gb(D - 1, 1, q) - 1)),
                   lambda: isotropic_subspaces(F, 2 * D, D),
                   lambda keys: _common_rows(span_rows(F, keys), q ** (D - 1)),
                   lambda U: U[0] == e1)


@_family
def _halfdualpolar(q, n):
    _need(q >= 2 and n >= 4, "need q >= 2, n >= 4")
    Dh, m = n // 2, 2 * ((n + 1) // 2) - 1
    beta = Fraction(gb(m + 1, 1, q) - 1)
    alpha = Fraction(q * q + q)
    b = q * q
    k = Fraction(gb(Dh, 1, b)) * beta
    t1 = Fraction(gb(Dh, 1, b) - 1, b) * (beta - alpha) - 1
    v = prod(q ** i + 1 for i in range(1, n))
    if k.denominator != 1 or t1.denominator != 1:
        raise SelfCheckFailed(f"halfdualpolar:{q},{n}: k = {k} or theta_1 = {t1} "
                              "is not integral")
    return _Family(TheoryValues(int(k), v, SqrtVal(t1)), None, None, None)


@_family
def _doubledgrassmann(q, t):
    _need(q in SUPPORTED_Q and t >= 1, "need q supported, t >= 1")
    F = field(q)
    return _Family(
        TheoryValues(gb(t + 1, 1, q), 2 * gb(2 * t + 1, t, q),
                     SqrtVal(0, gb(t, 1, q), q)),
        lambda: ([(0, U) for U in enumerate_subspaces(2 * t + 1, t, F)] +
                 [(1, W) for W in enumerate_subspaces(2 * t + 1, t + 1, F)]),
        lambda keys: _incidence_rows(F, _side(keys, 0), _side(keys, 1)),
        None, bipartite=True)


FAMILIES = tuple(_DEFINITIONS)


# -- dispatch ------------------------------------------------------------------

def _define(spec: FamilySpec) -> _Family:
    """The family record of spec, from the definition of its family; raises
    ParamDomain, naming the spec, when the parameters are out of its domain."""
    define = _DEFINITIONS[spec.family]
    code = define.__code__
    names = code.co_varnames[:code.co_argcount]
    where = f"{spec.family}{spec.params}"
    if len(spec.params) != len(names):
        raise ParamDomain(f"{where}: need ({', '.join(names)})")
    try:
        return define(*spec.params)
    except ParamDomain as exc:
        raise ParamDomain(f"{where}: {exc}") from None


def theory_values(spec: FamilySpec) -> TheoryValues:
    """The closed-form k, v and theta_1 of spec."""
    return _define(spec).theory


@lru_cache(maxsize=1)
def _vertex_keys(spec: FamilySpec) -> list:
    """The sorted vertex keys of construct(spec); cached for the construct ->
    descendant sequence of one target."""
    keys = _define(spec).keys
    if keys is None:
        raise ParamDomain(f"{spec.family} has no vertex keys")
    return keys()


def construct(spec: FamilySpec) -> Graph:
    fam = _define(spec)
    tv = fam.theory
    if tv.v > MAX_VERTICES:
        raise TooLarge(f"{spec} has more than MAX_VERTICES = {MAX_VERTICES} vertices")
    if fam.rows is None:
        raise ParamDomain(f"{spec.family} is parameters-only (no constructor); "
                          "use theory_values / half_dual_polar_descendant_check")
    keys = _vertex_keys(spec)
    rows = fam.rows(keys)
    if fam.bipartite:
        g = _bipartite_from_rows(len(keys) // 2, len(keys) // 2, rows)
    else:
        g = _graph_from_rows(len(keys), rows)
    k = g.regular_degree()
    if k != tv.k or g.n != tv.v:
        raise ParamDomain(
            f"{spec}: constructed (v,k)=({g.n},{k}) != theory ({tv.v},{tv.k})")
    return g


def descendant(spec: FamilySpec) -> frozenset:
    """The half-size induced subgraph with average valency >= theta_1, as a
    vertex set of construct(spec)'s labeling: the indices of the keys that
    pass the family's predicate."""
    keep = _define(spec).keep
    if keep is None:
        raise NoDescendant(f"{spec.family}: handled analytically, no explicit "
                           "descendant")
    return frozenset(i for i, key in enumerate(_vertex_keys(spec)) if keep(key))


def half_dual_polar_descendant_check(q: int, n: int) -> tuple[bool, str]:
    """Symbolic check that the halved dual polar graph's descendant valency
    exceeds theta_1: q*[n-1 choose 2]_{q^2} > q^3*[n-2 choose 2]_{q^2}."""
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
