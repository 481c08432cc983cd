"""Exact finite-field and q-analog arithmetic for the subspace families.

Fields GF(q) for q in {2,3,4,5,7,8,9,11,13,16}; elements are integers
0..q-1 encoding coefficient vectors base p, so 0 and 1 are the field's zero
and one.  Extension fields use fixed Conway reduction polynomials, keeping
element encodings stable across runs.

Subspaces are listed by one numpy generator, _rref_array, whose (N, e, n)
array of RREF bases is in sorted tuple order.  enumerate_subspaces turns all
of it into tuples; isotropic_subspaces filters the array first and makes
tuples only of the subspaces it keeps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from .errors import BadField, RangeError, SelfCheckFailed, TooLarge

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
SUBSPACE_CAP = 10 ** 6   # most subspaces _rref_array lists

# Conway polynomials, ascending coefficients, monic part included.
_REDUCTION = {
    4: (1, 1, 1),           # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),        # x^3 + x + 1
    9: (2, 2, 1),           # x^2 + 2x + 2 over GF(3)
    16: (1, 1, 0, 0, 1),    # x^4 + x + 1
}


def _factor_prime_power(q):
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            m = 0
            while q > 1:
                if q % p:
                    raise BadField(f"{q} is not a prime power")
                q //= p
                m += 1
            return p, m
    raise BadField(f"unsupported field order")


class FiniteField:
    """GF(q) with precomputed operation tables (q <= 16)."""

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise BadField(f"GF({q}) not supported")
        self.q = q
        self.p, self.m = _factor_prime_power(q)
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._add = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._poly_neg(a) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.m)]

    def _undigits(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def _poly_add(self, a, b):
        return self._undigits([(x + y) % self.p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def _poly_neg(self, a):
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def _poly_mul(self, a, b):
        p, m = self.p, self.m
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        if m > 1:
            red = _REDUCTION[self.q]
            for i in range(len(prod) - 1, m - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j, r in enumerate(red[:-1]):
                        prod[i - m + j] = (prod[i - m + j] - c * r) % p
        return self._undigits(prod[:m])

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a, e):
        r = 1
        for _ in range(e):
            r = self._mul[r][a]
        return r

    @property
    def r(self):
        """Square root of q for fields of square order (Hermitian use)."""
        if self.m % 2:
            raise BadField(f"GF({self.q}) has no quadratic subfield")
        return self.p ** (self.m // 2)

    def conj(self, a):
        """x -> x^r, the involutive automorphism when q = r^2."""
        return self.pow(a, self.r)

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    return FiniteField(q)


def gb(m: int, r: int, q: int) -> int:
    """Gaussian binomial [m r]_q, exact; 0 when r is out of range."""
    if q < 2:
        raise RangeError(f"q = {q} < 2")
    if r < 0 or r > m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise SelfCheckFailed(f"[{m} {r}]_{q}: {num} is not divisible by {den}")
    return num // den


# -- subspaces ----------------------------------------------------------------

def rref(F: FiniteField, rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row-echelon form over F; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    rix = 0
    for col in range(ncols):
        sel = None
        for i in range(rix, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[rix], mat[sel] = mat[sel], mat[rix]
        inv = F.inv(mat[rix][col])
        mat[rix] = [F.mul(inv, x) for x in mat[rix]]
        for i in range(len(mat)):
            if i != rix and mat[i][col]:
                c = mat[i][col]
                mat[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(mat[i], mat[rix])]
        pivots.append(col)
        rix += 1
        if rix == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rix]), tuple(pivots)


def matrix_rank(F: FiniteField, rows) -> int:
    return len(rref(F, rows)[0])


def _rref_array(n: int, e: int, q: int) -> np.ndarray:
    """The RREF bases of all e-subspaces of GF(q)^n as an (N, e, n) uint8
    array, in sorted tuple order; refuses more than SUBSPACE_CAP subspaces
    before it allocates.  One block per pivot set: the pivot entries are 1 and
    the free entries (right of a row's pivot, outside the pivot columns) run
    through all q^f values in product order; one lexicographic sort of the
    flattened bases then interleaves the blocks."""
    if not 0 <= e <= n:
        raise RangeError(f"e = {e} out of range for n = {n}")
    total = gb(n, e, q)
    if total > SUBSPACE_CAP:
        raise TooLarge(f"{total} subspaces exceeds cap {SUBSPACE_CAP}")
    blocks = []
    for pivots in combinations(range(n), e):
        free = [(i, j) for i in range(e) for j in range(pivots[i] + 1, n)
                if j not in pivots]
        block = np.zeros((q ** len(free), e, n), dtype=np.uint8)
        block[:, range(e), list(pivots)] = 1
        if free:
            rows, cols = zip(*free)
            block[:, rows, cols] = np.indices((q,) * len(free)).reshape(len(free), -1).T
        blocks.append(block)
    bases = np.concatenate(blocks)
    if len(bases) != total:
        raise SelfCheckFailed(f"listed {len(bases)} {e}-subspaces of GF({q})^{n}, "
                              f"not [{n} {e}]_{q} = {total}")
    if e == 0:
        return bases
    return bases[np.lexsort(bases.reshape(total, e * n).T[::-1])]


def _as_tuples(bases: np.ndarray) -> list:
    return [tuple(map(tuple, U)) for U in bases.tolist()]


def enumerate_subspaces(n: int, e: int, F: FiniteField):
    """All e-subspaces of F^n as sorted RREF tuples, at most SUBSPACE_CAP."""
    return _as_tuples(_rref_array(n, e, F.q))


# -- all given subspaces at once, through the field tables ---------------------

@lru_cache(maxsize=None)
def field_tables(F: FiniteField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multiplication, addition and negation tables as numpy arrays."""
    return tuple(np.array(t) for t in (F._mul, F._add, F._neg))


def _basis_array(subspaces, e: int, n: int) -> np.ndarray:
    """basis[i, r] is row r of subspaces[i], as an (N, e, n) array."""
    entries = chain.from_iterable(chain.from_iterable(subspaces))
    rows = np.fromiter(entries, dtype=np.intp, count=len(subspaces) * e * n)
    return rows.reshape(-1, e, n)


def span_rows(F: FiniteField, subspaces) -> np.ndarray:
    """0/1 rows over F^n, one per RREF subspace of one dimension e >= 1: row i
    marks the base-q number of each vector sum_r c_r U[r] of U = subspaces[i],
    one per coefficient tuple c, with c_r U[r] looked up in the multiplication
    table and the sum in the addition table."""
    e, n = len(subspaces[0]), len(subspaces[0][0])
    mul, add, _ = field_tables(F)
    basis = _basis_array(subspaces, e, n)[:, None]            # (N, 1, e, n)
    coeffs = np.array(list(product(range(F.q), repeat=e)), dtype=np.intp)
    vectors = np.zeros((len(subspaces), len(coeffs), n), dtype=np.intp)
    for r in range(e):
        vectors = add[vectors, mul[coeffs[:, r, None], basis[:, :, r]]]
    codes = vectors @ F.q ** np.arange(n - 1, -1, -1)
    X = np.zeros((len(subspaces), F.q ** n), dtype=bool)
    X[np.arange(len(subspaces))[:, None], codes] = True
    return X


def isotropic_subspaces(F: FiniteField, n: int, e: int):
    """The e-subspaces of F^n totally isotropic for the symplectic form
    B(x, y) = sum over coordinate pairs (2i, 2i+1) of x_2i y_2i+1 - x_2i+1 y_2i,
    in the sorted order of enumerate_subspaces.  B is evaluated on each pair
    of basis rows of all RREF bases at once, through the field's tables, and
    only the bases kept become tuples."""
    bases = _rref_array(n, e, F.q)
    if e < 2:
        return _as_tuples(bases)
    if n % 2:
        raise BadField("symplectic form needs even dimension")
    mul, add, neg = field_tables(F)
    rows = bases.transpose(1, 2, 0)       # rows[r, i] = U[r][i], one column per U
    isotropic = np.ones(len(bases), dtype=bool)
    for x, y in combinations(rows, 2):
        acc = np.zeros(len(bases), dtype=np.intp)
        for i in range(0, n, 2):
            t = add[mul[x[i], y[i + 1]], neg[mul[x[i + 1], y[i]]]]
            acc = add[acc, t]
        isotropic &= acc == 0
    return _as_tuples(bases[isotropic])


def nullspace(F: FiniteField, rows, ncols: int):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    R, pivots = rref(F, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * ncols
        vec[j] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg(R[i][j])
        basis.append(tuple(vec))
    return basis
