"""Exact finite-field and q-analog arithmetic for the subspace families.

Fields GF(q) for q in {2,3,4,5,7,8,9,11,13,16}; elements are integers
0..q-1 encoding coefficient vectors base p, so 0 and 1 are the field's zero
and one.  Extension fields use fixed Conway reduction polynomials, keeping
element encodings stable across runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from .errors import AmbientMismatch, BadField, RangeError, TooLarge

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

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

    def vec_add(self, x, y):
        return tuple(self._add[a][b] for a, b in zip(x, y))

    def vec_scale(self, c, x):
        return tuple(self._mul[c][a] for a in x)

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
    assert num % den == 0
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


def subspace_elements(F: FiniteField, U) -> frozenset[tuple[int, ...]]:
    """All q^dim vectors of the subspace (including 0)."""
    if not U:
        return frozenset()
    elems = {tuple([0] * len(U[0]))}
    for row in U:
        new = set()
        for c in range(1, F.q):
            cv = F.vec_scale(c, row)
            for e in elems:
                new.add(F.vec_add(e, cv))
        elems |= new
    return frozenset(elems)


def enumerate_subspaces(n: int, e: int, F: FiniteField, cap: int = 10 ** 6):
    """All e-dimensional subspaces of F^n as sorted RREF tuples."""
    if not 0 <= e <= n:
        raise RangeError(f"e = {e} out of range for n = {n}")
    total = gb(n, e, F.q)
    if total > cap:
        raise TooLarge(f"{total} subspaces exceeds cap {cap}")
    if e == 0:
        return [()]
    out = []
    vals = range(F.q)
    for pivots in combinations(range(n), e):
        free_pos = []
        for i in range(e):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free_pos.append((i, j))
        for assignment in product(vals, repeat=len(free_pos)):
            mat = [[0] * n for _ in range(e)]
            for i in range(e):
                mat[i][pivots[i]] = 1
            for (i, j), v in zip(free_pos, assignment):
                mat[i][j] = v
            out.append(tuple(tuple(r) for r in mat))
    assert len(out) == total
    out.sort()
    return out


# -- forms --------------------------------------------------------------------

def form_eval(kind: str, F: FiniteField, x, y):
    """Evaluate the standard form of the given kind at (x, y).

    symplectic: sum over coordinate pairs (2i, 2i+1) of x_i y_j - x_j y_i.
    """
    if len(x) != len(y):
        raise AmbientMismatch("vectors of unequal length")
    if kind == "symplectic":
        if len(x) % 2:
            raise BadField("symplectic form needs even dimension")
        acc = 0
        for i in range(0, len(x), 2):
            t1 = F.mul(x[i], y[i + 1])
            t2 = F.mul(x[i + 1], y[i])
            acc = F.add(acc, F.sub(t1, t2))
        return acc
    raise BadField(f"unknown form kind {kind!r}")


def isotropic_subspaces(F: FiniteField, n: int, e: int):
    """The e-subspaces of F^n totally isotropic for the symplectic form, in
    the sorted order of enumerate_subspaces.  The form of form_eval is
    evaluated on each pair of basis rows of all subspaces at once, through
    the field's operation tables."""
    subspaces = enumerate_subspaces(n, e, F)
    if e < 2:
        return subspaces
    if n % 2:
        raise BadField("symplectic form needs even dimension")
    mul, add, neg = (np.array(t) for t in (F._mul, F._add, F._neg))
    entries = chain.from_iterable(chain.from_iterable(subspaces))
    rows = np.fromiter(entries, dtype=np.intp, count=len(subspaces) * e * n)
    rows = rows.reshape(-1, e, n).transpose(1, 2, 0)   # rows[r, i] = U[r][i]
    isotropic = np.ones(len(subspaces), dtype=bool)
    for x, y in combinations(rows, 2):
        acc = np.zeros(len(subspaces), dtype=np.intp)
        for i in range(0, n, 2):
            t = add[mul[x[i], y[i + 1]], neg[mul[x[i + 1], y[i]]]]
            acc = add[acc, t]
        isotropic &= acc == 0
    return [U for U, iso in zip(subspaces, isotropic) if iso]


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
