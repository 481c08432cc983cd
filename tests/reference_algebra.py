"""Python reference versions of the subspace enumeration, the subspace span
and the symplectic form, used by the tests as oracles for the table-driven
numpy routines in drgc.algebra."""

from itertools import combinations, product

from drgc import algebra
from drgc.algebra import FiniteField, gb
from drgc.errors import BadField, RangeError, TooLarge


def enumerate_subspaces(n: int, e: int, F: FiniteField):
    """The earlier enumerator, kept as an oracle: every pivot set, every
    assignment of the free entries in product order, one RREF tuple each,
    then one sort."""
    if not 0 <= e <= n:
        raise RangeError(f"e = {e} out of range for n = {n}")
    total = gb(n, e, F.q)
    if total > algebra.SUBSPACE_CAP:
        raise TooLarge(f"{total} subspaces exceeds cap {algebra.SUBSPACE_CAP}")
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


def subspace_elements(F: FiniteField, U) -> frozenset[tuple[int, ...]]:
    """All q^dim vectors of the subspace (including 0)."""
    if not U:
        return frozenset()
    elems = {tuple([0] * len(U[0]))}
    for row in U:
        new = set()
        for c in range(1, F.q):
            cv = tuple(F.mul(c, a) for a in row)
            for e in elems:
                new.add(tuple(F.add(a, b) for a, b in zip(e, cv)))
        elems |= new
    return frozenset(elems)


def form_eval(kind: str, F: FiniteField, x, y):
    """Evaluate the standard form of the given kind at (x, y).

    symplectic: sum over coordinate pairs (2i, 2i+1) of x_i y_j - x_j y_i.
    """
    if len(x) != len(y):
        raise ValueError("vectors of unequal length")
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
    """The oracle's subspaces whose basis rows are pairwise orthogonal under
    the symplectic form, one form_eval call at a time."""
    return [U for U in enumerate_subspaces(n, e, F)
            if all(form_eval("symplectic", F, u, v) == 0
                   for u, v in combinations(U, 2))]
