"""Python reference versions of the subspace span and the symplectic form,
used by the tests as oracles for the table-driven numpy routines in
drgc.algebra."""

from drgc.algebra import FiniteField
from drgc.errors import BadField


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
