"""Constructions of the named small graphs and incidence geometries.

Every builder returns a Graph with a deterministic vertex labeling (vertices
sorted by their natural keys); callers verify intersection arrays, so nothing
here is trusted on provenance alone.  The projective-plane and
symplectic-quadrangle incidence graphs are not here: the catalog builds them
with the family code's subspace-incidence test (families.incidence_block).
"""

from __future__ import annotations

from itertools import combinations, product

from .algebra import field
from .graph import Graph

__all__ = [
    "shrikhande", "icosahedron", "dodecahedron", "coxeter",
    "k55_minus_matching", "ag2_minus_parallel_class", "lcf_graph",
    "foster", "tutte_12_cage",
]


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a, b in product(range(4), repeat=2):
        for da, db in conn:
            c, d = (a + da) % 4, (b + db) % 4
            edges.append((4 * a + b, 4 * c + d))
    return Graph.from_edges(16, {tuple(sorted(e)) for e in edges}, "shrikhande")


def icosahedron() -> Graph:
    # poles 0 and 1, upper ring 2..6, lower ring 7..11
    up = [2 + i for i in range(5)]
    lo = [7 + i for i in range(5)]
    edges = [(0, u) for u in up] + [(1, v) for v in lo]
    for i in range(5):
        edges.append((up[i], up[(i + 1) % 5]))
        edges.append((lo[i], lo[(i + 1) % 5]))
        edges.append((up[i], lo[i]))
        edges.append((up[i], lo[(i - 1) % 5]))
    return Graph.from_edges(12, edges, "icosahedron")


def dodecahedron() -> Graph:
    """Generalized Petersen graph GP(10,2)."""
    edges = []
    for i in range(10):
        edges.append((i, (i + 1) % 10))        # outer cycle
        edges.append((i, 10 + i))              # spokes
        edges.append((10 + i, 10 + (i + 2) % 10))  # inner pentagram pair
    return Graph.from_edges(20, edges, "dodecahedron")


def coxeter() -> Graph:
    """Kneser graph of 3-subsets of a 7-set, restricted to non-lines of a
    Fano plane (each non-line triple is disjoint from exactly one line)."""
    lines = {frozenset({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)}
    keys = [t for t in combinations(range(7), 3) if frozenset(t) not in lines]
    idx = {k: i for i, k in enumerate(keys)}
    edges = [(idx[a], idx[b]) for a, b in combinations(keys, 2)
             if not set(a) & set(b)]
    return Graph.from_edges(28, edges, "coxeter")


def k55_minus_matching() -> Graph:
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    return Graph.from_edges(10, edges, "k55-minus-matching")


def ag2_minus_parallel_class(q: int, name: str = "") -> Graph:
    """Incidence graph of the affine plane AG(2,q) with the vertical parallel
    class removed: q^2 points, q^2 lines y = mx + b, each point on q lines."""
    F = field(q)
    points = sorted(product(range(q), repeat=2))
    pidx = {p: i for i, p in enumerate(points)}
    lines = sorted(product(range(q), repeat=2))   # (m, b)
    edges = []
    for j, (m, b) in enumerate(lines):
        for x in range(q):
            y = F.add(F.mul(m, x), b)
            edges.append((pidx[(x, y)], q * q + j))
    return Graph.from_edges(2 * q * q, edges, name or f"incidence-ag2-{q}-minus-class")


def lcf_graph(jumps, reps: int, name: str = "") -> Graph:
    """Hamiltonian cubic graph from LCF notation."""
    n = len(jumps) * reps
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + jumps[i % len(jumps)]) % n
        edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, {(min(a, b), max(a, b)) for a, b in edges}, name)


def foster() -> Graph:
    return lcf_graph([17, -9, 37, -37, 9, -17], 15, "foster")


def tutte_12_cage() -> Graph:
    return lcf_graph([17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21,
                      57, 11, -21, -57, 59, -17], 7, "tutte-12-cage")
