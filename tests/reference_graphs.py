"""The earlier edge-loop builds of three catalog graphs, used by the tests as
oracles for the catalog's numpy builders and for Doob's Shrikhande factor."""

from itertools import product

from drgc.algebra import field
from drgc.graph import Graph


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a, b in product(range(4), repeat=2):
        for da, db in conn:
            c, d = (a + da) % 4, (b + db) % 4
            edges.append((4 * a + b, 4 * c + d))
    return Graph.from_edges(16, {tuple(sorted(e)) for e in edges}, "shrikhande")


def k55_minus_matching() -> Graph:
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    return Graph.from_edges(10, edges, "k55-minus-matching")


def ag2_minus_parallel_class(q: int) -> Graph:
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
    return Graph.from_edges(2 * q * q, edges)
