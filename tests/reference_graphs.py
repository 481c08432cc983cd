"""The earlier edge-loop builds of three catalog graphs, the row-loop
bipartite double and the bit-loop graph6 decoder, used by the tests as
oracles for the catalog's numpy builders, Doob's Shrikhande factor, the
catalog's double: rule and graph.g6_decode."""

from itertools import product

from drgc.algebra import field
from drgc.errors import MalformedGraph6
from drgc.graph import Graph


def shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a, b in product(range(4), repeat=2):
        for da, db in conn:
            c, d = (a + da) % 4, (b + db) % 4
            edges.append((4 * a + b, 4 * c + d))
    return Graph.from_edges(16, {tuple(sorted(e)) for e in edges})


def k55_minus_matching() -> Graph:
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    return Graph.from_edges(10, edges)


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


def bipartite_double(g: Graph) -> Graph:
    """Two copies of V; (u,0) ~ (v,1) iff u ~ v.  Copy 0 is 0..n-1."""
    n = g.n
    rows = [[] for _ in range(2 * n)]
    for u in range(n):
        for v in g.adj[u]:
            rows[u].append(n + v)
            rows[n + u].append(v)
    return Graph(2 * n, rows)


def g6_decode(text: str) -> Graph:
    """graph6 decoding one body bit at a time."""
    text = text.strip()
    if not text:
        raise MalformedGraph6("empty string")
    pos = 0
    if ord(text[0]) == 126:
        if len(text) < 4 or ord(text[1]) == 126:
            raise MalformedGraph6("unsupported or truncated header")
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        pos = 4
    else:
        n = ord(text[0]) - 63
        if n < 0:
            raise MalformedGraph6("bad header byte")
        pos = 1
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[pos:]
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} body chars, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise MalformedGraph6(f"bad body byte {ch!r}")
        bits.extend((val >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)
