"""The earlier edge-loop builds of three catalog graphs, the row-loop
bipartite double, the bit-loop graph6 decoder, the dense family builds
(one boolean n x n expression per graph) and the bincount prefix sweep,
used by the tests as oracles for the catalog's numpy builders, Doob's
Shrikhande factor, the catalog's double: rule, graph.g6_decode, the
row-blocked families.construct and families.bipartite_graph, and
search._sweep_order; and the corpus of catalog and grid graphs that the
oracles are compared on."""

import math
from itertools import product

import numpy as np

from drgc.algebra import field, matrix_rank, span_rows
from drgc.catalog import catalog_list, catalog_load
from drgc.errors import MalformedGraph6
from drgc.families import (_alt_full, _monomials, _quad_rank, _set_rows,
                           _shrikhande, _side, _upper_pairs, _vertex_keys,
                           construct, default_grid, theory_values)
from drgc.graph import Graph, edge_arrays


def catalog_and_grid(max_n=math.inf):
    """(name, graph) for every catalog entry with a graph and every grid
    spec with at most max_n vertices."""
    return ([(e.name, catalog_load(e.name)[0]) for e in catalog_list()
             if e.source != "parameters-only" and e.array.v <= max_n] +
            [(str(spec), construct(spec)) for spec in default_grid()
             if theory_values(spec).v <= max_n])


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


# -- dense family builds: the adjacency as one boolean n x n expression --------

def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-by-row inner products of two 0/1 matrices."""
    return X.astype(np.float32) @ Y.T.astype(np.float32)


def _bipartite(block: np.ndarray) -> np.ndarray:
    """Adjacency of the bipartite graph with biadjacency block."""
    r, c = block.shape
    return np.block([[np.zeros((r, r), dtype=bool), block],
                     [block.T, np.zeros((c, c), dtype=bool)]])


def _hamming_distances(keys, q: int) -> np.ndarray:
    K = np.array(keys, dtype=np.intp)
    onehot = (K[:, :, None] == np.arange(q)).reshape(len(K), -1)
    return K.shape[1] - _inner(onehot, onehot)


def _incidence(F, small, big) -> np.ndarray:
    return _inner(span_rows(F, small), span_rows(F, big)) == F.q ** len(small[0])


def _difference_adjacency(F, keys, in_C) -> np.ndarray:
    q = F.q
    K = np.array(keys, dtype=np.intp).reshape(len(keys), -1)
    length = K.shape[1]
    sub = np.array([[F.sub(x, y) for y in range(q)] for x in range(q)],
                   dtype=np.uint8)
    member = np.zeros(q ** length, dtype=bool)
    member[K @ (q ** np.arange(length - 1, -1, -1))] = [in_C(key) for key in keys]
    code = np.zeros((len(K), len(K)), dtype=np.min_scalar_type(q ** length - 1))
    for col in K.T:
        code *= q
        code += sub[col[:, None], col[None, :]]
    return member[code]


def dense_bipartite_graph(block: np.ndarray) -> Graph:
    return Graph.from_edge_arrays(sum(block.shape), *np.nonzero(_bipartite(block)))


def dense_construct(spec) -> Graph:
    """The family graph from its whole n x n adjacency, as construct built
    it before it worked in row blocks."""
    fam, p = spec.family, spec.params
    keys = _vertex_keys(spec)
    if fam == "johnson":
        n, e = p
        X = _set_rows(n, keys)
        adj = _inner(X, X) == e - 1
    elif fam == "hamming":
        d, q = p
        adj = _hamming_distances(keys, q) == 1
    elif fam == "doob":
        d1, d2 = p
        factors = [_shrikhande()] * d1 + [~np.eye(4, dtype=bool)] * d2
        adj = np.zeros((1, 1), dtype=bool)
        for f in factors:   # Kronecker sum: move in exactly one factor
            adj = np.kron(adj, np.eye(len(f), dtype=bool)) \
                | np.kron(np.eye(len(adj), dtype=bool), f)
    elif fam == "halvedcube":
        adj = _hamming_distances(keys, 2) == 2
    elif fam == "foldedcube":
        (n,) = p
        dist = _hamming_distances(keys, 2)
        adj = (dist == 1) | (dist == n - 1)
    elif fam == "foldedhalvedcube":
        (n,) = p
        dist = _hamming_distances(keys, 2)
        adj = (dist == 2) | (dist == 2 * n - 2)
    elif fam == "odd":
        (k,) = p
        X = _set_rows(2 * k - 1, keys)
        adj = _inner(X, X) == 0
    elif fam == "doubledodd":
        (m,) = p
        X = _set_rows(2 * m - 1, _side(keys, 0))
        adj = _bipartite(_inner(X, X) == 0)
    elif fam in ("grassmann", "dualpolarc"):
        q, e = p[0], p[-1]
        X = span_rows(field(q), keys)
        adj = _inner(X, X) == q ** (e - 1)
    elif fam == "bilinearforms":
        F = field(p[0])
        adj = _difference_adjacency(F, keys, lambda M: matrix_rank(F, M) == 1)
    elif fam == "alternatingforms":
        q, n = p
        F = field(q)
        pairs = _upper_pairs(n)

        def rank2(key):
            M = _alt_full(F, n, dict(zip(pairs, key)))
            return matrix_rank(F, [tuple(r) for r in M]) == 2

        adj = _difference_adjacency(F, keys, rank2)
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

        adj = _difference_adjacency(F, keys, rank1)
    elif fam == "quadraticforms":
        q, n = p
        F = field(q)
        monos = _monomials(n)
        adj = _difference_adjacency(
            F, keys, lambda key: _quad_rank(F, dict(zip(monos, key)), n) in (1, 2))
    elif fam == "doubledgrassmann":
        adj = _bipartite(_incidence(field(p[0]), _side(keys, 0), _side(keys, 1)))
    else:
        raise ValueError(f"no dense build for {fam}")
    return Graph.from_edge_arrays(len(adj), *np.nonzero(adj))


# -- prefix sweep ---------------------------------------------------------------

def bincount_sweep_order(g: Graph, x) -> frozenset:
    """The earlier prefix sweep: each edge adds +1 to the boundary at the
    position of its earlier endpoint and -1 at its later one, scattered with
    two bincounts over the edges' positions."""
    total = 2 * g.num_edges
    src, dst, first = edge_arrays(g)
    order = np.argsort(-np.asarray(x), kind="stable")
    pos = np.empty(g.n, dtype=np.intp)
    pos[order] = np.arange(g.n)
    p, q = pos[src], pos[dst]
    once = p < q
    delta = np.bincount(p[once], minlength=g.n) - np.bincount(q[once], minlength=g.n)
    boundary = np.cumsum(delta)[:-1]
    vol = np.cumsum(np.diff(first)[order])[:-1]
    best = np.argmin(boundary / np.minimum(vol, total - vol))
    return frozenset(order[:best + 1].tolist())
