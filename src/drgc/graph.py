"""Core graph representation and metric/structural operations.

Graphs are simple, undirected, with vertices 0..n-1 and sorted adjacency
lists; they are immutable after construction and safe to share.  Every graph
gets its edges through one path: Graph.from_edge_keys takes the ordered
edges (u, v) as the intp keys u*n + v, validates them in numpy and keeps
them as read-only CSR arrays (edge_arrays).  Graph.from_edge_arrays turns
the edges (src[i], dst[i]) into those keys after a range check, and the
adjacency-rows constructor Graph(n, rows), Graph.from_edges, g6_decode and
line_graph only build those arrays; families.construct passes the sorted
keys of its row blocks directly.  Only an invalid input goes on to the
Python scan that names its first bad entry.  Vertex subsets are plain
frozensets; all cut statistics are exact integer counts.

Every stage that allocates an n x n array (adjacency and distance matrices,
the intersection-array check, the dense eigensystem) refuses graphs with more
than MAX_VERTICES vertices before it allocates, raising TooLarge.  The
distance matrix and the intersection-array check gather whole rows through an
n x k neighbour table: they do O(n^2 k) work and no matrix product.  The int8
distance matrix is the only n x n array they hold: the breadth-first search
keeps its frontier bit-packed (n x n/8 bytes) and adds each level into the
distances, and the intersection-array check gathers and counts its pairs
one block of rows at a time, in buffers that every neighbour slot and every
block reuse.  Per slot it makes one gather, one comparison (for c) and one
running sum of the gathered distances (for b), into counts that start at
minus the values due at each pair's distance (_pair_counts).  A block holds
about BLOCK_CELLS cells (_block_rows), small enough to stay in cache;
families.construct builds its adjacency in the same blocks.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain, count, product
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (Acyclic, EmptySet, FullSet, GraphError, MalformedGraph6,
                     NotBipartite, NotDistanceRegular, NotRegular,
                     SelfCheckFailed, TooLarge, Unreachable)
from .params import IntersectionArray

# the largest graph any n x n stage (and families.construct) accepts; int16
# distances (used past diameter 127) also rely on n < 2**15
MAX_VERTICES = 20000
# cells per row block of the blocked n x n stages (_block_rows): family
# construction, the distance matrix's level counts and the
# intersection-array check
BLOCK_CELLS = 2 ** 18


class Graph:
    __slots__ = ("n", "adj", "num_edges", "_degree", "_ia", "_eig", "_edges")

    def __init__(self, n: int, adj: Iterable[Iterable[int]]):
        rows = [tuple(row) for row in adj]
        if len(rows) != n:
            raise GraphError(f"adjacency has {len(rows)} rows for n={n}")
        degs = np.fromiter(map(len, rows), dtype=np.intp, count=n)
        src = np.repeat(np.arange(n), degs)
        dst = _vertex_array(chain.from_iterable(rows))
        self._set_keys(n, _edge_keys(n, src, dst))

    @staticmethod
    def from_edge_arrays(n: int, src: np.ndarray, dst: np.ndarray) -> "Graph":
        """The graph with the ordered edges (src[i], dst[i]), every src[i] in
        range(n): for a dense 0/1 adjacency, the two arrays of np.nonzero."""
        return Graph.from_edge_keys(n, _edge_keys(n, src, dst))

    @staticmethod
    def from_edge_keys(n: int, keys: np.ndarray) -> "Graph":
        """The graph with the ordered edges (u, v) given as the keys u*n + v,
        every key in range(n*n): for a dense 0/1 adjacency, its
        np.flatnonzero.  Keys that are sorted and distinct are kept as they
        are; others are sorted and their repeats dropped."""
        g = Graph.__new__(Graph)
        g._set_keys(n, keys)
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph with the unordered edges {u, v}."""
        u, v = _vertex_array(chain.from_iterable(edges)).reshape(-1, 2).T
        return Graph.from_edge_arrays(n, np.concatenate((u, v)),
                                      np.concatenate((v, u)))

    def _set_keys(self, n: int, keys: np.ndarray) -> None:
        """Validate the edge keys in numpy and build the graph from them."""
        if (keys[1:] <= keys[:-1]).any():   # unsorted, or with repeats
            keys = np.sort(keys)
            keys = keys[np.diff(keys, prepend=-1) != 0]
        # row u holds the keys u*n .. u*n + n - 1
        first = np.searchsorted(keys, np.arange(n + 1) * n)
        degs = np.diff(first)
        src = np.repeat(np.arange(n), degs)
        dst = src * n
        np.subtract(keys, dst, out=dst)
        # the sorted keys are symmetric exactly when the reversed keys v*n + u
        # sort to the same array; a self-loop u*n + u is its own reverse
        rev = dst * n
        rev += src
        rev.sort()
        if (src == dst).any() or not np.array_equal(rev, keys):
            _raise_first_bad_entry(n, src, dst)
        for a in (src, dst, first):
            a.flags.writeable = False
        # one int object per vertex, shared by every row that lists it
        flat = np.array(range(n), dtype=object)[dst].tolist()
        bounds = first.tolist()
        self.n = n
        self.adj = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        self.num_edges = dst.size // 2
        self._degree = int(degs[0]) if n and (degs == degs[0]).all() else None
        self._ia = None
        self._eig = None
        self._edges = EdgeArrays(src, dst, first)

    def regular_degree(self) -> int | None:
        """The common degree, or None when the graph is irregular."""
        return self._degree

    def __repr__(self):
        return f"<graph: n={self.n}, m={self.num_edges}>"


class EdgeArrays(NamedTuple):
    src: np.ndarray     # ordered edges (src[i], dst[i]), grouped by src
    dst: np.ndarray
    first: np.ndarray   # v's neighbours are dst[first[v]:first[v + 1]]


def edge_arrays(g: Graph) -> EdgeArrays:
    """The ordered edge list as read-only numpy arrays, built by Graph."""
    return g._edges


def _edge_keys(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The keys src*n + dst of the ordered edges, every src[i] in range(n),
    once every dst[i] is in range(n) too."""
    if dst.size and (dst.min() < 0 or dst.max() >= n):
        _raise_first_bad_entry(n, src, dst)
    return src * n + dst


def _vertex_array(entries: Iterable) -> np.ndarray:
    """The entries as an intp array, or as Python ints in an object array when
    one does not fit in intp (and so is out of range); GraphError when an
    entry is not an integer."""
    try:
        values = list(map(operator.index, entries))
    except TypeError:
        raise GraphError("adjacency entries are not vertex numbers") from None
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        return np.array(values, dtype=object)


def _raise_first_bad_entry(n: int, src: np.ndarray, dst: np.ndarray) -> None:
    """GraphError at the first bad entry of the ordered edges (src[i], dst[i])
    with src[i] in range(n): by row u = src[i], then by ascending neighbour
    v = dst[i] (repeats count once), a self-loop, then an out-of-range
    vertex, then a v whose row lacks u."""
    sets = [set() for _ in range(n)]
    inside = (src >= 0) & (src < n)
    for u, v in zip(src[inside].tolist(), dst[inside].tolist()):
        sets[u].add(v)
    for u, row in enumerate(sets):
        for v in sorted(row):
            if v == u:
                raise GraphError(f"self-loop at {u}")
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range")
            if u not in sets[v]:
                raise GraphError(f"asymmetric adjacency {u}->{v}")
    raise GraphError("adjacency entries are not vertex numbers")


class CutStats(NamedTuple):
    size: int       # |S|
    inside: int     # E[S,S], ordered pairs (twice the edge count)
    boundary: int   # E[S,S^c]
    vol: int        # vol(S) = inside + boundary


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Graph distances from v; raises Unreachable if g is disconnected."""
    dist = [-1] * g.n
    dist[v] = 0
    frontier = [v]
    seen = 1
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    nxt.append(w)
                    seen += 1
        frontier = nxt
    if seen != g.n:
        raise Unreachable(f"only {seen}/{g.n} vertices reachable from {v}")
    return dist


def _check_dense(g: Graph, stage: str) -> None:
    if g.n > MAX_VERTICES:
        raise TooLarge(f"{stage}: n = {g.n} exceeds MAX_VERTICES = {MAX_VERTICES}, "
                       "the limit for n x n arrays")


def adjacency_matrix(g: Graph, dtype=np.float64) -> np.ndarray:
    _check_dense(g, "adjacency_matrix")
    src, dst, _ = edge_arrays(g)
    A = np.zeros((g.n, g.n), dtype=dtype)
    A[src, dst] = 1
    return A


def eigensystem(g: Graph):
    """Cached (eigenvalues, eigenvectors) of the adjacency matrix."""
    if g._eig is None:
        _check_dense(g, "eigensystem")
        g._eig = np.linalg.eigh(adjacency_matrix(g))
    return g._eig


def _neighbour_table(g: Graph) -> np.ndarray:
    """n x (max degree) table whose row v lists v's neighbours; a row of lower
    degree is padded with v itself."""
    src, dst, first = edge_arrays(g)
    width = int(np.diff(first).max(initial=0))
    table = np.repeat(np.arange(g.n)[:, None], width, axis=1)
    table[src, np.arange(dst.size) - first[src]] = dst
    return table


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances as an n x n matrix, int8 while the diameter is
    below 128 and int16 beyond.

    A breadth-first search from every source at once, on bit-packed rows:
    row x of the frontier is the sphere S_d(x), and S_{d+1}(x) is the union
    of S_d(z) over the neighbours z of x, minus the ball B_d(x).  One level is
    therefore a gather of frontier rows per neighbour slot, OR-ed together;
    a padded slot (z = x) adds nothing outside B_d(x).  d(x, y) is the number
    of levels d with y outside B_d(x), up to the first level where every
    ball is the whole graph."""
    _check_dense(g, "distance_matrix")
    n = g.n
    table = _neighbour_table(g)
    frontier = np.zeros((n, -(-n // 8)), dtype=np.uint8)
    frontier[np.arange(n), np.arange(n) // 8] = 0x80 >> (np.arange(n) % 8)
    reached = frontier.copy()
    whole = np.packbits(np.ones(n, dtype=bool))   # a row with every vertex
    near, nxt = np.empty_like(frontier), np.empty_like(frontier)
    dm = np.zeros((n, n), dtype=np.int8)
    step = _block_rows(n)
    for d in count():
        if d == np.iinfo(np.int8).max:
            dm = dm.astype(np.int16)
        if (reached == whole).all():
            return dm
        unreached = ~reached
        for lo in range(0, n, step):
            # the bits as int8, so that the add stays in one dtype
            dm[lo:lo + step] += np.unpackbits(unreached[lo:lo + step], axis=1,
                                              count=n).view(np.int8)
        nxt.fill(0)
        for col in table.T:
            frontier.take(col, axis=0, out=near, mode="clip")
            nxt |= near
        nxt &= unreached
        if not nxt.any():
            raise Unreachable("graph is disconnected")
        reached |= nxt
        frontier, nxt = nxt, frontier


def _block_rows(n: int) -> int:
    """Rows per block of the n x n stages that work one block of rows at a
    time: a block holds about BLOCK_CELLS cells, so it stays in cache."""
    return max(1, BLOCK_CELLS // n)


def intersection_array(g: Graph) -> IntersectionArray:
    """Extract the intersection array (cached), checking distance-regularity
    over all ordered vertex pairs; this load-time check is what lets embedded
    catalog data be trusted.

    c_i and b_i are counted at the first pair in row-major order at distance
    i, a pair (0, y).  _pair_counts counts every pair against them, one
    block of _block_rows(n) rows y at a time, and a block passes when all
    its counts are zero.  With diameter D <= 2 every pair has c = 1 at
    distance 1 and b = 0 at distance D, so the running sum alone decides
    and c is not counted.  A failing block sends the check to
    _raise_first_failure, which names the first pair that breaks a
    constant."""
    if g._ia is not None:
        return g._ia
    _check_dense(g, "intersection_array")
    k = g.regular_degree()
    if k is None:
        raise NotRegular("graph is not regular")
    if g.n == 1 or k == 0:
        raise NotRegular("trivial graph")
    n = g.n
    dm = distance_matrix(g)
    diam = int(dm.max())
    nbrs = edge_arrays(g).dst.reshape(n, k)   # regular, so row v is v's neighbours
    # c_ref[i], b_ref[i] are the counts at the first pair (0, y) with
    # d(0, y) = i; the diagonal (i = 0) gives c = 0 and b = k.  Distances
    # beyond e = ecc(0) read the diagonal, which is harmless: the graph then
    # fails at b_e at the latest, since (0, y) has b = 0 there while a pair
    # (u, w) with w next to last on a geodesic of length e + 1 from u has
    # b >= 1
    first = np.zeros(diam + 1, dtype=np.intp)
    at_distance, y = np.unique(dm[0], return_index=True)
    first[at_distance] = y
    around, here = dm[0][nbrs[first]], dm[0][first, None]
    c_ref = (around < here).sum(axis=1).tolist()
    b_ref = (around > here).sum(axis=1).tolist()
    if any(s.any() or (c is not None and c.any()) for _, c, s in
           _pair_counts(dm, nbrs, _block_rows(n), c_ref, b_ref, diam > 2)):
        _raise_first_failure(dm, nbrs, c_ref, b_ref)
    ia = IntersectionArray((k, *b_ref[1:diam]), tuple(c_ref[1:]))
    if ia.v != g.n:
        raise NotDistanceRegular(f"sphere sizes sum to {ia.v} != n = {g.n}")
    g._ia = ia
    return ia


def _count_dtype(dm: np.ndarray, k: int) -> np.dtype:
    """The unsigned dtype of the pair counts: it holds k, and it is at least
    as wide as the distances."""
    return np.promote_types(np.min_scalar_type(k), f"u{dm.itemsize}")


def _pair_counts(dm: np.ndarray, nbrs: np.ndarray, step: int, c_ref, b_ref,
                 count_c: bool = True):
    """Yield (lo, c, s) for each block of step rows y of dm, from row lo on,
    where for the pair (x, y) at distance d, modulo 2^bits of the count
    dtype, c[y - lo, x] = c(x, y) - c_ref[d] and s[y - lo, x] = b(x, y) -
    b_ref[d] - c[y - lo, x]: both are zero exactly when the pair has its
    distance's values, as each difference is at most k in size and the
    dtype holds k.  Without count_c, c is None.  c and s are buffers that
    the next block overwrites.

    Each slot's neighbours z are gathered into one reused buffer; c counts
    d(x, z) < d, and s sums d(x, z), which is d - 1 at c neighbours, d + 1
    at b and d at the others: k d + b - c.  So c starts at -c_ref[d] and s
    at c_ref[d] - b_ref[d] - k d (_start).  The distances are read through
    their unsigned view, which gives the same values since none is
    negative."""
    n, k = nbrs.shape
    dtype = _count_dtype(dm, k)
    unsigned = dm.view(f"u{dm.itemsize}")
    starts = [-c for c in c_ref], [c - b - k * d for d, (c, b) in
                                   enumerate(zip(c_ref, b_ref))]
    shape = (min(step, n), n)
    near, mask = np.empty(shape, dm.dtype), np.empty(shape, bool)
    counts, sums, tmp = (np.empty(shape, dtype) for _ in range(3))
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        d, z, lt = dm[lo:lo + rows], near[:rows], mask[:rows]
        c, s = (counts[:rows] if count_c else None), sums[:rows]
        for acc, values in zip((c, s), starts):
            if acc is not None:
                _start(acc, unsigned[lo:lo + rows], values, lt, tmp[:rows])
        for col in nbrs[lo:lo + rows].T:
            dm.take(col, axis=0, out=z, mode="clip")
            if count_c:
                np.less(z, d, out=lt)
                c += lt.view(np.uint8)
            s += z.view(unsigned.dtype)
        yield lo, c, s


def _start(acc, d, values, mask, tmp) -> None:
    """acc = values[d] modulo 2^bits of acc's dtype, for the unsigned
    distances d, without a lookup: the line of the most common step of
    values, plus, wherever d >= j, the amount by which values[j] -
    values[j - 1] departs from it.  Values with c_i rising and b_i falling,
    as in a distance-regular graph, take at most 2k such steps."""
    wrap = 1 << (8 * acc.itemsize)
    steps = [b - a for a, b in zip(values, values[1:])]
    tally = Counter(steps)
    slope = max(tally, key=tally.get)
    np.multiply(d, acc.dtype.type(slope % wrap), out=acc)
    if values[0] % wrap:
        acc += acc.dtype.type(values[0] % wrap)
    for j, step in enumerate(steps, 1):
        if (step - slope) % wrap:
            np.greater_equal(d, j, out=mask)
            np.multiply(mask, acc.dtype.type((step - slope) % wrap), out=tmp)
            acc += tmp


def _raise_first_failure(dm: np.ndarray, nbrs: np.ndarray, c_ref, b_ref) -> None:
    """NotDistanceRegular at the first failing (i, label, pair): ascending i,
    c before b, then the first (x, y) in row-major order.  The counts
    themselves (_pair_counts against zeros) are compared in the check's row
    blocks, distance by distance up to the least failing one found so far;
    nothing larger than a block is made.  A flagged check with no failing
    pair is a fault of the check: SelfCheckFailed."""
    zeros = [0] * len(c_ref)
    found = []
    for lo, c, s in _pair_counts(dm, nbrs, _block_rows(len(dm)), zeros, zeros):
        d = dm[lo:lo + len(c)]
        s += c   # b(x, y)
        top = min(found)[0] if found else len(c_ref) - 1
        for i, rank in product(range(1, top + 1), (0, 1)):
            bad = (d == i) & ((c, s)[rank] != (c_ref, b_ref)[rank][i])
            if bad.any():
                x = int(bad.any(axis=0).argmax())
                found.append((i, rank, x, lo + int(bad[:, x].argmax())))
                break
    if not found:
        raise SelfCheckFailed("intersection_array: a row block failed the "
                              "check, but no pair breaks a constant")
    i, rank, x, y = min(found)
    raise NotDistanceRegular(f"{'cb'[rank]}_{i} differs at pair ({x},{y})",
                             witness=(x, y, i))


def girth(g: Graph, least: int = 3) -> tuple[int, frozenset]:
    """Length and vertex set of a shortest cycle.  A BFS from each root in
    turn finds the shortest closed walk through it, stopping once none can
    beat the best so far; the root's parent map then gives the cycle closed
    by the first edge that reached the minimum, which is simple because the
    minimum is the girth.  The roots stop at the first cycle of length
    least, a lower bound on the girth (IntersectionArray.girth() is exact);
    a later root would replace only a strictly shorter cycle, so the answer
    is the full scan's.  A forest raises Acyclic."""
    best, closing = g.n + 1, None
    for root in range(g.n):
        found = _shortest_cycle_through(g, root, best)
        if found is not None:
            best, *closing = found
            if best == least:
                break
    if closing is None:
        raise Acyclic("graph has no cycle")
    u, w, parent = closing
    cyc = set()
    for z in (u, w):
        while z != -1:
            cyc.add(z)
            z = parent[z]
    return best, frozenset(cyc)


def _shortest_cycle_through(g, root, cap):
    """(length, u, w, parent) for the first non-tree edge u-w, in BFS order
    from root, that closes the shortest walk through root shorter than cap;
    None if there is no such walk."""
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    best = None
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            if 2 * du + 1 >= cap:
                return best
            for w in g.adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    cyc = du + dist[w] + 1
                    if cyc < cap:
                        cap = cyc
                        best = (cyc, u, w, parent)
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return best


def cut_stats(g: Graph, S) -> CutStats:
    """Exact counts from the edge arrays: a boolean mask of the ordered
    edges leaving vertices of S counts vol(S), and the same mask narrowed to
    the edges that also end in S counts the inside; the boundary is the
    rest."""
    S = frozenset(S)
    if not S:
        raise EmptySet("S is empty")
    if len(S) >= g.n:
        raise FullSet("S is the whole vertex set")
    if min(S) < 0 or max(S) >= g.n:
        raise IndexError(f"S has a vertex outside range({g.n})")
    _, dst, first = edge_arrays(g)
    inS = np.zeros(g.n, dtype=bool)
    inS[np.fromiter(S, np.intp, len(S))] = True
    # each vertex's flag once per arc leaving it, as the arcs are grouped
    k = g.regular_degree()
    out = inS.repeat(np.diff(first) if k is None else k)
    vol = int(np.count_nonzero(out))
    out &= inS[dst]
    inside = int(np.count_nonzero(out))
    return CutStats(len(S), inside, vol - inside, vol)


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges u < v of g, numbered in sorted order; adjacency
    is sharing an endpoint.  Two arcs p != q leaving one vertex are two edges
    meeting there."""
    src, dst, first = edge_arrays(g)
    forward = src < dst
    edge = np.searchsorted(src[forward] * g.n + dst[forward],
                           np.minimum(src, dst) * g.n + np.maximum(src, dst))
    # arc p is paired with each arc q = first[src[p]] + i, i < deg(src[p])
    per = np.diff(first)[src]
    p = np.repeat(np.arange(src.size), per)
    q = np.arange(p.size) - np.repeat(np.cumsum(per) - per - first[src], per)
    p, q = p[p != q], q[p != q]
    return Graph.from_edge_arrays(int(forward.sum()), edge[p], edge[q])


def two_coloring(g: Graph) -> tuple[list[int], list[int]]:
    """Bipartition classes, the vertices at even and at odd distance from
    vertex 0; raises Unreachable or NotBipartite."""
    parity = np.array(bfs_distances(g, 0)) % 2
    src, dst, _ = edge_arrays(g)
    inner = np.flatnonzero(parity[src] == parity[dst])
    if inner.size:
        u, w = src[inner[0]], dst[inner[0]]
        raise NotBipartite(f"odd cycle through edge ({u},{w})")
    return np.flatnonzero(parity == 0).tolist(), np.flatnonzero(parity).tolist()


# -- graph6 ------------------------------------------------------------------

def g6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise MalformedGraph6("n too large for this encoder")
    bits = []
    for j in range(1, n):
        row = set(g.adj[j])
        for i in range(j):
            bits.append(1 if i in row else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for bit in bits[i:i + 6]:
            val = (val << 1) | bit
        chars.append(chr(val + 63))
    return head + "".join(chars)


def g6_decode(text: str) -> Graph:
    text = text.strip()
    if not text:
        raise MalformedGraph6("empty string")
    if ord(text[0]) == 126:
        if len(text) < 4 or ord(text[1]) == 126:
            raise MalformedGraph6("unsupported or truncated header")
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    if n < 0:   # a header char below "?"
        raise MalformedGraph6("bad header byte")
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise MalformedGraph6(f"expected {need} body chars, got {len(body)}")
    # each body char holds six bits of the upper triangle, column by column:
    # bit j(j-1)/2 + i is the pair i < j
    codes = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    vals = codes - 63
    bad = vals > 63   # a code point below 63 wraps around to a large value
    if bad.any():
        raise MalformedGraph6(f"bad body byte {body[int(bad.argmax())]!r}")
    bits = np.unpackbits(vals.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    at = np.flatnonzero(bits[:pairs])
    start = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(start, at, side="right") - 1
    i = at - start[j]
    return Graph.from_edge_arrays(n, np.concatenate((i, j)), np.concatenate((j, i)))
