"""Core graph representation and metric/structural operations.

Graphs are simple, undirected, with vertices 0..n-1 and sorted adjacency
lists; they are immutable after construction and safe to share.  Vertex
subsets are plain frozensets; all cut statistics are exact integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (Acyclic, EmptySet, FullSet, GraphError, MalformedGraph6,
                     NotBipartite, NotDistanceRegular, NotRegular, Unreachable)

VertexSet = frozenset


class Graph:
    __slots__ = ("n", "adj", "name", "_dm", "_eig")

    def __init__(self, n: int, adj: Iterable[Iterable[int]], name: str = ""):
        adj = tuple(tuple(sorted(set(row))) for row in adj)
        if len(adj) != n:
            raise GraphError(f"adjacency has {len(adj)} rows for n={n}")
        for u, row in enumerate(adj):
            for v in row:
                if v == u:
                    raise GraphError(f"self-loop at {u}")
                if not 0 <= v < n:
                    raise GraphError(f"vertex {v} out of range")
                if u not in adj[v]:
                    raise GraphError(f"asymmetric adjacency {u}->{v}")
        self.n = n
        self.adj = adj
        self.name = name
        self._dm = None
        self._eig = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], name: str = "") -> "Graph":
        rows = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        return Graph(n, rows, name)

    @property
    def num_edges(self) -> int:
        return sum(len(r) for r in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def regular_degree(self) -> int | None:
        degs = {len(r) for r in self.adj}
        return degs.pop() if len(degs) == 1 else None

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def renamed(self, name: str) -> "Graph":
        g = Graph.__new__(Graph)
        g.n, g.adj, g.name = self.n, self.adj, name
        g._dm, g._eig = self._dm, self._eig
        return g

    def __repr__(self):
        label = self.name or "graph"
        return f"<{label}: n={self.n}, m={self.num_edges}>"


class CutStats(NamedTuple):
    size: int       # |S|
    inside: int     # E[S,S], ordered pairs (twice the edge count)
    boundary: int   # E[S,S^c]
    vol: int        # vol(S) = inside + boundary


@dataclass(frozen=True)
class IntersectionArray:
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        b, c = self.b, self.c
        D = len(b)
        if len(c) != D or D < 1:
            raise NotDistanceRegular(f"array length mismatch: {b} {c}")
        k = b[0]
        if c[0] != 1:
            raise NotDistanceRegular(f"c_1 = {c[0]} != 1")
        for i in range(1, D):
            if b[i] > b[i - 1] or (i == 1 and b[1] >= b[0]):
                raise NotDistanceRegular(f"b not decreasing: {b}")
            if c[i] < c[i - 1]:
                raise NotDistanceRegular(f"c not increasing: {c}")
        if b[-1] < 1:
            raise NotDistanceRegular(f"b_{D-1} = {b[-1]} < 1")
        for i in range(D):
            for j in range(1, D + 1):
                if i + j <= D and b[i] < c[j - 1]:
                    raise NotDistanceRegular(f"b_{i} < c_{j} with i+j <= D")
        for i in range(D + 1):
            if self.a(i) < 0:
                raise NotDistanceRegular(f"a_{i} = {self.a(i)} < 0")
        ks = [1]
        for i in range(D):
            num = ks[i] * b[i]
            if num % c[i] != 0:
                raise NotDistanceRegular(f"sphere size k_{i+1} not integral")
            ks.append(num // c[i])

    @property
    def D(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0]

    def bi(self, i: int) -> int:
        return self.b[i] if i < self.D else 0

    def ci(self, i: int) -> int:
        return 0 if i == 0 else self.c[i - 1]

    def a(self, i: int) -> int:
        return self.k - self.bi(i) - self.ci(i)

    def sphere_sizes(self) -> tuple[int, ...]:
        ks = [1]
        for i in range(self.D):
            ks.append(ks[i] * self.b[i] // self.c[i])
        return tuple(ks)

    @property
    def v(self) -> int:
        return sum(self.sphere_sizes())

    def is_bipartite(self) -> bool:
        return all(self.a(i) == 0 for i in range(self.D + 1))

    def is_antipodal(self) -> bool:
        # distance-D fibres: b_i = c_{D-i} for all i except possibly i = floor(D/2)
        return all(self.bi(i) == self.ci(self.D - i)
                   for i in range(self.D) if i != self.D // 2)

    def __str__(self):
        return "{%s;%s}" % (",".join(map(str, self.b)), ",".join(map(str, self.c)))

    @staticmethod
    def parse(text: str) -> "IntersectionArray":
        text = text.strip().strip("{}")
        bs, cs = text.split(";")
        return IntersectionArray(tuple(int(x) for x in bs.split(",")),
                                 tuple(int(x) for x in cs.split(",")))


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


def adjacency_matrix(g: Graph, dtype=np.float64) -> np.ndarray:
    A = np.zeros((g.n, g.n), dtype=dtype)
    for u, row in enumerate(g.adj):
        A[u, list(row)] = 1
    return A


def eigensystem(g: Graph):
    """Cached (eigenvalues, eigenvectors) of the adjacency matrix."""
    if g._eig is None:
        g._eig = np.linalg.eigh(adjacency_matrix(g))
    return g._eig


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distance matrix via layered boolean matmuls (cached)."""
    if g._dm is not None:
        return g._dm
    n = g.n
    A = adjacency_matrix(g, np.float32)
    dm = np.full((n, n), -1, dtype=np.int16)
    np.fill_diagonal(dm, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.astype(np.float32)
    d = 0
    while True:
        d += 1
        nxt = (frontier @ A) > 0.5
        new = nxt & ~reached
        if not new.any():
            break
        dm[new] = d
        reached |= new
        frontier = new.astype(np.float32)
    if (dm < 0).any():
        raise Unreachable("graph is disconnected")
    g._dm = dm
    return dm


def intersection_array(g: Graph) -> IntersectionArray:
    """Extract the intersection array, checking distance-regularity over all
    ordered vertex pairs; this load-time check is what lets embedded catalog
    data be trusted."""
    k = g.regular_degree()
    if k is None:
        raise NotRegular("graph is not regular")
    if g.n == 1 or k == 0:
        raise NotRegular("trivial graph")
    dm = distance_matrix(g)
    diam = int(dm.max())
    A = adjacency_matrix(g, np.float32)
    b = []
    c = []
    for i in range(1, diam + 1):
        pairs = dm == i
        cnt_prev = (dm == i - 1).astype(np.float32) @ A
        cvals = cnt_prev[pairs]
        c_i = int(cvals[0])
        bad = np.nonzero(pairs & (np.rint(cnt_prev).astype(np.int64) != c_i))
        if bad[0].size:
            x, y = int(bad[0][0]), int(bad[1][0])
            raise NotDistanceRegular(
                f"c_{i} differs at pair ({x},{y})", witness=(x, y, i))
        cnt_next = (dm == i + 1).astype(np.float32) @ A
        bvals = cnt_next[pairs]
        b_i = int(bvals[0])
        bad = np.nonzero(pairs & (np.rint(cnt_next).astype(np.int64) != b_i))
        if bad[0].size:
            x, y = int(bad[0][0]), int(bad[1][0])
            raise NotDistanceRegular(
                f"b_{i} differs at pair ({x},{y})", witness=(x, y, i))
        c.append(c_i)
        if i < diam:
            b.append(b_i)
        elif b_i != 0:
            raise NotDistanceRegular(f"b_D = {b_i} != 0")
    ia = IntersectionArray((k, *b), tuple(c))
    if ia.v != g.n:
        raise NotDistanceRegular(f"sphere sizes sum to {ia.v} != n = {g.n}")
    return ia


def girth(g: Graph, with_cycle: bool = False):
    """Length of a shortest cycle; optionally also one shortest cycle's vertices."""
    if g.num_edges < g.n:
        # a graph with a cycle has m >= n on some component; cheap necessary test
        if _is_forest(g):
            raise Acyclic("graph has no cycle")
    best = g.n + 1
    best_root = -1
    for root in range(g.n):
        found = _shortest_cycle_through(g, root, best)
        if found < best:
            best, best_root = found, root
            if best == 3:
                break
    if best > g.n:
        raise Acyclic("graph has no cycle")
    if not with_cycle:
        return best
    return best, _recover_cycle(g, best_root, best)


def _is_forest(g: Graph) -> bool:
    seen = [False] * g.n
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [(s, -1)]
        seen[s] = True
        while stack:
            u, parent = stack.pop()
            skip_parent = parent >= 0
            for w in g.adj[u]:
                if w == parent and skip_parent:
                    skip_parent = False
                    continue
                if seen[w]:
                    return False
                seen[w] = True
                stack.append((w, u))
    return True


def _shortest_cycle_through(g, root, cap):
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    best = cap
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            if 2 * du + 1 >= best:
                return best
            for w in g.adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    cyc = du + dist[w] + 1
                    if cyc < best:
                        best = cyc
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return best


def _recover_cycle(g, root, length):
    dist = {root: 0}
    parent = {root: -1}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in g.adj[u]:
                if w == parent[u]:
                    continue
                if w in dist:
                    if du + dist[w] + 1 == length:
                        cyc = set()
                        for z in (u, w):
                            while z != -1:
                                cyc.add(z)
                                z = parent[z]
                        if len(cyc) == length:
                            return frozenset(cyc)
                else:
                    dist[w] = du + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    raise GraphError("cycle recovery failed")  # pragma: no cover


def cut_stats(g: Graph, S) -> CutStats:
    S = frozenset(S)
    if not S:
        raise EmptySet("S is empty")
    if len(S) >= g.n:
        raise FullSet("S is the whole vertex set")
    inside = 0
    boundary = 0
    for u in S:
        for w in g.adj[u]:
            if w in S:
                inside += 1
            else:
                boundary += 1
    return CutStats(len(S), inside, boundary, inside + boundary)


def line_graph(g: Graph) -> Graph:
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    edges = sorted(g.edges())
    index = {e: i for i, e in enumerate(edges)}
    rows = [[] for _ in edges]
    for u in range(g.n):
        inc = [index[(min(u, v), max(u, v))] for v in g.adj[u]]
        for i, e1 in enumerate(inc):
            for e2 in inc[i + 1:]:
                rows[e1].append(e2)
                rows[e2].append(e1)
    return Graph(len(edges), rows, name=f"L({g.name})" if g.name else "")


def bipartite_double(g: Graph) -> Graph:
    """Two copies of V; (u,0) ~ (v,1) iff u ~ v.  Copy 0 is 0..n-1."""
    n = g.n
    rows = [[] for _ in range(2 * n)]
    for u in range(n):
        for v in g.adj[u]:
            rows[u].append(n + v)
            rows[n + u].append(v)
    return Graph(2 * n, rows, name=f"double({g.name})" if g.name else "")


def two_coloring(g: Graph) -> tuple[list[int], list[int]]:
    """Bipartition classes (class of vertex 0 first); raises NotBipartite."""
    color = [-1] * g.n
    color[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    nxt.append(w)
                elif color[w] == color[u]:
                    raise NotBipartite(f"odd cycle through edge ({u},{w})")
        frontier = nxt
    if -1 in color:
        raise Unreachable("graph is disconnected")
    return ([v for v in range(g.n) if color[v] == 0],
            [v for v in range(g.n) if color[v] == 1])


def halved_graph(g: Graph, side: int = 0) -> Graph:
    """Distance-2 graph on one color class of a connected bipartite graph."""
    classes = two_coloring(g)
    members = classes[side]
    pos = {v: i for i, v in enumerate(members)}
    rows = [[] for _ in members]
    for v in members:
        at_two = set()
        for w in g.adj[v]:
            at_two.update(g.adj[w])
        at_two.discard(v)
        rows[pos[v]] = [pos[x] for x in at_two]
    return Graph(len(members), rows, name=f"half({g.name})" if g.name else "")


def induced_subgraph(g: Graph, S) -> tuple[Graph, list[int]]:
    """Induced subgraph plus the list mapping new ids to original ids."""
    S = frozenset(S)
    if not S:
        raise EmptySet("S is empty")
    order = sorted(S)
    pos = {v: i for i, v in enumerate(order)}
    rows = [[pos[w] for w in g.adj[v] if w in S] for v in order]
    return Graph(len(order), rows), order


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


def g6_decode(text: str, name: str = "") -> Graph:
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
    return Graph.from_edges(n, edges, name=name)
