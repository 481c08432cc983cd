"""Executable cut constructions and analytic Cheeger upper bounds.

Each construction returns a CutCertificate whose ratio is recomputed from the
graph by cut_stats (no construction trusts its own arithmetic), or an
AnalyticBound whose derivation is re-checkable from the intersection array
alone.  Builders only build: a certificate's verdict against lambda_1 is
decided once, by the report, with the exact eigenvalue count
spectral.at_most_lambda1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (DrgcError, GraphError, NotBipartite, ParamDomain,
                     RangeError, SearchFailed, SelfCheckFailed, WrongGraph)
from .exact import SqrtVal
from .graph import (CutStats, Graph, IntersectionArray, bfs_distances,
                    cut_stats, girth, two_coloring)
from .spectral import srg_eigenvalues


@dataclass(frozen=True)
class CutCertificate:
    S: tuple[int, ...]
    stats: CutStats
    ratio: Fraction
    method: str
    verdict: str = "unknown"
    notes: tuple[str, ...] = ()

    @property
    def boundary(self) -> int:
        return self.stats.boundary

    def __repr__(self):
        return (f"<cut {self.method}: |S|={len(self.S)} ratio={self.ratio} "
                f"(~{float(self.ratio):.4f}) verdict={self.verdict}>")


@dataclass(frozen=True)
class AnalyticBound:
    value: object                  # Fraction or SqrtVal
    method: str
    verdict: str = "unknown"
    lambda1: object = None
    trace: tuple[str, ...] = ()

    def __repr__(self):
        return (f"<bound {self.method}: {float(self.value):.4f} "
                f"verdict={self.verdict}>")


def make_certificate(g: Graph, S, method: str, notes=()) -> CutCertificate:
    """Normalize S to the side of smaller volume and recompute everything."""
    S = frozenset(S)
    st = cut_stats(g, S)
    total = 2 * g.num_edges
    if st.vol > total - st.vol:
        S = frozenset(range(g.n)) - S
        st = cut_stats(g, S)
    ratio = Fraction(st.boundary, st.vol)
    return CutCertificate(tuple(sorted(S)), st, ratio, method,
                          notes=tuple(notes))


# -- generic subgraph certificate (average-valency lemma) -----------------------

def avg_valency_certificate(g: Graph, S, theta1) -> CutCertificate:
    """Certificate from an induced subgraph on at most half the vertices:
    ratio = (k - k')/k with k' the average valency of the subgraph; the bound
    is at most lambda_1 exactly when k' >= theta_1 (theta1 feeds the note)."""
    S = frozenset(S)
    if 2 * len(S) > g.n:
        raise DrgcError(f"|S| = {len(S)} exceeds half of {g.n}")
    st = cut_stats(g, S)
    kprime = Fraction(st.inside, st.size)
    hyp_ok = theta1 is not None and SqrtVal.of(theta1) <= kprime
    notes = (f"avg valency k' = {kprime} {'>=' if hyp_ok else '<'} theta1",)
    return make_certificate(g, S, "descendant", notes)


# -- ball / sphere cuts ----------------------------------------------------------

def ball_cut(g: Graph, radius: int, mode: str = "ball") -> CutCertificate:
    """The ball (or sphere) of the given radius around vertex 0."""
    dist = bfs_distances(g, 0)
    diam = max(dist)
    if not 0 <= radius <= diam or (mode == "ball" and radius >= diam):
        raise RangeError(f"radius {radius} out of range for diameter {diam}")
    if mode == "ball":
        S = [v for v in range(g.n) if dist[v] <= radius]
    elif mode == "sphere":
        S = [v for v in range(g.n) if dist[v] == radius]
    else:
        raise DrgcError(f"unknown mode {mode!r}")
    return make_certificate(g, S, f"{mode}-{radius}")


def shilla_cut(g: Graph, ia: IntersectionArray) -> CutCertificate:
    """S = Gamma_3(x) for diameter-3 graphs with theta_1 = a_3; then the ratio
    is c_3/k = lambda_1 provided the sphere is at most half the graph."""
    if ia.D != 3:
        raise ParamDomain("shilla cut needs diameter 3")
    cert = ball_cut(g, 3, "sphere")
    expected = Fraction(ia.c[2], ia.k)
    notes = (f"c3/k = {expected}",)
    if 2 * ia.sphere_sizes()[3] > ia.v:
        notes += ("sphere exceeds half the graph; ratio is the complement's",)
    return replace(cert, method="shilla-sphere", notes=notes)


# -- strongly regular graphs -----------------------------------------------------

def balanced_partition_bound(k: int, theta_min, v: int) -> Fraction | SqrtVal:
    """Quotient-matrix interlacing bound on h_G from a balanced bipartition:
    (k - theta_min)/2k for even v, (t+1)(k - theta_min)/((2t+1)k) for v = 2t+1."""
    tmin = SqrtVal.of(theta_min)
    k_ = SqrtVal(k)
    if v % 2 == 0:
        val = (k_ - tmin) / (2 * k)
    else:
        t = v // 2
        val = (k_ - tmin) * (t + 1) / ((2 * t + 1) * k)
    return val.as_fraction() if val.is_rational else val


def srg_certify(ia: IntersectionArray) -> AnalyticBound:
    """Upper bound <= lambda_1 for any feasible strongly regular parameter set.

    Branches: conference graphs; the local cut max(b1/(k+1), c2/k); the
    balanced-bipartition interlacing bound (parity-exact).  One of these fires
    for every feasible diameter-2 array."""
    if ia.D != 2:
        raise ParamDomain("srg_certify needs a diameter-2 array")
    k, b1, c2 = ia.k, ia.b[1], ia.c[1]
    a1 = k - b1 - 1
    v = ia.v
    theta1, theta2 = srg_eigenvalues(k, a1, c2)
    _check_srg_feasible(v, k, a1, c2, theta1, theta2)
    lam1 = (SqrtVal(k) - theta1) / k
    trace = [f"v={v} k={k} a1={a1} c2={c2}",
             f"theta1={theta1} theta2={theta2}"]

    if not theta1.is_rational:
        # conference graph: srg(v, (v-1)/2, (v-5)/4, (v-1)/4)
        bound = Fraction(1, 2)
        trace.append("conference branch: c2/k = 1/2 <= lambda1 = (v-sqrt(v))/(v-1)")
        if bound <= lam1:
            return AnalyticBound(bound, "srg-conference", "ok", lam1, tuple(trace))
        raise DrgcError("conference bound failed (infeasible parameters)")

    local = max(Fraction(b1, k + 1), Fraction(c2, k))
    if local <= lam1:
        trace.append(f"local cut branch: max(b1/(k+1), c2/k) = {local} <= lambda1")
        return AnalyticBound(local, "srg-local-cut", "ok", lam1, tuple(trace))

    balanced = balanced_partition_bound(k, theta2, v)
    if balanced <= lam1:
        trace.append(f"balanced-partition branch: bound = {balanced} <= lambda1")
        return AnalyticBound(balanced, "srg-balanced", "ok", lam1, tuple(trace))

    raise DrgcError(f"no srg branch fired for {ia} (should be impossible)")


def _check_srg_feasible(v, k, a1, c2, theta1, theta2):
    from .errors import InfeasibleParams
    if k * (k - a1 - 1) != (v - k - 1) * c2:
        raise InfeasibleParams(f"counting identity fails for ({v},{k},{a1},{c2})")
    # -theta1*theta2 = k - c2 and theta1 + theta2 = a1 - c2 hold by construction
    if theta1.is_rational:
        # multiplicities must be nonnegative integers
        disc = theta1 - theta2
        m1 = (SqrtVal(v - 1) * disc - (2 * k + (v - 1) * (a1 - c2))) / 2
        m1 = m1 / disc.as_fraction() if disc.is_rational else None
        if m1 is None or not m1.is_rational or m1.as_fraction().denominator != 1 \
                or m1.as_fraction() < 0:
            raise InfeasibleParams(f"multiplicities not integral for ({v},{k},{a1},{c2})")
    else:
        if not (k == Fraction(v - 1, 2) and a1 == Fraction(v - 5, 4)
                and c2 == Fraction(v - 1, 4)):
            raise InfeasibleParams(f"irrational eigenvalues outside conference case")


# -- greedy dense-subset selection (averaging lemma) ------------------------------

def greedy_dense_subset(g: Graph, A, B, r_prime: int) -> frozenset:
    """B' of size r' in B maximizing edges to A greedily; meets the averaging
    guarantee E[A,B'] >= r'/|B| * E[A,B]."""
    A, B = frozenset(A), frozenset(B)
    if A & B:
        raise DrgcError("A and B must be disjoint")
    if not 0 <= r_prime <= len(B):
        raise RangeError(f"r' = {r_prime} out of range for |B| = {len(B)}")
    scored = sorted(((sum(1 for w in g.adj[b] if w in A), -b) for b in B),
                    reverse=True)
    return frozenset(-negb for _, negb in scored[:r_prime])


# -- bipartite half-half cut -------------------------------------------------------

def bipartite_half_cut(g: Graph) -> CutCertificate:
    """Half of each side, the second half chosen greedily: ratio <= 1/2 for
    even side size r, and <= 1/2 + 1/(2 r^2) for odd r."""
    sideA, sideB = two_coloring(g)
    if len(sideA) != len(sideB):
        raise NotBipartite(f"sides differ: {len(sideA)} vs {len(sideB)}")
    r = len(sideA)
    k = g.regular_degree()
    if k is None:
        raise GraphError("bipartite half cut needs a regular graph")
    m = r // 2
    A1 = frozenset(sideA[:m])
    B1 = greedy_dense_subset(g, A1, sideB, r - m)
    guarantee = bipartite_half_guarantee(r)
    cert = make_certificate(g, A1 | B1, "bipartite-half",
                            notes=(f"guarantee <= {guarantee}",))
    if cert.ratio > guarantee:
        raise DrgcError(f"half cut ratio {cert.ratio} exceeds guarantee {guarantee}")
    return cert


def bipartite_half_guarantee(r: int) -> Fraction:
    if r % 2 == 0:
        return Fraction(1, 2)
    return Fraction(1, 2) + Fraction(1, 2 * r * r)


# -- analytic verdicts for the bipartite families ----------------------------------

def doubled_grassmann_verdict(q: int, t: int) -> AnalyticBound:
    """OK/OPEN verdict for the doubled Grassmann graph on (t,t+1)-subspaces of
    a (2t+1)-space over GF(q)."""
    from .algebra import gb
    if q < 2 or t < 1:
        raise ParamDomain("need prime power q >= 2, t >= 1")
    k = (q ** (t + 1) - 1) // (q - 1)
    theta1 = SqrtVal(0, (q ** t - 1) // (q - 1), q)
    lam1 = (SqrtVal(k) - theta1) / k
    r = gb(2 * t + 1, t, q)        # side size of the bipartition
    bound = bipartite_half_guarantee(r)
    trace = [f"k={k} theta1={theta1} r={r}"]
    if q >= 5:
        trace.append("q >= 5: lambda1 >= 1 - 1/sqrt(q) >= .55 vs half-cut bound <= .52")
    elif q == 4:
        if r % 2 == 0:
            raise DrgcError("side size must be odd for q = 4")
        trace.append("q = 4: r odd, lambda1 >= 1/2 + 4^-(t+1) > 1/2 + 1/(2r^2)")
        if not Fraction(1, 2 * r * r) < Fraction(1, 4 ** (t + 1)):
            raise SelfCheckFailed(f"1/(2r^2) >= 4^-(t+1) for r={r}, t={t}")
    elif t == 1:
        trace.append("t = 1: incidence graph of a projective plane; half cut decides")
    else:
        trace.append(f"q = {q} <= 3 and t > 1: lambda1 < 1/2, no half-cut verdict")
        return AnalyticBound(bound, "doubled-grassmann", "open", lam1, tuple(trace))
    if not bound <= lam1:
        raise DrgcError(f"half-cut bound unexpectedly fails for q={q}, t={t}")
    return AnalyticBound(bound, "doubled-grassmann", "ok", lam1, tuple(trace))


def gq_gh_incidence_verdict(kind: str, q: int) -> AnalyticBound:
    """Verdict for incidence graphs of generalized quadrangles/hexagons of
    order (q,q), following the parity of the side size."""
    if kind not in ("GQ", "GH"):
        raise ParamDomain("kind must be GQ or GH")
    if q < 2:
        raise ParamDomain("need q >= 2")
    k = q + 1
    if kind == "GQ":
        r = (q * q + 1) * (q + 1)
        theta1 = SqrtVal.sqrt(2 * q)
        open_q = {4, 5}
        catalog_q = {2, 3}
        min_ok = 7
    else:
        r = (q ** 4 + q * q + 1) * (q + 1)
        theta1 = SqrtVal.sqrt(3 * q)
        open_q = {3, 4, 5, 7, 8, 9}
        catalog_q = {2}
        min_ok = 11
    lam1 = (SqrtVal(k) - theta1) / k
    v = 2 * r
    trace = [f"v={v} k={k} theta1=sqrt({kind=='GQ' and 2*q or 3*q})"]
    if q in catalog_q:
        trace.append("settled by the explicit small-valency witness")
        return AnalyticBound(Fraction(1, 1), f"{kind.lower()}-incidence",
                             "deferred-to-catalog", lam1, tuple(trace))
    if q in open_q:
        trace.append(f"q = {q}: half-cut bound exceeds lambda1; no verdict")
        return AnalyticBound(bipartite_half_guarantee(r),
                             f"{kind.lower()}-incidence", "open", lam1, tuple(trace))
    if q < min_ok:  # pragma: no cover
        raise ParamDomain(f"unhandled q = {q}")
    bound = bipartite_half_guarantee(r)
    if q % 2 == 1:
        trace.append(f"odd q >= {min_ok}: v divisible by 4, half cut gives 1/2 < lambda1")
    else:
        trace.append(f"even q >= {min_ok}: r odd, bound 1/2 + 1/(2r^2) < lambda1")
    if not bound <= lam1:
        raise DrgcError(f"{kind}({q}): expected OK but bound {bound} vs {float(lam1)}")
    return AnalyticBound(bound, f"{kind.lower()}-incidence", "ok", lam1, tuple(trace))


def bipartite_diameter3_verdict(ia: IntersectionArray) -> AnalyticBound:
    """Bipartite diameter-3 graphs with k >= 4: theta1 = sqrt(k - c2), and the
    half cut beats lambda1 >= (k - sqrt(k-1))/k >= 28/50."""
    if ia.D != 3 or not ia.is_bipartite():
        raise ParamDomain("needs a bipartite diameter-3 array")
    k, c2 = ia.k, ia.c[1]
    if k < 4:
        raise ParamDomain("k = 3 handled by the small-valency catalog")
    theta1 = SqrtVal.sqrt(k - c2)
    lam1 = (SqrtVal(k) - theta1) / k
    r = ia.v // 2
    bound = bipartite_half_guarantee(r)
    trace = (f"theta1 = sqrt(k-c2) = sqrt({k - c2})",
             f"v = {ia.v}, half-cut bound = {bound}",
             "lambda1 >= (k - sqrt(k-1))/k >= 28/50 for k >= 4")
    if not bound <= lam1:
        raise DrgcError(f"bip3 bound {bound} vs lambda1 {float(lam1)} failed")
    return AnalyticBound(bound, "bipartite-diam3", "ok", lam1, tuple(trace))


# -- antipodal diameter 3 ----------------------------------------------------------

def antipodal_fibre_cut(g: Graph, ia: IntersectionArray, theta1) -> CutCertificate:
    """Certificate for antipodal diameter-3 graphs.

    Either grows t-subsets of the neighborhoods across a whole antipodal fibre
    (average valency >= (t/k) b1 >= theta_1), or falls back to the closed ball
    of radius 1 when theta_1 <= a_1 + 1."""
    if ia.D != 3:
        raise ParamDomain("needs diameter 3")
    k, b1, c2 = ia.k, ia.b[1], ia.c[1]
    a1 = ia.a(1)
    t = (k + 1) // 2
    theta1 = SqrtVal.of(theta1)

    if theta1 <= Fraction(t * b1, k):
        x0 = 0
        dist = bfs_distances(g, x0)
        fibre = [x0] + [v for v in range(g.n) if dist[v] == 3]
        r = len(fibre) - 1
        if r != b1 // c2:
            raise SelfCheckFailed(f"array {ia} does not describe an antipodal fibre")
        B = frozenset(sorted(g.adj[x0])[:t])
        invariant = Fraction(0)
        for j, xj in enumerate(fibre[1:], start=1):
            Xj = frozenset(g.adj[xj])
            Aj = greedy_dense_subset(g, B, Xj, t)
            B = B | Aj
            inside = cut_stats(g, B).inside     # twice the edges inside B
            invariant = Fraction(j * t * c2, k)
            if Fraction(inside, len(B)) < invariant:
                raise SelfCheckFailed(f"fibre loop invariant failed at step {j}")
        notes = (f"fibre branch: |S|=(r+1)t={(r + 1) * t}, "
                 f"avg valency >= (t/k) b1 = {Fraction(t * b1, k)}",)
        return make_certificate(g, B, "antipodal-fibre", notes)

    if theta1 <= a1 + 1:
        notes = (f"ball branch: theta1 <= a1+1 = {a1 + 1}; "
                 f"avg valency k(a1+2)/(k+1) = {Fraction(k * (a1 + 2), k + 1)}",)
    elif k <= 6:
        # theta_1 > max((t/k) b1, a1+1) forces theta_1 = sqrt(k), k <= 6 (else
        # contradictory); the closed ball still has average valency 3k/(k+1) > sqrt(k).
        notes = ("small-valency branch: avg valency 3k/(k+1) > sqrt(k) = theta1",)
    else:  # pragma: no cover
        raise DrgcError(f"antipodal branches exhausted for {ia}")
    return replace(ball_cut(g, 1, "ball"), method="antipodal-ball", notes=notes)


# -- girth cycle cut ----------------------------------------------------------------

def girth_cycle_cut(g: Graph, ia: IntersectionArray) -> CutCertificate:
    """A shortest cycle as the cut set: for k >= 3 and D >= 3 the cycle has at
    most n/2 vertices and ratio exactly (k-2)/k.  The girth is read from the
    array, so the scan stops at vertex 0's shortest cycle."""
    k = g.regular_degree()
    if k is None or k < 3:
        raise ParamDomain("needs a regular graph with k >= 3")
    glen, cyc = girth(g, ia.girth())
    if 2 * glen > g.n:
        raise ParamDomain(f"girth {glen} exceeds n/2 = {g.n / 2}")
    cert = make_certificate(g, cyc, "girth-cycle",
                            notes=(f"girth {glen}; ratio (k-2)/k = {Fraction(k - 2, k)}",))
    if cert.ratio != Fraction(k - 2, k):
        raise DrgcError(f"cycle cut ratio {cert.ratio} != (k-2)/k")
    return cert


# -- triangle-based witnesses for the two flag graphs --------------------------------

def _triangle_of_edge(g: Graph, u: int, v: int) -> int:
    """The unique common neighbor of an edge in a graph with a_1 = 1."""
    common = [w for w in g.adj[u] if w in set(g.adj[v])]
    if len(common) != 1:
        raise WrongGraph(f"edge ({u},{v}) lies in {len(common)} triangles")
    return common[0]


def triangle_chain_cut(g: Graph) -> CutCertificate:
    """Three edge-disjoint triangles chained at single vertices; on the flag
    graph of a projective plane of order 2 this is the 7-vertex, boundary-10 set."""
    k = g.regular_degree()
    if k != 4:
        raise WrongGraph("triangle chain cut expects valency 4")
    S = set()
    x = 0
    for _ in range(3):
        nbrs = [w for w in g.adj[x] if w not in S]
        if len(nbrs) < 2:
            raise SearchFailed("triangle chain ran out of fresh neighbors")
        u = nbrs[0]
        w = _triangle_of_edge(g, x, u)
        S.update((x, u, w))
        x = min(v for v in (u, w))
    return make_certificate(g, S, "triangle-chain")


def triangle_octagon_cut(g: Graph) -> CutCertificate:
    """Two internally disjoint 4-paths between vertices at distance 4, plus the
    triangle apex of every path edge: an octagon of triangles with |S| = 16 and
    boundary 16 on the flag graph of the generalized quadrangle of order 2."""
    if g.regular_degree() != 4:
        raise WrongGraph("triangle octagon cut expects valency 4")
    x = 0
    dist = bfs_distances(g, x)
    targets = [v for v in range(g.n) if dist[v] == 4]
    if not targets:
        raise WrongGraph("no vertex at distance 4")
    for z in sorted(targets):
        paths = [p for p in _simple_paths(g.adj, [x], 5) if p[-1] == z]
        for i, p1 in enumerate(paths):
            for p2 in paths[i + 1:]:
                if set(p1[1:-1]) & set(p2[1:-1]):
                    continue
                cycle = p1 + p2[-2:0:-1]
                S = set(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    S.add(_triangle_of_edge(g, a, b))
                cert = make_certificate(g, S, "triangle-octagon")
                if len(cert.S) == 16 and cert.stats.boundary == 16:
                    return cert
    raise SearchFailed("no disjoint 4-path pair produced an octagon of triangles")


def _simple_paths(adj, path: list, nverts: int):
    """The simple paths of nverts vertices that extend path, in depth-first
    order, taking each vertex's neighbours in the order adj[v] lists them."""
    if len(path) == nverts:
        yield tuple(path)
        return
    for w in adj[path[-1]]:
        if w not in path:
            path.append(w)
            yield from _simple_paths(adj, path, nverts)
            path.pop()


# -- the two explicit small-valency witnesses -----------------------------------------

TWELVE_CAGE_ARRAY = IntersectionArray((3, 2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 3))
GQ33_ARRAY = IntersectionArray((4, 3, 3, 3), (1, 1, 1, 4))


def twelve_cage_witness(g: Graph, ia: IntersectionArray) -> CutCertificate:
    """The incidence-graph witness for the girth-12 cage: a tree of 8 vertices
    in the distance-2 graph on Gamma_6(x), pulled back through Gamma_5, Gamma_4,
    and glued to the radius-3 ball.  ia is g's intersection array."""
    if ia != TWELVE_CAGE_ARRAY:
        raise WrongGraph(f"array {ia} is not the 12-cage's")
    x = 0
    dist = bfs_distances(g, x)
    g6 = [v for v in range(g.n) if dist[v] == 6]
    adj6 = {v: set() for v in g6}
    g6set = set(g6)
    for v in g6:
        for w in g.adj[v]:
            adj6_targets = [z for z in g.adj[w] if z != v and z in g6set]
            adj6[v].update(adj6_targets)
    # 5-vertex path in the distance-2 graph (girth >= 6 there, so greedy works)
    nbrs6 = {v: sorted(adj6[v]) for v in g6}
    path = next((p for v in g6 for p in _simple_paths(nbrs6, [v], 5)), None)
    if path is None:
        raise SearchFailed("no 5-vertex path in the distance-2 graph")
    S6 = set(path)
    for interior in path[1:-1]:
        leaf = min(adj6[interior] - S6)
        S6.add(leaf)
    if len(S6) != 8:
        raise SelfCheckFailed(f"the tree in Gamma_6 has {len(S6)} vertices, not 8")
    S5 = {w for v in S6 for w in g.adj[v] if dist[w] == 5}
    S4 = {w for v in S5 for w in g.adj[v] if dist[w] == 4}
    a = len(S4)
    S = {v for v in range(g.n) if dist[v] <= 3} | S4 | S5 | S6
    notes = (f"|S5| = {len(S5)}, measured a = |S4| = {a}",
             f"|S| = 47 + a = {len(S)}, boundary a + 17 = {a + 17}")
    cert = make_certificate(g, S, "twelve-cage", notes)
    if len(S5) != 17 or len(S) != 47 + a or cert.stats.boundary != a + 17:
        raise DrgcError(f"witness counts off: {notes}")
    return cert


def gq33_incidence_witness(g: Graph, ia: IntersectionArray) -> CutCertificate:
    """Witness for the incidence graph of the generalized quadrangle of order 3:
    the radius-2 ball around x plus three mutually distant closed neighborhoods
    in Gamma_4(x); |S| = 32, boundary 48.  ia is g's intersection array."""
    if ia != GQ33_ARRAY:
        raise WrongGraph(f"array {ia} is not the GQ(3,3) incidence array")
    x = 0
    dist = bfs_distances(g, x)
    gamma4 = [v for v in range(g.n) if dist[v] == 4]
    ys = _distance4_triple(g, gamma4)
    if ys is None:
        raise SearchFailed("no mutually distance-4 triple found in Gamma_4(x)")
    S = {v for v in range(g.n) if dist[v] <= 2}
    for y in ys:
        S.add(y)
        S.update(g.adj[y])
    cert = make_certificate(g, S, "gq33-incidence",
                            notes=(f"y = {ys}", "|S| = 32, boundary = 48"))
    if len(cert.S) != 32 or cert.stats.boundary != 48:
        raise DrgcError(f"witness counts off: |S|={len(cert.S)}, b={cert.stats.boundary}")
    return cert


def _distance4_triple(g: Graph, candidates):
    dcache = {}

    def dist_from(y):
        if y not in dcache:
            dcache[y] = bfs_distances(g, y)
        return dcache[y]

    for i, y1 in enumerate(candidates):
        d1 = dist_from(y1)
        for j in range(i + 1, len(candidates)):
            y2 = candidates[j]
            if d1[y2] != 4:
                continue
            d2 = dist_from(y2)
            for y3 in candidates[j + 1:]:
                if d1[y3] == 4 and d2[y3] == 4:
                    return (y1, y2, y3)
    return None
