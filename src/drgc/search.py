"""Independent Cheeger oracles: exact subset enumeration for small graphs,
spectral sweep plus local refinement for larger ones.  Search results are
deterministic under fixed seeds.

The exact enumerator is a meet-in-the-middle split (Horowitz and Sahni,
1974).  L is the vertices 0..n//2 - 1 and H the rest, so a set S is the
bitmask lo | hi << |L|.  Each half lists its subsets in reflected Gray-code
order as the rows of a 0/1 bit matrix, which gives each subset's size,
volume and boundary (volume minus twice the edges inside).  For S = lo + hi,
boundary(S) = bnd(lo) + bnd(hi) - 2 cross(lo, hi), and the cross-edge counts
of a block of hi rows against every lo are one float32 matrix product.  Two
more terms of that product add a penalty of 2m + 2 to every set that may not
be chosen: |S| outside 1..n/2, the side without vertex 0 at |S| = n/2, and
volume 0 (whose denominator is then taken as 1).  Blocks hold at most
EXACT_BLOCK (lo, hi) pairs: for n <= 24 OpenBLAS runs such a product on one
thread, as a split one ran no faster and stalled whenever a core was busy.

The least float32 ratio of a block is exact.  Every entry is an integer
below 2**24, so the products are exact.  A chosen set has ratio at most 1
and a penalised one more than 1 + 1/(2m).  Two distinct ratios
boundary/vol differ by at least 1/(2m)**2, which is 1/870**2 > 2**-20 for
n <= 30 (and more than 2**-22 while n <= 45), far above the float32 rounding
of a value in [0, 1]; equal ratios round to the same float32.  The Fraction
is then built from the integer entries.

Ties go to the set that comes first in the reflected Gray code of all n
bits, which lists hi in Gray order and, for each hi, every lo in Gray order,
backwards when hi is at an odd position.  The rows of a block are
consecutive hi and its columns lo in Gray order; reversing the odd rows puts
the block in that order, so its first least entry, kept only when it beats
the earlier blocks strictly, is the first least set of the whole code.

Local refinement runs on k-regular graphs, where vol(S) = k|S|, and scores
every candidate move from din, the count of each vertex's neighbours in S,
in exact integer arithmetic.  It keeps din as Python ints and every vertex
in a bucket by side and din: U[d] holds the members of S with din d and W[d]
the others.  A single move leaves one of two volumes, k(|S| - 1) or
k(|S| + 1), so on each side the best move is the first vertex of the
least-din bucket U[a] (leaving S) or of the greatest-din bucket W[b]
(joining S), and whether a move beats or equals the current ratio is one
integer comparison with a threshold.  A swap (u out, w in) keeps vol(S) and
changes the boundary by twice its key din[u] - din[w] + A(u, w); below 0 is
strictly better and 0 is equal, and since every swap keeps the current
denominator, the first pair of least key in row-major order over (sorted S,
sorted S^c) is the first least ratio.  Every key is at least L = a - b, and
the least key is L or L + 1: a pair of U[a] x W[b] has key L when its ends
are not adjacent and L + 1 when they are, and every other pair has
din[u] > a or din[w] < b and so a key of at least L + 1.  So the least key
is L exactly when some pair of U[a] x W[b] is not adjacent.  A key t <= L + 1
needs din[u] <= a + 1, so only the rows of U[a] and U[a + 1] can hold a
strict or an equal swap, and the w of key t in row u are the non-neighbours
of u in W[din[u] - t] and its neighbours in W[din[u] - t + 1].  Each row's
count of key-0 swaps is thus an O(k) scan of its neighbours, only the pair
that the seeded plateau pick lands on is listed, and nothing |S| x |S^c| is
built.

The prefix sweep orders the vertices by decreasing score (a stable argsort,
so ties go by vertex) and scores every prefix at once.  Adding v to a
prefix cuts its edges to the later(v) neighbours that come after it and
joins its deg(v) - later(v) edges to earlier ones, so the boundary changes
by 2 later(v) - deg(v).  later is one boolean pass over the CSR arcs (head
after tail) and a cumulative sum of it read at each vertex's first arc, so
one more cumulative sum gives the boundary of each prefix and another its
volume.  The first least float64 ratio boundary / min(vol, total - vol)
is exact: every ratio lies in [0, 1] with 0 < denominator <= total, so two
distinct ratios differ by at least 1/total**2, which is 2**-52 or more when
total <= 2**26 and so more than the rounding error of either; equal ratios
round to the same double.  The sweep refuses graphs with
total > REFINE_TOTAL_CAP, and so does refinement, which refines the sweep's
cuts; its own counts are Python ints and exact at any size.

The sweeps follow theta_1-eigenvectors, from one of two sources split at
EIGENVECTOR_CAP vertices, the bound that also starts the search's cheapest
effort tier; _theta1_columns alone makes that choice, once per searched
target.  Up to the cap one dense eigh (graph.eigensystem, which caches
nothing) gives the second eigenvector and, per seed, a Gaussian
combination of the eigenbasis of theta_1.  Above it no
eigenvector is computed.  For theta_1's standard sequence u (u_0 = 1,
u_1 = theta_1/k, c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta_1 u_i) the
matrix E = sum_i u_i A_i, A_i the distance-i adjacency matrix, is a multiple
of the projection onto the theta_1-eigenspace (Brouwer, Cohen and Neumaier,
Distance-Regular Graphs, 4.1).  Its column 0, y -> u_{d(0, y)}, is the
sweep's vector, and E r for a Gaussian r per seed has the distribution of
the dense path's combination; one product E [e_0 | R] gives them all.
The products A_i R come from
A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}: D sums over the
neighbour slots, with no n x n array and no LAPACK call.

Seed s's Gaussians are the first ones of np.random.RandomState(s)'s legacy
stream, which NumPy keeps frozen (NEP 19), drawn without numpy.random: a
Mersenne Twister seeded by init_genrand, uniforms ((a >> 5) 2**26 + (b >> 6))
/ 2**53 from two 32-bit words (random.Random.random computes NumPy's
legacy_double), and normals by the polar method, f x2 then f x1 for each
accepted pair 0 < r2 < 1, with f = sqrt(-2 log(r2) / r2) and the log from
libm (math.log, as in NumPy's C code).  RandomState(s).randn(m) is the first
m normals of that stream, so the stream and the normals drawn so far are
kept per seed (for the last 128 seeds), and each target slices a prefix.

best_upper_bound returns the first certificate under cert_key (ratio, then
method, then sorted vertex tuple).  The report shares that order: above
exact_cap it skips the search when the least witness has ratio lambda_1/2,
the Cheeger floor no cut goes below, and a method that sorts before
"refine" and "sweep", because the search would return that witness.
"""

from __future__ import annotations

import math
import operator
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import spectral
from .errors import EmptySet, FullSet, NotRegular, SelfCheckFailed, TooLarge
from .graph import (Graph, adjacency_matrix, edge_arrays, eigensystem,
                    intersection_array)
# re-exported: SearchConfig and the limits it checks are defined in params
from .params import EXACT_CAP_HARD, SEED_MAX, SearchConfig  # noqa: F401
from .witness import CutCertificate, make_certificate

EXACT_BLOCK = 2 ** 14      # (lo, hi) pairs scored at once by exact_cheeger
REFINE_TOTAL_CAP = 2 ** 26
SWAP_CAP = 40_000          # most |S| |S^c| at which refinement tries swaps
REFINE_BUDGET = 100_000    # most moves of one refinement walk
# the largest n whose dense eigenvectors the search computes (_theta1_columns)
EIGENVECTOR_CAP = 256


def _gray_tables(A, idx):
    """The subsets of the vertices ``idx`` in reflected Gray-code order: their
    bitmasks, 0/1 bit matrix (one row per subset), sizes, and float32
    volumes and boundaries in the whole graph."""
    w = len(idx)
    masks = np.arange(1 << w)
    masks ^= masks >> 1
    bits = (masks[:, None] >> np.arange(w) & 1).astype(np.float32)
    vol = bits @ A[idx].sum(1)
    inside = ((bits @ A[np.ix_(idx, idx)]) * bits).sum(1)   # twice the edges
    return masks, bits, bits.sum(1, dtype=np.intp), vol, vol - inside


def exact_cheeger(g: Graph, exact_cap: int = 24):
    """Global minimum of boundary/vol(S) over all S with 1 <= |S| <= n/2,
    by a meet-in-the-middle split of V scored in float32 blocks (module
    docstring).

    Returns (h, S) with h an exact Fraction.  At |S| = n/2 each
    complementary pair is counted once (the side that holds vertex 0), sets
    of volume 0 are never chosen, and among sets of equal ratio S is the one
    that comes first in the reflected Gray code of its bitmask.
    """
    n = g.n
    if n > exact_cap:
        raise TooLarge(f"n = {n} exceeds exact cap {exact_cap}")
    A = adjacency_matrix(g, np.float32)
    nl, nh = n // 2, n - n // 2
    low, high = np.arange(nl), np.arange(nl, n)
    mask_l, bits_l, size_l, vol_l, bnd_l = _gray_tables(A, low)
    mask_h, bits_h, size_h, vol_h, bnd_h = _gray_tables(A, high)
    pen = A.sum() + 2               # 2m + 2: a ratio that carries it exceeds 1
    # size_pen[|S|, holds vertex 0]: pen on sizes outside 1..n/2, and at
    # |S| = n/2 on the side without vertex 0
    s = np.arange(n + 1)[:, None]
    size_pen = pen * ((s < 1) | (2 * s > n) | (2 * s == n) & (np.arange(2) == 0))
    # numerator[hi, lo] = left[hi] @ right[:, lo] = bnd(hi) + bnd(lo)
    # - 2 cross(lo, hi), plus pen when vol(S) = 0, plus size_pen
    left = np.hstack([bits_h, bnd_h[:, None], np.ones((1 << nh, 1)),
                      (vol_h == 0)[:, None], size_h[:, None] == np.arange(nh + 1)])
    right = np.vstack([-2 * (bits_l @ A[np.ix_(low, high)]).T, np.ones(1 << nl),
                       bnd_l, pen * (vol_l == 0),
                       size_pen[np.arange(nh + 1)[:, None] + size_l, mask_l & 1]])
    left, right = left.astype(np.float32), right.astype(np.float32)
    cols = 1 << nl
    rows = max(2, EXACT_BLOCK >> nl)    # even, so block rows keep hi's parity
    best, best_at = np.inf, None
    for start in range(0, 1 << nh, rows):
        num = left[start:start + rows] @ right
        vol = np.maximum(vol_h[start:start + rows, None] + vol_l, 1)
        ratio = num / vol
        ratio[1::2] = ratio[1::2, ::-1]    # the walk runs odd rows backwards
        row, col = divmod(int(np.argmin(ratio)), cols)
        if ratio[row, col] < best:
            best = ratio[row, col]
            if row % 2:
                col = cols - 1 - col
            best_at = start + row, col, int(num[row, col]), int(vol[row, col])
    if not best <= 1:
        raise EmptySet(f"no set with 1 <= |S| <= n/2 has positive volume (n = {n})")
    hi, lo, boundary, vol = best_at
    mask = int(mask_h[hi]) << nl | int(mask_l[lo])
    return Fraction(boundary, vol), frozenset(v for v in range(n) if mask >> v & 1)


def sweep_cut(g: Graph) -> CutCertificate:
    """Best prefix cut in the ordering of a theta_1-eigenvector: column 0 of
    _theta1_columns, the second adjacency eigenvector up to EIGENVECTOR_CAP
    vertices and above it vertex 0's spherical vector y -> u_{d(0, y)}."""
    return make_certificate(g, _sweep_order(g, _theta1_columns(g, ())[:, 0]), "sweep")


def _theta1_vectors(g: Graph, R: np.ndarray) -> np.ndarray:
    """E R for a distance-regular g, where E = sum_i u_i A_i, u is theta_1's
    standard sequence and A_i the distance-i matrix, so every column of E R
    is a theta_1-eigenvector (module docstring)."""
    ia = intersection_array(g)
    u = spectral.standard_sequence(ia, spectral.drg_spectrum(ia).theta1)
    nbrs = edge_arrays(g).dst.reshape(g.n, ia.k)   # v's neighbours are row v
    prev, cur = np.zeros_like(R), R
    out = u[0] * R
    for i in range(ia.D):
        # A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}, A_{-1} = 0
        nxt = -ia.a(i) * cur - (ia.b[i - 1] * prev if i else 0)
        for col in nbrs.T:
            nxt += cur[col]
        prev, cur = cur, nxt / ia.c[i]
        out += u[i + 1] * cur
    return out


def _exact_total(g: Graph, stage: str) -> int:
    """The total degree 2m, after refusing a graph too large for the exact
    cut scoring of the sweep and of refinement (module docstring)."""
    total = 2 * g.num_edges
    if total > REFINE_TOTAL_CAP:
        raise TooLarge(f"{stage}: total degree {total} exceeds "
                       f"{REFINE_TOTAL_CAP}, the limit of exact cut scoring")
    return total


def local_refine(g: Graph, S, seed: int = 0,
                 plateau_patience: int = 200) -> CutCertificate:
    """Kernighan-Lin style descent on a regular graph: single-vertex moves and
    (u out, w in) swaps, ratio monotonically non-increasing.  Equal-ratio
    moves pass through a tabu list of the last 50 moved vertices to cross
    plateaus; at most REFINE_BUDGET moves, deterministic for a fixed seed.
    Raises NotRegular on an irregular or edgeless graph, and EmptySet or
    FullSet when S is empty or all of V.

    Every step tries the single moves, and when none improves and
    |S| |S^c| <= SWAP_CAP, the swaps, with exact integer comparisons of din
    (the neighbours in S) against the current key (boundary,
    min(vol, total - vol)).  The vertices sit in buckets by side and din, so
    each move is read from the extreme buckets alone (module docstring).
    The chosen strict move is the first one of least ratio.  Plateau moves
    are listed in the order singles by vertex, then swaps row-major over
    (sorted S, sorted S^c), so the seeded pick is reproducible."""
    n = g.n
    total = _exact_total(g, "local_refine")
    k = g.regular_degree()
    if not k:
        raise NotRegular("local_refine: graph is not regular" if k is None
                         else "local_refine: graph has no edges")
    half = n // 2
    src, dst, _ = edge_arrays(g)
    inS = np.zeros(n, dtype=bool)
    inS[list(S)] = True
    # v sits in bucket slot[v]: din[v] (its neighbours in S) outside S and
    # top + din[v] inside it, so the module docstring's W[d] and U[d] are
    # outside(d) and inside(d); only the slots in use get a bucket up front
    top = k + 1
    slot = np.bincount(dst[inS[src]], minlength=n)
    slot[inS] += top
    used = [(s, c) for s, c in enumerate(np.bincount(slot).tolist()) if c]
    size = sum(c for s, c in used if s > k)
    if not 0 < size < n:
        raise (FullSet if size else EmptySet)(f"local_refine: |S| = {size}, n = {n}")
    boundary = sum((top + k - s) * c for s, c in used if s > k)
    ends = list(accumulate(c for _, c in used))
    order = np.argsort(slot).tolist()
    buckets = defaultdict(set, ((s, set(order[j - c:j]))
                                for (s, c), j in zip(used, ends)))
    slot, adj = slot.tolist(), g.adj
    members = set(order[n - size:])       # S, whose slots sort last
    none = frozenset()

    def inside(d):
        return buckets[top + d] if 0 <= d <= k else none

    def outside(d):
        return buckets[d] if 0 <= d <= k else none

    def swaps(u, t, skip=none):
        """The w outside S and skip that make (u, w) a swap of key t: the
        non-neighbours of u at din d = din[u] - t and its neighbours at d + 1."""
        d, nb = slot[u] - top - t, adj[u]
        return (outside(d).difference(nb) | outside(d + 1).intersection(nb)) - skip

    def side(vol):
        return min(vol, total - vol)

    best, best_S = (boundary, side(k * size)), frozenset(S)
    rng = None                  # made on the first plateau step
    a, b = 0, k                 # bounds on the least din in S, greatest outside
    tabu: list[int] = []
    stale = 0
    moves = 0
    while moves < REFINE_BUDGET and stale <= plateau_patience:
        cd, dm, dp = side(k * size), side(k * (size - 1)), side(k * (size + 1))
        # v leaving S gives (boundary + 2 din[v] - k, dm), better than the
        # current key iff 2 cd din[v] < rm; v joining gives
        # (boundary + k - 2 din[v], dp), better iff 2 cd din[v] > rp
        rm = boundary * dm - (boundary - k) * cd
        rp = (boundary + k) * cd - boundary * dp
        while not buckets[top + a]:
            a += 1
        while not buckets[b]:
            b -= 1
        moved = None
        if size > 1 and 2 * cd * a < rm:
            v = min(buckets[top + a])
            moved, bv, dv = (v,), boundary + 2 * a - k, dm
        if size < half and 2 * cd * b > rp:
            w = min(buckets[b])
            bw = boundary + k - 2 * b
            # the least ratio wins, and the lower vertex on a tie
            if moved is None or bw * dv < bv * dp or bw * dv == bv * dp and w < v:
                moved = (w,)
        least = None
        # swaps only when single moves stall and |S| |S^c| is within the cap;
        # a least key above 0 can neither improve nor tie
        if moved is None and size * (n - size) <= SWAP_CAP and a <= b:
            # the least key is a - b unless every u in U[a] is adjacent to
            # every w in W[b], and only rows with din[u] <= a + 1 reach it
            Ua, Wb = buckets[top + a], buckets[b]
            least = a - b + (len(Wb) <= k and
                             all(not Wb.difference(adj[u]) for u in Ua))
            if least < 0:
                for u in sorted(Ua | inside(a + 1)):
                    ws = swaps(u, least)
                    if ws:
                        moved = (u, min(ws))
                        break
        if moved is not None:
            stale = 0
        else:
            # plateau moves in scan order, without tabu vertices
            skip = set(tabu)
            eqm = rm // (2 * cd) if size > 1 and rm % (2 * cd) == 0 else -1
            eqp = rp // (2 * cd) if size < half and rp % (2 * cd) == 0 else -1
            singles = (inside(eqm) | outside(eqp)) - skip
            rows = []               # (u, its count of free zero-key swaps)
            if least == 0:
                # the counts of swaps(u, 0, skip), one O(k) scan per row
                for d in (a, a + 1):
                    near, far = outside(d) - skip, outside(d + 1) - skip
                    if near or far:
                        rows += [(u, len(near) - len(near.intersection(adj[u]))
                                  + len(far.intersection(adj[u])))
                                 for u in inside(d) - skip]
                rows.sort()
            count = len(singles) + sum(c for _, c in rows)
            if not count:
                break
            if rng is None:
                rng = random.Random(seed)
            pick = rng.randrange(count)
            if pick < len(singles):
                moved = (sorted(singles)[pick],)
            else:
                pick -= len(singles)
                for u, c in rows:
                    if pick < c:
                        moved = (u, sorted(swaps(u, 0, skip))[pick])
                        break
                    pick -= c
            stale += 1
        for m in moved:
            s = slot[m]
            # a leaving vertex lowers din in S by at most 1 and lands at din
            # to outside S; a joining one raises din outside S by at most 1
            if s > k:
                to = s - top
                boundary += 2 * to - k
                size -= 1
                step = -1
                members.remove(m)
                a, b = max(a - 1, 0), max(b, to)
            else:
                to = s + top
                boundary += k - 2 * s
                size += 1
                step = 1
                members.add(m)
                a, b = min(a, s), min(b + 1, k)
            buckets[s].remove(m)
            buckets[to].add(m)
            slot[m] = to
            for x in adj[m]:
                s = slot[x]
                buckets[s].remove(x)
                buckets[s + step].add(x)
                slot[x] = s + step
        tabu.extend(moved)
        del tabu[:-50]
        moves += 1
        cur = (boundary, side(k * size))
        if cur[0] * best[1] < best[0] * cur[1]:
            best, best_S = cur, frozenset(members)
    return make_certificate(g, best_S, "refine")


def _sweep_order(g: Graph, x) -> frozenset:
    """Best prefix cut for an arbitrary vertex scoring vector: the first
    prefix of least ratio in the order of decreasing x, ties by vertex, with
    every prefix scored at once (module docstring)."""
    total = _exact_total(g, "sweep")
    _, dst, first = edge_arrays(g)
    order = np.argsort(-np.asarray(x), kind="stable")
    # int32 holds a position (below n) and an arc count (at most total <=
    # REFINE_TOTAL_CAP)
    pos = np.empty(g.n, dtype=np.int32)
    pos[order] = np.arange(g.n)
    degs = np.diff(first)
    # later[v]: v's neighbours after v in the order, from a running count of
    # the arcs whose head comes after their tail, read at the CSR row starts
    arcs = np.zeros(dst.size + 1, dtype=np.int32)
    np.cumsum(pos[dst] > np.repeat(pos, degs), out=arcs[1:])
    later = np.diff(arcs[first])
    boundary = np.cumsum((2 * later - degs)[order])[:-1]
    vol = np.cumsum(degs[order])[:-1]
    best = np.argmin(boundary / np.minimum(vol, total - vol))
    return frozenset(order[:best + 1].tolist())


class _NormalStream:
    """The normals of RandomState(seed)'s legacy stream drawn so far, and a
    Mersenne Twister in the state that draws the next ones (module
    docstring).  RandomState seeds by init_genrand; random.Random.seed would
    use init_by_array, another state."""

    def __init__(self, seed: int):
        mt = [operator.index(seed)]     # a NumPy integer would wrap
        for i in range(1, 624):
            mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
        self.rng = random.Random()
        self.rng.setstate((3, (*mt, 624), None))
        self.drawn = np.empty(0)

    def first(self, m: int) -> np.ndarray:
        """np.random.RandomState(seed).randn(m), bit for bit, drawing only
        the normals that the stream lacks."""
        uniform, log, sqrt = self.rng.random, math.log, math.sqrt
        new = []
        while self.drawn.size + len(new) < m:
            x1 = 2.0 * uniform() - 1.0
            x2 = 2.0 * uniform() - 1.0
            r2 = x1 * x1 + x2 * x2
            if 0.0 < r2 < 1.0:
                f = sqrt(-2.0 * log(r2) / r2)
                new += (f * x2, f * x1)
        if new:
            self.drawn = np.concatenate((self.drawn, new))
        return self.drawn[:m].copy()


_normal_stream = lru_cache(maxsize=128)(_NormalStream)


def _theta1_columns(g: Graph, seeds) -> np.ndarray:
    """n x (1 + len(seeds)) theta_1-vectors: column 0 is the sweep's and
    column 1 + j the start of seeds[j], a Gaussian projected onto the
    theta_1-eigenspace (high multiplicity in distance-regular graphs).  Up
    to EIGENVECTOR_CAP vertices they come from one dense eigh (the second
    eigenvector, then combinations of the eigenbasis of theta_1), above it
    from one product E [e_0 | R] (module docstring).  Seed s's Gaussians
    are the first ones of RandomState(s)'s legacy stream, which
    _normal_stream keeps per seed."""
    if g.n <= EIGENVECTOR_CAP:
        vals, vecs = eigensystem(g)
        basis = vecs[:, np.abs(vals - vals[-2]) < 1e-8]
        return np.column_stack([vecs[:, -2]] + [
            basis @ _normal_stream(seed).first(basis.shape[1]) for seed in seeds])
    R = np.eye(g.n, 1 + len(seeds))
    for j, seed in enumerate(seeds, 1):
        R[:, j] = _normal_stream(seed).first(g.n)
    return _theta1_vectors(g, R)


def _iterated_refine(g: Graph, start, seed: int, rounds: int,
                     patience: int) -> CutCertificate:
    """Iterated local search: monotone descent, then a seeded perturbation of
    the best set by four random swaps, repeated; stops after two stale rounds."""
    rng = random.Random(seed ^ 0x9E3779B9)
    best = None
    stale = 0
    S = start
    for _ in range(rounds):
        cert = local_refine(g, S, seed, plateau_patience=patience)
        if best is None or cert.ratio < best.ratio:
            best = cert
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
        members = best.S            # sorted
        base = set(members)
        others = [v for v in range(g.n) if v not in base]
        for _ in range(4):
            u = members[rng.randrange(len(members))]
            w = others[rng.randrange(len(others))]
            if u in base and w not in base:
                base.discard(u)
                base.add(w)
        S = frozenset(base)
    return best


def cert_key(c: CutCertificate):
    """The order in which the search picks its best certificate: least ratio,
    then method name, then the sorted vertex tuple."""
    return c.ratio, c.method, c.S


def best_upper_bound(g: Graph, config: SearchConfig = SearchConfig()) -> CutCertificate:
    """Minimum-ratio certificate over exact enumeration (when it fits), the
    spectral sweep and seeded refinements.  Above EIGENVECTOR_CAP vertices
    the sweeps read the intersection array, so g must be distance-regular
    there (NotDistanceRegular)."""
    certs = []
    if g.n <= config.exact_cap:
        h, S = exact_cheeger(g, config.exact_cap)
        cert = make_certificate(g, S, "exact")
        if cert.ratio != h:
            raise SelfCheckFailed(f"exact_cheeger gave h = {h}, but its cut "
                                  f"recounts to {cert.ratio}")
        certs.append(cert)
    else:
        xs = _theta1_columns(g, config.seeds)
        sw = make_certificate(g, _sweep_order(g, xs[:, 0]), "sweep")
        certs.append(sw)
        # effort scales down with size: big graphs are settled by witnesses,
        # the deep plateau walks matter only at Biggs-Smith/Foster scale
        if g.n <= 128:
            rounds, patience = 12, 400
        elif g.n <= EIGENVECTOR_CAP:
            rounds, patience = 5, 150
        else:
            rounds, patience = 2, 40
        starts = [sw.S] + [_sweep_order(g, x) for x in xs[:, 1:].T]
        for seed, start in zip((0,) + tuple(config.seeds), starts):
            certs.append(_iterated_refine(g, start, seed, rounds, patience))
    return min(certs, key=cert_key)
