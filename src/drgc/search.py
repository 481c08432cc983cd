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
in exact integer arithmetic.  A single move leaves one of two volumes,
k(|S| - 1) or k(|S| + 1), so on each side the best move is a vertex of
least din (leaving S) or greatest din (joining S), and whether a move beats
or equals the current ratio is one integer comparison with a threshold.  A
swap (u out, w in) keeps vol(S) and changes the boundary by
2 (din[u] - din[w] + A(u, w)).  That key is one small-integer |S| x |S^c|
array whose A(u, w) term comes from the cut edges, so nothing n x n is
built; below 0 is strictly better and 0 is equal, and since every swap
keeps the current denominator, the first least key in row-major order is
the first least ratio.

The prefix sweep orders the vertices by decreasing score (a stable argsort,
so ties go by vertex) and scores every prefix at once: an edge adds +1 to
the boundary at the position of its earlier endpoint and -1 at its later
one, so one cumulative sum gives the boundary of each prefix and another
its volume.  The first least float64 ratio boundary / min(vol, total - vol)
is exact: every ratio lies in [0, 1] with 0 < denominator <= total, so two
distinct ratios differ by at least 1/total**2, which is 2**-52 or more when
total <= 2**26 and so more than the rounding error of either; equal ratios
round to the same double.  The sweep and refinement refuse graphs with
total > REFINE_TOTAL_CAP, which also keeps k below 2**13, so refinement's
counts fit int16.

The sweeps follow theta_1-eigenvectors, from one of two sources split at
spectral.EIGENVECTOR_CAP vertices, the bound that also starts the search's
cheapest effort tier.  Up to it they come from the cached dense eigh of
graph.eigensystem, which only the search reads: the second eigenvector, and
per seed a Gaussian combination of the eigenbasis of theta_1.  Above it no
eigenvector is computed.  For theta_1's standard sequence u (u_0 = 1,
u_1 = theta_1/k, c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta_1 u_i) the
matrix E = sum_i u_i A_i, A_i the distance-i adjacency matrix, is a multiple
of the projection onto the theta_1-eigenspace (Brouwer, Cohen and Neumaier,
Distance-Regular Graphs, 4.1).  Its column 0, y -> u_{d(0, y)}, is the
sweep's vector, and E r for a Gaussian r per seed has the distribution of
the dense path's combination.  The products A_i R come from
A A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}: D sums over the
neighbour slots, with no n x n array and no LAPACK call.

best_upper_bound returns the first certificate under cert_key (ratio, then
method, then sorted vertex tuple).  The report shares that order: above
exact_cap it skips the search when the least witness has ratio lambda_1/2,
the Cheeger floor no cut goes below, and a method that sorts before
"refine" and "sweep", because the search would return that witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import spectral
from .errors import EmptySet, FullSet, NotRegular, TooLarge
from .graph import (Graph, adjacency_matrix, edge_arrays, eigensystem,
                    intersection_array)
from .witness import CutCertificate, make_certificate

EXACT_CAP_HARD = 30
EXACT_BLOCK = 2 ** 14      # (lo, hi) pairs scored at once by exact_cheeger
REFINE_TOTAL_CAP = 2 ** 26
SWAP_CAP = 40_000          # most (u, w) pairs one refinement step scans


@dataclass(frozen=True)
class SearchConfig:
    exact_cap: int = 24
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)
    refine_budget: int = 100_000

    def __post_init__(self):
        if self.exact_cap > EXACT_CAP_HARD:
            raise TooLarge(f"exact_cap {self.exact_cap} exceeds {EXACT_CAP_HARD}")


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
    """Best prefix cut in the ordering of a theta_1-eigenvector: the second
    adjacency eigenvector up to spectral.EIGENVECTOR_CAP vertices, and above
    it vertex 0's spherical vector y -> u_{d(0, y)}, column 0 of E."""
    if g.n <= spectral.EIGENVECTOR_CAP:
        x = eigensystem(g)[1][:, -2]
    else:
        x = _theta1_vectors(g, np.eye(g.n, 1))[:, 0]
    return make_certificate(g, _sweep_order(g, x), "sweep")


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


def local_refine(g: Graph, S, budget: int = 100_000, seed: int = 0,
                 plateau_patience: int = 200) -> CutCertificate:
    """Kernighan-Lin style descent on a regular graph: single-vertex moves and
    (u out, w in) swaps, ratio monotonically non-increasing.  Equal-ratio
    moves pass through a tabu list of the last 50 moved vertices to cross
    plateaus; deterministic for a fixed seed.  Raises NotRegular on an
    irregular or edgeless graph, and EmptySet or FullSet when S is empty or
    all of V.

    Every step scores all single moves, and when none improves and
    |S| |S^c| <= SWAP_CAP, all swaps, by din (the neighbours in S) alone,
    with exact integer comparisons against the current key (boundary,
    min(vol, total - vol)); see the module docstring.  The chosen strict
    move is the first one of least ratio.  Plateau moves are listed in the
    order singles by vertex, then swaps row-major over (sorted S, sorted
    S^c), so the seeded pick is reproducible."""
    n = g.n
    total = _exact_total(g, "local_refine")
    k = g.regular_degree()
    if not k:
        raise NotRegular("local_refine: graph is not regular" if k is None
                         else "local_refine: graph has no edges")
    rng = random.Random(seed)
    half = n // 2
    src, dst, _ = edge_arrays(g)
    nbrs = dst.reshape(n, k)                # v's neighbours are row v
    inS = np.zeros(n, dtype=bool)
    inS[list(S)] = True
    size = int(inS.sum())
    if not 0 < size < n:
        raise (FullSet if size else EmptySet)(f"local_refine: |S| = {size}, n = {n}")
    # neighbours inside S; k < 2**13 since n * k <= REFINE_TOTAL_CAP
    din = np.bincount(dst[inS[src]], minlength=n).astype(np.int16)
    boundary = k * size - int(din[inS].sum())

    def side(vol):
        return min(vol, total - vol)

    best, best_S = (boundary, side(k * size)), frozenset(S)
    tabu: list[int] = []
    stale = 0
    moves = 0
    while moves < budget and stale <= plateau_patience:
        cd, dm, dp = side(k * size), side(k * (size - 1)), side(k * (size + 1))
        # v leaving S gives (boundary + 2 din[v] - k, dm), better than the
        # current key iff 2 cd din[v] < rm; v joining gives
        # (boundary + k - 2 din[v], dp), better iff 2 cd din[v] > rp
        rm = boundary * dm - (boundary - k) * cd
        rp = (boundary + k) * cd - boundary * dp
        moved = None
        if size > 1:
            v = int(np.where(inS, din, k + 1).argmin())
            if 2 * cd * int(din[v]) < rm:
                moved, b, d = (v,), boundary + 2 * int(din[v]) - k, dm
        if size < half:
            w = int(np.where(inS, -1, din).argmax())
            bw = boundary + k - 2 * int(din[w])
            # the least ratio wins, and the lower vertex on a tie
            if 2 * cd * int(din[w]) > rp and (moved is None or bw * d < b * dp
                                              or bw * d == b * dp and w < v):
                moved = (w,)
        swapped = False
        # swaps only when single moves stall and the pair scan is affordable
        if moved is None and size * (n - size) <= SWAP_CAP:
            # a swap keeps vol(S) and changes the boundary by twice
            # din[u] - din[w] + A(u, w): din[w] still counts u, which has
            # left S, so +1 per cut edge u-w
            ins, outs = np.flatnonzero(inS), np.flatnonzero(~inS)
            key = din[ins][:, None] - din[outs][None, :]
            pos = np.empty(n, dtype=np.intp)
            pos[outs] = np.arange(n - size)
            nb = nbrs[ins]
            cut = np.flatnonzero(~inS[nb])          # r * k + j for w = nb[r, j]
            key.ravel()[cut // k * (n - size) + pos[nb.ravel()[cut]]] += 1
            least = key.argmin()
            swapped = True
            if key.flat[least] < 0:
                r, c = divmod(int(least), n - size)
                moved = (int(ins[r]), int(outs[c]))
        if moved is not None:
            stale = 0
        else:
            # plateau moves in scan order, without tabu vertices
            free = np.ones(n, dtype=bool)
            free[tabu] = False
            eqm = rm // (2 * cd) if size > 1 and rm % (2 * cd) == 0 else -1
            eqp = rp // (2 * cd) if size < half and rp % (2 * cd) == 0 else -1
            singles = np.flatnonzero(free & (din == np.where(inS, eqm, eqp)))
            pairs = []
            if swapped and key.flat[least] == 0:
                pairs = np.flatnonzero((key == 0)
                                       & free[ins][:, None] & free[outs][None, :])
            count = len(singles) + len(pairs)
            if not count:
                break
            pick = rng.randrange(count)
            if pick < len(singles):
                moved = (int(singles[pick]),)
            else:
                r, c = divmod(int(pairs[pick - len(singles)]), n - size)
                moved = (int(ins[r]), int(outs[c]))
            stale += 1
        for m in moved:
            step = -1 if inS[m] else 1
            boundary += step * (k - 2 * int(din[m]))
            inS[m] = step > 0
            din[nbrs[m]] += step
            size += step
        tabu.extend(moved)
        del tabu[:-50]
        moves += 1
        cur = (boundary, side(k * size))
        if cur[0] * best[1] < best[0] * cur[1]:
            best, best_S = cur, frozenset(np.flatnonzero(inS).tolist())
    return make_certificate(g, best_S, "refine")


def _sweep_order(g: Graph, x) -> frozenset:
    """Best prefix cut for an arbitrary vertex scoring vector: the first
    prefix of least ratio in the order of decreasing x, ties by vertex, with
    every prefix scored at once (module docstring)."""
    total = _exact_total(g, "sweep")
    src, dst, first = edge_arrays(g)
    order = np.argsort(-np.asarray(x), kind="stable")
    pos = np.empty(g.n, dtype=np.intp)
    pos[order] = np.arange(g.n)
    p, q = pos[src], pos[dst]
    once = p < q
    # an edge is cut by the prefixes from its first endpoint up to its second
    delta = np.bincount(p[once], minlength=g.n) - np.bincount(q[once], minlength=g.n)
    boundary = np.cumsum(delta)[:-1]
    vol = np.cumsum(np.diff(first)[order])[:-1]
    best = np.argmin(boundary / np.minimum(vol, total - vol))
    return frozenset(order[:best + 1].tolist())


def _eigenspace_starts(g: Graph, seeds) -> list[frozenset]:
    """Sweep starts from seeded random vectors inside the second eigenvalue's
    eigenspace (high multiplicity in distance-regular graphs): combinations
    of the dense eigenbasis up to spectral.EIGENVECTOR_CAP vertices, and
    above it E R, whose column per seed is a Gaussian projected onto the
    eigenspace."""
    if g.n <= spectral.EIGENVECTOR_CAP:
        vals, vecs = eigensystem(g)
        theta1 = vals[-2]
        basis = vecs[:, np.abs(vals - theta1) < 1e-8]
        xs = [basis @ np.random.RandomState(seed).randn(basis.shape[1])
              for seed in seeds]
    else:
        R = np.empty((g.n, len(seeds)))
        for j, seed in enumerate(seeds):
            R[:, j] = np.random.RandomState(seed).randn(g.n)
        xs = _theta1_vectors(g, R).T
    return [_sweep_order(g, x) for x in xs]


def _iterated_refine(g: Graph, start, seed: int, budget: int, rounds: int,
                     patience: int) -> CutCertificate:
    """Iterated local search: monotone descent, then a seeded perturbation of
    the best set by four random swaps, repeated; stops after two stale rounds."""
    rng = random.Random(seed ^ 0x9E3779B9)
    best = None
    stale = 0
    S = start
    for _ in range(rounds):
        cert = local_refine(g, S, budget, seed, plateau_patience=patience)
        if best is None or cert.ratio < best.ratio:
            best = cert
            stale = 0
        else:
            stale += 1
            if stale >= 2:
                break
        base = set(best.S)
        outs = sorted(base)
        ins = sorted(v for v in range(g.n) if v not in base)
        for _ in range(4):
            u = outs[rng.randrange(len(outs))]
            w = ins[rng.randrange(len(ins))]
            if u in base and w not in base:
                base.discard(u)
                base.add(w)
        S = frozenset(base)
    return best


def cert_key(c: CutCertificate):
    """The order in which the search picks its best certificate: least ratio,
    then method name, then the sorted vertex tuple."""
    return c.ratio, c.method, c.S


def best_upper_bound(g: Graph, config: SearchConfig = SearchConfig(),
                     extra_certs=()) -> CutCertificate:
    """Minimum-ratio certificate over exact enumeration (when it fits), the
    spectral sweep, seeded refinements, and any supplied witness certificates.
    Above spectral.EIGENVECTOR_CAP vertices the sweeps read the intersection
    array, so g must be distance-regular there (NotDistanceRegular)."""
    certs = list(extra_certs)
    if g.n <= config.exact_cap:
        h, S = exact_cheeger(g, config.exact_cap)
        cert = make_certificate(g, S, "exact")
        assert cert.ratio == h
        certs.append(cert)
    else:
        sw = sweep_cut(g)
        certs.append(sw)
        # effort scales down with size: big graphs are settled by witnesses,
        # the deep plateau walks matter only at Biggs-Smith/Foster scale
        if g.n <= 128:
            rounds, patience = 12, 400
        elif g.n <= spectral.EIGENVECTOR_CAP:
            rounds, patience = 5, 150
        else:
            rounds, patience = 2, 40
        starts = [sw.S] + _eigenspace_starts(g, config.seeds)
        for seed, start in zip((-1,) + tuple(config.seeds), starts):
            certs.append(_iterated_refine(g, start, max(seed, 0),
                                          config.refine_budget, rounds, patience))
    return min(certs, key=cert_key)
