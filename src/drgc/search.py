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
EXACT_BLOCK (lo, hi) pairs, so memory stays at a few MiB.

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

Local refinement scores all candidate moves of a step at once as numpy int64
arrays: single-vertex moves as one length-n array, and (u out, w in) swaps as
one |S| x |S^c| array whose adjacency correction comes from the cut edges.
Comparisons against the current ratio are exact cross-multiplications.  The
best strictly improving move is the first minimum of float64 ratios b/d, and
that is exact too: every ratio lies in [0, 1] with 0 < d <= total, so two
distinct ratios differ by at least 1/total**2, which is 2**-52 or more when
total <= 2**26 and so more than the rounding error of either; equal ratios
round to the same double.  ``local_refine`` refuses larger graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptySet, TooLarge
from .graph import Graph, adjacency_matrix, edge_arrays, eigensystem
from .witness import CutCertificate, make_certificate

EXACT_CAP_HARD = 30
EXACT_BLOCK = 2 ** 16      # (lo, hi) pairs scored at once by exact_cheeger
REFINE_TOTAL_CAP = 2 ** 26


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
    """Best prefix cut in the ordering of the second adjacency eigenvector."""
    vals, vecs = eigensystem(g)
    return make_certificate(g, _sweep_order(g, vecs[:, -2]), "sweep")


def local_refine(g: Graph, S, budget: int = 100_000, seed: int = 0,
                 plateau_patience: int = 200,
                 swap_cap: int = 40_000) -> CutCertificate:
    """Kernighan-Lin style descent: single-vertex moves and (u out, w in)
    swaps, ratio monotonically non-increasing.  Equal-ratio moves pass through
    a tabu list of the last 50 moved vertices to cross plateaus;
    deterministic for a fixed seed.

    Every step scores all single moves, and when none improves, all swaps,
    as numpy arrays of keys (boundary, min(vol, total - vol)).  "Strictly
    better" and "equal" are exact int64 cross-multiplications against the
    current key; the chosen strict move is the first index of the least
    float64 ratio, which is exact for total <= REFINE_TOTAL_CAP (module
    docstring).  Plateau moves are listed in the order singles by vertex,
    then swaps row-major over (sorted S, sorted S^c), so the seeded pick is
    reproducible."""
    n = g.n
    total = 2 * g.num_edges
    if total > REFINE_TOTAL_CAP:
        raise TooLarge(f"local_refine: total degree {total} exceeds "
                       f"{REFINE_TOTAL_CAP}, the limit for exact float ratios")
    rng = random.Random(seed)
    half = n // 2
    src, dst, first = edge_arrays(g)
    degs = np.diff(first)
    inS = np.zeros(n, dtype=bool)
    inS[list(S)] = True
    din = np.bincount(dst[inS[src]], minlength=n)    # neighbours inside S
    size = int(inS.sum())
    vol = int(degs[inS].sum())
    boundary = int((degs - din)[inS].sum())
    sign = np.where(inS, -1, 1)             # a move takes v out of S or into it

    def side(vl):
        return np.minimum(vl, total - vl)

    def first_min(b, d, strict):
        ratio = np.divide(b, d, out=np.full(b.shape, np.inf), where=strict)
        return np.unravel_index(np.argmin(ratio), b.shape)

    cur = (boundary, min(vol, total - vol))
    best, best_S = cur, frozenset(S)
    tabu: list[int] = []
    stale = 0
    moves = 0
    while moves < budget and stale <= plateau_patience:
        cb, cd = cur
        b1 = boundary + sign * (degs - 2 * din)
        v1 = vol + sign * degs
        d1 = side(v1)
        allowed = np.ones(n, dtype=bool)
        if size == 1:
            allowed &= ~inS
        if size >= half:
            allowed &= inS
        strict1 = allowed & (b1 * cd < cb * d1)
        moved = None
        swapped = False
        if strict1.any():
            moved = first_min(b1, d1, strict1)
        # swaps only when single moves stall and the pair scan is affordable
        elif size * (n - size) <= swap_cap:
            ins, outs = np.flatnonzero(inS), np.flatnonzero(~inS)
            b2 = (boundary + 2 * din[ins] - degs[ins])[:, None] \
                + (degs[outs] - 2 * din[outs])[None, :]
            # din[w] still counts u, which has left S: +2 per cut edge u-w
            pos = np.empty(n, dtype=np.intp)
            pos[ins], pos[outs] = np.arange(size), np.arange(n - size)
            cut = inS[src] & ~inS[dst]
            b2[pos[src[cut]], pos[dst[cut]]] += 2
            v2 = (vol - degs[ins])[:, None] + degs[outs][None, :]
            d2 = side(v2)
            strict2 = b2 * cd < cb * d2
            swapped = True
            if strict2.any():
                moved = first_min(b2, d2, strict2)
        if moved is not None:
            stale = 0
        else:
            # plateau moves in scan order, without tabu vertices
            free = np.ones(n, dtype=bool)
            free[tabu] = False
            singles = np.flatnonzero(allowed & free & (b1 * cd == cb * d1))
            pairs = []
            if swapped:
                pairs = np.flatnonzero((b2 * cd == cb * d2)
                                       & free[ins][:, None] & free[outs][None, :])
            count = len(singles) + len(pairs)
            if not count:
                break
            pick = rng.randrange(count)
            if pick < len(singles):
                moved = (singles[pick],)
            else:
                moved = np.unravel_index(pairs[pick - len(singles)], b2.shape)
            stale += 1
        if len(moved) == 1:
            boundary, vol = int(b1[moved]), int(v1[moved])
            moved = (int(moved[0]),)
        else:
            boundary, vol = int(b2[moved]), int(v2[moved])
            moved = (int(ins[moved[0]]), int(outs[moved[1]]))
        for m in moved:
            step = -1 if inS[m] else 1
            inS[m] = step > 0
            sign[m] = -step
            din[dst[first[m]:first[m + 1]]] += step
            size += step
        cur = (boundary, min(vol, total - vol))
        tabu.extend(moved)
        del tabu[:-50]
        moves += 1
        if cur[0] * best[1] < best[0] * cur[1]:
            best, best_S = cur, frozenset(np.flatnonzero(inS).tolist())
    return make_certificate(g, best_S, "refine")


def _sweep_order(g: Graph, x) -> frozenset:
    """Best prefix cut for an arbitrary vertex scoring vector."""
    degs = [g.degree(v) for v in range(g.n)]
    total = 2 * g.num_edges
    order = sorted(range(g.n), key=lambda v: (-x[v], v))
    in_S = [False] * g.n
    vol = boundary = 0
    best = None
    best_i = 0
    for i, v in enumerate(order[:-1]):
        in_S[v] = True
        vol += degs[v]
        for w in g.adj[v]:
            boundary += -1 if in_S[w] else 1
        r = Fraction(boundary, min(vol, total - vol))
        if best is None or r < best:
            best, best_i = r, i
    return frozenset(order[:best_i + 1])


def _eigenspace_starts(g: Graph, seeds) -> list[frozenset]:
    """Sweep starts from seeded random combinations inside the second
    eigenvalue's eigenspace (high multiplicity in distance-regular graphs)."""
    vals, vecs = eigensystem(g)
    theta1 = vals[-2]
    cols = [i for i, v in enumerate(vals) if abs(v - theta1) < 1e-8]
    basis = vecs[:, cols]
    starts = []
    for seed in seeds:
        rng = np.random.RandomState(seed)
        x = basis @ rng.randn(len(cols))
        starts.append(_sweep_order(g, x))
    return starts


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


def best_upper_bound(g: Graph, config: SearchConfig = SearchConfig(),
                     extra_certs=()) -> CutCertificate:
    """Minimum-ratio certificate over exact enumeration (when it fits), the
    spectral sweep, seeded refinements, and any supplied witness certificates."""
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
        elif g.n <= 256:
            rounds, patience = 5, 150
        else:
            rounds, patience = 2, 40
        starts = [sw.S] + _eigenspace_starts(g, config.seeds)
        for seed, start in zip((-1,) + tuple(config.seeds), starts):
            certs.append(_iterated_refine(g, start, max(seed, 0),
                                          config.refine_budget, rounds, patience))
    return min(certs, key=lambda c: (c.ratio, c.method, c.S))
