"""Independent Cheeger oracles: exact subset enumeration for small graphs,
spectral sweep plus local refinement for larger ones.

The exact enumerator walks all subsets in Gray-code order with O(1) boundary
updates, so cube- and dodecahedron-sized graphs finish in seconds.  Search
results are deterministic under fixed seeds.

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
from itertools import accumulate, chain

import numpy as np

from .errors import TooLarge
from .graph import Graph, eigensystem
from .witness import CutCertificate, make_certificate

EXACT_CAP_HARD = 30
REFINE_TOTAL_CAP = 2 ** 26


@dataclass(frozen=True)
class SearchConfig:
    exact_cap: int = 24
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)
    refine_budget: int = 100_000

    def __post_init__(self):
        if self.exact_cap > EXACT_CAP_HARD:
            raise TooLarge(f"exact_cap {self.exact_cap} exceeds {EXACT_CAP_HARD}")


def exact_cheeger(g: Graph, exact_cap: int = 24):
    """Global minimum of boundary/vol(S) over all S with |S| <= n/2.

    Returns (h, S) with h an exact Fraction.  Subsets are enumerated by
    bitmask in Gray-code order; at |S| = n/2 each complementary pair is
    visited once (canonical side contains vertex 0).
    """
    n = g.n
    if n > exact_cap:
        raise TooLarge(f"n = {n} exceeds exact cap {exact_cap}")
    degs = [g.degree(v) for v in range(n)]
    nbr_mask = [0] * n
    for u in range(n):
        for w in g.adj[u]:
            nbr_mask[u] |= 1 << w
    half = n // 2
    best_num, best_den, best_mask = 1, 0, 0   # ratio = +inf
    mask = 0
    size = 0
    vol = 0
    inside = 0
    for i in range(1, 1 << n):
        gray = i ^ (i >> 1)
        bit = gray ^ (mask)
        v = bit.bit_length() - 1
        common = (nbr_mask[v] & mask).bit_count()   # v is never its own neighbor
        if gray > mask:     # vertex v added
            mask = gray
            size += 1
            vol += degs[v]
            inside += 2 * common
        else:               # vertex v removed
            mask = gray
            size -= 1
            vol -= degs[v]
            inside -= 2 * common
        if size == 0 or size > half:
            continue
        if 2 * size == n and not mask & 1:
            continue
        boundary = vol - inside
        # compare boundary/vol < best_num/best_den exactly
        if boundary * best_den < best_num * vol:
            best_num, best_den, best_mask = boundary, vol, mask
    S = frozenset(v for v in range(n) if best_mask >> v & 1)
    return Fraction(best_num, best_den), S


def sweep_cut(g: Graph, lambda1=None) -> CutCertificate:
    """Best prefix cut in the ordering of the second adjacency eigenvector."""
    vals, vecs = eigensystem(g)
    return make_certificate(g, _sweep_order(g, vecs[:, -2]), "sweep", lambda1)


def local_refine(g: Graph, S, budget: int = 100_000, seed: int = 0,
                 lambda1=None, tabu_len: int = 50, plateau_patience: int = 200,
                 swap_cap: int = 40_000) -> CutCertificate:
    """Kernighan-Lin style descent: single-vertex moves and (u out, w in)
    swaps, ratio monotonically non-increasing.  Equal-ratio moves pass through
    a short tabu list to cross plateaus; deterministic for a fixed seed.

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
    degs = np.fromiter(map(len, g.adj), dtype=np.int64, count=n)
    # the ordered edges (src, dst); v's neighbours are dst[first[v]:first[v+1]]
    src = np.repeat(np.arange(n), degs)
    dst = np.fromiter(chain.from_iterable(g.adj), dtype=np.intp, count=total)
    first = [0, *accumulate(map(len, g.adj))]
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
        del tabu[:-tabu_len]
        moves += 1
        if cur[0] * best[1] < best[0] * cur[1]:
            best, best_S = cur, frozenset(np.flatnonzero(inS).tolist())
    return make_certificate(g, best_S, "refine", lambda1)


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


def _iterated_refine(g: Graph, start, seed: int, budget: int, lambda1,
                     rounds: int = 12, kick: int = 4,
                     patience: int = 400) -> CutCertificate:
    """Iterated local search: monotone descent, then a seeded perturbation of
    the best set, repeated; stops after two stale rounds."""
    rng = random.Random(seed ^ 0x9E3779B9)
    best = None
    stale = 0
    S = start
    for _ in range(rounds):
        cert = local_refine(g, S, budget, seed, lambda1, plateau_patience=patience)
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
        for _ in range(kick):
            u = outs[rng.randrange(len(outs))]
            w = ins[rng.randrange(len(ins))]
            if u in base and w not in base:
                base.discard(u)
                base.add(w)
        S = frozenset(base)
    return best


def best_upper_bound(g: Graph, config: SearchConfig = SearchConfig(),
                     lambda1=None, extra_certs=()) -> CutCertificate:
    """Minimum-ratio certificate over exact enumeration (when it fits), the
    spectral sweep, seeded refinements, and any supplied witness certificates."""
    certs = list(extra_certs)
    if g.n <= config.exact_cap:
        h, S = exact_cheeger(g, config.exact_cap)
        cert = make_certificate(g, S, "exact", lambda1)
        assert cert.ratio == h
        certs.append(cert)
    else:
        sw = sweep_cut(g, lambda1)
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
                                          config.refine_budget, lambda1,
                                          rounds=rounds, patience=patience))
    return min(certs, key=lambda c: (c.ratio, c.method, c.S))
