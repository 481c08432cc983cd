#!/usr/bin/env python3
"""Regenerate the embedded catalog graph6 files.

Each graph is built from first principles here (LCF words, Kneser restriction,
generalized Petersen skeleton, the icosahedron's poles and rings, and a
coset-graph search in PSL(2,17) for Biggs-Smith), verified against its
intersection array, and only then written to src/drgc/data/catalog/.  Run
from the repo root:  python scripts/gen_catalog_data.py
"""

import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from drgc.graph import Graph, g6_encode, intersection_array

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "drgc" / "data" / "catalog"


def icosahedron() -> Graph:
    # poles 0 and 1, upper ring 2..6, lower ring 7..11
    up = [2 + i for i in range(5)]
    lo = [7 + i for i in range(5)]
    edges = [(0, u) for u in up] + [(1, v) for v in lo]
    for i in range(5):
        edges.append((up[i], up[(i + 1) % 5]))
        edges.append((lo[i], lo[(i + 1) % 5]))
        edges.append((up[i], lo[i]))
        edges.append((up[i], lo[(i - 1) % 5]))
    return Graph.from_edges(12, edges)


def dodecahedron() -> Graph:
    """Generalized Petersen graph GP(10,2)."""
    edges = []
    for i in range(10):
        edges.append((i, (i + 1) % 10))        # outer cycle
        edges.append((i, 10 + i))              # spokes
        edges.append((10 + i, 10 + (i + 2) % 10))  # inner pentagram pair
    return Graph.from_edges(20, edges)


def coxeter() -> Graph:
    """Kneser graph of 3-subsets of a 7-set, restricted to non-lines of a
    Fano plane (each non-line triple is disjoint from exactly one line)."""
    lines = {frozenset({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)}
    keys = [t for t in itertools.combinations(range(7), 3)
            if frozenset(t) not in lines]
    idx = {k: i for i, k in enumerate(keys)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(keys, 2)
             if not set(a) & set(b)]
    return Graph.from_edges(28, edges)


def lcf_graph(jumps, reps: int) -> Graph:
    """Hamiltonian cubic graph from LCF notation."""
    n = len(jumps) * reps
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + jumps[i % len(jumps)]) % n
        edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, {(min(a, b), max(a, b)) for a, b in edges})


def foster() -> Graph:
    return lcf_graph([17, -9, 37, -37, 9, -17], 15)


def tutte_12_cage() -> Graph:
    return lcf_graph([17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21,
                      57, 11, -21, -57, 59, -17], 7)


def biggs_smith() -> Graph:
    """Coset graph of PSL(2,17) on the 102 cosets of an S4 subgroup, joined
    along the symmetric double coset of size 72; verified below."""
    p = 17
    pts = list(range(p)) + [p]

    def make_perm(a, b, c, d):
        perm = []
        for z in pts:
            if z == p:
                perm.append(p if c % p == 0 else (a * pow(c, p - 2, p)) % p)
            else:
                num, den = (a * z + b) % p, (c * z + d) % p
                perm.append(p if den == 0 else (num * pow(den, p - 2, p)) % p)
        return tuple(perm)

    squares = {(x * x) % p for x in range(1, p)}
    group = sorted({make_perm(a, b, c, d)
                    for a, b, c, d in itertools.product(range(p), repeat=4)
                    if (a * d - b * c) % p in squares})
    ident = tuple(range(p + 1))

    def compose(f, g):
        return tuple(f[g[i]] for i in range(len(g)))

    def order(e):
        x, o = e, 1
        while x != ident:
            x = compose(x, e)
            o += 1
        return o

    inverse = {}
    for e in group:
        iv = [0] * (p + 1)
        for i, j in enumerate(e):
            iv[j] = i
        inverse[e] = tuple(iv)

    def closure(gens):
        H = {ident}
        frontier = [ident]
        while frontier:
            nf = []
            for x in frontier:
                for y in gens:
                    z = compose(x, y)
                    if z not in H:
                        H.add(z)
                        nf.append(z)
                        if len(H) > 24:
                            return H
            frontier = nf
        return H

    target = "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}"
    invols = [e for e in group if order(e) == 2]
    order3 = [e for e in group if order(e) == 3]
    for s in invols:
        for t in order3:
            if order(compose(s, t)) != 4:
                continue
            H = closure([s, t])
            if len(H) != 24:
                continue
            reps, rep_index = [], {}
            coset_of = {}
            for g in group:
                cos = min(compose(h, g) for h in H)
                if cos not in coset_of:
                    coset_of[cos] = len(reps)
                    reps.append(cos)
                rep_index[g] = coset_of[cos]
            seen = set()
            for a in group:
                if a in seen:
                    continue
                dc = set()
                for h1 in H:
                    ha = compose(h1, a)
                    for h2 in H:
                        dc.add(compose(ha, h2))
                seen |= dc
                if len(dc) != 72 or inverse[a] not in dc:
                    continue
                edges = set()
                cubic = True
                for xi, x in enumerate(reps):
                    nbh = {rep_index[compose(d, x)] for d in dc}
                    if len(nbh) != 3 or xi in nbh:
                        cubic = False
                        break
                    edges.update((min(xi, y), max(xi, y)) for y in nbh)
                if not cubic:
                    continue
                g102 = Graph.from_edges(102, edges)
                try:
                    if str(intersection_array(g102)) == target:
                        return g102
                except Exception:
                    continue
    raise RuntimeError("Biggs-Smith coset search failed")


TARGETS = {
    "coxeter": (coxeter, "{3,2,2,1;1,1,1,2}"),
    "dodecahedron": (dodecahedron, "{3,2,1,1,1;1,1,1,2,3}"),
    "icosahedron": (icosahedron, "{5,2,1;1,2,5}"),
    "tutte-12-cage": (tutte_12_cage, "{3,2,2,2,2,2;1,1,1,1,1,3}"),
    "foster": (foster, "{3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3}"),
    "biggs-smith": (biggs_smith, "{3,2,2,2,1,1,1;1,1,1,1,1,1,3}"),
}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, (builder, expected) in TARGETS.items():
        g = builder()
        ia = intersection_array(g)
        assert str(ia) == expected, (name, str(ia), expected)
        path = OUT / f"{name}.g6"
        path.write_text(g6_encode(g) + "\n", encoding="ascii")
        print(f"{name}: n={g.n} array={ia} -> {path.name}")


if __name__ == "__main__":
    main()
