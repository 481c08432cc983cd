"""Spectra of distance-regular graphs and eigenvalue-based Cheeger bounds.

The D+1 distinct eigenvalues come from the tridiagonal intersection matrix,
symmetrized by the sphere sizes; Laplacian eigenvalues are (k - theta)/k.
An exact-quadratic extractor recovers theta_1 as a SqrtVal whenever it is
rational or a quadratic irrational, which covers every graph in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadPartition, ParamDomain, RangeError, TooLarge
from .exact import SqrtVal
from .graph import Graph, IntersectionArray, eigensystem

DENSE_CAP = 2000


@dataclass(frozen=True)
class Spectrum:
    thetas: tuple[float, ...]   # strictly decreasing, theta_0 = k
    source: str                 # tridiagonal | dense

    @property
    def k(self) -> float:
        return self.thetas[0]

    @property
    def lambdas(self) -> tuple[float, ...]:
        k = self.k
        return tuple((k - t) / k for t in self.thetas)

    @property
    def theta1(self) -> float:
        return self.thetas[1]

    @property
    def lambda1(self) -> float:
        return (self.k - self.theta1) / self.k

    @property
    def theta_min(self) -> float:
        return self.thetas[-1]


def drg_spectrum(ia: IntersectionArray) -> Spectrum:
    """Eigenvalues from the intersection array via a symmetric tridiagonal solve."""
    D = ia.D
    M = np.zeros((D + 1, D + 1))
    for i in range(D + 1):
        M[i, i] = ia.a(i)
        if i < D:
            # similarity by diag(sqrt(k_i)) turns (b_i, c_{i+1}) into sqrt(b_i c_{i+1})
            M[i, i + 1] = M[i + 1, i] = math.sqrt(ia.b[i] * ia.c[i])
    vals = np.linalg.eigvalsh(M)
    thetas = tuple(sorted((float(v) for v in vals), reverse=True))
    return Spectrum(thetas, "tridiagonal")


def dense_spectrum(g: Graph, cap: int = DENSE_CAP) -> np.ndarray:
    """All n adjacency eigenvalues (ascending), as numpy array."""
    if g.n > cap:
        raise TooLarge(f"n = {g.n} exceeds dense cap {cap}")
    return eigensystem(g)[0]


def distinct_values(values, tol: float = 1e-7) -> list[float]:
    out: list[float] = []
    for v in sorted(values, reverse=True):
        if not out or abs(out[-1] - v) > tol:
            out.append(float(v))
    return out


@dataclass(frozen=True)
class CheegerWindow:
    lower: float
    upper: float


def cheeger_window(lambda1) -> CheegerWindow:
    lam = float(lambda1)
    if not 0 < lam < 2:
        raise RangeError(f"lambda1 = {lam} outside (0,2)")
    return CheegerWindow(lam / 2, math.sqrt(lam * (2 - lam)))


def quotient_matrix(g: Graph, partition) -> list[list[Fraction]]:
    """Part-averaged adjacency counts, as exact rationals."""
    parts = [frozenset(p) for p in partition]
    if any(not p for p in parts):
        raise BadPartition("empty part")
    total = sum(len(p) for p in parts)
    union = frozenset().union(*parts)
    if total != g.n or len(union) != g.n:
        raise BadPartition("parts must partition the vertex set")
    idx = {}
    for i, p in enumerate(parts):
        for v in p:
            idx[v] = i
    counts = [[0] * len(parts) for _ in parts]
    for u in range(g.n):
        for w in g.adj[u]:
            counts[idx[u]][idx[w]] += 1
    return [[Fraction(counts[i][j], len(parts[i])) for j in range(len(parts))]
            for i in range(len(parts))]


def interlace_check(qm, spectrum: Spectrum, tol: float = 1e-8) -> bool:
    """Quotient eigenvalues must lie in [theta_min, theta_max]."""
    M = np.array([[float(x) for x in row] for row in qm])
    vals = np.linalg.eigvals(M)
    if np.abs(vals.imag).max(initial=0.0) > 1e-8:
        return False
    lo, hi = spectrum.theta_min - tol, spectrum.thetas[0] + tol
    return bool(np.all((vals.real >= lo) & (vals.real <= hi)))


def classical_theta1(D: int, b: int, alpha, beta) -> Fraction:
    """Second eigenvalue from classical parameters (D, b, alpha, beta), b > 1."""
    if b <= 1 or D < 1:
        raise ParamDomain(f"classical parameters need integer b > 1, D >= 1")
    gauss = Fraction(b ** D - 1, b - 1)
    return (gauss - 1) * (Fraction(beta) - Fraction(alpha)) / b - 1


def classical_k(D: int, b: int, beta) -> Fraction:
    if b <= 1 or D < 1:
        raise ParamDomain(f"classical parameters need integer b > 1, D >= 1")
    return Fraction(b ** D - 1, b - 1) * Fraction(beta)


# -- exact second eigenvalue ---------------------------------------------------

def charpoly(ia: IntersectionArray) -> list[int]:
    """Monic integer characteristic polynomial of the intersection matrix,
    ascending coefficients."""
    # f_{i+1}(x) = (x - a_i) f_i(x) - b_{i-1} c_i f_{i-1}(x)
    prev = [1]
    cur = [-ia.a(0), 1]
    for i in range(1, ia.D + 1):
        shifted = [0] + cur
        term = [-ia.a(i) * c for c in cur] + [0]
        scale = ia.b[i - 1] * ia.c[i - 1]
        nxt = [s + t for s, t in zip(shifted, term)]
        for j, c in enumerate(prev):
            nxt[j] -= scale * c
        prev, cur = cur, nxt
    return cur


def _poly_eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _divide_by_quadratic(poly, B: int, C: int):
    """Divide by x^2 - Bx + C; returns quotient or None if remainder nonzero."""
    rem = list(poly)
    quot = [0] * max(len(poly) - 2, 0)
    for i in range(len(poly) - 1, 1, -1):
        coef = rem[i]
        quot[i - 2] = coef
        rem[i] = 0
        rem[i - 1] += B * coef
        rem[i - 2] -= C * coef
    if rem[0] == 0 and rem[1] == 0:
        return quot
    return None


def exact_theta1(ia: IntersectionArray) -> SqrtVal | None:
    """theta_1 as an exact rational or quadratic irrational, when possible."""
    poly = charpoly(ia)
    thetas = drg_spectrum(ia).thetas
    target = thetas[1]
    # integer root?  (monic integer polynomial: rational roots are integers)
    for cand in {math.floor(target), math.ceil(target), round(target)}:
        if abs(cand - target) < 1e-6 and _poly_eval(poly, Fraction(cand)) == 0:
            return SqrtVal(cand)
    # quadratic factor pairing theta_1 with another root
    for partner in thetas:
        if partner == target:
            continue
        B, C = target + partner, target * partner
        Bi, Ci = round(B), round(C)
        if abs(B - Bi) > 1e-6 or abs(C - Ci) > 1e-6:
            continue
        disc = Bi * Bi - 4 * Ci
        if disc <= 0 or _divide_by_quadratic(poly, Bi, Ci) is None:
            continue
        root = SqrtVal(Fraction(Bi, 2), Fraction(1, 2), disc)
        if abs(float(root) - target) < 1e-6:
            return root
    return None


def srg_eigenvalues(k: int, a1: int, c2: int) -> tuple[SqrtVal, SqrtVal]:
    """(theta_1, theta_2) of a strongly regular graph, exact."""
    disc = (a1 - c2) ** 2 + 4 * (k - c2)
    half = Fraction(a1 - c2, 2)
    root = SqrtVal(0, Fraction(1, 2), disc)
    return SqrtVal(half) + root, SqrtVal(half) - root
