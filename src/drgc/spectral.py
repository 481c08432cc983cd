"""Spectra of distance-regular graphs and eigenvalue-based Cheeger bounds.

The D+1 distinct eigenvalues come from the tridiagonal intersection matrix,
symmetrized by the sphere sizes; Laplacian eigenvalues are (k - theta)/k.
An exact-quadratic extractor recovers theta_1 as a SqrtVal whenever it is
rational or a quadratic irrational, which covers every graph in this package.
Verdicts against lambda_1 need no closed form: at_most_lambda1 counts
eigenvalues exactly for any intersection array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RangeError, TooLarge
from .exact import SqrtVal
from .graph import Graph, IntersectionArray, eigensystem

DENSE_CAP = 2000


@dataclass(frozen=True)
class Spectrum:
    thetas: tuple[float, ...]   # strictly decreasing, theta_0 = k

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
    return Spectrum(thetas)


def dense_spectrum(g: Graph, cap: int = DENSE_CAP) -> np.ndarray:
    """All n adjacency eigenvalues (ascending), as numpy array."""
    if g.n > cap:
        raise TooLarge(f"n = {g.n} exceeds dense cap {cap}")
    return eigensystem(g)[0]


def distinct_values(values) -> list[float]:
    """The values in descending order, merging neighbours within 1e-7."""
    out: list[float] = []
    for v in sorted(values, reverse=True):
        if not out or abs(out[-1] - v) > 1e-7:
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


def at_most_lambda1(ia: IntersectionArray, r) -> bool:
    """Decide r <= lambda_1 = (k - theta_1)/k exactly, for a rational r.

    That holds iff theta_1 <= x = k(1 - r), i.e. iff at most one eigenvalue of
    the intersection matrix lies above x (theta_0 = k is simple and largest).
    The charpoly recursion at x gives the leading principal minors of xI - L,
    a Sturm sequence: with its zeros dropped, the sign changes count the
    eigenvalues strictly above x (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965), so r == lambda_1 is decided exactly too."""
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"at_most_lambda1 needs a rational, got {r!r}")
    x = ia.k * (1 - Fraction(r))
    minors = [Fraction(1), x - ia.a(0)]
    for i in range(1, ia.D + 1):
        minors.append((x - ia.a(i)) * minors[-1]
                      - ia.b[i - 1] * ia.c[i - 1] * minors[-2])
    signs = [m > 0 for m in minors if m]
    return sum(s != t for s, t in zip(signs, signs[1:])) <= 1


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
