"""Spectra of distance-regular graphs and eigenvalue-based Cheeger bounds.

The D+1 distinct eigenvalues come from the tridiagonal intersection matrix,
symmetrized by the sphere sizes; Laplacian eigenvalues are (k - theta)/k.
Every exact job runs one Sturm recursion, _minors, at an exact point:
at_most_lambda1 counts the eigenvalues above it for any intersection array,
spectrum_certified counts them at the ends of a window around each float
eigenvalue, and exact_theta1 checks rational and quadratic candidates for
theta_1 (which cover every graph in this package) for an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import RangeError, TooLarge
from .exact import SqrtVal
from .graph import Graph, IntersectionArray, adjacency_matrix

DENSE_CAP = 2000
# spectrum_certified's windows: ends on the grid 2^-30, half-width 2^-27,
# which with the rounding of a centre to the grid stays below 1e-8
CERT_SCALE = 1 << 30
CERT_HALF = 1 << 3


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


def dense_spectrum(g: Graph) -> np.ndarray:
    """All n adjacency eigenvalues (ascending) from eigvalsh, which computes
    no eigenvectors; refuses n > DENSE_CAP."""
    if g.n > DENSE_CAP:
        raise TooLarge(f"n = {g.n} exceeds dense cap {DENSE_CAP}")
    return np.linalg.eigvalsh(adjacency_matrix(g))


def standard_sequence(ia: IntersectionArray, theta: float) -> list[float]:
    """u_0 .. u_D of the eigenvalue theta: u_0 = 1, u_1 = theta/k and
    c_i u_{i-1} + a_i u_i + b_i u_{i+1} = theta u_i.  For every vertex x,
    y -> u_{d(x, y)} is a theta-eigenvector of the adjacency matrix
    (Brouwer, Cohen and Neumaier, Distance-Regular Graphs, 1989, 4.1)."""
    u = [1.0, theta / ia.k]
    for i in range(1, ia.D):
        u.append(((theta - ia.a(i)) * u[i] - ia.c[i - 1] * u[i - 1]) / ia.b[i])
    return u


@dataclass(frozen=True)
class CheegerWindow:
    lower: float
    upper: float


def cheeger_window(lambda1) -> CheegerWindow:
    lam = float(lambda1)
    if not 0 < lam < 2:
        raise RangeError(f"lambda1 = {lam} outside (0,2)")
    return CheegerWindow(lam / 2, math.sqrt(lam * (2 - lam)))


# -- exact eigenvalue counts and the exact second eigenvalue -------------------

def _minors(ia: IntersectionArray, p, q: int = 1) -> list:
    """The leading principal minors of xI - L, L the intersection matrix, at
    x = p/q, each f_i scaled by q^i: F_0 = 1, F_1 = p - a_0 q and the
    three-term recursion F_{i+1} = (p - a_i q) F_i - b_{i-1} c_i q^2 F_{i-1}.
    With q = 1 these are the minors themselves at a rational or SqrtVal p;
    with integers p and q > 0 they are integers with the minors' signs.  The
    last is the monic integer characteristic polynomial of L at x."""
    minors = [1, p - ia.a(0) * q]
    qq = q * q
    for i in range(1, ia.D + 1):
        minors.append((p - ia.a(i) * q) * minors[-1]
                      - ia.b[i - 1] * ia.c[i - 1] * qq * minors[-2])
    return minors


def _above(ia: IntersectionArray, p: int, q: int) -> int:
    """The number of eigenvalues of L strictly above p/q, for integers p and
    q > 0: the minors of xI - L form a Sturm sequence, and with its zeros
    dropped its sign changes count them (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965)."""
    signs = [m > 0 for m in _minors(ia, p, q) if m]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def spectrum_certified(ia: IntersectionArray, thetas) -> bool:
    """Whether the floats thetas are the D + 1 distinct eigenvalues of L, each
    within 1e-8, decided exactly.

    Each theta is rounded to the grid 1/CERT_SCALE and given the window
    (c - h, c + h] around its grid point c, h = CERT_HALF/CERT_SCALE.  The
    windows must be pairwise disjoint and each must hold exactly one
    eigenvalue, counted by _above at its two ends.  L has D + 1 simple real
    eigenvalues (it is tridiagonal with b_{i-1} c_i > 0), so D + 1 such
    windows pair the thetas one to one with them.  Once intersection_array
    has checked the array on every vertex pair these are the adjacency
    eigenvalues (Brouwer, Cohen and Neumaier, Distance-Regular Graphs, 4.1),
    so this replaces a dense eigensolve of the graph."""
    if len(thetas) != ia.D + 1 or not all(math.isfinite(t) for t in thetas):
        return False
    centres = sorted(round(t * CERT_SCALE) for t in thetas)
    if any(b - a < 2 * CERT_HALF for a, b in zip(centres, centres[1:])):
        return False
    return all(_above(ia, c - CERT_HALF, CERT_SCALE)
               - _above(ia, c + CERT_HALF, CERT_SCALE) == 1 for c in centres)


def at_most_lambda1(ia: IntersectionArray, r) -> bool:
    """Decide r <= lambda_1 = (k - theta_1)/k exactly, for a rational r.

    That holds iff theta_1 <= x = k(1 - r), i.e. iff at most one eigenvalue of
    the intersection matrix lies above x (theta_0 = k is simple and largest).
    _above counts them in integers at x's numerator and denominator, and
    counts strictly above, so r == lambda_1 is decided exactly too."""
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"at_most_lambda1 needs a rational, got {r!r}")
    x = ia.k * (1 - Fraction(r))
    return _above(ia, x.numerator, x.denominator) <= 1


def exact_theta1(ia: IntersectionArray) -> SqrtVal | None:
    """theta_1 as an exact rational or quadratic irrational, when possible.

    A candidate is accepted when the characteristic polynomial, the last
    minor, is exactly 0 there.  A rational root of that monic integer
    polynomial is an integer; the one nearest the float is theta_1 when
    exactly one eigenvalue, k, lies above it.  An irrational quadratic root
    near the float brings its conjugate, an eigenvalue theta', so it is a root of
    x^2 - Bx + C with B = theta_1 + theta' and C = theta_1 theta' integers.
    Each partner's nearest integers B and C are tried while |C| < 2^52 (past
    it floats one apart no longer pin an integer), and only when their
    greater root is within 1e-6 |theta_1| of the float is the exact root
    built (which factors B^2 - 4C) and tested."""
    thetas = drg_spectrum(ia).thetas
    target = thetas[1]
    m = round(target)
    if _minors(ia, m)[-1] == 0 and _above(ia, m, 1) == 1:
        return SqrtVal(m)
    for partner in thetas:
        if partner == target:
            continue
        B, C = target + partner, target * partner
        if abs(C) >= 2 ** 52:
            continue
        B, C = round(B), round(C)
        disc = B * B - 4 * C
        if disc <= 0 or (abs((B + math.sqrt(disc)) / 2 - target)
                         > 1e-6 * max(1.0, abs(target))):
            continue
        root = SqrtVal(Fraction(B, 2), Fraction(1, 2), disc)
        if _minors(ia, root)[-1] == 0:
            return root
    return None


def srg_eigenvalues(k: int, a1: int, c2: int) -> tuple[SqrtVal, SqrtVal]:
    """(theta_1, theta_2) of a strongly regular graph, exact."""
    disc = (a1 - c2) ** 2 + 4 * (k - c2)
    half = Fraction(a1 - c2, 2)
    root = SqrtVal(0, Fraction(1, 2), disc)
    return SqrtVal(half) + root, SqrtVal(half) - root
