import math
from fractions import Fraction

import pytest

from drgc.exact import SqrtVal


def test_squarefree_reduction():
    assert SqrtVal(0, 1, 8).triple() == (0, 2, 2)
    assert SqrtVal(0, 1, 9).triple() == (3, 0, 1)
    assert SqrtVal(0, 3, 50).triple() == (0, 15, 2)
    assert SqrtVal(0, 1, 1).is_rational


def test_sqrt_constructor():
    assert SqrtVal.sqrt(4) == 2
    assert SqrtVal.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    v = SqrtVal.sqrt(Fraction(1, 2))
    assert abs(float(v) - math.sqrt(0.5)) < 1e-15
    with pytest.raises(ValueError):
        SqrtVal.sqrt(-1)


def test_arithmetic_closure():
    a = SqrtVal(1, 2, 3)        # 1 + 2*sqrt(3)
    b = SqrtVal(0, 1, 3)
    assert (a + b).triple() == (1, 3, 3)
    assert (a - 1).triple() == (0, 2, 3)
    assert (a * b).triple() == (6, 1, 3)      # (1+2s3)*s3 = 6 + sqrt3
    assert (a * Fraction(1, 2)).triple() == (Fraction(1, 2), 1, 3)
    assert float(a / 2) == pytest.approx(float(a) / 2)


def test_exact_comparisons():
    s2 = SqrtVal.sqrt(2)
    assert s2 > 1 and s2 < 2 and s2 > Fraction(7, 5) and s2 < Fraction(3, 2)
    # golden-ratio-style comparison decided by squaring, not floats
    assert SqrtVal(Fraction(1, 2), Fraction(1, 2), 17) > Fraction(5, 2)
    assert SqrtVal(Fraction(1, 2), Fraction(1, 2), 17) < Fraction(13, 5)
    assert SqrtVal(3, -1, 2) > 0
    assert SqrtVal(1, -1, 2) < 0
    assert SqrtVal(0, 1, 2) == SqrtVal(0, 1, 2)
    assert SqrtVal(2) == 2


def test_cross_radical_comparison_raises():
    with pytest.raises(TypeError):
        SqrtVal(0, 1, 2) < SqrtVal(0, 1, 3)


def test_exact_le_fallback():
    # the exact case: a Fraction on the left is decided by SqrtVal's
    # reflected comparison
    assert Fraction(1, 3) <= SqrtVal(0, 1, 2)
    assert not (SqrtVal(0, 1, 2) <= Fraction(1, 3))
    # there is no float fallback: two radicals cannot be compared exactly,
    # so the comparison raises instead of returning a rounded answer
    with pytest.raises(TypeError):
        SqrtVal(0, 1, 2) <= SqrtVal(0, 1, 3)


def test_float_rejected():
    # a rounded value must never pass as exact
    with pytest.raises(TypeError):
        SqrtVal(0.5)
    with pytest.raises(TypeError):
        SqrtVal(1, 0.5, 2)
    with pytest.raises(TypeError):
        SqrtVal.of(0.1)
    with pytest.raises(TypeError):
        SqrtVal(1) <= 0.5
    with pytest.raises(TypeError):
        SqrtVal(1) - 0.5
    with pytest.raises(TypeError):
        0.5 - SqrtVal(1)
    assert SqrtVal.of(Fraction(1, 10)) == Fraction(1, 10)
