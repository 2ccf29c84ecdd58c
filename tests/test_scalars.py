from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stairdist.scalars import INF, NINF, ext, qdiv, qmul


@pytest.mark.parametrize("x", [INF, NINF])
@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_infinity_over_zero_raises(x, zero):
    with pytest.raises(ZeroDivisionError):
        x / zero


@pytest.mark.parametrize("x", [INF, NINF])
@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_infinity_times_zero_raises(x, zero):
    with pytest.raises(ArithmeticError):
        x * zero
    with pytest.raises(ArithmeticError):
        zero * x


def test_opposite_infinities_cancel():
    # bottleneck.linf_gap relies on this for coordinates infinite on both
    # sides
    assert INF - INF == 0 and NINF - NINF == 0 and INF + NINF == 0


def test_infinity_over_finite_keeps_sign():
    assert INF / Fraction(2) is INF
    assert INF / Fraction(-2) is NINF
    assert NINF / 3 is NINF


@pytest.mark.parametrize("word", ["inf", "infinity", "Inf", "INFINITY"])
def test_infinity_spellings_take_either_sign(word):
    assert ext(word) is INF
    assert ext("+" + word) is INF
    assert ext("-" + word) is NINF
    assert ext(" -%s " % word) is NINF


@pytest.mark.parametrize("text", ["--inf", "+-infinity", "-in", "-"])
def test_malformed_infinity_rejected(text):
    with pytest.raises(ValueError):
        ext(text)


@given(st.integers(-10 ** 6, 10 ** 6),
       st.integers(-50, 50).filter(lambda b: b != 0))
@settings(max_examples=500, deadline=None)
def test_qdiv_on_ints(a, b):
    q = qdiv(a, b)
    assert q == Fraction(a, b)
    assert (type(q) is int) == (a % b == 0)
    assert type(q) in (int, Fraction)


@given(st.integers(-30, 30), st.integers(1, 12), st.integers(-30, 30))
@settings(max_examples=300, deadline=None)
def test_qmul_is_exact(n, d, x):
    q = Fraction(n, d)
    assert qmul(q, x) == q * x
    assert (type(qmul(q, x)) is int) == ((n * x) % d == 0)


def test_qdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qdiv(3, 0)
