from fractions import Fraction

import pytest

from stairdist.scalars import INF, NINF, ext


@pytest.mark.parametrize("x", [INF, NINF])
@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_infinity_over_zero_raises(x, zero):
    with pytest.raises(ZeroDivisionError):
        x / zero


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
