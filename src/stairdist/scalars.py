"""Extended real scalars: exact rationals plus +inf / -inf.

Finite values are ints or fractions.Fraction, divided exactly by qdiv;
the two infinities are the singletons INF and NINF below.  Arithmetic
saturates (a + inf = inf), except that opposite infinities cancel to 0,
the convention needed where a diagonal line degenerates to a corner of
the extended plane (bottleneck.linf_gap relies on it for coordinates
infinite on both sides); an infinity times 0 raises ArithmeticError.
A kernel that runs on ints scales its input once by S = int_scale(k, ...),
so that qmul(x, S) is an int multiple of k, and divides its result by S.
"""

import math
from fractions import Fraction


class _Infinite:
    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Infinite) and other.sign == self.sign

    def __hash__(self):
        return hash(("extended-real", self.sign))

    def __lt__(self, other):
        if isinstance(other, _Infinite):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        if isinstance(other, _Infinite):
            return self.sign <= other.sign
        return self.sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinite):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        if isinstance(other, _Infinite):
            return self.sign >= other.sign
        return self.sign > 0

    def __neg__(self):
        return NINF if self.sign > 0 else INF

    def __abs__(self):
        return INF

    def __add__(self, other):
        if isinstance(other, _Infinite) and other.sign != self.sign:
            return Fraction(0)
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, _Infinite) else Fraction(0))

    def __rsub__(self, other):
        return -self

    def __mul__(self, other):
        if isinstance(other, _Infinite):
            return INF if self.sign == other.sign else NINF
        if other == 0:
            raise ArithmeticError("inf * 0")
        return self if other > 0 else -self

    __rmul__ = __mul__

    def __truediv__(self, other):
        # only division by finite nonzero scalars is meaningful here
        if isinstance(other, _Infinite):
            raise ZeroDivisionError("inf / inf")
        if other == 0:
            raise ZeroDivisionError("inf / 0")
        return self if other > 0 else -self

    def __rtruediv__(self, other):
        return Fraction(0)

    def __float__(self):
        return float("inf") if self.sign > 0 else float("-inf")


INF = _Infinite(1)
NINF = _Infinite(-1)


def qdiv(a, b):
    """Exact a / b.  Two ints give an int when b divides a and
    Fraction(a, b) otherwise (a bare int / int would give a float); any
    other pair of scalars divides as its types do."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def qmul(q, x):
    """Exact q * x for a rational q; an int when the product is one."""
    if type(q) is Fraction:
        return qdiv(q.numerator * x, q.denominator)
    return q * x


def int_scale(k, values):
    """k times the lcm of the denominators of the finite values, so that
    qmul(x, S) is an int multiple of k for each of them."""
    return k * math.lcm(*(x.denominator for x in values if not is_inf(x)))


def is_inf(x):
    return isinstance(x, _Infinite)


def ext(x):
    """Coerce a user-supplied number into an extended real."""
    if isinstance(x, (_Infinite, Fraction)):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x == float("inf"):
            return INF
        if x == float("-inf"):
            return NINF
        if x != x:
            raise ValueError("nan is not an extended real")
        try:
            return Fraction(str(x))
        except ValueError:
            return Fraction(x)
    if isinstance(x, str):
        s = x.strip().lower()
        body = s[1:] if s[:1] in ("+", "-") else s
        if body in ("inf", "infinity"):
            return NINF if s[0] == "-" else INF
        return Fraction(x)
    raise TypeError("cannot interpret %r as an extended real" % (x,))


def fmt(x):
    """Exact string form: 'p/q', an integer string, or 'inf'/'-inf'."""
    if is_inf(x):
        return repr(x)
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)
