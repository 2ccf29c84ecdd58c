"""Extended real scalars: exact rationals plus +inf / -inf.

Finite values are ints or fractions.Fraction, divided exactly by qdiv;
the two infinities are the singletons INF and NINF below.  Arithmetic
saturates (a + inf = inf), except that opposite infinities cancel to 0,
the convention needed where a diagonal line degenerates to a corner of
the extended plane (bottleneck.linf_gap relies on it for coordinates
infinite on both sides); an infinity times 0 raises ArithmeticError.
"""

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


class Dual:
    """A first-order infinitesimal perturbation a + b*eps of a rational.

    Ordering is lexicographic, so Dual(a, 1) behaves like "just above a" and
    Dual(a, -1) like "just below a".  Evaluating a piecewise computation at
    such a point yields the exact one-sided limit in the real part.

    Arithmetic drops eps^2 terms, by design: all that is ever read off a
    Dual is its real part (the one-sided limit) and its eps part (the
    one-sided slope, as in the tangent chase of the interleaving search).
    Dropping eps^2 commutes with +, -, * and with division by a Dual of
    nonzero real part, so both parts come out exact, as in forward-mode
    differentiation.  The one exception is a quotient of two pure
    infinitesimals (b eps / d eps, on a piece of infinitesimal length): its
    real part b/d is the right limit, but its eps part would need the
    eps^2 terms and comes out 0.  Results with zero eps part collapse back
    to the plain scalar so mixed knot sets stay consistent.  Parts are kept
    as given, int or Fraction.

    The unit of eps is free.  Every operation, that quotient included, is
    linear in the eps parts (substituting u eps for eps maps Q[eps]/(eps^2)
    into itself), and the order reads only the sign of the eps part, so a
    unit u > 0 scales every eps part by u and leaves every real part and
    every comparison as it was: Dual(a, u) is "just above a" for any u > 0.
    And because a Dual of nonzero real part is a unit of Q[eps]/(eps^2),
    x0 + d0 (x1 - x0) / (d0 - d1) equals x0 + t (x1 - x0) with
    t = d0 / (d0 - d1) whenever d0 - d1 has a nonzero real part, which is
    why pl_max places its crossings with one division there.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return "Dual(%s, %s)" % (self.a, self.b)

    @staticmethod
    def _parts(x):
        if isinstance(x, Dual):
            return x.a, x.b
        if isinstance(x, (int, Fraction)):
            return x, 0
        return None

    def __eq__(self, other):
        p = Dual._parts(other)
        return p is not None and (self.a, self.b) == p

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return (self.a, self.b) < p

    def __le__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return (self.a, self.b) <= p

    def __gt__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return (self.a, self.b) > p

    def __ge__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return (self.a, self.b) >= p

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __add__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return _mk_dual(self.a + p[0], self.b + p[1])

    __radd__ = __add__

    def __sub__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return _mk_dual(self.a - p[0], self.b - p[1])

    def __rsub__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        return _mk_dual(p[0] - self.a, p[1] - self.b)

    def __mul__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        return _mk_dual(self.a * c, self.a * d + self.b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = Dual._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        if c != 0:
            return _mk_dual(qdiv(self.a, c), qdiv(self.b * c - self.a * d, c * c))
        if d == 0:
            raise ZeroDivisionError("division by zero dual")
        if self.a != 0:
            raise ZeroDivisionError("finite part divided by an infinitesimal")
        return qdiv(self.b, d)

    def __rtruediv__(self, other):
        # only a plain scalar lands here: Dual / Dual goes to __truediv__
        if Dual._parts(other) is None:
            return NotImplemented
        return Dual(other, 0).__truediv__(self)


def _mk_dual(a, b):
    return a if b == 0 else Dual(a, b)


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


def is_inf(x):
    return isinstance(x, _Infinite)


def ext(x):
    """Coerce a user-supplied number into an extended real."""
    if isinstance(x, (_Infinite, Fraction, Dual)):
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
