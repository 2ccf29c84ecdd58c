"""Exact piecewise linear functions of one rational variable.

A PL is defined on an interval of the extended line.  Interior knots are
rational; a finite domain end always coincides with the first/last knot,
while an infinite end extends the boundary piece with a constant slope.
Knots and values are ints or Fractions, and every division is qdiv, so all
operations are exact and int data stays int where it can.
"""

import bisect
from fractions import Fraction

from .scalars import INF, NINF, is_inf, qdiv, qmul


class PL:
    __slots__ = ("xs", "vs", "lslope", "rslope")

    def __init__(self, xs, vs, lslope=None, rslope=None):
        if not xs:
            raise ValueError("a PL needs at least one knot")
        if len(xs) != len(vs):
            raise ValueError("knot/value length mismatch")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError("knots must be strictly increasing")
        self.xs = tuple(xs)
        self.vs = tuple(vs)
        self.lslope = lslope
        self.rslope = rslope

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, v, lo=NINF, hi=INF):
        if is_inf(lo) and is_inf(hi):
            return cls([0], [v], Fraction(0), Fraction(0))
        if is_inf(lo):
            return cls([hi], [v], Fraction(0), None)
        if is_inf(hi):
            return cls([lo], [v], None, Fraction(0))
        if lo == hi:
            return cls([lo], [v])
        return cls([lo, hi], [v, v])

    # -- basic queries -----------------------------------------------------

    @property
    def dom_lo(self):
        return NINF if self.lslope is not None else self.xs[0]

    @property
    def dom_hi(self):
        return INF if self.rslope is not None else self.xs[-1]

    def __call__(self, x):
        xs = self.xs
        i = bisect.bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return self.vs[i]
        if i == 0 and self.lslope is None:
            raise ValueError("argument below domain")
        if i == len(xs) and self.rslope is None:
            raise ValueError("argument above domain")
        return self._between(i, x)

    def _between(self, i, x):
        """Value strictly between knots i - 1 and i (0, len(xs): the tails)."""
        xs, vs = self.xs, self.vs
        if i == 0:
            return vs[0] + qmul(self.lslope, x - xs[0])
        if i == len(xs):
            return vs[-1] + qmul(self.rslope, x - xs[-1])
        x0, x1 = xs[i - 1], xs[i]
        v0, v1 = vs[i - 1], vs[i]
        return v0 + qdiv((v1 - v0) * (x - x0), x1 - x0)

    def __repr__(self):
        return "PL(%r, %r, lslope=%r, rslope=%r)" % (
            list(self.xs), list(self.vs), self.lslope, self.rslope)

    def canon(self):
        """Remove interior knots that sit on a straight piece."""
        xs, vs = list(self.xs), list(self.vs)
        out_x, out_v = [xs[0]], [vs[0]]
        for i in range(1, len(xs) - 1):
            x0, v0 = out_x[-1], out_v[-1]
            # collinearity via cross-multiplication, with no division
            if (vs[i] - v0) * (xs[i + 1] - xs[i]) != (vs[i + 1] - vs[i]) * (xs[i] - x0):
                out_x.append(xs[i])
                out_v.append(vs[i])
        if len(xs) > 1:
            out_x.append(xs[-1])
            out_v.append(vs[-1])
        # an infinite tail collinear with the boundary piece absorbs the knot
        if self.lslope is not None and len(out_x) > 1:
            if out_v[1] - out_v[0] == self.lslope * (out_x[1] - out_x[0]):
                out_x.pop(0)
                out_v.pop(0)
        if self.rslope is not None and len(out_x) > 1:
            if out_v[-1] - out_v[-2] == self.rslope * (out_x[-1] - out_x[-2]):
                out_x.pop()
                out_v.pop()
        return PL(out_x, out_v, self.lslope, self.rslope)

    def __eq__(self, other):
        if not isinstance(other, PL):
            return NotImplemented
        a, b = self.canon(), other.canon()
        return (a.xs, a.vs, a.lslope, a.rslope) == (b.xs, b.vs, b.lslope, b.rslope)

    # -- pointwise arithmetic ---------------------------------------------

    def shift_y(self, d):
        return PL(self.xs, [v + d for v in self.vs], self.lslope, self.rslope)

    def scale_y(self, k):
        sl = None if self.lslope is None else self.lslope * k
        sr = None if self.rslope is None else self.rslope * k
        return PL(self.xs, [qmul(k, v) for v in self.vs], sl, sr)

    def __neg__(self):
        sl = None if self.lslope is None else -self.lslope
        sr = None if self.rslope is None else -self.rslope
        return PL(self.xs, [-v for v in self.vs], sl, sr)

    def restrict(self, lo, hi):
        """Restriction to [lo, hi] intersect domain; None if empty.  A PL
        is immutable, so one whose domain [lo, hi] covers is returned as
        it is."""
        if lo <= self.dom_lo and self.dom_hi <= hi:
            return self
        lo = max(lo, self.dom_lo)
        hi = min(hi, self.dom_hi)
        if lo > hi:
            return None
        # interior knots keep their stored values; only the ends are evaluated
        i = bisect.bisect_right(self.xs, lo)
        j = bisect.bisect_left(self.xs, hi)
        xs, vs = list(self.xs[i:j]), list(self.vs[i:j])
        if not is_inf(lo):
            xs.insert(0, lo)
            vs.insert(0, self(lo))
        if not is_inf(hi) and (not xs or hi > xs[-1]):
            xs.append(hi)
            vs.append(self(hi))
        if not xs:  # fully infinite range: keep all knots
            xs, vs = list(self.xs), list(self.vs)
        lsl = self.lslope if is_inf(lo) else None
        rsl = self.rslope if is_inf(hi) else None
        return PL(xs, vs, lsl, rsl)

    # -- suprema and sign --------------------------------------------------

    def sup(self):
        """(supremum, witness knot or None when attained only at infinity)."""
        best = max(self.vs)
        arg = self.xs[self.vs.index(best)]
        if self.lslope is not None and self.lslope < 0:
            return INF, None
        if self.rslope is not None and self.rslope > 0:
            return INF, None
        return best, arg

    def ge_zero_regions(self):
        """Maximal closed subintervals of the domain where self >= 0."""
        segs = []
        xs, vs = self.xs, self.vs
        if self.lslope is not None:
            l, x0, v0 = self.lslope, xs[0], vs[0]
            if l == 0:
                if v0 >= 0:
                    segs.append((NINF, x0))
            else:
                thr = x0 - qdiv(v0 * l.denominator, l.numerator)
                if l > 0:
                    if thr <= x0:
                        segs.append((thr, x0))
                else:
                    if v0 >= 0:
                        segs.append((NINF, x0))
                    else:
                        segs.append((NINF, thr))
        for i in range(len(xs)):
            if vs[i] >= 0:
                segs.append((xs[i], xs[i]))
            if i + 1 < len(xs):
                a, b = xs[i], xs[i + 1]
                va, vb = vs[i], vs[i + 1]
                if va >= 0 and vb >= 0:
                    segs.append((a, b))
                elif va > 0 > vb or va < 0 < vb:
                    z = a + qdiv((b - a) * va, va - vb)
                    segs.append((a, z) if va > 0 else (z, b))
        if self.rslope is not None:
            r, x1, v1 = self.rslope, xs[-1], vs[-1]
            if r == 0:
                if v1 >= 0:
                    segs.append((x1, INF))
            else:
                thr = x1 - qdiv(v1 * r.denominator, r.numerator)
                if r < 0:
                    if thr >= x1:
                        segs.append((x1, thr))
                else:
                    if v1 >= 0:
                        segs.append((x1, INF))
                    else:
                        segs.append((thr, INF))
        segs = [(a, b) for a, b in segs if a <= b]
        segs.sort(key=lambda seg: seg[0])
        merged = []
        for a, b in segs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return [(a, b) for a, b in merged]


# -- binary combinations ---------------------------------------------------

def align(f, g):
    """Restrict f and g to their common domain on a merged knot set.

    Returns (xs, fv, gv, lf, lg, rf, rg) or None if the domains are disjoint.
    """
    lo = max(f.dom_lo, g.dom_lo)
    hi = min(f.dom_hi, g.dom_hi)
    if lo > hi:
        return None
    f, g = f.restrict(lo, hi), g.restrict(lo, hi)
    fx, fv, gx, gv = f.xs, f.vs, g.xs, g.vs
    nf, ng = len(fx), len(gx)
    xs, fo, go = [], [], []
    i = j = 0
    # two-pointer merge; each side is evaluated on the piece the merge is in
    while i < nf or j < ng:
        if j == ng or (i < nf and fx[i] < gx[j]):
            x = fx[i]
            fo.append(fv[i])
            go.append(g._between(j, x))
            i += 1
        elif i == nf or gx[j] < fx[i]:
            x = gx[j]
            fo.append(f._between(i, x))
            go.append(gv[j])
            j += 1
        else:
            x = fx[i]
            fo.append(fv[i])
            go.append(gv[j])
            i += 1
            j += 1
        xs.append(x)
    return xs, fo, go, f.lslope, g.lslope, f.rslope, g.rslope


def pl_add(f, g):
    al = align(f, g)
    if al is None:
        return None
    xs, fv, gv, lf, lg, rf, rg = al
    ls = None if lf is None else lf + lg
    rs = None if rf is None else rf + rg
    return PL(xs, [a + b for a, b in zip(fv, gv)], ls, rs)


def pl_sub(f, g):
    return pl_add(f, -g)


def _crossing(x0, x1, v0, v1, d0, d1):
    """Where the gap d, going from d0 at x0 to d1 at x1, crosses zero, and
    the value there of the piece going from v0 to v1.

    One division each, x0 + d0 (x1 - x0) / (d0 - d1), rather than first
    forming the ratio t = d0 / (d0 - d1), which is a Fraction on ints far
    more often than the crossing itself.
    """
    den = d0 - d1
    return (_whole(x0 + qdiv(d0 * (x1 - x0), den)),
            _whole(v0 + qdiv(d0 * (v1 - v0), den)))


def _whole(x):
    """x, as an int where it is a whole Fraction: a value read off a tail
    can be a Fraction while the crossing it gives is whole."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def pl_max(f, g):
    al = align(f, g)
    if al is None:
        return None
    xs, fv, gv, lf, lg, rf, rg = al
    out_x, out_v = [], []
    for i in range(len(xs)):
        if i > 0:
            d0 = fv[i - 1] - gv[i - 1]
            d1 = fv[i] - gv[i]
            if (d0 > 0 > d1) or (d0 < 0 < d1):
                xc, vc = _crossing(xs[i - 1], xs[i], fv[i - 1], fv[i], d0, d1)
                if out_x[-1] < xc < xs[i]:
                    out_x.append(xc)
                    out_v.append(vc)
        out_x.append(xs[i])
        out_v.append(max(fv[i], gv[i]))
    ls = rs = None
    if lf is not None:
        d0 = fv[0] - gv[0]
        ds = lf - lg
        if d0 != 0 and ds != 0 and (d0 > 0) == (ds > 0):
            xc = _whole(xs[0] - qdiv(d0 * ds.denominator, ds.numerator))
            vc = _whole(fv[0] + qmul(lf, xc - xs[0]))
            out_x.insert(0, xc)
            out_v.insert(0, vc)
        if ds < 0:
            ls = lf
        elif ds > 0:
            ls = lg
        else:
            ls = lf if d0 >= 0 else lg
    if rf is not None:
        d1 = fv[-1] - gv[-1]
        ds = rf - rg
        if d1 != 0 and ds != 0 and (d1 < 0) == (ds > 0):
            xc = _whole(xs[-1] - qdiv(d1 * ds.denominator, ds.numerator))
            vc = _whole(fv[-1] + qmul(rf, xc - xs[-1]))
            out_x.append(xc)
            out_v.append(vc)
        if ds > 0:
            rs = rf
        elif ds < 0:
            rs = rg
        else:
            rs = rf if d1 >= 0 else rg
    return PL(out_x, out_v, ls, rs).canon()


def pl_min(f, g):
    m = pl_max(-f, -g)
    return None if m is None else -m


def pl_abs(f):
    return pl_max(f, -f)
