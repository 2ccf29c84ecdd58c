"""Staircase regions in the extended plane, sliced along diagonals.

A region is encoded by the two endpoint functions of its diagonal slices:
for intercept c, the slice of the region along the line {x2 - x1 = c} is the
segment [tlo(c), thi(c)] in the parameterization L(t) = (t - c/2, t + c/2).
Both endpoint functions are piecewise linear in c with slopes +-1/2 and
breakpoints exactly at the intercepts of the region's corners, so all the
set operations and distances used elsewhere reduce to exact one-dimensional
computations.

Upper boundaries mirror lower ones.  The reflection sigma(x1, x2) =
(-x2, -x1) keeps the intercept x2 - x1, negates t, and turns down-sets into
up-sets, so the upper endpoint of a region is the negated lower endpoint of
its mirror image, and maximal corners are the mirrors of minimal ones.

A StaircaseInterval is accepted on its corners alone: the intercept range
[clo, chi] and the intercepts above each minimum decide it in closed form.
Its DiagRegion is built and cached the first time region() is called; the
int kernels build it on scaled(S), whose corners are ints.  What the
corners give directly is not read off the region: the distance to zero
(interleaving.triv_distance) and the candidate shifts of the interleaving
search come from the corner coordinates themselves.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError, ValidationError
from .pl import PL, pl_max, pl_min, pl_sub
from .scalars import INF, NINF, ext, is_inf, qdiv, qmul

HALF = Fraction(1, 2)


Point2 = namedtuple("Point2", "x1 x2")


def point(x1, x2) -> Point2:
    return Point2(ext(x1), ext(x2))


def pt_le(p: Point2, q: Point2) -> bool:
    return p.x1 <= q.x1 and p.x2 <= q.x2


def intercept(p: Point2):
    return p.x2 - p.x1


def tval(p: Point2):
    return qdiv(p.x1 + p.x2, 2)


class SliceSegment(namedtuple("SliceSegment", "intercept t_lo t_hi")):
    """The slice [t_lo, t_hi] at an intercept; t_lo is None when empty."""

    __slots__ = ()

    @property
    def is_empty(self):
        return self.t_lo is None


DiagBand = namedtuple("DiagBand", "lo hi")


def band(lo, hi) -> DiagBand:
    lo, hi = ext(lo), ext(hi)
    if lo > hi:
        raise ValidationError("band with lo > hi")
    return DiagBand(lo, hi)


def _sigma(p: Point2) -> Point2:
    """The mirror (x1, x2) -> (-x2, -x1) of the module docstring."""
    return Point2(-p.x2, -p.x1)


def _is_chain(points):
    """x1 strictly rising and x2 strictly falling: an antichain sorted by
    x1, and its own set of minimal and of maximal points."""
    return all(p.x1 < q.x1 and p.x2 > q.x2 for p, q in zip(points, points[1:]))


def _minimal(points):
    """The distinct minimal points, sorted by x1 (so by falling x2)."""
    points = list(points)
    if _is_chain(points):
        return points
    out = []
    for p in sorted(set(points)):
        if not out or p.x2 < out[-1].x2:
            out.append(p)
    return out


def _maximal(points):
    points = list(points)
    if _is_chain(points):  # _sigma keeps a chain and its order
        return points
    return [_sigma(p) for p in _minimal([_sigma(p) for p in points])]


# --------------------------------------------------------------------------
# slice-function regions


def _hull(mins, maxs):
    """(clo, chi): the intercept range between two corner sets, from the
    lowest minimum against the rightmost maximum up to the highest maximum
    against the leftmost minimum.  Raises ValidationError when it is empty
    or a corner lies on the wrong infinity."""
    clo = min(v.x2 for v in mins) - max(w.x1 for w in maxs)
    chi = max(w.x2 for w in maxs) - min(v.x1 for v in mins)
    if clo > chi:
        raise ValidationError("lower staircase exceeds upper staircase")
    if any(v.x1 is INF or v.x2 is INF for v in mins):
        raise ValidationError("minimal corner with a +inf coordinate")
    if any(w.x1 is NINF or w.x2 is NINF for w in maxs):
        raise ValidationError("maximal corner with a -inf coordinate")
    return clo, chi


def _lower_walk(mins):
    """Lower slice endpoint of the up-set of mins, over all intercepts.

    mins is an antichain sorted by x1, hence by falling intercept, with no
    +inf coordinate.  In rising intercept, the endpoint has a knot at each
    finite minimum (slope -1/2 turning to +1/2) and at the join of each
    neighbouring pair (turning back); the left tail has slope -1/2 and the
    right tail +1/2.  A minimum at x2 = -inf (x1 = -inf) has no knot and
    bends the left (right) tail.  The NINF sentinel stands for (-inf, -inf).
    """
    first, last = mins[0], mins[-1]
    if is_inf(first.x1) and is_inf(first.x2):
        return NINF
    xs, vs = [], []
    prev = None
    for v in reversed(mins):
        if prev is not None:
            xs.append(v.x2 - prev.x1)
            vs.append(qdiv(prev.x1 + v.x2, 2))
        if not (is_inf(v.x1) or is_inf(v.x2)):
            xs.append(v.x2 - v.x1)
            vs.append(qdiv(v.x1 + v.x2, 2))
        prev = v
    ls = HALF if is_inf(last.x2) else -HALF
    rs = -HALF if is_inf(first.x1) else HALF
    if not xs:  # a lone minimum with one infinite coordinate: a line
        return PL([0], [first.x2 if is_inf(first.x1) else first.x1], ls, rs)
    return PL(xs, vs, ls, rs)


class DiagRegion:
    """A (possibly empty) order-convex region given by slice endpoints."""

    __slots__ = ("clo", "chi", "tlo", "thi")

    def __init__(self, clo, chi, tlo, thi):
        self.clo = clo
        self.chi = chi
        self.tlo = tlo  # PL, or the NINF sentinel
        self.thi = thi  # PL, or the INF sentinel

    @classmethod
    def from_antichains(cls, mins, maxs):
        """The region between two antichains sorted by x1."""
        clo, chi = _hull(mins, maxs)
        tlo = _lower_walk(mins)
        thi = -_lower_walk([_sigma(w) for w in maxs])
        if tlo is not NINF:
            tlo = tlo.restrict(clo, chi)
        if thi is not INF:
            thi = thi.restrict(clo, chi)
        return cls(clo, chi, tlo, thi)

    def __repr__(self):
        return "DiagRegion([%r, %r])" % (self.clo, self.chi)

    def slice_at(self, c) -> SliceSegment:
        """The slice at the intercept c, an extended real taken as it is,
        so that an int intercept of an int region gives int ends."""
        if is_inf(c) or c < self.clo or c > self.chi:
            return SliceSegment(c, None, None)
        lo = NINF if self.tlo is NINF else self.tlo(c)
        hi = INF if self.thi is INF else self.thi(c)
        if lo > hi:
            return SliceSegment(c, None, None)
        return SliceSegment(c, lo, hi)

    def length_fn(self):
        """thi - tlo over the hull; INF sentinel when slices are unbounded."""
        if self.tlo is NINF or self.thi is INF:
            return INF
        return pl_sub(self.thi, self.tlo)

    def shift(self, delta):
        """Slices move down by delta (the diagonal down-shift of modules)."""
        tlo = self.tlo if self.tlo is NINF else self.tlo.shift_y(-delta)
        thi = self.thi if self.thi is INF else self.thi.shift_y(-delta)
        return DiagRegion(self.clo, self.chi, tlo, thi)

    def restrict_hull(self, lo, hi):
        lo = max(lo, self.clo)
        hi = min(hi, self.chi)
        if lo > hi:
            return None
        tlo = self.tlo if self.tlo is NINF else self.tlo.restrict(lo, hi)
        thi = self.thi if self.thi is INF else self.thi.restrict(lo, hi)
        return DiagRegion(lo, hi, tlo, thi)

    def components(self):
        """Maximal sub-regions with nonempty slices, by intercept range."""
        g = self.length_fn()
        if g is INF:
            return [self]
        out = []
        for a, b in g.ge_zero_regions():
            out.append(self.restrict_hull(a, b))
        return out

    def contains(self, other) -> bool:
        """Does every nonempty slice of `other` sit inside this region?"""
        for comp in other.components():
            if comp.clo < self.clo or comp.chi > self.chi:
                return False
            # lower endpoints: need self.tlo <= comp.tlo on the component
            if self.tlo is not NINF:
                if comp.tlo is NINF:
                    return False
                d = pl_sub(self.tlo.restrict(comp.clo, comp.chi),
                           comp.tlo.restrict(comp.clo, comp.chi))
                if d.sup()[0] > 0:
                    return False
            if self.thi is not INF:
                if comp.thi is INF:
                    return False
                d = pl_sub(comp.thi.restrict(comp.clo, comp.chi),
                           self.thi.restrict(comp.clo, comp.chi))
                if d.sup()[0] > 0:
                    return False
        return True

    def down_extension(self) -> "DiagRegion":
        """Slice description of the downward closure of this region."""
        if self.thi is INF:
            return DiagRegion(NINF, INF, NINF, INF)
        thi = self.thi
        ls = thi.lslope if thi.lslope is not None else HALF
        rs = thi.rslope if thi.rslope is not None else -HALF
        return DiagRegion(NINF, INF, NINF, PL(thi.xs, thi.vs, ls, rs))

    def up_extension(self) -> "DiagRegion":
        if self.tlo is NINF:
            return DiagRegion(NINF, INF, NINF, INF)
        tlo = self.tlo
        ls = tlo.lslope if tlo.lslope is not None else -HALF
        rs = tlo.rslope if tlo.rslope is not None else HALF
        return DiagRegion(NINF, INF, PL(tlo.xs, tlo.vs, ls, rs), INF)

    def knots(self):
        ks = set()
        for f in (self.tlo, self.thi):
            if isinstance(f, PL):
                ks.update(f.xs)
        for c in (self.clo, self.chi):
            if not is_inf(c):
                ks.add(c)
        return sorted(ks)


def region_intersection(a: DiagRegion, b: DiagRegion):
    lo = max(a.clo, b.clo)
    hi = min(a.chi, b.chi)
    if lo > hi:
        return None
    a = a.restrict_hull(lo, hi)
    b = b.restrict_hull(lo, hi)
    if a.tlo is NINF:
        tlo = b.tlo
    elif b.tlo is NINF:
        tlo = a.tlo
    else:
        tlo = pl_max(a.tlo, b.tlo)
    if a.thi is INF:
        thi = b.thi
    elif b.thi is INF:
        thi = a.thi
    else:
        thi = pl_min(a.thi, b.thi)
    return DiagRegion(lo, hi, tlo, thi)


# --------------------------------------------------------------------------
# the public interval type


def _slice_gap(spans, clo, chi):
    """An intercept in [clo, chi] outside every span, or None.  The spans
    are closed intervals with falling ends, so a gap lies above the first,
    between two neighbours or below the last."""
    top = chi
    for lo, hi in spans:
        if hi < top:
            return _inside(hi, top)
        top = lo
    return _inside(clo, top) if clo < top else None


def _inside(a, b):
    """An intercept strictly between a < b, of which one may be infinite."""
    if is_inf(a):
        return b - 1
    if is_inf(b):
        return a + 1
    return qdiv(a + b, 2)


def _spans(mins, maxs):
    """The intercepts of the region above each minimum, one closed interval
    per minimum, with falling ends; ValidationError when a minimum has no
    maximum above it.

    The maxima above a minimum v are maxs[j:k]: of those with x1 >= v.x1
    the first is the highest, and x2 >= v.x2 holds up to k.  up(v) meets
    down(maxs) in a set star-shaped about v, so its intercepts are one
    interval, from v.x2 - maxs[k - 1].x1 up to maxs[j].x2 - v.x1.  j and k
    never fall as v moves right, so both ends fall, and the region's
    nonempty slices are the union of these intervals."""
    spans = []
    j = k = 0
    for v in mins:
        while j < len(maxs) and maxs[j].x1 < v.x1:
            j += 1
        if j == len(maxs) or maxs[j].x2 < v.x2:
            raise ValidationError("lower staircase exceeds upper staircase")
        while k < len(maxs) and maxs[k].x2 >= v.x2:
            k += 1
        spans.append((v.x2 - maxs[k - 1].x1, maxs[j].x2 - v.x1))
    return spans


class StaircaseInterval:
    """An interval module supported on the region between an antichain of
    minimal corners and one of maximal corners, both sorted by x1.

    Construction reads everything it checks off the corners: the intercept
    range [clo, chi], the span above each minimum and the gaps between
    spans.  The diagonal region is built and cached the first time
    region() reads it: a distance or an approximation."""

    __slots__ = ("mins", "maxs", "_region")

    def __init__(self, mins, maxs, _internal=False):
        if not _internal:
            raise TypeError("use validate_interval / from_antichains / rect")
        self.mins = tuple(mins)
        self.maxs = tuple(maxs)
        self._region = None

    @classmethod
    def from_antichains(cls, mins, maxs):
        mins = _minimal(mins)
        maxs = _maximal(maxs)
        if not mins or not maxs:
            raise ValidationError("empty corner set")
        spans = _spans(mins, maxs)
        # A minimum at (-inf, -inf) or a maximum at (inf, inf) makes every
        # slice unbounded; it gives every minimum the span (-inf, inf), so
        # the gap test needs no exception for it.
        gap = _slice_gap(spans, *_hull(mins, maxs))
        if gap is not None:
            raise ValidationError(
                "disconnected region: empty diagonal slice at intercept %s" % (gap,))
        return cls(mins, maxs, _internal=True)

    @classmethod
    def rect(cls, r: Point2, s: Point2):
        if not pt_le(r, s):
            raise ValidationError("rectangle with r <= s violated")
        return cls.from_antichains([r], [s])

    def scaled(self, S, origin=Point2(0, 0)):
        """The interval moved by -origin, a finite point, with every corner
        then times the int S > 0, on int coordinates: S must be a multiple
        of the denominator of every finite coordinate, as scalars.int_scale
        makes it.  A translation and a positive scaling keep the order of
        the plane, strict chains and every intercept inequality, so they
        keep every condition from_antichains checks, and the result is not
        checked again."""
        o1, o2 = origin
        mv = lambda p: Point2(qmul(p.x1 - o1, S), qmul(p.x2 - o2, S))
        return StaircaseInterval(map(mv, self.mins), map(mv, self.maxs),
                                 _internal=True)

    def region(self) -> DiagRegion:
        if self._region is None:
            self._region = DiagRegion.from_antichains(self.mins, self.maxs)
        return self._region

    def is_rectangle(self):
        return len(self.mins) == 1 and len(self.maxs) == 1

    @property
    def bounding_r(self):
        return Point2(self.mins[0].x1, self.mins[-1].x2)

    @property
    def bounding_s(self):
        return Point2(self.maxs[-1].x1, self.maxs[0].x2)

    def __eq__(self, other):
        if not isinstance(other, StaircaseInterval):
            return NotImplemented
        return self.mins == other.mins and self.maxs == other.maxs

    def __hash__(self):
        return hash((self.mins, self.maxs))

    def __repr__(self):
        return "StaircaseInterval(mins=%r, maxs=%r)" % (list(self.mins), list(self.maxs))


def validate_interval(lower, upper) -> StaircaseInterval:
    """Build an interval from its two corner chains (top-left to bottom-right)."""
    return chains_interval([point(*p) for p in lower],
                           [point(*p) for p in upper])


def chains_interval(lower, upper) -> StaircaseInterval:
    """validate_interval on chains of Point2s already holding extended
    reals, as io's parser makes them: no coordinate is coerced again."""
    if not lower or not upper:
        raise ValidationError("empty vertex chain")
    for name, chain in (("lower", lower), ("upper", upper)):
        for a, b in zip(chain, chain[1:]):
            if not (a.x1 <= b.x1 and a.x2 >= b.x2):
                raise ValidationError("non-monotone %s staircase at %r -> %r" % (name, a, b))
    return StaircaseInterval.from_antichains(lower, upper)


# --------------------------------------------------------------------------
# rectangles


class RectangleSpec:
    __slots__ = ("r", "s")

    def __init__(self, r=None, s=None):
        if (r is None) != (s is None):
            raise ValidationError("rectangle needs both corners or neither")
        if r is not None:
            r = point(*r)
            s = point(*s)
            if not pt_le(r, s):
                raise ValidationError("rectangle with r <= s violated")
        self.r = r
        self.s = s

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self):
        return self.r is None

    @property
    def p(self):
        return Point2(self.r.x1, self.s.x2)

    @property
    def q(self):
        return Point2(self.s.x1, self.r.x2)

    @property
    def width(self):
        return self.s.x1 - self.r.x1

    @property
    def height(self):
        return self.s.x2 - self.r.x2

    def area(self):
        if self.is_zero:
            return Fraction(0)
        return self.width * self.height

    def as_interval(self) -> StaircaseInterval:
        if self.is_zero:
            raise PreconditionError("the zero module has no interval")
        return StaircaseInterval.rect(self.r, self.s)

    def __eq__(self, other):
        if not isinstance(other, RectangleSpec):
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self):
        return hash((self.r, self.s))

    def __repr__(self):
        if self.is_zero:
            return "RectangleSpec.zero()"
        return "RectangleSpec(%r, %r)" % (tuple(self.r), tuple(self.s))


# --------------------------------------------------------------------------
# geometric queries


def hausdorff(I: StaircaseInterval, J: StaircaseInterval):
    """Exact l-infinity Hausdorff distance between two staircase regions;
    the maximal corners are compared as mirrored minimal ones."""
    def mins_term(a_mins, b_mins):
        worst = Fraction(0)
        for v in a_mins:
            best = INF
            for u in b_mins:
                best = min(best, max(u.x1 - v.x1, u.x2 - v.x2))
            worst = max(worst, best)
        return worst

    sI = [_sigma(w) for w in I.maxs]
    sJ = [_sigma(w) for w in J.maxs]
    return max(mins_term(I.mins, J.mins), mins_term(J.mins, I.mins),
               mins_term(sI, sJ), mins_term(sJ, sI))
