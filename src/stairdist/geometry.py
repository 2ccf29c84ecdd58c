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
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import PreconditionError, ValidationError
from .pl import PL, pl_max, pl_min, pl_sub
from .scalars import INF, NINF, ext, is_inf, qdiv, qmul

HALF = Fraction(1, 2)


class Point2(NamedTuple):
    x1: object
    x2: object


def point(x1, x2) -> Point2:
    return Point2(ext(x1), ext(x2))


def pt_le(p: Point2, q: Point2) -> bool:
    return p.x1 <= q.x1 and p.x2 <= q.x2


def intercept(p: Point2):
    return p.x2 - p.x1


def tval(p: Point2):
    return qdiv(p.x1 + p.x2, 2)


def point_at(c, t) -> Point2:
    """The point of the diagonal with intercept c at parameter t."""
    h = qdiv(c, 2)
    return Point2(t - h, t + h)


class SliceSegment(NamedTuple):
    intercept: object
    t_lo: object  # None for the empty slice
    t_hi: object

    @property
    def is_empty(self):
        return self.t_lo is None

    @property
    def length(self):
        if self.is_empty:
            return Fraction(0)
        return self.t_hi - self.t_lo


class DiagBand(NamedTuple):
    lo: object
    hi: object


def band(lo, hi) -> DiagBand:
    lo, hi = ext(lo), ext(hi)
    if lo > hi:
        raise ValidationError("band with lo > hi")
    return DiagBand(lo, hi)


def _sigma(p: Point2) -> Point2:
    """The mirror (x1, x2) -> (-x2, -x1) of the module docstring."""
    return Point2(-p.x2, -p.x1)


def _minimal(points):
    """The distinct minimal points, sorted by x1 (so by falling x2)."""
    out = []
    for p in sorted(set(points)):
        if not out or p.x2 < out[-1].x2:
            out.append(p)
    return out


def _maximal(points):
    return [_sigma(p) for p in _minimal([_sigma(p) for p in points])]


# --------------------------------------------------------------------------
# slice-function regions


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
        return PL([Fraction(0)], [first.x2 if is_inf(first.x1) else first.x1],
                  ls, rs)
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
        clo = min(v.x2 for v in mins) - max(w.x1 for w in maxs)
        chi = max(w.x2 for w in maxs) - min(v.x1 for v in mins)
        if clo > chi:
            raise ValidationError("lower staircase exceeds upper staircase")
        if any(v.x1 == INF or v.x2 == INF for v in mins):
            raise ValidationError("minimal corner with a +inf coordinate")
        if any(w.x1 == NINF or w.x2 == NINF for w in maxs):
            raise ValidationError("maximal corner with a -inf coordinate")
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
        c = ext(c)
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

    def dilate(self, k):
        """The region dilated by k > 0 about the origin of the plane:
        intercepts, knots and slice endpoints times k."""
        tlo = self.tlo if self.tlo is NINF else self.tlo.dilate(k)
        thi = self.thi if self.thi is INF else self.thi.dilate(k)
        return DiagRegion(qmul(self.clo, k), qmul(self.chi, k), tlo, thi)

    def restrict_hull(self, lo, hi) -> Optional["DiagRegion"]:
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

    def triv(self):
        """Half the supremum slice length (distance to the zero module)."""
        g = self.length_fn()
        if g is INF:
            return INF
        v, _ = g.sup()
        if v <= 0:
            return Fraction(0)
        return qdiv(v, 2)

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

    def corner_coordinates(self):
        """Finite coordinates of slice endpoints at all breakpoints."""
        coords = []
        for c in self.knots():
            for f in (self.tlo, self.thi):
                if isinstance(f, PL):
                    t = f(c)
                    h = qdiv(c, 2)
                    coords.append(t - h)
                    coords.append(t + h)
        return coords


def region_intersection(a: DiagRegion, b: DiagRegion) -> Optional[DiagRegion]:
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
# region -> antichain extraction


def _segment_slopes(f: PL):
    out = []
    for i in range(len(f.xs) - 1):
        out.append(qdiv(f.vs[i + 1] - f.vs[i], f.xs[i + 1] - f.xs[i]))
    return out


def _knot_side_slopes(f: PL, i, slopes):
    """(slope left of knot i, slope right of knot i); None at a finite end."""
    if i == 0:
        left = f.lslope
    else:
        left = slopes[i - 1]
    if i == len(f.xs) - 1:
        right = f.rslope
    else:
        right = slopes[i]
    return left, right


def _check_staircase_slopes(f: PL, slopes):
    for s in slopes:
        if s != HALF and s != -HALF:
            raise ValidationError("endpoint function slope is not +-1/2")
    for s in (f.lslope, f.rslope):
        if s is not None and s != HALF and s != -HALF:
            raise ValidationError("endpoint function slope is not +-1/2")


def _corners_from_tlo(f):
    """Minimal corners of a region whose lower slice endpoint is f.

    Along the lower boundary, slope -1/2 pieces are horizontal edges and
    slope +1/2 pieces are vertical edges; minimal corners are the knots
    where a horizontal edge (or a finite hull end) turns vertical.  A left
    tail of slope +1/2 runs down to x2 = -inf, a right tail of slope -1/2
    runs left to x1 = -inf; both contribute corners at infinity.  The NINF
    sentinel gives the one corner (-inf, -inf).
    """
    if f is NINF:
        return [Point2(NINF, NINF)]
    slopes = _segment_slopes(f)
    _check_staircase_slopes(f, slopes)
    mins = []
    if f.lslope == HALF:
        mins.append(Point2(f.vs[0] - qdiv(f.xs[0], 2), NINF))
    if f.rslope == -HALF:
        mins.append(Point2(NINF, f.vs[-1] + qdiv(f.xs[-1], 2)))
    for i in range(len(f.xs)):
        left, right = _knot_side_slopes(f, i, slopes)
        if (left is None or left == -HALF) and (right is None or right == HALF):
            mins.append(point_at(f.xs[i], f.vs[i]))
    return mins


def staircase_from_region(reg: DiagRegion) -> "StaircaseInterval":
    """Recover the antichain description of a staircase-bounded region.

    Valid only when the region's boundary is a pair of monotone staircases,
    i.e. every endpoint-function piece has slope +-1/2 (true for components
    of intersections of staircase intervals; not true after band clipping).
    """
    maxs = [_sigma(p) for p in _corners_from_tlo(-reg.thi)]
    return StaircaseInterval.from_antichains(_corners_from_tlo(reg.tlo), maxs)


# --------------------------------------------------------------------------
# the public interval type


class StaircaseInterval:
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
        j = 0
        for v in mins:
            # of the maxima with x1 >= v.x1, the first is the highest
            while j < len(maxs) and maxs[j].x1 < v.x1:
                j += 1
            if j == len(maxs) or maxs[j].x2 < v.x2:
                raise ValidationError("lower staircase exceeds upper staircase")
        self = cls(mins, maxs, _internal=True)
        reg = self.region()
        g = reg.length_fn()
        if g is not INF:
            worst, arg = g.inf()
            if worst < 0:
                raise ValidationError(
                    "disconnected region: empty diagonal slice at intercept %s" % (arg,))
        return self

    @classmethod
    def rect(cls, r: Point2, s: Point2):
        if not pt_le(r, s):
            raise ValidationError("rectangle with r <= s violated")
        return cls.from_antichains([r], [s])

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
    lower = [point(*p) for p in lower]
    upper = [point(*p) for p in upper]
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


def diag_slice(I: StaircaseInterval, c) -> SliceSegment:
    return I.region().slice_at(c)


def _edge_reach_dl(x, mins, maxs):
    """dl for a query on an edge of the extended plane (one +-inf coord)."""
    x1, x2 = x
    if is_inf(x2) and x2 > 0:  # top edge, coordinate x1 varies
        ws = [w.x1 for w in maxs if w.x2 == INF]
        if not ws:
            return INF
        lo, hi = min(v.x1 for v in mins), max(ws)
        a = x1
    elif is_inf(x1) and x1 > 0:  # right edge, coordinate x2 varies
        ws = [w.x2 for w in maxs if w.x1 == INF]
        if not ws:
            return INF
        lo, hi = min(v.x2 for v in mins), max(ws)
        a = x2
    elif is_inf(x2) and x2 < 0:  # bottom edge
        vs = [v.x1 for v in mins if v.x2 == NINF]
        if not vs:
            return INF
        lo, hi = min(vs), max(w.x1 for w in maxs)
        a = x1
    else:  # left edge
        vs = [v.x2 for v in mins if v.x1 == NINF]
        if not vs:
            return INF
        lo, hi = min(vs), max(w.x2 for w in maxs)
        a = x2
    if a < lo:
        return lo - a
    if a > hi:
        return hi - a
    return Fraction(0)


def dl_signed(x, target, side=None):
    """Signed diagonal projection distance to an interval or one boundary.

    side is None (whole region), "lower" (L), or "upper" (U).  Positive when
    the projection sits above the query along its diagonal, +inf when the
    diagonal misses the target.
    """
    x = point(*x)
    if not isinstance(target, StaircaseInterval):
        raise TypeError("target must be a StaircaseInterval")
    mins, maxs = target.mins, target.maxs
    if is_inf(x.x1) and is_inf(x.x2):
        # corner of the extended plane: the diagonal collapses to the corner
        if x.x1 > 0:
            member = Point2(INF, INF) in maxs
        else:
            member = Point2(NINF, NINF) in mins
        return Fraction(0) if member else INF
    if is_inf(x.x1) or is_inf(x.x2):
        return _edge_reach_dl(x, mins, maxs)
    reg = target.region()
    c, t = intercept(x), tval(x)
    if c < reg.clo or c > reg.chi:
        return INF
    lo = NINF if reg.tlo is NINF else reg.tlo(c)
    hi = INF if reg.thi is INF else reg.thi(c)
    if side == "lower":
        return lo - t
    if side == "upper":
        return hi - t
    if side is not None:
        raise ValueError("side must be None, 'lower' or 'upper'")
    if t < lo:
        return lo - t
    if t > hi:
        return hi - t
    return Fraction(0)


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


def intersect_components(I: StaircaseInterval, J: StaircaseInterval):
    inter = region_intersection(I.region(), J.region())
    if inter is None:
        return []
    return [staircase_from_region(c) for c in inter.components()]


def bounding_and_corner_rects(I: StaircaseInterval):
    bounding = RectangleSpec(I.bounding_r, I.bounding_s)
    top = RectangleSpec(I.mins[0], I.maxs[0])
    bottom = RectangleSpec(I.mins[-1], I.maxs[-1])
    return bounding, top, bottom


# --------------------------------------------------------------------------
# transforms


def diag_shift(I: StaircaseInterval, delta) -> StaircaseInterval:
    d = ext(delta)
    mv = lambda p: Point2(p.x1 - d if not is_inf(p.x1) else p.x1,
                          p.x2 - d if not is_inf(p.x2) else p.x2)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


def scale(I: StaircaseInterval, a) -> StaircaseInterval:
    a1, a2 = ext(a[0]), ext(a[1])
    if not (a1 > 0 and a2 > 0):
        raise ValidationError("scale factors must be positive")
    mv = lambda p: Point2(p.x1 / a1, p.x2 / a2)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


def contains(I: StaircaseInterval, J: StaircaseInterval) -> bool:
    return (all(any(pt_le(v0, v) for v0 in I.mins) for v in J.mins)
            and all(any(pt_le(w, w0) for w0 in I.maxs) for w in J.maxs))
