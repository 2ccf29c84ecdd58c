import random
from fractions import Fraction
from math import lcm

import pytest

from oracles import (FractionCellGeometry, closure_oracle,
                     diagonalize_oracle, push_band_oracle)
from stairdist.bottleneck import int_point_bottleneck
from stairdist.errors import ValidationError
from stairdist.geometry import (Point2, StaircaseInterval, _sigma, point,
                                region_intersection)
from stairdist.gmd import (_intercept_range, _scaled_covering, _scaled_ints,
                           anchors, validate_presentation)
from stairdist.scalars import NINF, ext, is_inf, qdiv

HALF = Fraction(1, 2)


def _coord(rng, lo, hi):
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def random_staircase(rng, size=6, lo=0, hi=10, band_width=None):
    """`stairdist.generate.random_staircase` on the half-integer grid
    [lo, hi]^2, the same draws at the defaults.  With band_width set, the
    support is placed inside the diagonal band of intercepts
    [0, band_width] (shifted staircases stay in band)."""
    for _ in range(2000):
        n = rng.randint(1, max(1, size // 2))
        m = rng.randint(1, max(1, size // 2))
        mins = [point(_coord(rng, lo, hi), _coord(rng, lo, hi))
                for _ in range(n)]
        maxs = [point(_coord(rng, lo, hi), _coord(rng, lo, hi))
                for _ in range(m)]
        if band_width is not None:
            w = Fraction(band_width)
            clamp = lambda p: point(p.x1, min(max(p.x2, p.x1), p.x1 + w))
            mins = [clamp(p) for p in mins]
            maxs = [clamp(p) for p in maxs]
        try:
            return StaircaseInterval.from_antichains(mins, maxs)
        except ValidationError:
            continue
    raise RuntimeError("random staircase generation did not converge")


def random_rectangles(rng, count=3, lo=0, hi=10):
    """`stairdist.generate.random_rectangles` with corners on the
    half-integer grid [lo, hi - 1]^2, the same draws at the defaults."""
    out = []
    for _ in range(count):
        a, b = _coord(rng, lo, hi - 1), _coord(rng, lo, hi - 1)
        w = Fraction(rng.randint(1, 2 * (hi - lo)), 2)
        h = Fraction(rng.randint(1, 2 * (hi - lo)), 2)
        out.append(StaircaseInterval.rect(point(a, b), point(a + w, b + h)))
    return out


def random_presentation(rng, size=4, lo=0, hi=8, total_order=False):
    """`stairdist.generate.random_presentation` with grades on the
    half-integer grid [lo, hi]^2, the same draws at the defaults.
    total_order puts every grade on one monotone chain, relations after
    generators."""
    ng = max(1, size)
    if total_order:
        nr = rng.randint(0, ng)
        x, y = _coord(rng, lo, hi // 2), _coord(rng, lo, hi // 2)
        chain = []
        for _ in range(ng + nr):
            chain.append((x, y))
            x += Fraction(rng.randint(0, 3), 2)
            y += Fraction(rng.randint(0, 3), 2)
        rows = chain[:ng]
        cols, nz = [], set()
        for j in range(nr):
            sub = [i for i in range(ng) if rng.random() < 0.5]
            if not sub:
                sub = [rng.randrange(ng)]
            cols.append(chain[ng + j])
            nz.update((i, j) for i in sub)
        return validate_presentation(rows, cols, nz)
    rows = [(_coord(rng, lo, hi), _coord(rng, lo, hi)) for _ in range(ng)]
    nr = rng.randint(0, ng)
    cols, nz = [], set()
    for j in range(nr):
        sub = [i for i in range(ng) if rng.random() < 0.5]
        if not sub:
            sub = [rng.randrange(ng)]
        cg = (max(rows[i][0] for i in sub) + Fraction(rng.randint(0, 4), 2),
              max(rows[i][1] for i in sub) + Fraction(rng.randint(0, 4), 2))
        cols.append(cg)
        nz.update((i, j) for i in sub)
    return validate_presentation(rows, cols, nz)


def banded_staircase(rng, nmins, nmaxs, thin):
    """A bounded staircase with nmins minimal and nmaxs maximal corners on
    two chains of half-integer steps, the maxima moved up-right past the
    minima by 1/2 to 1 (thin) or 2 to 4 (wide): the shape of the
    rectapprox benchmark's modules."""
    def half(lo, hi):
        return Fraction(rng.randint(int(2 * lo), int(2 * hi)), 2)

    def chain(k, x, y):
        steps = [(half(1, 2), half(1, 2)) for _ in range(k)]
        y += sum(dy for _, dy in steps)
        out = []
        for dx, dy in steps:
            out.append((x, y))
            x, y = x + dx, y - dy
        return out

    while True:
        mins = chain(nmins, 0, 0)
        maxs = chain(nmaxs, half(0, 2), half(0, 2))
        gap = max(max(v[0] for v in mins) - max(w[0] for w in maxs),
                  max(v[1] for v in mins) - max(w[1] for w in maxs))
        off = max(gap, 0) + (half(0.5, 1) if thin else half(2, 4))
        try:
            return StaircaseInterval.from_antichains(
                [point(*p) for p in mins],
                [point(x + off, y + off) for x, y in maxs])
        except ValidationError:
            continue


def square(a, b):
    return StaircaseInterval.rect(point(a, a), point(b, b))


def rect(r1, r2, s1, s2):
    return StaircaseInterval.rect(point(r1, r2), point(s1, s2))


def diag_shift(I, delta):
    """I moved down the diagonal by delta (the module I(delta))."""
    d = ext(delta)
    mv = lambda p: Point2(p.x1 - d if not is_inf(p.x1) else p.x1,
                          p.x2 - d if not is_inf(p.x2) else p.x2)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


def scale(I, a):
    """I with its coordinates divided by a = (a1, a2), both positive."""
    a1, a2 = ext(a[0]), ext(a[1])
    if not (a1 > 0 and a2 > 0):
        raise ValidationError("scale factors must be positive")
    mv = lambda p: Point2(p.x1 / a1, p.x2 / a2)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


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
    slopes = [qdiv(f.vs[i + 1] - f.vs[i], f.xs[i + 1] - f.xs[i])
              for i in range(len(f.xs) - 1)]
    if any(s is not None and s != HALF and s != -HALF
           for s in slopes + [f.lslope, f.rslope]):
        raise ValidationError("endpoint function slope is not +-1/2")
    # the slopes left and right of each knot; None at a finite end
    lefts = [f.lslope] + slopes
    rights = slopes + [f.rslope]
    mins = []
    if f.lslope == HALF:
        mins.append(Point2(f.vs[0] - qdiv(f.xs[0], 2), NINF))
    if f.rslope == -HALF:
        mins.append(Point2(NINF, f.vs[-1] + qdiv(f.xs[-1], 2)))
    for x, v, left, right in zip(f.xs, f.vs, lefts, rights):
        if (left is None or left == -HALF) and (right is None or right == HALF):
            mins.append(Point2(v - qdiv(x, 2), v + qdiv(x, 2)))
    return mins


def staircase_from_region(reg):
    """Recover the antichain description of a staircase-bounded region.

    Valid only when the region's boundary is a pair of monotone staircases,
    i.e. every endpoint-function piece has slope +-1/2 (true for components
    of intersections of staircase intervals; not true after band clipping).
    """
    maxs = [_sigma(p) for p in _corners_from_tlo(-reg.thi)]
    return StaircaseInterval.from_antichains(_corners_from_tlo(reg.tlo), maxs)


def intersect_components(I, J):
    """The components of the intersection of I and J, as intervals."""
    inter = region_intersection(I.region(), J.region())
    if inter is None:
        return []
    return [staircase_from_region(c) for c in inter.components()]


def optimize_cell(M, cell, geo=None):
    """Best rectangle with its four corners in the given bands.

    cell = (i, j, k, l): the band indices for the top-left, bottom-right,
    bottom-left and top-right corners.  Returns (RectangleSpec, value) or
    None when the placement is infeasible.  Solved on the reference
    geometry (oracles.FractionCellGeometry), the only one with the
    per-cell problem.
    """
    if geo is None:
        geo = FractionCellGeometry(M)
    _, t1, t2a = geo.pair(cell[0], cell[1])
    return geo.solve(cell, t1, t2a, "all")


def point_bottleneck(points_m, points_n):
    """int_point_bottleneck on points with Fraction or INF coordinates:
    every finite coordinate is scaled once by 2 lcm(denominators) to an
    int, so every finite gap is even, and the value is scaled back."""
    S = 2 * lcm(*(x.denominator for p in (*points_m, *points_n)
                  for x in p if not is_inf(x)))
    mv = lambda p: tuple(x if is_inf(x) else x.numerator * (S // x.denominator)
                         for x in p)
    c = int_point_bottleneck([mv(p) for p in points_m],
                             [mv(p) for p in points_n])
    return c if is_inf(c) else Fraction(c, S)


def block_pair(rng):
    """A direct sum of one to three random hooks and quadrants, as a
    presentation and as the list of its summands' closures."""
    rows, cols, nz, mods = [], [], set(), []
    for _ in range(rng.randint(1, 3)):
        g = (Fraction(rng.randint(0, 10), 2), Fraction(rng.randint(0, 10), 2))
        r = None
        if rng.random() < 0.5:
            r = (g[0] + Fraction(rng.randint(1, 6), 2),
                 g[1] + Fraction(rng.randint(1, 6), 2))
            nz.add((len(rows), len(cols)))
            cols.append(r)
            r = point(*r)
        rows.append(g)
        mods.append(closure_oracle(point(*g), r))
    return validate_presentation(rows, cols, nz), mods


def band_closures(P, C):
    """The closures of the summands of P pushed onto band C: the staircase
    intervals that gmd's band points stand for."""
    out = [closure_oracle(iv.g, iv.r)
           for iv in diagonalize_oracle(push_band_oracle(P, C))]
    return [S for S in out if S is not None]


def int_bands(presentations, a):
    """(S, grades, edges): _scaled_ints of the presentations along
    direction a, and the int (lo, hi) of each band of their scaled anchor
    covering, an infinite edge standing at the extreme grade intercept as
    in _band_values."""
    bands = _scaled_covering(anchors(presentations), a).bands
    finite = sorted({e for C in bands for e in C if not is_inf(e)})
    S, grades, ints = _scaled_ints(presentations, a, finite)
    at = dict(zip(finite, ints))
    cmin, cmax = _intercept_range(grades)
    return S, grades, [(cmin if is_inf(C.lo) else at[C.lo],
                        cmax if is_inf(C.hi) else at[C.hi]) for C in bands]


@pytest.fixture
def thick_l():
    # ([0,4] x [0,3]) union ([0,3] x [0,4])
    return StaircaseInterval.from_antichains([point(0, 0)],
                                             [point(3, 4), point(4, 3)])


@pytest.fixture
def thin_l():
    # ([0,3] x [0,1]) union ([0,1] x [0,3])
    return StaircaseInterval.from_antichains([point(0, 0)],
                                             [point(1, 3), point(3, 1)])


@pytest.fixture
def rng():
    return random.Random(20240817)


def frac(a, b=1):
    return Fraction(a, b)
