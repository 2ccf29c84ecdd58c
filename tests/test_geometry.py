import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (contains_point, raster_components, region_fold_oracle,
                     slice_gap_oracle)
from stairdist import generate
from stairdist.errors import ValidationError
from stairdist.geometry import (DiagRegion, Point2, RectangleSpec,
                                StaircaseInterval, _maximal, _minimal,
                                _slice_gap, _spans, band, hausdorff, point,
                                pt_le, validate_interval)
from stairdist.scalars import INF, NINF

from conftest import (diag_shift, intersect_components, random_staircase,
                      rect, scale, square, staircase_from_region)


class TestValidateInterval:
    def test_thick_l_full_corner_chain(self, thick_l):
        got = validate_interval(
            [(0, 0)], [(0, 4), (3, 4), (3, 3), (4, 3), (4, 0)])
        assert got == thick_l
        assert got.maxs == (point(3, 4), point(4, 3))

    def test_antichain_input(self):
        I = validate_interval([(0, 1), (1, 0)], [(2, 2)])
        assert I.mins == (point(0, 1), point(1, 0))

    def test_non_monotone_lower_rejected(self):
        with pytest.raises(ValidationError):
            validate_interval([(0, 0), (1, 1)], [(2, 2)])

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValidationError):
            validate_interval([(3, 3)], [(1, 1)])


class TestDiagSlice:
    def test_square_center(self):
        s = square(0, 4).region().slice_at(0)
        assert (s.intercept, s.t_lo, s.t_hi) == (0, 0, 4)

    def test_square_outside(self):
        assert square(0, 4).region().slice_at(6).is_empty

    def test_thick_l_center(self, thick_l):
        s = thick_l.region().slice_at(0)
        assert s.t_hi - s.t_lo == 3

    def test_nonempty_exactly_on_intercept_range(self, thick_l):
        reg = thick_l.region()
        for c in (reg.clo, reg.chi, Fraction(1, 2)):
            assert not reg.slice_at(c).is_empty
        for c in (reg.clo - 1, reg.chi + 1):
            assert reg.slice_at(c).is_empty

    def test_holds_exactly_the_members(self, rng):
        I = random_staircase(rng, size=6)
        reg = I.region()
        for _ in range(50):
            x = Fraction(rng.randint(-2, 22), 2)
            y = Fraction(rng.randint(-2, 22), 2)
            s = reg.slice_at(y - x)
            got = not s.is_empty and s.t_lo <= (x + y) / 2 <= s.t_hi
            assert got == contains_point(I, x, y)


def test_tuple_records():
    # fields in order, tuple equality and hashing, no per-instance dict
    s = square(0, 4).region().slice_at(0)
    for rec, fields, values in ((point(1, 2), ("x1", "x2"), (1, 2)),
                                (band(0, 1), ("lo", "hi"), (0, 1)),
                                (s, ("intercept", "t_lo", "t_hi"), (0, 0, 4))):
        assert rec._fields == fields
        assert rec == values and hash(rec) == hash(values)
        assert not hasattr(rec, "__dict__")
    assert not s.is_empty and s._replace(t_lo=None).is_empty


class TestHausdorff:
    def test_identical(self, thick_l):
        assert hausdorff(thick_l, thick_l) == 0

    def test_diagonal_translate(self):
        assert hausdorff(square(0, 2), square(1, 3)) == 1

    def test_nested(self):
        assert hausdorff(square(0, 1), square(0, 4)) == 3

    def test_square_vs_thick_l(self, thick_l):
        assert hausdorff(square(0, 4), thick_l) == 1

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a = random_staircase(rng, size=6)
            b = random_staircase(rng, size=6)
            c = random_staircase(rng, size=6)
            ab, ba = hausdorff(a, b), hausdorff(b, a)
            assert ab == ba
            assert float(ab) <= float(hausdorff(a, c)) \
                + float(hausdorff(c, b)) + 1e-9


class TestIntersectComponents:
    def test_overlapping_squares(self):
        comps = intersect_components(square(0, 2), square(1, 3))
        assert len(comps) == 1
        assert comps[0] == square(1, 2)

    def test_disjoint(self):
        assert intersect_components(square(0, 1), square(5, 6)) == []

    def test_thick_l_self_shift(self, thick_l):
        # the two arm rectangles of the overlap share a square, so the
        # intersection is connected
        shifted = diag_shift(thick_l, Fraction(-5, 2))
        comps = intersect_components(thick_l, shifted)
        assert len(comps) == 1
        assert raster_components(thick_l, shifted) == 1

    def test_matches_raster_on_random_pairs(self, rng):
        for _ in range(10):
            a = random_staircase(rng, size=6, hi=6)
            b = random_staircase(rng, size=6, hi=6)
            comps = intersect_components(a, b)
            assert len(comps) == raster_components(a, b)


class TestCornerRects:
    # the bounding rectangle, and the rectangles spanned by the first and
    # by the last corner of each staircase
    @staticmethod
    def corners(I):
        return ((I.bounding_r, I.bounding_s), (I.mins[0], I.maxs[0]),
                (I.mins[-1], I.maxs[-1]))

    def test_square(self):
        for r, s in self.corners(square(0, 2)):
            assert (r, s) == (point(0, 0), point(2, 2))

    def test_thick_l(self, thick_l):
        b, t, bo = self.corners(thick_l)
        assert b == (point(0, 0), point(4, 4))
        assert t == (point(0, 0), point(3, 4))
        assert bo == (point(0, 0), point(4, 3))

    def test_thin_l(self, thin_l):
        b, t, bo = self.corners(thin_l)
        assert b == (point(0, 0), point(3, 3))
        assert t == (point(0, 0), point(1, 3))
        assert bo == (point(0, 0), point(3, 1))


class TestTransforms:
    def test_diag_shift(self):
        assert diag_shift(square(1, 3), 1) == square(0, 2)

    def test_shift_roundtrip(self, thick_l):
        d = Fraction(7, 3)
        back = diag_shift(diag_shift(thick_l, d), -d)
        assert back == thick_l

    def test_scale(self):
        got = scale(square(0, 2), (2, 1))
        assert got == rect(0, 0, 1, 2)

    def test_scale_roundtrip(self, thick_l):
        a = (Fraction(3, 2), Fraction(5, 7))
        inv = (1 / a[0], 1 / a[1])
        assert scale(scale(thick_l, a), inv) == thick_l

    def test_contains(self):
        big, small = square(0, 4).region(), square(1, 2).region()
        assert big.contains(small)
        assert not small.contains(big)

    def test_restrict_band_slices(self):
        C = band(-2, 2)
        reg = square(0, 4).region().restrict_hull(C.lo, C.hi)
        assert (reg.clo, reg.chi) == (-2, 2)
        full = square(0, 4).region()
        for c in (-2, -1, 0, Fraction(3, 2), 2):
            got = reg.slice_at(c)
            want = full.slice_at(c)
            assert (got.t_lo, got.t_hi) == (want.t_lo, want.t_hi)

    def test_down_up_sets(self, thick_l):
        reg = thick_l.region()
        down = reg.down_extension()
        up = reg.up_extension()
        for c in (Fraction(-1, 2), 0, 2):
            s = reg.slice_at(c)
            assert down.slice_at(c).t_hi == s.t_hi
            assert up.slice_at(c).t_lo == s.t_lo


class TestRectangleSpec:
    def test_zero_sentinel(self):
        z = RectangleSpec.zero()
        assert z.is_zero

    def test_corners(self):
        r = RectangleSpec((0, 1), (2, 3))
        assert (r.p, r.q) == (point(0, 3), point(2, 1))
        assert (r.width, r.height, r.area()) == (2, 2, 4)

    def test_as_interval(self):
        assert RectangleSpec((0, 0), (2, 2)).as_interval() == square(0, 2)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 8),
       st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_rect_slices_match_formula(a, b, w, h):
    I = StaircaseInterval.rect(point(a, b), point(a + w, b + h))
    reg = I.region()
    assert reg.clo == b - a - w
    assert reg.chi == b - a + h
    mid = Fraction(b - a - w + b - a + h, 2)
    assert not reg.slice_at(mid).is_empty


def test_infinite_quadrant_slices():
    Q = StaircaseInterval.from_antichains([point(1, 2)],
                                          [point(INF, INF)])
    s = Q.region().slice_at(1)
    assert s.t_lo == Fraction(3, 2) and s.t_hi is INF


# --------------------------------------------------------------------------
# the closed-form walk against the fold over per-corner branches


def _pl_key(f):
    return f if f is NINF or f is INF else (f.xs, f.vs, f.lslope, f.rslope)


def assert_region_matches_fold(I):
    got = I.region()
    want = region_fold_oracle(I.mins, I.maxs)
    assert (got.clo, got.chi) == (want.clo, want.chi)
    assert _pl_key(got.tlo) == _pl_key(want.tlo)
    assert _pl_key(got.thi) == _pl_key(want.thi)


def _with_infinite_corners(I, left, bottom, top, right):
    """I with its outermost corners pushed to infinity: the first minimum
    to x1 = -inf, the last to x2 = -inf, the first maximum to x2 = inf,
    the last to x1 = inf."""
    mins, maxs = list(I.mins), list(I.maxs)
    if left:
        mins[0] = Point2(NINF, mins[0].x2)
    if bottom:
        mins[-1] = Point2(mins[-1].x1, NINF)
    if top:
        maxs[0] = Point2(maxs[0].x1, INF)
    if right:
        maxs[-1] = Point2(INF, maxs[-1].x2)
    return StaircaseInterval.from_antichains(mins, maxs)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 13),
       st.sampled_from([None, 0, 1, 2, 4]),
       st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()))
@settings(max_examples=150, deadline=None)
def test_region_matches_fold_and_round_trips(seed, size, width, flags):
    I = random_staircase(random.Random(seed), size=size, band_width=width)
    for J in (I, _with_infinite_corners(I, *flags)):
        assert_region_matches_fold(J)
        assert staircase_from_region(J.region()) == J


@pytest.mark.parametrize("mins, maxs", [
    ([("-inf", 2), (1, 0)], [(3, 3)]),
    ([(0, 1), (2, "-inf")], [(3, 3)]),
    ([("-inf", 2), (1, "-inf")], [(3, 3)]),
    ([("-inf", "-inf")], [(1, 2), (2, 1)]),
    ([(0, 0)], [(1, 3), ("inf", 2)]),
    ([(0, 0)], [(1, "inf"), (3, 1)]),
    ([(0, 1), (1, 0)], [("inf", "inf")]),
    ([("-inf", 1)], [("inf", 3)]),
    ([(1, "-inf")], [(2, "inf")]),
    ([("-inf", 1)], [(2, "inf")]),
    ([("-inf", "-inf")], [("inf", "inf")]),
    ([("-inf", 2), (1, "-inf")], [(2, "inf"), ("inf", 3)]),
])
def test_region_matches_fold_with_infinite_corners(mins, maxs):
    I = StaircaseInterval.from_antichains([point(*p) for p in mins],
                                          [point(*p) for p in maxs])
    assert_region_matches_fold(I)
    assert staircase_from_region(I.region()) == I


@pytest.mark.parametrize("mins, maxs", [
    ([(0, "inf")], [("inf", "inf")]),
    ([("inf", "inf")], [("inf", "inf")]),
    ([("-inf", "-inf")], [("-inf", 1)]),
    ([(0, 0)], [(1, "-inf")]),
])
def test_region_errors_match_fold(mins, maxs):
    mins = [point(*p) for p in mins]
    maxs = [point(*p) for p in maxs]
    with pytest.raises(ValidationError) as want:
        region_fold_oracle(mins, maxs)
    with pytest.raises(ValidationError) as got:
        StaircaseInterval.from_antichains(mins, maxs).region()
    assert str(got.value) == str(want.value)


def _chain(rng, lower):
    """A strict chain (x1 rising, x2 falling) of 1 to 5 points, its ends
    sometimes pushed to -inf (lower) or +inf (upper)."""
    k = rng.randint(1, 5)
    pts = [Point2(Fraction(x), Fraction(y)) for x, y in
           zip(sorted(rng.sample(range(9), k)),
               sorted(rng.sample(range(9), k), reverse=True))]
    inf = NINF if lower else INF
    if rng.random() < 0.4:
        pts[0] = pts[0]._replace(**{"x1" if lower else "x2": inf})
    if rng.random() < 0.4:
        pts[-1] = pts[-1]._replace(**{"x2" if lower else "x1": inf})
    return pts


def test_extreme_corners_by_pairwise_comparison(rng):
    coord = lambda: rng.choice([NINF, INF] + list(range(7)))
    by_x1 = lambda ps: sorted(set(ps), key=lambda p: p.x1)
    samples = [[Point2(coord(), coord()) for _ in range(rng.randint(1, 8))]
               for _ in range(200)]
    for _ in range(200):
        pts = _chain(rng, rng.random() < 0.5)
        assert _minimal(pts) == _maximal(pts) == pts
        repeated = pts + [rng.choice(pts)]
        rng.shuffle(repeated)
        samples += [pts, pts[::-1], repeated]
    for pts in samples:
        assert _minimal(pts) == by_x1(
            p for p in pts if not any(pt_le(q, p) and q != p for q in pts))
        assert _maximal(pts) == by_x1(
            p for p in pts if not any(pt_le(p, q) and q != p for q in pts))


def _pairwise_corner_sets(rng):
    coord = lambda: rng.choice([NINF, INF] + list(range(7)))
    for _ in range(300):
        yield ([Point2(coord(), coord()) for _ in range(rng.randint(1, 4))],
               [Point2(coord(), coord()) for _ in range(rng.randint(1, 4))])


def test_lower_exceeds_upper_by_pairwise_comparison(rng):
    for mins, maxs in _pairwise_corner_sets(rng):
        lowest = [v for v in mins
                  if not any(pt_le(u, v) and u != v for u in mins)]
        want = not all(any(pt_le(v, w) for w in maxs) for v in lowest)
        try:
            StaircaseInterval.from_antichains(mins, maxs)
            got = False
        except ValidationError as e:
            got = str(e) == "lower staircase exceeds upper staircase"
        assert got == want


# --------------------------------------------------------------------------
# connectivity from the corners against the slice length function

GAP = "disconnected region: empty diagonal slice at intercept "


def check_connectivity(mins, maxs):
    """from_antichains against slice_gap_oracle.  True when the input is
    rejected as disconnected, False when accepted, None when its lower
    staircase exceeds its upper one."""
    try:
        StaircaseInterval.from_antichains(mins, maxs)
    except ValidationError as e:
        if str(e) == "lower staircase exceeds upper staircase":
            return None
        assert str(e).startswith(GAP)
        mins, maxs = _minimal(mins), _maximal(maxs)
        assert slice_gap_oracle(mins, maxs)
        c = Fraction(str(e)[len(GAP):])
        reg = DiagRegion.from_antichains(mins, maxs)
        assert reg.clo <= c <= reg.chi and reg.slice_at(c).is_empty
        return True
    assert not slice_gap_oracle(_minimal(mins), _maximal(maxs))
    return False


@pytest.mark.parametrize("mins, maxs", [
    ([(0, 3), (3, 0)], [(1, 4), (4, 1)]),          # two squares
    ([(0, 0)], [(-1, 10), (5, 5)]),                # a maximum above no minimum
    ([("-inf", 3), (3, "-inf")], [(1, 4), (4, 1)]),
    ([(0, 3), (3, 0)], [(1, "inf"), ("inf", 1)]),
])
def test_disconnected_regions_rejected(mins, maxs):
    assert check_connectivity([point(*p) for p in mins],
                              [point(*p) for p in maxs])


def _random_corner_sets(rng):
    def corner(inf):
        p = [rng.randint(0, 8), rng.randint(0, 8)]
        if rng.random() < 0.15:
            p[rng.randrange(2)] = inf
        return point(*p)

    for _ in range(600):
        yield ([corner(NINF) for _ in range(rng.randint(1, 4))],
               [corner(INF) for _ in range(rng.randint(1, 4))])


def _staircase_corner_sets(rng):
    for _ in range(100):
        I = random_staircase(rng, size=rng.randint(2, 8))
        J = _with_infinite_corners(I, *(rng.random() < 0.4 for _ in range(4)))
        for K in (I, J):
            yield list(K.mins), list(K.maxs)


def test_connectivity_matches_slice_length_oracle(rng):
    verdicts = [check_connectivity(mins, maxs)
                for mins, maxs in _random_corner_sets(rng)]
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50
    for mins, maxs in _staircase_corner_sets(rng):
        assert check_connectivity(mins, maxs) is False


# --------------------------------------------------------------------------
# construction on the corners against building the region first


def eager_region(mins, maxs):
    """The region of the interval on mins and maxs, built before the gap
    test, which then reads the region's sentinels."""
    mins, maxs = _minimal(mins), _maximal(maxs)
    if not mins or not maxs:
        raise ValidationError("empty corner set")
    spans = _spans(mins, maxs)
    reg = DiagRegion.from_antichains(mins, maxs)
    if reg.tlo is not NINF and reg.thi is not INF:
        gap = _slice_gap(spans, reg.clo, reg.chi)
        if gap is not None:
            raise ValidationError(
                "disconnected region: empty diagonal slice at intercept %s" % (gap,))
    return reg


def _region_key(reg):
    return reg.clo, reg.chi, _pl_key(reg.tlo), _pl_key(reg.thi)


def _outcome(build, mins, maxs):
    try:
        return build(mins, maxs), None
    except ValidationError as e:
        return None, str(e)


def test_construction_matches_eager_region(rng):
    sets = [*_pairwise_corner_sets(rng), *_random_corner_sets(rng),
            *_staircase_corner_sets(rng)]
    accepted = 0
    for mins, maxs in sets:
        I, got = _outcome(StaircaseInterval.from_antichains, mins, maxs)
        reg, want = _outcome(eager_region, mins, maxs)
        assert got == want
        if I is not None:
            accepted += 1
            assert I._region is None
            assert _region_key(I.region()) == _region_key(reg)
            assert I.region() is I.region()
    assert 300 <= accepted <= len(sets) - 300


def test_construction_builds_no_region(rng):
    built = [validate_interval([(0, 3), (1, 1), (3, 0)], [(2, 4), (4, 2)]),
             StaircaseInterval.rect(point(0, 0), point(1, "inf")),
             RectangleSpec((0, 0), (2, 1)).as_interval(),
             StaircaseInterval.from_antichains([point("-inf", "-inf")],
                                               [point(1, 2)])]
    built += [generate.random_staircase(rng, 8) for _ in range(20)]
    assert all(I._region is None for I in built)
