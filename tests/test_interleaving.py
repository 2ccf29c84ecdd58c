import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (di_bracket_oracle, diag_sup_oracle,
                     kill_requirement_oracle, triv_oracle, triv_region_walk)
from stairdist.errors import PreconditionError, ValidationError
from stairdist.geometry import (DiagRegion, Point2, RectangleSpec,
                                StaircaseInterval, hausdorff, point)
from stairdist.generate import random_staircase
from stairdist.interleaving import (_candidate_deltas, _di_diag,
                                    _is_valid, _kill_bound,
                                    _kill_requirement, _probe_components,
                                    di_decision, di_diag, di_interval,
                                    di_interval_vs_rect, triv_distance)
from stairdist.pl import PL
from stairdist.scalars import INF, NINF, int_scale, is_inf

from conftest import intersect_components, scale, square

HALF = Fraction(1, 2)


class TestDiagSup:
    def test_identical(self, thick_l):
        assert di_diag(thick_l, thick_l) == 0

    def test_nested_squares(self):
        assert di_diag(square(0, 4), square(1, 3)) == 1
        assert abs(diag_sup_oracle(square(0, 4), square(1, 3)) - 1) < 1e-3

    def test_distant_squares(self):
        assert di_diag(square(0, 1), square(10, 11)) == Fraction(1, 2)
        got = diag_sup_oracle(square(0, 1), square(10, 11))
        assert abs(got - 0.5) < 1e-3


class TestTrivDistance:
    def test_square(self):
        assert triv_distance(square(0, 1)) == Fraction(1, 2)

    def test_thick_l(self, thick_l):
        assert triv_distance(thick_l) == Fraction(3, 2)
        assert abs(triv_oracle(thick_l) - 1.5) < 1e-3

    def test_thin_l(self, thin_l):
        assert triv_distance(thin_l) == Fraction(1, 2)

    def test_quadrant(self):
        Q = StaircaseInterval.from_antichains([point(0, 0)],
                                              [point(INF, INF)])
        assert triv_distance(Q) is INF

    def test_rectangle_closed_form_matches_region(self, rng):
        """The corner sweep against the region walk, in value and type, on
        rectangles and staircases, with and without infinite corners, and
        on their int images; the sweep builds no region."""
        coord = lambda: Fraction(rng.randint(0, 16), 2)
        mods = []
        for _ in range(500):
            r = [coord(), coord()]
            s = [r[0] + coord(), r[1] + coord()]
            for k in range(2):
                if rng.random() < 0.2:
                    r[k] = NINF
                if rng.random() < 0.2:
                    s[k] = INF
            mods.append(StaircaseInterval.rect(point(*r), point(*s)))
        for _ in range(300):
            ends = [rng.random() < 0.3 for _ in range(4)]
            M = random_staircase(rng, size=rng.randint(2, 12))
            mods.append(opened(M, ends) if rng.random() < 0.5 else M)
        mods.append(StaircaseInterval.from_antichains(
            [point(NINF, NINF)], [point(1, 3), point(2, 2)]))
        mods.append(StaircaseInterval.from_antichains(
            [point(0, 2), point(1, 1)], [point(INF, INF)]))
        mods += [int_scaled(M, M)[0] for M in mods[::7]]
        for M in mods:
            got = triv_distance(M)
            assert M._region is None
            want = triv_region_walk(M)
            assert got == want and type(got) is type(want), M


class TestCheckComponent:
    @staticmethod
    def check(Q, M, N):
        """(validity, kill bound) of the overlap component Q of M and N for
        the canonical morphism that maps sections of N into sections of M:
        valid, else trivializable at shifts above the bound, else fails."""
        args = (Q.region(), N.region(), M.region())
        return _is_valid(*args), _kill_bound(*args)

    def test_valid_overlap(self):
        Q = intersect_components(square(0, 2), square(1, 3))[0]
        valid, _ = self.check(Q, square(0, 2), square(1, 3))
        assert valid

    def test_swapped_overlap_trivializes(self):
        Q = intersect_components(square(1, 3), square(0, 2))[0]
        valid, bound = self.check(Q, square(1, 3), square(0, 2))
        assert not valid
        assert bound == Fraction(1, 2)
        # trivializable at 3/5, fails at 1/2: the bound must lie strictly below
        assert bound < Fraction(3, 5) and not bound < Fraction(1, 2)

    def test_self(self, thick_l):
        valid, _ = self.check(thick_l, thick_l, thick_l)
        assert valid


class TestDiDecision:
    def test_equal_at_zero(self, thick_l):
        assert di_decision(thick_l, thick_l, 0).accepted

    def test_reject_below_diag_distance(self):
        rep = di_decision(square(0, 4), square(1, 3), Fraction(9, 10))
        assert not rep.accepted
        assert rep.diag_distance == 1

    def test_distant_squares_accept_half(self):
        assert di_decision(square(0, 1), square(10, 11), Fraction(1, 2)).accepted

    def test_monotone_in_delta(self, rng):
        for _ in range(20):
            a = random_staircase(rng, size=6)
            b = random_staircase(rng, size=6)
            d = di_interval(a, b)
            assert not di_decision(a, b, d - Fraction(1, 100)).accepted \
                or d == 0
            assert di_decision(a, b, d + Fraction(1, 100)).accepted


class TestDiInterval:
    def test_identical(self, thin_l):
        assert di_interval(thin_l, thin_l) == 0

    def test_nested_squares(self):
        assert di_interval(square(0, 4), square(1, 3)) == 1

    def test_distant_squares(self):
        assert di_interval(square(0, 1), square(10, 11)) == Fraction(1, 2)

    def test_shifted_quadrants(self):
        q0 = StaircaseInterval.from_antichains([point(0, 0)],
                                               [point(INF, INF)])
        q1 = StaircaseInterval.from_antichains([point(1, 1)],
                                               [point(INF, INF)])
        assert di_interval(q0, q1) == 1

    def test_translation_invariant(self, rng):
        def moved(I, t1, t2):
            return StaircaseInterval.from_antichains(
                [point(p.x1 + t1, p.x2 + t2) for p in I.mins],
                [point(p.x1 + t1, p.x2 + t2) for p in I.maxs])

        shifts = [(Fraction(7, 2), Fraction(7, 2)), (1000, 1000),
                  (3, Fraction(-5, 2)), (-11, 4)]
        for _ in range(6):
            a = random_staircase(rng, size=4)
            b = random_staircase(rng, size=4)
            d = di_interval(a, b)
            for t1, t2 in shifts:
                assert di_interval(moved(a, t1, t2), moved(b, t1, t2)) == d

    def test_bounded_by_hausdorff(self, rng):
        for _ in range(20):
            a = random_staircase(rng, size=6)
            b = random_staircase(rng, size=6)
            assert di_interval(a, b) <= hausdorff(a, b)


class TestIntervalVsRect:
    def test_exact_match(self):
        assert di_interval_vs_rect(square(0, 2),
                                   RectangleSpec((0, 0), (2, 2))) == 0

    def test_nested_squares(self):
        assert di_interval_vs_rect(square(0, 4),
                                   RectangleSpec((1, 1), (3, 3))) == 1

    def test_thick_l_construction_rect(self, thick_l):
        R = RectangleSpec((0, 0), (Fraction(7, 2), Fraction(7, 2)))
        assert di_interval_vs_rect(thick_l, R) == Fraction(1, 2)

    def test_zero_rect_is_trivialization(self, thick_l):
        assert di_interval_vs_rect(thick_l, RectangleSpec.zero()) \
            == Fraction(3, 2)

    def test_out_of_bounds_rejected(self, thick_l):
        with pytest.raises(PreconditionError):
            di_interval_vs_rect(thick_l, RectangleSpec((-1, 0), (2, 2)))

    def test_agrees_with_decision_procedure(self, rng):
        for _ in range(20):
            M = random_staircase(rng, size=6)
            rb, sb = M.bounding_r, M.bounding_s
            r1 = rb.x1 + (sb.x1 - rb.x1) * Fraction(rng.randint(0, 4), 8)
            r2 = rb.x2 + (sb.x2 - rb.x2) * Fraction(rng.randint(0, 4), 8)
            s1 = sb.x1 - (sb.x1 - rb.x1) * Fraction(rng.randint(0, 3), 8)
            s2 = sb.x2 - (sb.x2 - rb.x2) * Fraction(rng.randint(0, 3), 8)
            R = RectangleSpec((r1, r2), (s1, s2))
            got = di_interval_vs_rect(M, R)
            assert got == di_interval(M, R.as_interval())


# --------------------------------------------------------------------------
# the int-scaled search against di_decision on either side of its result


def k_corner_staircase(rng, k, den):
    """A bounded staircase with k minimal and k maximal corners on the grid
    of step 1/den (the maxima jittered by up to 1/(2 den) more)."""
    g = lambda lo, hi: Fraction(rng.randint(lo * den, hi * den), den)
    steps = [(g(1, 2), g(1, 2)) for _ in range(k)]
    x, y = Fraction(0), sum(dy for _, dy in steps)
    mins = []
    for dx, dy in steps:
        mins.append(point(x, y))
        x, y = x + dx, y - dy
    off = g(3, 6)
    maxs = [point(v.x1 + off + g(0, 1) / 2, v.x2 + off + g(0, 1) / 2)
            for v in mins]
    return StaircaseInterval.from_antichains(mins, maxs)


def opened(I, ends):
    """I with the chosen extreme corners pushed out to infinity: the first
    and last minimum, the first and last maximum."""
    mins, maxs = list(I.mins), list(I.maxs)
    if ends[0]:
        mins[0] = Point2(NINF, mins[0].x2)
    if ends[1]:
        mins[-1] = Point2(mins[-1].x1, NINF)
    if ends[2]:
        maxs[0] = Point2(maxs[0].x1, INF)
    if ends[3]:
        maxs[-1] = Point2(INF, maxs[-1].x2)
    try:
        return StaircaseInterval.from_antichains(mins, maxs)
    except ValidationError:
        return I


def opened_pair(rng, size):
    ends = [rng.random() < 0.4 for _ in range(4)]
    return (opened(random_staircase(rng, size=size), ends),
            opened(random_staircase(rng, size=size), ends))


def moved(I, a, t):
    """I scaled by a about the origin, then translated by t on both axes."""
    mv = lambda p: point(p.x1 * a + t, p.x2 * a + t)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


def odd_half(I):
    """I under x1 -> 4 x1 + 1/2, x2 -> 4 x2 + 3/2.  Half-integer corners go
    to odd halves whose sums and differences are even and odd ints, so the
    region's knots and values are ints while its corner coordinates are
    not."""
    mv = lambda p: Point2(4 * p.x1 + HALF, 4 * p.x2 + 3 * HALF)
    return StaircaseInterval.from_antichains([mv(v) for v in I.mins],
                                             [mv(w) for w in I.maxs])


def int_scaled(a, b):
    """The intervals di_interval searches: a and b with their corners
    scaled by 16 times the lcm of their denominators."""
    S = int_scale(16, (x for I in (a, b) for p in I.mins + I.maxs for x in p))
    return a.scaled(S), b.scaled(S)


class TestIntScaledSearch:
    def assert_matches_oracle(self, a, b):
        d = di_interval(a, b)
        assert di_bracket_oracle(a, b, d)
        assert d is INF or type(d) is Fraction

    @pytest.mark.parametrize("k,den", [(4, 2), (8, 3), (12, 2)])
    def test_k_corner_staircases(self, k, den):
        rng = random.Random(1000 * k + den)
        for _ in range(2):
            self.assert_matches_oracle(k_corner_staircase(rng, k, den),
                                       k_corner_staircase(rng, k, den))

    def test_infinite_corners(self, rng):
        finite = 0
        for _ in range(40):
            a, b = opened_pair(rng, rng.choice([2, 4, 6]))
            self.assert_matches_oracle(a, b)
            finite += di_interval(a, b) is not INF
        assert finite >= 20

    def test_quadrants_and_fixtures(self, thick_l, thin_l):
        q = StaircaseInterval.from_antichains([point(0, Fraction(1, 3))],
                                              [point(INF, INF)])
        mods = [thick_l, thin_l, square(0, 4), square(1, 3),
                square(Fraction(1, 3), Fraction(7, 5)), q,
                moved(q, 1, Fraction(5, 7))]
        for a in mods:
            for b in mods:
                self.assert_matches_oracle(a, b)

    def test_odd_half_coordinates(self):
        """Candidates 8 apart after scaling: a probe at a + 16 instead of
        a + 2, which can pass the next candidate, returns 19/2 for the
        first pair, and so does a scale of 2 instead of 16; a probe at a
        itself goes wrong on the rest of the corpus."""
        a = StaircaseInterval.rect(point(HALF, HALF),
                                   point(5, Fraction(15, 2)))
        b = StaircaseInterval.from_antichains(
            [point(0, 1)], [point(Fraction(7, 2), 10), point(7, 9)])
        assert di_interval(odd_half(a), odd_half(b)) == 10
        rng = random.Random(5)
        for _ in range(30):
            size = rng.choice([2, 3, 4, 6])
            a = random_staircase(rng, size=size)
            b = random_staircase(rng, size=size)
            self.assert_matches_oracle(odd_half(a), odd_half(b))

    def test_answer_one_gap_above_a_candidate(self):
        """Two rectangles at distance 3 that scale by S = 32 to candidates
        88 and 96 with nothing between: the gap (88, 96) is not accepted,
        but the shift 96 is.  A probe at a + 8 lands on 96 and returns
        11/4, and so does the probe at a + 2 with a scale of 4 times the
        lcm, where the gap is 2 wide."""
        a = StaircaseInterval.rect(point(Fraction(7, 2), 4), point(10, 10))
        b = StaircaseInterval.rect(point(Fraction(9, 2), 1), point(9, 9))
        sa, sb = int_scaled(a, b)
        cands = _candidate_deltas(sa, sb)
        assert cands[cands.index(96) - 1] == 88

        def accepted(d):
            K = _kill_requirement(sa.region(), sb.region(), d)
            return K is None or K < d

        assert not accepted(90) and accepted(96)
        assert di_interval(a, b) == 3
        self.assert_matches_oracle(a, b)

    def test_random_corpus_moved_and_scaled(self, rng):
        for _ in range(12):
            a = random_staircase(rng, size=6)
            b = random_staircase(rng, size=6)
            self.assert_matches_oracle(a, b)
            for f, t in ((Fraction(3, 5), Fraction(1, 3)),
                         (Fraction(7, 3), -11), (1, Fraction(7, 2))):
                self.assert_matches_oracle(moved(a, f, t), moved(b, f, t))


@given(st.integers(0, 10 ** 6), st.sampled_from([3, Fraction(1, 3)]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_uniform_scaling_scales_distance(seed, s, unbounded):
    rng = random.Random(seed)
    if unbounded:
        a, b = opened_pair(rng, 4)
    else:
        a, b = random_staircase(rng, size=4), random_staircase(rng, size=4)
    d = di_interval(a, b)
    up = lambda I: scale(I, (Fraction(1) / s, Fraction(1) / s))
    assert di_interval(up(a), up(b)) == (d if d is INF else s * d)


def test_no_float_reaches_a_pl(monkeypatch, rng):
    """Every PL built by di_interval and di_decision holds exact scalars
    only, and every knot, value and finite intercept range of the PLs and
    regions di_interval builds is an int: it builds them on the scaled
    corners (the slopes are +-1/2, 0 and +-1 at any scale).  The pairs
    include lone minima with one infinite coordinate, whose lower boundary
    is a single line."""
    seen, slopes = [], []
    pl_init, reg_init = PL.__init__, DiagRegion.__init__

    def record_pl(self, xs, vs, lslope=None, rslope=None):
        seen.extend((*xs, *vs))
        slopes.extend(s for s in (lslope, rslope) if s is not None)
        pl_init(self, xs, vs, lslope, rslope)

    def record_region(self, clo, chi, tlo, thi):
        seen.extend(c for c in (clo, chi) if not is_inf(c))
        reg_init(self, clo, chi, tlo, thi)

    monkeypatch.setattr(PL, "__init__", record_pl)
    monkeypatch.setattr(DiagRegion, "__init__", record_region)
    third = Fraction(1, 3)
    lines = [StaircaseInterval.from_antichains([point(NINF, third)],
                                               [point(2, 5)]),
             StaircaseInterval.from_antichains([point(third, NINF)],
                                               [point(5, Fraction(7, 2))])]
    pairs = [(a, b) for a in lines for b in lines + [square(0, 4)] if a != b]
    pairs += [(k_corner_staircase(rng, 6, 2), k_corner_staircase(rng, 6, 2))]
    pairs += [opened_pair(rng, 6) for _ in range(6)]
    pairs += [(odd_half(random_staircase(rng, size=4)),
               odd_half(random_staircase(rng, size=4))) for _ in range(5)]
    for a, b in pairs:
        seen.clear()
        d = di_interval(a, b)
        assert a == b or (seen and all(type(x) is int for x in seen))
        if d is not INF:
            seen.clear()
            di_decision(a, b, d)
            di_decision(a, b, d / 2)
            assert not any(isinstance(x, float) for x in seen)
    assert not any(isinstance(x, float) for x in slopes)


# --------------------------------------------------------------------------
# the kill requirement: every bound first, validity in falling bound


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_kill_requirement_matches_oracle(seed, unbounded):
    """At every candidate shift d of the int-scaled intervals and at d + 2,
    inside the gap above it, where di_interval probes."""
    rng = random.Random(seed)
    if unbounded:
        a, b = opened_pair(rng, 3)
    else:
        a, b = random_staircase(rng, size=3), random_staircase(rng, size=3)
    a, b = int_scaled(a, b)
    A, B = a.region(), b.region()
    for d in _candidate_deltas(a, b):
        for probe in (d, d + 2):
            assert (_kill_requirement(A, B, probe)
                    == kill_requirement_oracle(A, B, probe))


@given(st.integers(0, 10 ** 6), st.booleans(),
       st.sampled_from([1, 3, 7, odd_half]))
@settings(max_examples=80, deadline=None)
def test_int_scale_puts_search_on_multiples_of_four(seed, unbounded, move):
    """With the corners scaled by 16 times the lcm of their denominators,
    the slicewise supremum and every candidate are multiples of 8, so the
    probe a + 2 lies strictly inside the gap above a, which needs only
    multiples of 4; the supremum is a whole number (possibly a Fraction).
    The pair is scaled by 1/move or taken through odd_half."""
    rng = random.Random(seed)
    if unbounded:
        a, b = opened_pair(rng, 4)
    else:
        a, b = random_staircase(rng, size=4), random_staircase(rng, size=4)
    if move is odd_half:
        a, b = odd_half(a), odd_half(b)
    else:
        a, b = moved(a, Fraction(1, move), 0), moved(b, Fraction(1, move), 0)
    a, b = int_scaled(a, b)
    A, B = a.region(), b.region()
    dd, _ = _di_diag(A, B)
    assert dd is INF or (dd.denominator == 1 and dd % 8 == 0)
    assert all(type(c) is int and c % 8 == 0 for c in _candidate_deltas(a, b))


def test_one_sided_probe_stays_on_ints(monkeypatch):
    """On int-scaled k = 16 staircases, every knot and value of every
    overlap component at the probe a + 2 above a candidate a is an int,
    and so is the kill requirement; every slope built on the way is a
    +-1/2 Fraction."""
    slopes = []
    init = PL.__init__

    def recording_init(self, xs, vs, lslope=None, rslope=None):
        slopes.extend(s for s in (lslope, rslope) if s is not None)
        init(self, xs, vs, lslope, rslope)

    monkeypatch.setattr(PL, "__init__", recording_init)
    rng = random.Random(16)
    a, b = k_corner_staircase(rng, 16, 2), k_corner_staircase(rng, 16, 2)
    a, b = int_scaled(a, b)
    A, B = a.region(), b.region()
    for d in _candidate_deltas(a, b):
        probe = d + 2
        for _, comp, _, _ in _probe_components(A, B, probe):
            assert type(comp.clo) is int and type(comp.chi) is int
            for f in (comp.tlo, comp.thi):
                assert all(type(x) is int for x in f.xs + f.vs)
        K = _kill_requirement(A, B, probe)
        assert K is None or type(K) is int
    assert slopes and all(type(s) is Fraction and abs(s) == Fraction(1, 2)
                          for s in slopes)


@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(0, 10 ** 4),
       st.fractions(0, 6, max_denominator=12))
@settings(max_examples=40, deadline=None)
def test_decision_matches_kill_requirement(seed, unbounded, pick, frac):
    """di_decision accepts delta exactly when the slicewise distance fits
    within delta and the kill requirement is None or below delta, at
    candidate shifts and at other rationals alike (stairbench/checks.py
    verifies every interval-di result with di_decision)."""
    rng = random.Random(seed)
    if unbounded:
        a, b = opened_pair(rng, 3)
    else:
        a, b = random_staircase(rng, size=3), random_staircase(rng, size=3)
    A, B = a.region(), b.region()
    dd, _ = _di_diag(A, B)
    cands = _candidate_deltas(a, b)
    for delta in (cands[pick % len(cands)], frac):
        K = _kill_requirement(A, B, delta)
        want = dd <= delta and (K is None or K < delta)
        assert di_decision(A, B, delta).accepted == want
