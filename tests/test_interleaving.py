import random
from fractions import Fraction

import pytest

from oracles import diag_sup_oracle, triv_oracle
from stairdist.errors import PreconditionError
from stairdist.geometry import (RectangleSpec, StaircaseInterval, diag_slice,
                                hausdorff, intersect_components, point)
from stairdist.generate import random_staircase
from stairdist.interleaving import (check_component, di_decision, di_diag,
                                    di_interval, di_interval_vs_rect,
                                    normalize_rect, slice_di, triv_distance)
from stairdist.scalars import INF

from conftest import square


class TestSliceDi:
    def test_textbook_bars(self):
        s1 = diag_slice(square(0, 4), 0)
        s2 = diag_slice(square(1, 3), 0)
        assert slice_di(s1, s2) == 1

    def test_identical(self):
        s = diag_slice(square(0, 4), 2)
        assert slice_di(s, s) == 0

    def test_against_empty(self):
        s1 = diag_slice(square(0, 4), 0)
        s2 = diag_slice(square(0, 4), 6)
        assert slice_di(s1, s2) == 2

    def test_intercept_mismatch(self):
        with pytest.raises(PreconditionError):
            slice_di(diag_slice(square(0, 4), 0), diag_slice(square(0, 4), 1))


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


class TestCheckComponent:
    def test_valid_overlap(self):
        Q = intersect_components(square(0, 2), square(1, 3))[0]
        res = check_component(Q, square(0, 2), square(1, 3), 1)
        assert res.verdict == "valid"

    def test_swapped_overlap_trivializes(self):
        Q = intersect_components(square(1, 3), square(0, 2))[0]
        res = check_component(Q, square(1, 3), square(0, 2), Fraction(3, 5))
        assert res.verdict == "trivializable"
        assert res.triv_sup == Fraction(1, 2)
        res = check_component(Q, square(1, 3), square(0, 2), Fraction(1, 2))
        assert res.verdict == "fails"

    def test_self(self, thick_l):
        res = check_component(thick_l, thick_l, thick_l, 0)
        assert res.verdict == "valid"

    def test_component_outside_rejected(self, thick_l):
        with pytest.raises(PreconditionError):
            check_component(square(10, 11), thick_l, thick_l, 0)


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


class TestNormalizeRect:
    def test_inside_unchanged(self, thick_l):
        R = RectangleSpec((1, 1), (2, 2))
        assert normalize_rect(thick_l, R) == R

    def test_clamp_square(self):
        R = normalize_rect(square(0, 4), RectangleSpec((-1, 0), (3, 5)))
        assert (R.r, R.s) == (point(0, 0), point(3, 4))

    def test_clamp_to_bounding(self, thick_l):
        R = normalize_rect(thick_l, RectangleSpec((0, 0), (5, 5)))
        assert (R.r, R.s) == (point(0, 0), point(4, 4))
