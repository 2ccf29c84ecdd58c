from fractions import Fraction

import pytest

from oracles import dim_oracle, exhaustive_bottleneck
from stairdist.bottleneck import bottleneck_distance, pairwise_costs
from stairdist.errors import PreconditionError, ValidationError
from stairdist.generate import random_presentation
from stairdist.geometry import band, point
from stairdist.gmd import (HalfOpenInterval, _closed_summands,
                           _sample_intercepts, anchors, default_directions,
                           diagonalize, dmatch_sampled, gmd, pointwise_dim,
                           push_band, refine_alpha, scale_presentation,
                           validate_presentation)
from stairdist.scalars import INF, NINF, is_inf

from conftest import square

FULL = band(NINF, INF)


def pres(rows, cols=(), nonzeros=()):
    return validate_presentation(rows, cols, nonzeros)


def grid_points(lo=0, hi=3):
    pts = []
    c = Fraction(lo)
    while c <= hi:
        d = Fraction(lo)
        while d <= hi:
            pts.append((c, d))
            d += Fraction(1, 2)
        c += Fraction(1, 2)
    return pts


class TestValidatePresentation:
    def test_valid(self):
        P = pres([(0, 0)], [(2, 2)], {(0, 0)})
        assert P.nonzeros == {(0, 0)}

    def test_incomparable_entry_rejected(self):
        with pytest.raises(ValidationError):
            pres([(3, 0)], [(2, 2)], {(0, 0)})

    @pytest.mark.parametrize("entry", [
        (0.7, 0.2), (True, 0), (0, False), ("0", 0), (Fraction(0), 0),
        (0,), (0, 0, 0), 0])
    def test_non_integer_index_rejected(self, entry):
        with pytest.raises(ValidationError):
            validate_presentation([(0, 0)], [(1, 1)], {entry})

    def test_list_pair_accepted(self):
        P = validate_presentation([(0, 0)], [(1, 1)], [[0, 0]])
        assert P.nonzeros == {(0, 0)}

    def test_two_generators(self):
        P = pres([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)})
        assert len(P.row_grades) == 2

    def test_sorting_keeps_permutation(self):
        P = pres([(1, 1), (0, 0)], [(2, 2)], {(0, 0), (1, 0)})
        assert P.row_grades == (point(0, 0), point(1, 1))
        assert P.row_perm == (1, 0)
        assert P.nonzeros == {(0, 0), (1, 0)}


class TestPointwiseDim:
    def test_named(self):
        P = pres([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)})
        assert pointwise_dim(P, (0, 0)) == 1
        assert pointwise_dim(P, (1, 1)) == 2
        assert pointwise_dim(P, (2, 2)) == 1

    def test_matches_oracle(self, rng):
        for _ in range(10):
            P = random_presentation(rng, size=4, hi=4)
            for u in grid_points(0, 4)[::7]:
                want = dim_oracle(P.row_grades, P.col_grades, P.nonzeros, u)
                assert pointwise_dim(P, u) == want


class TestPushBand:
    def test_named(self):
        C = band(0, 2)
        P = pres([(1, 4), (3, 1), (1, 2)])
        got = push_band(P, C).row_grades
        assert got == (point(1, 2), point(2, 4), point(3, 3))

    def test_idempotent_and_monotone(self, rng):
        for _ in range(40):
            C = band(Fraction(rng.randint(-4, 0)), Fraction(rng.randint(0, 4)))
            P = pres([(Fraction(rng.randint(0, 8), 2),
                       Fraction(rng.randint(0, 8), 2)) for _ in range(3)])
            pushed = push_band(P, C)
            assert push_band(pushed, C).row_grades == pushed.row_grades
            for u, v in zip(P.row_grades, pushed.row_grades):
                assert u.x1 <= v.x1 and u.x2 <= v.x2
                assert C.lo <= v.x2 - v.x1 <= C.hi

    def test_preserves_grade_condition(self):
        P = pres([(0, 0)], [(1, 4)], {(0, 0)})
        Q = push_band(P, band(0, 2))
        validate_presentation(Q.row_grades, Q.col_grades, Q.nonzeros)


class TestAnchors:
    def test_symmetric_pair(self):
        cov = anchors([pres([(0, 1), (1, 0)])])
        assert cov.points == (point(1, 1),)
        assert cov.intercepts == (0,)
        assert len(cov.bands) == 2

    def test_comparable_pair_is_trivial(self):
        cov = anchors([pres([(0, 0), (1, 1)])])
        assert cov.trivial
        assert cov.bands == (FULL,)

    def test_asymmetric_pair(self):
        cov = anchors([pres([(0, 3), (2, 1)])])
        assert cov.points == (point(2, 3),)
        assert cov.intercepts == (1,)

    def test_pushed_grades_become_comparable(self, rng):
        from stairdist.geometry import pt_le
        for _ in range(10):
            P = random_presentation(rng, size=5, hi=6)
            cov = anchors([P])
            for C in cov.bands:
                Q = push_band(P, C)
                for gs in (Q.row_grades, Q.col_grades):
                    for i in range(len(gs)):
                        for j in range(i + 1, len(gs)):
                            assert pt_le(gs[i], gs[j]) or pt_le(gs[j], gs[i])


class TestDiagonalize:
    def test_named_pairing(self):
        P = pres([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)})
        out = diagonalize(P)
        got = {(iv.g, iv.r) for iv in out}
        assert got == {(point(1, 1), point(2, 2)), (point(0, 0), None)}

    def test_no_columns(self):
        out = diagonalize(pres([(0, 0)]))
        assert [(iv.g, iv.r) for iv in out] == [(point(0, 0), None)]

    def test_redundant_relation(self):
        P = pres([(0, 0)], [(1, 1), (2, 2)], {(0, 0), (0, 1)})
        out = diagonalize(P)
        assert [(iv.g, iv.r) for iv in out] == [(point(0, 0), point(1, 1))]

    def test_incomparable_rejected(self):
        with pytest.raises(PreconditionError):
            diagonalize(pres([(0, 1), (1, 0)]))

    def test_dim_contract(self, rng):
        for _ in range(10):
            P = random_presentation(rng, size=4, total_order=True)
            out = diagonalize(P)
            for u in grid_points(0, 8)[::13]:
                want = pointwise_dim(P, u)
                got = 0
                for iv in out:
                    from stairdist.geometry import pt_le
                    if pt_le(iv.g, point(*u)) and \
                            (iv.r is None or not pt_le(iv.r, point(*u))):
                        got += 1
                assert got == want


class TestClosedIntervals:
    def test_free(self):
        iv = HalfOpenInterval(point(0, 0), None, FULL)
        I = iv.closed()
        assert I.mins == (point(0, 0),)
        assert I.maxs == (point(INF, INF),)

    def test_empty_when_grades_equal(self):
        assert HalfOpenInterval(point(1, 1), point(1, 1), FULL).closed() is None

    def test_hook(self):
        I = HalfOpenInterval(point(0, 0), point(2, 3), FULL).closed()
        assert I.maxs == (point(2, INF), point(INF, 3))


class TestScalePresentation:
    def test_identity(self):
        P = pres([(2, 2)])
        assert scale_presentation(P, (1, 1)).row_grades == P.row_grades

    def test_squeeze_first_axis(self):
        assert scale_presentation(pres([(2, 2)]), (2, 1)).row_grades \
            == (point(1, 2),)

    def test_squeeze_second_axis(self):
        assert scale_presentation(pres([(2, 2)]), (1, 2)).row_grades \
            == (point(2, 1),)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            scale_presentation(pres([(2, 2)]), (0, 1))


class TestRefineAlpha:
    def cov(self, *pts):
        from stairdist.gmd import _covering_from_points
        return _covering_from_points([point(*p) for p in pts])

    def test_wide_band_subdivided(self):
        cov = self.cov((0, 0), (0, 4))
        got = refine_alpha(cov, Fraction(1, 2), 4)
        inner = [b for b in got.bands
                 if not is_inf(b.lo) and not is_inf(b.hi)
                 and 0 <= b.lo and b.hi <= 4]
        assert [(b.lo, b.hi) for b in inner] == \
            [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_narrow_band_unchanged(self):
        cov = self.cov((0, 0), (0, 1))
        got = refine_alpha(cov, 1, 4)
        assert (0, 1) in [(b.lo, b.hi) for b in got.bands]

    def test_peels_infinite_ends(self):
        got = refine_alpha(self.cov((0, 0)), 1, 2)
        assert len(got.bands) > 2

    def test_zero_lower_bound_rejected(self):
        with pytest.raises(PreconditionError):
            refine_alpha(self.cov((0, 0)), 1, 0)

    def test_alpha_zero_is_identity(self):
        cov = self.cov((0, 0), (0, 4))
        assert refine_alpha(cov, 0, 4) is cov


class TestDmatchSampled:
    def test_identical(self, thick_l):
        assert dmatch_sampled([thick_l], [thick_l], [(1, 1)], [0, 1]) == 0

    def test_nested_squares(self):
        got = dmatch_sampled([square(0, 4)], [square(1, 3)], [(1, 1)], [0])
        assert got == 1

    def test_quadrant_presentations(self):
        M = pres([(0, 0)])
        N = pres([(1, 1)])
        dirs = default_directions((M, N), 16)
        got = dmatch_sampled(M, N, dirs, [Fraction(0), Fraction(1, 2), 1])
        assert got == 1

    def test_empty_samples_rejected(self, thick_l):
        with pytest.raises(PreconditionError):
            dmatch_sampled([thick_l], [thick_l], [], [0])


class TestGmd:
    def test_identical(self):
        P = pres([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)})
        assert gmd(P, P, directions=4).value == 0

    def test_free_quadrants(self):
        rep = gmd(pres([(0, 0)]), pres([(1, 1)]), directions=16)
        assert rep.value == 1
        assert rep.covering.trivial

    def test_anchored_dimension_mismatch(self):
        M = pres([(0, 1), (1, 0)])
        N = pres([(0, 1), (1, 0)], [(2, 2)], {(0, 0), (1, 0)})
        rep = gmd(M, N, directions=8)
        assert is_inf(rep.value)
        assert rep.covering.intercepts == (0,)
        # every per-band value agrees with the exhaustive matcher
        for a, C, val in rep.table:
            left = _closed_summands(
                diagonalize(push_band(scale_presentation(M, a), C), host=C))
            right = _closed_summands(
                diagonalize(push_band(scale_presentation(N, a), C), host=C))
            prof = pairwise_costs(left, right)
            assert val == exhaustive_bottleneck(prof.costs, prof.triv_m,
                                                prof.triv_n)

    def test_refinement_does_not_increase(self):
        M = pres([(0, 1), (1, 0)])
        N = pres([(1, 2), (2, 1)])
        dirs = default_directions((M, N), 4)
        coarse = gmd(M, N, directions=dirs)
        fine = gmd(M, N, directions=dirs, alpha=Fraction(1, 2))
        assert fine.value <= coarse.value

    def test_sandwich(self, rng):
        for _ in range(8):
            M_pres, M_mods = self.blocks(rng)
            N_pres, N_mods = self.blocks(rng)
            dirs = default_directions((M_pres, N_pres), 3)
            cov = anchors((M_pres, N_pres))
            lb = dmatch_sampled(M_pres, N_pres, dirs,
                                _sample_intercepts(cov, (M_pres, N_pres)))
            rep = gmd(M_pres, N_pres, directions=dirs)
            ub = bottleneck_distance(M_mods, N_mods).delta
            assert lb <= rep.value <= ub

    @staticmethod
    def blocks(rng):
        rows, cols, nz, mods = [], [], set(), []
        for _ in range(rng.randint(1, 3)):
            g = (Fraction(rng.randint(0, 10), 2),
                 Fraction(rng.randint(0, 10), 2))
            i = len(rows)
            rows.append(g)
            if rng.random() < 0.5:
                r = (g[0] + Fraction(rng.randint(1, 6), 2),
                     g[1] + Fraction(rng.randint(1, 6), 2))
                nz.add((i, len(cols)))
                cols.append(r)
                iv = HalfOpenInterval(point(*g), point(*r), FULL)
            else:
                iv = HalfOpenInterval(point(*g), None, FULL)
            mods.append(iv.closed())
        return validate_presentation(rows, cols, nz), mods
