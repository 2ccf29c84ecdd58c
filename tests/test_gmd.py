from fractions import Fraction

import pytest

from oracles import closure_oracle, dim_oracle, exhaustive_bottleneck
from stairdist.bottleneck import (bottleneck_distance, pairwise_costs,
                                  point_bottleneck)
from stairdist.errors import PreconditionError, ValidationError
from stairdist.generate import random_presentation
from stairdist.geometry import band, point
from stairdist.gmd import (GradedMatrix, _band_epsilon, _band_points,
                           _sample_intercepts, _scaled_covering, anchors,
                           default_directions, diagonalize, dmatch_sampled,
                           gmd, pointwise_dim, push_band, refine_alpha,
                           scale_presentation, validate_presentation)
from stairdist.rect_approx import construction1
from stairdist.scalars import INF, NINF, is_inf

from conftest import band_closures, block_pair

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

    def test_unsorted_grades(self):
        # push_band can leave grades out of lexicographic order; each
        # column keeps its own entries when the columns are sorted
        P = GradedMatrix((point(1, 1), point(0, 0)),
                         (point(3, 3), point(2, 2)),
                         frozenset({(1, 0), (0, 1)}))
        out = diagonalize(P)
        assert [(iv.g, iv.r) for iv in out] == [(point(0, 0), point(3, 3)),
                                                (point(1, 1), point(2, 2))]

    @pytest.mark.parametrize("rows, cols", [
        ([(0, 0), (2, 2), (1, 3)], []),
        ([(0, 0)], [(4, 4), (1, 1), (2, 3), (3, 2)]),
    ], ids=["rows", "columns"])
    def test_incomparable_inside_chain_rejected(self, rows, cols):
        # one incomparable pair among otherwise ordered grades, not given
        # in sorted order
        with pytest.raises(PreconditionError, match="incomparable"):
            diagonalize(pres(rows, cols))

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
    # the reference closures that the band points stand for
    def test_free(self):
        I = closure_oracle(point(0, 0), None)
        assert I.mins == (point(0, 0),)
        assert I.maxs == (point(INF, INF),)

    def test_empty_when_grades_equal(self):
        assert closure_oracle(point(1, 1), point(1, 1)) is None

    def test_hook(self):
        I = closure_oracle(point(0, 0), point(2, 3))
        assert I.maxs == (point(2, INF), point(INF, 3))


class TestBandPoints:
    def test_named(self):
        P = pres([(0, 0), (1, 1), (2, 2)], [(1, 1), (3, 4)],
                 {(1, 0), (0, 1)})
        assert _band_points(P, FULL) == [(0, 0, 3, 4), (2, 2, INF, INF)]

    def test_epsilon_counts_hooks_only(self):
        hook, strip, quad = (0, 0, 2, 3), (0, 0, 5, 0), (0, 0, INF, INF)
        assert _band_epsilon([hook, strip, quad]) == Fraction(3, 2)
        assert _band_epsilon([strip, quad]) == 0

    def test_matches_closures(self, rng):
        # per band and direction: the point-set value equals the exhaustive
        # matcher on the closures' costs, and the hook epsilon equals
        # construction1 on the closures that are not rectangles
        bands = 0
        for _ in range(30):
            M = random_presentation(rng, size=rng.randint(2, 4), hi=6)
            N = random_presentation(rng, size=rng.randint(2, 4), hi=6)
            for a in default_directions((M, N), 3):
                sm, sn = scale_presentation(M, a), scale_presentation(N, a)
                for C in _scaled_covering(anchors((M, N)), a).bands:
                    left, right = band_closures(sm, C), band_closures(sn, C)
                    prof = pairwise_costs(left, right)
                    want = exhaustive_bottleneck(prof.costs, prof.triv_m,
                                                 prof.triv_n)
                    pm, pn = _band_points(sm, C), _band_points(sn, C)
                    assert point_bottleneck(pm, pn) == want
                    for pts, closures in ((pm, left), (pn, right)):
                        assert _band_epsilon(pts) == max(
                            (construction1(S).epsilon for S in closures
                             if not S.is_rectangle()), default=0)
                    bands += 1
        assert bands > 200


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


def square_pres(a, b):
    """The square [a, b]^2: generator (a, a), relations (b, a) and (a, b)."""
    return pres([(a, a)], [(b, a), (a, b)], {(0, 0), (0, 1)})


class TestDmatchSampled:
    def test_identical(self):
        # the thick L [0,4] x [0,3] union [0,3] x [0,4]
        L = pres([(0, 0)], [(4, 0), (3, 3), (0, 4)],
                 {(0, 0), (0, 1), (0, 2)})
        assert dmatch_sampled(L, L, [(1, 1)], [0, 1]) == 0

    def test_nested_squares(self):
        got = dmatch_sampled(square_pres(0, 4), square_pres(1, 3), [(1, 1)],
                             [0])
        assert got == 1

    def test_quadrant_presentations(self):
        M = pres([(0, 0)])
        N = pres([(1, 1)])
        dirs = default_directions((M, N), 16)
        got = dmatch_sampled(M, N, dirs, [Fraction(0), Fraction(1, 2), 1])
        assert got == 1

    def test_empty_samples_rejected(self):
        P = square_pres(0, 4)
        with pytest.raises(PreconditionError):
            dmatch_sampled(P, P, [], [0])

    def test_zero_width_push_is_line_projection(self, rng):
        # the slices dmatch samples: the diagonal line of intercept c first
        # meets the up-set of u at t = max(u.x1 + c/2, u.x2 - c/2)
        for _ in range(20):
            P = random_presentation(rng, size=5)
            for c in (Fraction(-3), Fraction(-1, 2), Fraction(0),
                      Fraction(5, 2)):
                Q = push_band(P, band(c, c))
                for u, v in zip(P.row_grades + P.col_grades,
                                Q.row_grades + Q.col_grades):
                    t = max(u.x1 + c / 2, u.x2 - c / 2)
                    assert v == (t - c / 2, t + c / 2)


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
            left = band_closures(scale_presentation(M, a), C)
            right = band_closures(scale_presentation(N, a), C)
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
            M_pres, M_mods = block_pair(rng)
            N_pres, N_mods = block_pair(rng)
            dirs = default_directions((M_pres, N_pres), 3)
            cov = anchors((M_pres, N_pres))
            lb = dmatch_sampled(M_pres, N_pres, dirs,
                                _sample_intercepts(cov, (M_pres, N_pres)))
            rep = gmd(M_pres, N_pres, directions=dirs)
            ub = bottleneck_distance(M_mods, N_mods).delta
            assert lb <= rep.value <= ub
