import gc
import os
import random
import weakref
from fractions import Fraction

import pytest

from oracles import (band_epsilon_oracle, band_points_oracle, closure_oracle,
                     diagonalize_oracle, dim_oracle, dmatch_oracle,
                     exhaustive_bottleneck, gmd_oracle, pairing_oracle,
                     point_bottleneck_oracle, pointwise_dim)
from stairdist import gmd as GMD
from stairdist import io as mio
from stairdist.bottleneck import bottleneck_distance, pairwise_costs
from stairdist.errors import PreconditionError, ValidationError
from stairdist.geometry import Point2, band, intercept, point
from stairdist.gmd import (GradedMatrix, _band_epsilon, _band_values,
                           _Pairings, _sample_intercepts, _scaled_covering,
                           _scaled_ints, anchors, default_directions,
                           diagonalize, dmatch_sampled, gmd, push_band,
                           refine_alpha, scale_presentation,
                           validate_presentation)
from stairdist.rect_approx import construction1
from stairdist.scalars import INF, NINF, is_inf

from conftest import (band_closures, block_pair, int_bands,
                      point_bottleneck, random_presentation)

FULL = band(NINF, INF)
SEED12 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "gmd", "seed12")


def seed12(op):
    """The committed seed-12 gmd inputs of one op, as (P, Q)."""
    return tuple(mio.parse_presentation(mio.load_json(
        os.path.join(SEED12, "%s_%s.json" % (op, side)))) for side in "PQ")


def pres(rows, cols=(), nonzeros=()):
    return validate_presentation(rows, cols, nonzeros)


def diag(rows, cols=(), nonzeros=()):
    """diagonalize on int grades given in any order, with the pairing of
    the presentation whose rows and columns are in that order."""
    P = GradedMatrix(tuple(rows), tuple(cols), frozenset(nonzeros))
    return diagonalize(list(rows), list(cols), _Pairings(P))


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
        got = push_band([(1, 4), (3, 1), (1, 2)], 0, 2)
        assert got == [(2, 4), (3, 3), (1, 2)]

    def test_idempotent_and_monotone(self, rng):
        for _ in range(40):
            lo, hi = rng.randint(-8, 0), rng.randint(0, 8)
            grades = [(rng.randint(0, 8), rng.randint(0, 8))
                      for _ in range(3)]
            pushed = push_band(grades, lo, hi)
            assert push_band(pushed, lo, hi) == pushed
            for (u1, u2), (v1, v2) in zip(grades, pushed):
                assert u1 <= v1 and u2 <= v2
                assert lo <= v2 - v1 <= hi

    def test_preserves_grade_condition(self):
        rows, cols = push_band([(0, 0)], 0, 2), push_band([(1, 4)], 0, 2)
        assert cols == [(2, 4)]
        validate_presentation(rows, cols, {(0, 0)})


class TestAnchors:
    def test_symmetric_pair(self):
        cov = anchors([pres([(0, 1), (1, 0)])])
        assert cov.points == (point(1, 1),)
        assert cov.intercepts == (0,)
        assert len(cov.bands) == 2

    def test_comparable_pair_is_trivial(self):
        cov = anchors([pres([(0, 0), (1, 1)])])
        assert cov.intercepts == ()
        assert cov.bands == (FULL,)

    def test_asymmetric_pair(self):
        cov = anchors([pres([(0, 3), (2, 1)])])
        assert cov.points == (point(2, 3),)
        assert cov.intercepts == (1,)

    def test_pushed_grades_become_comparable(self, rng):
        for _ in range(10):
            P = random_presentation(rng, size=5, hi=6)
            for a in ((1, 1), (1, Fraction(5, 2))):
                _, grades, edges = int_bands([P], a)
                for lo, hi in edges:
                    for part in grades[0]:
                        gs = push_band(part, lo, hi)
                        for i, (u1, u2) in enumerate(gs):
                            for v1, v2 in gs[i + 1:]:
                                assert (u1 <= v1 and u2 <= v2
                                        or v1 <= u1 and v2 <= u2)


class TestDiagonalize:
    def test_pairing_matches_rank_oracle(self):
        # random 0/1 matrices up to 8 x 8 under random row and column orders
        rng = random.Random(61)
        for _ in range(400):
            nr, nc = rng.randint(0, 8), rng.randint(0, 8)
            density = rng.random()
            nonzeros = [(i, j) for i in range(nr) for j in range(nc)
                        if rng.random() < density]
            rorder, corder = list(range(nr)), list(range(nc))
            rng.shuffle(rorder)
            rng.shuffle(corder)
            assert GMD._pairing(nonzeros, rorder, corder) == \
                pairing_oracle(nonzeros, rorder, corder)

    def test_named_pairing(self):
        assert diag([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)}) == \
            [(1, 1, 2, 2), (0, 0, INF, INF)]

    def test_no_columns(self):
        assert diag([(0, 0)]) == [(0, 0, INF, INF)]

    def test_redundant_relation(self):
        assert diag([(0, 0)], [(1, 1), (2, 2)], {(0, 0), (0, 1)}) == \
            [(0, 0, 1, 1)]

    def test_incomparable_rejected(self):
        with pytest.raises(PreconditionError):
            diag([(0, 1), (1, 0)])

    def test_unsorted_grades(self):
        # push_band can leave grades out of lexicographic order; each
        # column keeps its own entries when the columns are sorted
        assert diag([(1, 1), (0, 0)], [(3, 3), (2, 2)], {(1, 0), (0, 1)}) \
            == [(0, 0, 3, 3), (1, 1, 2, 2)]

    @pytest.mark.parametrize("rows, cols", [
        ([(0, 0), (2, 2), (1, 3)], []),
        ([(0, 0)], [(4, 4), (1, 1), (2, 3), (3, 2)]),
    ], ids=["rows", "columns"])
    def test_incomparable_inside_chain_rejected(self, rows, cols):
        # one incomparable pair among otherwise ordered grades, not given
        # in sorted order
        with pytest.raises(PreconditionError, match="incomparable"):
            diag(rows, cols)

    def test_dim_contract(self, rng):
        for _ in range(10):
            P = random_presentation(rng, size=4, total_order=True)
            S, grades, _ = _scaled_ints([P], (1, 1), [])
            out = diagonalize(*grades[0], _Pairings(P))
            for u in grid_points(0, 8)[::13]:
                v1, v2 = (x * S for x in u)
                got = sum(1 for g1, g2, r1, r2 in out
                          if g1 <= v1 and g2 <= v2
                          and not (r1 <= v1 and r2 <= v2))
                assert got == pointwise_dim(P, u)

    def test_matches_oracle_on_every_anchor_band(self, rng):
        # the kernel's push and split against the Fraction pair in oracles,
        # on int grades S times the scaled ones
        bands = 0
        for _ in range(30):
            M = random_presentation(rng, size=rng.randint(2, 5), hi=6)
            N = random_presentation(rng, size=rng.randint(2, 5), hi=6)
            for a in default_directions((M, N), 3):
                S, grades, edges = int_bands((M, N), a)
                cov = _scaled_covering(anchors((M, N)), a)
                for C, (lo, hi) in zip(cov.bands, edges):
                    for P, (rows, cols) in zip((M, N), grades):
                        got = diagonalize(push_band(rows, lo, hi),
                                          push_band(cols, lo, hi),
                                          _Pairings(P))
                        want = band_points_oracle(scale_presentation(P, a),
                                                  C)
                        assert got == [tuple(x if is_inf(x) else x * S
                                             for x in p) for p in want]
                        bands += 1
        assert bands > 300


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
        assert band_points_oracle(P, FULL) == [(0, 0, 3, 4), (2, 2, INF, INF)]
        # the kernel's int points are the same times S = 2; edges beyond
        # every grade intercept stand for the infinite ones
        S, grades, _ = _scaled_ints([P], (1, 1), [])
        assert S == 2
        rows, cols = (push_band(part, -10, 10) for part in grades[0])
        assert diagonalize(rows, cols, _Pairings(P)) == \
            [(0, 0, 6, 8), (4, 4, INF, INF)]

    def test_epsilon_counts_hooks_only(self):
        hook, strip, quad = (0, 0, 2, 3), (0, 0, 5, 0), (0, 0, INF, INF)
        assert band_epsilon_oracle([hook, strip, quad]) == Fraction(3, 2)
        assert band_epsilon_oracle([strip, quad]) == 0
        # the kernel's int points have even gaps
        hook, strip, quad = (tuple(2 * x for x in p)
                             for p in (hook, strip, quad))
        assert _band_epsilon([hook, strip, quad]) == 3
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
                    pm = band_points_oracle(sm, C)
                    pn = band_points_oracle(sn, C)
                    assert point_bottleneck(pm, pn) == want
                    for pts, closures in ((pm, left), (pn, right)):
                        assert band_epsilon_oracle(pts) == max(
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

    @pytest.mark.parametrize("alpha,lb", [(Fraction(1, 2), 4),
                                          (Fraction(1, 7), Fraction(5, 3)),
                                          (Fraction(1, 40), 1)])
    def test_band_count_is_counted_before_cutting(self, monkeypatch, alpha,
                                                  lb):
        """The closed-form count equals the number of bands cut: the limit
        at that number passes, one below it raises."""
        cov = self.cov((0, 0), (0, 4), (-3, 0), (0, Fraction(9, 2)))
        n = len(refine_alpha(cov, alpha, lb).bands)
        monkeypatch.setattr(GMD, "MAX_BANDS", n)
        assert len(refine_alpha(cov, alpha, lb).bands) == n
        monkeypatch.setattr(GMD, "MAX_BANDS", n - 1)
        with pytest.raises(ValidationError, match="bands"):
            refine_alpha(cov, alpha, lb)


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

    def test_no_grades(self):
        # every slice of the zero module has no bar
        E = pres([])
        assert dmatch_sampled(E, E, [(1, 1), (1, 2)], [-5, 0, 5]) == 0

    def test_empty_samples_rejected(self):
        P = square_pres(0, 4)
        with pytest.raises(PreconditionError):
            dmatch_sampled(P, P, [], [0])

    def test_zero_width_push_is_line_projection(self, rng):
        # the slices dmatch samples: the diagonal line of intercept 2h first
        # meets the up-set of (x1, x2) at t = max(x1 + h, x2 - h), the t
        # of _slice_bars
        for _ in range(20):
            P = random_presentation(rng, size=5)
            _, grades, _ = _scaled_ints([P], (1, 1), [])
            us = grades[0][0] + grades[0][1]
            for h in (-6, -1, 0, 5):
                for (x1, x2), v in zip(us, push_band(us, 2 * h, 2 * h)):
                    t = max(x1 + h, x2 - h)
                    assert v == (t - h, t + h)


class TestDefaultDirections:
    def test_over_the_limit_refused_before_building(self):
        # None has no grades to read: the count is checked first
        with pytest.raises(ValidationError, match="more than 10000"):
            default_directions(None, GMD.MAX_DIRECTIONS + 1)

    def test_at_the_limit_builds(self):
        P = square_pres(0, 4)
        dirs = default_directions((P, P), GMD.MAX_DIRECTIONS)
        assert len(set(dirs)) == GMD.MAX_DIRECTIONS


class TestGmd:
    def test_identical(self):
        P = pres([(0, 0), (1, 1)], [(2, 2)], {(0, 0), (1, 0)})
        assert gmd(P, P, directions=4).value == 0

    def test_free_quadrants(self):
        rep = gmd(pres([(0, 0)]), pres([(1, 1)]), directions=16)
        assert rep.value == 1
        assert rep.covering.intercepts == ()

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


def scaled(P, k):
    """P with every grade multiplied by k > 0."""
    mv = lambda u: (u.x1 * k, u.x2 * k)
    return validate_presentation([mv(u) for u in P.row_grades],
                                 [mv(u) for u in P.col_grades], P.nonzeros)


def random_pairs(rng, count):
    """Presentation pairs: a random one with a copy whose generators move
    down and relations up by up to 1 (a finite distance apart), then with
    an unrelated random one (often infinitely far apart), in turn."""
    for n in range(count):
        M = random_presentation(rng, size=rng.randint(2, 5), hi=6)
        if n % 2:
            yield M, random_presentation(rng, size=rng.randint(2, 5), hi=6)
            continue
        move = lambda u, s: (u.x1 + s * Fraction(rng.randint(0, 4), 4),
                             u.x2 + s * Fraction(rng.randint(0, 4), 4))
        yield M, validate_presentation([move(u, -1) for u in M.row_grades],
                                       [move(u, 1) for u in M.col_grades],
                                       M.nonzeros)


def recording_pairings(monkeypatch, made):
    """Make gmd and dmatch_sampled build _Pairings that call made(P, memo)
    when they are created."""
    class Recorded(_Pairings):
        def __init__(self, P):
            super().__init__(P)
            made(P, self)

    monkeypatch.setattr(GMD, "_Pairings", Recorded)


class TestIntKernel:
    # the per-direction int kernel of gmd and dmatch_sampled against the
    # per-band Fraction path in oracles, also on inputs scaled by 3 and 1/3
    @pytest.mark.parametrize("k", [1, 3, Fraction(1, 3)])
    def test_band_values_match_oracle(self, rng, k):
        bands = 0
        for M, N in random_pairs(rng, 12):
            M, N = scaled(M, k), scaled(N, k)
            pairings = [_Pairings(M), _Pairings(N)]
            for a in default_directions((M, N), 4):
                cov = _scaled_covering(anchors((M, N)), a)
                sm, sn = scale_presentation(M, a), scale_presentation(N, a)
                want = []
                for C in cov.bands:
                    left = band_points_oracle(sm, C)
                    right = band_points_oracle(sn, C)
                    want.append((point_bottleneck_oracle(left, right),
                                 max(band_epsilon_oracle(left),
                                     band_epsilon_oracle(right))))
                assert _band_values((M, N), a, cov.bands, pairings) == want
                bands += len(want)
        assert bands > 100

    @pytest.mark.parametrize("k", [1, 3, Fraction(1, 3)])
    def test_slice_values_match_oracle(self, rng, k):
        # one (direction, intercept) sample at a time, so that no sample's
        # value hides behind another's in the max
        slices = 0
        for M, N in random_pairs(rng, 8):
            M, N = scaled(M, k), scaled(N, k)
            cs = _sample_intercepts(anchors((M, N)), (M, N))
            for a in default_directions((M, N), 3):
                for c in cs:
                    assert dmatch_sampled(M, N, [a], [c]) == \
                        dmatch_oracle(M, N, [a], [c])
                    slices += 1
        assert slices > 100

    @pytest.mark.parametrize("k", [1, 3, Fraction(1, 3)])
    def test_reports_match_oracle(self, rng, k):
        for M, N in random_pairs(rng, 6):
            dirs = default_directions((M, N), 3)
            kM, kN = scaled(M, k), scaled(N, k)
            for alpha in (None, Fraction(1, 2)):
                rep = gmd(kM, kN, directions=dirs, alpha=alpha)
                assert rep == gmd_oracle(kM, kN, dirs, alpha)
                assert rep.value == k * gmd(M, N, directions=dirs,
                                            alpha=alpha).value
            cs = _sample_intercepts(anchors((kM, kN)), (kM, kN))
            for n in range(1, len(dirs) + 1):
                got = dmatch_sampled(kM, kN, dirs[:n], cs)
                assert got == dmatch_oracle(kM, kN, dirs[:n], cs)
            assert got == k * dmatch_sampled(M, N, dirs, [c / k for c in cs])

    @pytest.mark.parametrize("k", [1, 3, Fraction(1, 3)])
    def test_lines_past_the_extreme_intercepts(self, rng, k):
        # at an extreme grade intercept of both presentations, one lattice
        # step past it and far past it: each matches the oracle, and all
        # of one side give one value
        for M, N in random_pairs(rng, 12):
            M, N = scaled(M, k), scaled(N, k)
            for a in default_directions((M, N), 3):
                step = Fraction(2, _scaled_ints((M, N), a, [])[0])
                sm, sn = scale_presentation(M, a), scale_presentation(N, a)
                cs = [intercept(u) for P in (sm, sn)
                      for u in P.row_grades + P.col_grades]
                lo, hi = min(cs), max(cs)
                far = 10 * max(hi - lo, step)
                for side in ([lo, lo - step, lo - far],
                             [hi, hi + step, hi + far]):
                    got = [dmatch_sampled(M, N, [a], [c]) for c in side]
                    assert got == [dmatch_oracle(M, N, [a], [c])
                                   for c in side]
                    assert len(set(got)) == 1

    @pytest.mark.parametrize("op, searches", [("op01", 34), ("op02", 30)])
    def test_one_search_per_distinct_line(self, monkeypatch, op, searches):
        # the committed seed-12 dmatch inputs: 27 and 23 sampled intercepts
        # per direction, 216 and 184 searches without the clamp
        M, N = seed12(op)
        dirs = default_directions((M, N), 8)
        cs = _sample_intercepts(anchors((M, N)), (M, N))
        calls = []
        search = GMD.int_point_bottleneck
        monkeypatch.setattr(GMD, "int_point_bottleneck",
                            lambda m, n: calls.append(1) or search(m, n))
        got = dmatch_sampled(M, N, dirs, cs)
        assert len(calls) == searches
        assert got == dmatch_oracle(M, N, dirs, cs)

    @pytest.mark.parametrize("op, bands", [("op00", 47), ("op01", 84),
                                           ("op02", 96)])
    def test_one_push_and_split_per_band(self, monkeypatch, op, bands):
        # the committed seed-12 gmd inputs: each (direction, band) of the
        # table pushes the rows and the columns of both presentations and
        # splits each once, through the module's own names; dmatch_sampled
        # does neither
        M, N = seed12(op)
        calls = {"push_band": 0, "diagonalize": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(GMD, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(GMD, name, counted)
        rep = gmd(M, N, directions=8)
        assert len(rep.table) == bands
        assert calls == {"push_band": 4 * bands, "diagonalize": 2 * bands}
        dmatch_sampled(M, N, default_directions((M, N), 8),
                       _sample_intercepts(rep.covering, (M, N)))
        assert calls == {"push_band": 4 * bands, "diagonalize": 2 * bands}

    def test_memo_matches_fresh_diagonalize(self, rng, monkeypatch):
        made = []
        recording_pairings(monkeypatch, lambda P, memo: made.append((P, memo)))
        orders = 0
        for M, N in random_pairs(rng, 4):
            dirs = default_directions((M, N), 4)
            gmd(M, N, directions=dirs, alpha=Fraction(1, 2))
            dmatch_sampled(M, N, dirs, [Fraction(-1), Fraction(0), 2])
            for P, memo in made:
                for (rorder, corder), got in memo.memo.items():
                    # distinct grades on the diagonal, placed so that
                    # diagonalize_oracle sorts rows and columns into these
                    # orders
                    rows, cols = [None] * len(rorder), [None] * len(corder)
                    for k, i in enumerate(rorder):
                        rows[i] = Point2(k, k)
                    for k, j in enumerate(corder):
                        cols[j] = Point2(k, k)
                    ivs = diagonalize_oracle(
                        GradedMatrix(tuple(rows), tuple(cols), P.nonzeros))
                    pairs = [(rorder[iv.g.x1], corder[iv.r.x1])
                             for iv in ivs if iv.r is not None]
                    free = [rorder[iv.g.x1] for iv in ivs if iv.r is None]
                    assert got == (pairs, free)
                    orders += 1
            made.clear()
        assert orders > 20

    def test_memo_dropped_after_the_call(self, rng, monkeypatch):
        refs = []
        recording_pairings(monkeypatch,
                           lambda P, memo: refs.append(weakref.ref(memo)))
        M, N = next(random_pairs(rng, 1))
        gmd(M, N, directions=4, alpha=Fraction(1, 2))
        dmatch_sampled(M, N, default_directions((M, N), 4), [0, 1])
        gc.collect()
        assert len(refs) == 6  # gmd's, its lower bound's and dmatch's
        assert all(r() is None for r in refs)
