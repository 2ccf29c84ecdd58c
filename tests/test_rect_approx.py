import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_simplex, rect_grid_oracle
from stairdist import rect_approx
from stairdist.errors import PreconditionError
from stairdist.geometry import (RectangleSpec, StaircaseInterval, diag_shift,
                                point)
from stairdist.generate import random_staircase
from stairdist.interleaving import di_interval_vs_rect, triv_distance
from stairdist.rect_approx import (_CellGeometry, approx_decomposable,
                                   band_partition, construction1,
                                   diam_tables, optimal_rectangle,
                                   optimize_cell, solve_lp)
from stairdist.scalars import INF, NINF

from conftest import square

HALF = Fraction(1, 2)


def lp_outcome(solve, c, A, b, duals):
    """What an LP solver returns, with "unbounded" for ArithmeticError."""
    try:
        return solve(c, A, b, duals=duals)
    except ArithmeticError:
        return "unbounded"


# small entries, so that ratio ties and degenerate vertices are common
lp_entries = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-6, 6),
                                 st.sampled_from([2, 3, 4])))


@st.composite
def lps(draw):
    """(c, A, b) with negative b entries (phase 1) and redundant rows: a
    row repeated, possibly times a positive factor."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    c = draw(st.lists(lp_entries, min_size=n, max_size=n))
    A = [draw(st.lists(lp_entries, min_size=n, max_size=n))
         for _ in range(m)]
    b = draw(st.lists(lp_entries, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1, 2, HALF]))
        A.append([k * v for v in A[i]])
        b.append(k * b[i])
    return c, A, b


class TestConstruction1:
    def test_thick_l(self, thick_l):
        res = construction1(thick_l)
        assert (res.rect.r, res.rect.s) == (point(0, 0),
                                            point(Fraction(7, 2),
                                                  Fraction(7, 2)))
        assert res.epsilon == HALF

    def test_thin_l_trivializes(self, thin_l):
        res = construction1(thin_l)
        assert res.rect.is_zero
        assert res.epsilon == HALF

    def test_rectangle_is_kept(self):
        res = construction1(square(0, 2))
        assert (res.rect.r, res.rect.s) == (point(0, 0), point(2, 2))
        assert res.epsilon == 0

    def test_quadrant(self):
        Q = StaircaseInterval.from_antichains([point(0, 0)],
                                              [point(INF, INF)])
        res = construction1(Q)
        assert res.epsilon == 0
        assert res.rect.s == point(INF, INF)

    def test_upper_bound_achieved(self, rng):
        for _ in range(15):
            M = random_staircase(rng, size=8)
            res = construction1(M)
            if res.rect.is_zero:
                assert res.epsilon == triv_distance(M)
            else:
                assert di_interval_vs_rect(M, res.rect) == res.epsilon


class TestBandsAndTables:
    def test_thick_l_partition(self, thick_l):
        bands = band_partition(thick_l)
        assert [(b.lo, b.hi) for b in bands] == \
            [(-4, -1), (-1, 0), (0, 1), (1, 4)]

    def test_thick_l_lengths(self, thick_l):
        t = diam_tables(thick_l)
        assert t.intercepts == [-4, -1, 0, 1, 4]
        assert t.lengths == [0, 3, 3, 3, 0]

    def test_range_maxima(self, thick_l):
        t = diam_tables(thick_l)
        assert t.diam(1, 3) == 3
        assert t.diam(2, 1) is NINF
        assert t.codiam(1, 3) == 0
        assert t.codiam(2, 1) == 3
        assert t.codiam(0, 4) is NINF

    def test_range_maxima_match_slices(self, rng):
        for _ in range(10):
            t = diam_tables(random_staircase(rng, size=8))
            n = len(t.lengths)
            for i in range(n + 1):
                for j in range(-1, n):
                    inside = t.lengths[i:j + 1]
                    outside = t.lengths if j < i else \
                        t.lengths[:i] + t.lengths[j + 1:]
                    assert t.diam(i, j) == (max(inside) if inside else NINF)
                    assert t.codiam(i, j) == \
                        (max(outside) if outside else NINF)


class TestSolveLp:
    def test_simple(self):
        val, x = solve_lp([1, 0], [[-1, 0], [1, 1]], [-1, 3])
        assert val == 1 and x[0] == 1

    def test_infeasible(self):
        assert solve_lp([1], [[1], [-1]], [1, -2]) is None

    def test_duals_certify_value(self):
        c = [0, 0, 1]
        A = [[1, 1, -1], [-1, 0, 0], [0, -1, 0]]
        b = [0, -1, -2]
        val, x, y = solve_lp(c, A, b, duals=True)
        assert val == 3
        assert sum(bi * yi for bi, yi in zip(b, y)) == val

    def test_bland_tie_break_decides_x(self):
        # the first pivot enters x1 with ratio 1 in both rows; the slack of
        # row 0 has the lower basis index and leaves, and the simplex ends
        # at (0, 0, 1); letting the slack of row 1 leave ends at (0, 1/2, 1)
        c, A, b = [-1, 0, -2], [[1, 0, 1], [1, 2, 0]], [1, 1]
        val, x, y = solve_lp(c, A, b, duals=True)
        assert (val, x, y) == (-2, [0, 0, 1], [2, 0])
        assert (val, x, y) == fraction_simplex(c, A, b, duals=True)

    @given(lps(), st.booleans())
    @settings(max_examples=400, deadline=None)
    @example(([-1, 0, -2], [[1, 0, 1], [1, 2, 0]], [1, 1]), True)
    # x1 + x2 = 1 twice over: an artificial stays basic after phase 1
    @example(([1, 2], [[1, 1], [-1, -1], [1, 1], [-1, -1]], [1, -1, 1, -1]),
             True)
    @example(([HALF, -1], [[Fraction(2, 3), -1], [-1, Fraction(1, 4)]],
              [Fraction(-1, 3), -2]), True)
    def test_matches_fraction_tableau(self, lp, duals):
        c, A, b = lp
        got = lp_outcome(solve_lp, c, A, b, duals)
        assert got == lp_outcome(fraction_simplex, c, A, b, duals)
        if isinstance(got, tuple):
            val, *vectors = got
            assert all(type(v) is Fraction
                       for v in [val, *vectors[0], *vectors[-1]])

    def test_cell_lps_match_fraction_tableau(self, thick_l, thin_l,
                                             monkeypatch):
        # every LP optimal_rectangle solves, against the Fraction tableau on
        # the same LP before _CellGeometry scaled its rows to ints
        seen = []

        def record(c, A, b, duals=False):
            seen.append((c, A, b, duals))
            return solve_lp(c, A, b, duals=duals)

        monkeypatch.setattr(rect_approx, "solve_lp", record)
        for M in (thick_l, thin_l):
            geo = _CellGeometry(M)
            cs, rs = geo.col_scale, geo.rhs_scale
            start = len(seen)
            optimal_rectangle(M)
            assert len(seen) > start
            for c, A, b, duals in seen[start:]:
                want = lp_outcome(
                    fraction_simplex, [Fraction(v, rs) for v in c],
                    [[Fraction(v, cs) for v in row] for row in A],
                    [Fraction(v, cs) for v in b], duals)
                got = lp_outcome(solve_lp, c, A, b, duals)
                if isinstance(want, tuple):
                    val, x, y = got
                    want_y = [v * rs / cs for v in want[2]]
                    assert (val / rs, x, y) == (want[0], want[1], want_y)
                else:
                    assert got == want

    def test_matches_scipy(self, rng):
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            c = [rng.randint(-3, 3) for _ in range(n)]
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-2, 6) for _ in range(m)]
            A.append([1] * n)
            b.append(10)
            got = solve_lp(c, A, b)
            ref = scipy.optimize.linprog(c, A_ub=np.array(A, float),
                                         b_ub=np.array(b, float),
                                         bounds=(0, None), method="highs")
            if got is None:
                assert ref.status == 2
            else:
                assert ref.status == 0
                assert abs(float(got[0]) - ref.fun) < 1e-7


class TestOptimizeCell:
    def test_values_match_closed_form(self, thick_l):
        nb = len(band_partition(thick_l))
        checked = 0
        for j in range(nb):
            for i in range(j, nb):
                for k in range(j, i + 1):
                    for l in range(j, i + 1):
                        out = optimize_cell(thick_l, (i, j, k, l))
                        if out is None:
                            continue
                        rect, val = out
                        assert di_interval_vs_rect(thick_l, rect) == val
                        checked += 1
        assert checked > 0

    def test_named_cell(self, thick_l):
        # the cell holding p=(0,3.5), q=(3.5,0) contains the optimum
        rect, val = optimize_cell(thick_l, (3, 0, 1, 1))
        assert val == HALF
        assert di_interval_vs_rect(thick_l, rect) == HALF

    def test_unbounded_rejected(self):
        Q = StaircaseInterval.from_antichains([point(0, 0)],
                                              [point(INF, INF)])
        with pytest.raises(PreconditionError):
            optimize_cell(Q, (0, 0, 0, 0))


class TestOptimalRectangle:
    def test_thick_l(self, thick_l):
        res = optimal_rectangle(thick_l)
        assert (res.rect.r, res.rect.s) == (point(0, 0),
                                            point(Fraction(7, 2),
                                                  Fraction(7, 2)))
        assert res.epsilon == HALF

    def test_thin_l(self, thin_l):
        res = optimal_rectangle(thin_l)
        assert res.rect.is_zero and res.epsilon == HALF

    def test_rectangle_shortcut(self):
        res = optimal_rectangle(square(1, 5))
        assert (res.rect.r, res.rect.s) == (point(1, 1), point(5, 5))
        assert res.epsilon == 0

    def test_unbounded_falls_back_to_construction(self):
        M = StaircaseInterval.from_antichains([point(0, 2), point(2, 0)],
                                              [point(INF, INF)])
        res = optimal_rectangle(M)
        ref = construction1(M)
        assert (res.rect, res.epsilon) == (ref.rect, ref.epsilon)
        assert res.rect.r == point(1, 1)

    def test_grid_oracle_agreement(self, thick_l, thin_l):
        assert abs(float(optimal_rectangle(thick_l).epsilon)
                   - rect_grid_oracle(thick_l)) <= 0.1
        assert abs(float(optimal_rectangle(thin_l).epsilon)
                   - rect_grid_oracle(thin_l)) <= 0.1

    def test_shift_invariance(self, rng):
        for _ in range(5):
            M = random_staircase(rng, size=6)
            d = Fraction(rng.randint(-8, 8), 2)
            assert optimal_rectangle(diag_shift(M, d)).epsilon \
                == optimal_rectangle(M).epsilon

    def test_dominance_and_achievement(self, rng):
        for _ in range(10):
            M = random_staircase(rng, size=8)
            opt = optimal_rectangle(M)
            con = construction1(M)
            triv = triv_distance(M)
            assert opt.epsilon <= con.epsilon <= triv
            if opt.rect.is_zero:
                assert opt.epsilon == triv
            else:
                assert di_interval_vs_rect(M, opt.rect) == opt.epsilon


class TestSearchEquivalence:
    """The pruned search against plain minima over every cell."""

    @staticmethod
    def settle(M, best):
        """optimal_rectangle's rules on the best cell (rect, value), where
        rect None stands for any rectangle: a cell only displaces the
        midpoint construction when strictly better, and the zero module
        wins when trivializing is as cheap."""
        seed = construction1(M)
        rect, eps = seed.rect, seed.epsilon
        if best is not None and best[1] < eps:
            rect, eps = best
        triv = triv_distance(M)
        if (rect is not None and rect.is_zero) or triv <= eps:
            return RectangleSpec.zero(), triv
        return rect, eps

    def unpruned(self, M):
        """(epsilon from optimize_cell over every cell, (rect, epsilon) from
        the search's own branches over every cell without pruning)."""
        geo = _CellGeometry(M)
        nb = len(geo.bands)
        vals, keyed = [], []
        for j in range(nb):
            for i in range(j, nb):
                _, t1, t2a = geo.pair(i, j)
                keyed.append(geo.solve((i, j, j, j), t1, t2a, "pinch"))
                for k in range(j, i + 1):
                    for l in range(j, i + 1):
                        cell = (i, j, k, l)
                        vals.append(optimize_cell(M, cell, geo=geo))
                        # the intercept-sum test only drops infeasible cells
                        assert geo.sums_meet(*cell) or vals[-1] is None
                        keyed.append(geo.solve(cell, t1, t2a, "hull"))
        vals = [out[1] for out in vals if out is not None]
        eps = self.settle(M, (None, min(vals)) if vals else None)[1]
        keyed = [out for out in keyed if out is not None]
        best = min(keyed, default=None, key=lambda out: (
            out[1], out[0].area(), *out[0].r, *out[0].s))
        return eps, self.settle(M, best)

    def check(self, M):
        res = optimal_rectangle(M)
        eps, (rect, val) = self.unpruned(M)
        assert res.epsilon == eps == val
        assert (res.rect.r, res.rect.s) == (rect.r, rect.s)
        if res.rect.is_zero:
            assert res.epsilon == triv_distance(M)
        else:
            assert di_interval_vs_rect(M, res.rect) == res.epsilon

    def test_l_shapes(self, thick_l, thin_l):
        self.check(thick_l)
        self.check(thin_l)

    def test_random_staircases(self, rng):
        checked = 0
        while checked < 15:
            M = random_staircase(rng, size=4 + checked % 5)
            if M.is_rectangle():
                continue
            self.check(M)
            checked += 1


class TestApproxDecomposable:
    def test_aggregate(self, thick_l, thin_l):
        rects, epss, agg = approx_decomposable([thick_l, thin_l])
        assert epss == [HALF, HALF]
        assert agg == HALF
        assert not rects[0].is_zero and rects[1].is_zero

    def test_construction_method(self, thick_l):
        rects, epss, agg = approx_decomposable([thick_l],
                                               method="construction1")
        assert agg == HALF
