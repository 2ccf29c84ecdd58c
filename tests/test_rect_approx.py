import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (FractionCellGeometry, fraction_simplex,
                     rect_grid_oracle, reference_optimal_rectangle)
from stairdist import rect_approx
from stairdist.errors import PreconditionError
from stairdist.geometry import (DiagRegion, RectangleSpec, StaircaseInterval,
                                point)
from stairdist.generate import random_staircase
from stairdist.interleaving import di_interval_vs_rect, triv_distance
from stairdist.rect_approx import (_CellGeometry, approx_decomposable,
                                   band_partition, construction1,
                                   optimal_rectangle, solve_lp)
from stairdist.pl import PL
from stairdist.scalars import INF, int_scale, is_inf

from conftest import (banded_staircase, diag_shift, optimize_cell, scale,
                      square)

HALF = Fraction(1, 2)


def lp_outcome(solve, c, A, b):
    """What an LP solver returns, with "unbounded" for ArithmeticError."""
    try:
        return solve(c, A, b)
    except ArithmeticError:
        return "unbounded"


def oracle_lp(c, A, b):
    """The Fraction tableau's answer in solve_lp's form (value, x, y)."""
    return fraction_simplex(c, A, b, duals=True)


def int_image(M):
    """M as optimal_rectangle searches it: moved to put its bounding corner
    at the origin, then scaled by 4 times the lcm of its corners'
    denominators."""
    S = int_scale(4, (x for p in M.mins + M.maxs for x in p))
    return M.scaled(S, M.bounding_r)


# small entries, so that ratio ties and degenerate vertices are common
lp_entries = st.integers(-3, 3)


@st.composite
def lps(draw):
    """(c, A, b) with int entries, b >= 0 and redundant rows: a row
    repeated, possibly times a positive factor."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    c = draw(st.lists(lp_entries, min_size=n, max_size=n))
    A = [draw(st.lists(lp_entries, min_size=n, max_size=n))
         for _ in range(m)]
    b = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1, 2, 3]))
        A.append([k * v for v in A[i]])
        b.append(k * b[i])
    return c, A, b


def assert_dual_certificate(c, A, b, val, x, y):
    """x is feasible with c.x = val, and y >= 0 is a dual point,
    A^T y >= -c, with -b.y = val: so both are optimal."""
    assert all(v >= 0 for v in x) and all(v >= 0 for v in y)
    assert all(sum(a * v for a, v in zip(row, x)) <= bi
               for row, bi in zip(A, b))
    assert all(sum(row[j] * yi for row, yi in zip(A, y)) >= -c[j]
               for j in range(len(c)))
    assert sum(ci * v for ci, v in zip(c, x)) == val
    assert -sum(bi * yi for bi, yi in zip(b, y)) == val


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

    @pytest.mark.parametrize("r, s", [((0, 0), (1, INF)),
                                      ((0, 0), (INF, 1))])
    def test_strip_is_kept(self, r, s):
        M = StaircaseInterval.rect(point(*r), point(*s))
        for res in (construction1(M), optimal_rectangle(M)):
            assert (res.rect.r, res.rect.s) == (point(*r), point(*s))
            assert res.epsilon == 0

    def test_upper_bound_achieved(self, rng):
        for _ in range(15):
            M = random_staircase(rng, size=8)
            res = construction1(M)
            if res.rect.is_zero:
                assert res.epsilon == triv_distance(M)
            else:
                assert di_interval_vs_rect(M, res.rect) == res.epsilon

    def test_int_image_pulls_stay_int(self, rng, monkeypatch):
        """On optimal_rectangle's int image, with corners at multiples of
        4, both pulls are int distances to int points: no Fraction."""
        pulls = []
        pull = rect_approx._corner_pull

        def record(reg, x, lower):
            pulls.append(pull(reg, x, lower))
            return pulls[-1]

        monkeypatch.setattr(rect_approx, "_corner_pull", record)
        for M in rect_corpus(rng):
            construction1(int_image(M))
        assert pulls and all(type(v) is int
                             for eps, p in pulls for v in (eps, *p))


class TestBandsAndTables:
    def test_thick_l_partition(self, thick_l):
        bands = band_partition(thick_l)
        assert [(b.lo, b.hi) for b in bands] == \
            [(-4, -1), (-1, 0), (0, 1), (1, 4)]

    def test_thick_l_lengths(self, thick_l):
        geo = FractionCellGeometry(thick_l)
        assert geo.knots == [-4, -1, 0, 1, 4]
        assert geo.lengths == [0, 3, 3, 3, 0]
        # the int image is thick_l times 4
        geo = _CellGeometry(int_image(thick_l))
        assert geo.knots == [-16, -4, 0, 4, 16]
        assert geo.lengths == [0, 12, 12, 12, 0]

    def test_range_maxima(self, thick_l):
        geo = _CellGeometry(int_image(thick_l))
        # c_p in the top band, c_q in the bottom one: the knots -4, 0, 4
        # lie inside [c_q, c_p], the two ends outside
        assert diameters(geo, 3, 0) == (0, 12)
        assert geo.pair(3, 0)[0] == 0
        # both in the bottom band: no knot certainly inside
        assert diameters(geo, 0, 0) == (12, None)
        assert geo.pair(0, 0)[0] == 6

    def test_range_maxima_match_slices(self, rng):
        """pair()'s outside and inside diameters and its lower bound
        against the slice lengths at the knots, sliced one by one."""
        for _ in range(10):
            M = random_staircase(rng, size=8)
            T = int_image(M)
            for I, geo in ((T, _CellGeometry(T)), (M, FractionCellGeometry(M))):
                reg = I.region()
                length = {c: reg.slice_at(c).t_hi - reg.slice_at(c).t_lo
                          for c in reg.knots()}
                nb = len(geo.bands)
                for j in range(nb):
                    for i in range(j, nb):
                        lo, hi = geo.bands[j].hi, geo.bands[i].lo
                        inside = [v for c, v in length.items() if lo <= c <= hi]
                        outside = [v for c, v in length.items()
                                   if not lo <= c <= hi]
                        assert diameters(geo, i, j) == (
                            max(outside, default=None),
                            max(inside, default=None))
                        lb = max(geo.min_len[i], geo.min_len[j],
                                 max(outside, default=0))
                        assert geo.pair(i, j)[0] == Fraction(lb, 2)


def diameters(geo, i, j):
    """(outside, inside): the slice lengths whose halves pair(i, j) adds to
    its two atom lists after the two corner half-lengths, None for none."""
    _, t1, t2a = geo.pair(i, j)
    return tuple(-2 * rows[2][1] if len(rows) > 2 else None
                 for rows in (t1, t2a))


class TestSolveLp:
    def test_simple(self):
        val, x, y = solve_lp([-1, 0], [[1, 0], [1, 1]], [1, 3])
        assert (val, x, y) == (-1, [1, 0], [1, 0])

    def test_duals_certify_value(self):
        # the shape of a cell LP: five rows, b = (0, 0, 0, 0, k), and the
        # last column a copy of the first (a repeated row of the cell LP)
        c = [-2, -3, 1, 2, -1, -2, -2]
        A = [[1, -1, 1, -1, -1, 0, 1], [-1, 0, -1, -1, 1, 1, -1],
             [-1, -1, -1, 0, 1, 1, -1], [0, 1, 1, -1, -1, -1, 0],
             [1, 1, 0, 1, 1, 1, 1]]
        b = [0, 0, 0, 0, 2]
        val, x, y = solve_lp(c, A, b)
        third = Fraction(1, 3)
        assert val == -14 * third
        assert x == [2 * third, 2 * third, 0, 0, 0, 2 * third, 0]
        assert y == [0, third, 0, 2 * third, 7 * third]
        assert (val, x, y) == oracle_lp(c, A, b)
        assert_dual_certificate(c, A, b, val, x, y)

    def test_bland_tie_break_decides_x(self):
        # the first pivot enters x1 with ratio 1 in both rows; the slack of
        # row 0 has the lower basis index and leaves, and the simplex ends
        # at (0, 0, 1); letting the slack of row 1 leave ends at (0, 1/2, 1)
        c, A, b = [-1, 0, -2], [[1, 0, 1], [1, 2, 0]], [1, 1]
        val, x, y = solve_lp(c, A, b)
        assert (val, x, y) == (-2, [0, 0, 1], [2, 0])
        assert (val, x, y) == oracle_lp(c, A, b)

    @pytest.mark.parametrize("c, A, b", [
        ([1], [[1], [-1]], [1, -2]),
        ([0, 1], [[1, 1]], [-1]),
    ])
    def test_negative_b_rejected(self, c, A, b):
        with pytest.raises(ValueError):
            solve_lp(c, A, b)

    @pytest.mark.parametrize("c, A, b", [
        ([HALF], [[1]], [1]),
        ([1], [[1.0]], [1]),
        ([1], [[1]], [Fraction(1)]),
        ([True], [[1]], [1]),
    ])
    def test_non_int_rejected(self, c, A, b):
        with pytest.raises(ValueError):
            solve_lp(c, A, b)

    @given(lps())
    @settings(max_examples=400, deadline=None)
    @example(([-1, 0, -2], [[1, 0, 1], [1, 2, 0]], [1, 1]))
    # x1 + x2 <= 1 three times over, once doubled: degenerate ratio ties
    @example(([-1, -2], [[1, 1], [1, 1], [2, 2]], [1, 1, 2]))
    # the cell LP shape: b = (0, 0, 0, 0, k) with a repeated row
    @example(([2, -1, 0, -3], [[-1, 1, 0, 0], [0, -1, 1, 0], [1, 0, -1, 0],
               [0, 0, 1, -1], [1, 1, 1, 1], [1, 1, 1, 1]],
              [0, 0, 0, 0, 3, 3]))
    def test_matches_fraction_tableau(self, lp):
        c, A, b = lp
        got = lp_outcome(solve_lp, c, A, b)
        assert got == lp_outcome(oracle_lp, c, A, b)
        if got != "unbounded":
            val, x, y = got
            assert all(type(v) is Fraction for v in [val, *x, *y])
            assert_dual_certificate(c, A, b, val, x, y)

    def test_cell_lps_match_fraction_tableau(self, thick_l, thin_l,
                                             monkeypatch):
        # every LP optimal_rectangle starts, run without its stop, against
        # the Fraction tableau on the same LP with its columns divided by
        # col_scale; the search runs on int_image(M), whose right-hand
        # sides are ints already
        seen = []

        def record(c, A, b, stop=None, cert=None):
            seen.append((c, A, b))
            return solve_lp(c, A, b, stop, cert)

        monkeypatch.setattr(rect_approx, "solve_lp", record)
        cs = _CellGeometry.col_scale
        for M in (thick_l, thin_l):
            start = len(seen)
            optimal_rectangle(M)
            assert len(seen) > start
            for c, A, b in seen[start:]:
                assert b[:4] == [0] * 4 and b[4] > 0
                want = lp_outcome(
                    oracle_lp, [Fraction(v) for v in c],
                    [[Fraction(v, cs) for v in row] for row in A],
                    [Fraction(v, cs) for v in b])
                got = lp_outcome(solve_lp, c, A, b)
                if isinstance(want, tuple):
                    val, x, y = got
                    want_y = [v / cs for v in want[2]]
                    assert (val, x, y) == (want[0], want[1], want_y)
                else:
                    assert got == want

    @given(lps(), st.fractions(-6, 6, max_denominator=4))
    @settings(max_examples=400, deadline=None)
    # the cell LP shape, stopped on its way to the optimum -14/3
    @example(([-2, -3, 1, 2, -1, -2, -2],
              [[1, -1, 1, -1, -1, 0, 1], [-1, 0, -1, -1, 1, 1, -1],
               [-1, -1, -1, 0, 1, 1, -1], [0, 1, 1, -1, -1, -1, 0],
               [1, 1, 0, 1, 1, 1, 1]], [0, 0, 0, 0, 2]), Fraction(-9, 2))
    # unbounded: min -x1 with x1 - x2 <= 1
    @example(([-1, 0], [[1, -1]], [1]), Fraction(-3))
    def test_stop(self, lp, stop):
        # with stop, solve_lp returns what it returns without, or None only
        # when the optimum is below stop or the LP is unbounded
        c, A, b = lp
        got = lp_outcome(lambda *a: solve_lp(*a, stop=stop), c, A, b)
        if got is None:
            want = lp_outcome(oracle_lp, c, A, b)
            assert want == "unbounded" or want[0] < stop
        else:
            assert got == lp_outcome(solve_lp, c, A, b)

    @given(lps(), st.none() | st.fractions(-6, 6, max_denominator=4))
    @settings(max_examples=400, deadline=None)
    # stopped on its way to the optimum -14/3
    @example(([-2, -3, 1, 2, -1, -2, -2],
              [[1, -1, 1, -1, -1, 0, 1], [-1, 0, -1, -1, 1, 1, -1],
               [-1, -1, -1, 0, 1, 1, -1], [0, 1, 1, -1, -1, -1, 0],
               [1, 1, 0, 1, 1, 1, 1]], [0, 0, 0, 0, 2]), Fraction(-9, 2))
    # a ray along the entering column x1 (x2 basic)
    @example(([1, -1], [[-2, 1], [-2, 1]], [1, 2]), None)
    # a ray along the entering slack of row 0
    @example(([0, -1], [[-2, 1], [-1, 1]], [0, 1]), None)
    def test_certificates(self, lp, stop):
        # the one certificate solve_lp reports proves its outcome: a stop
        # by a feasible point below stop, unboundedness by a ray, the
        # optimum by its x
        c, A, b = lp
        cert = []
        got = lp_outcome(lambda *a: solve_lp(*a, stop=stop, cert=cert),
                         c, A, b)
        [(kind, v, D)] = cert
        assert type(D) is int and D > 0
        assert all(type(w) is int and w > 0 and 0 <= j < len(c)
                   for j, w in v.items())
        y = [Fraction(v.get(j, 0), D) for j in range(len(c))]
        Ay = [sum(a * yj for a, yj in zip(row, y)) for row in A]
        cy = sum(cj * yj for cj, yj in zip(c, y))
        if kind == "ray":
            assert got == "unbounded"
            assert all(ay <= 0 for ay in Ay) and cy < 0
        elif kind == "stop":
            assert got is None
            assert all(ay <= bi for ay, bi in zip(Ay, b)) and cy < stop
        else:
            assert kind == "opt"
            val, x, _ = got
            assert x == y and cy == val

    @given(lps(), st.lists(st.integers(0, 3), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_later_copies_change_nothing(self, lp, copies):
        # Bland's rule never enters a later copy of a column, so appending
        # copies keeps every pivot: the same value and duals, and x with
        # zeros at the copies
        c, A, b = lp
        copies = [j % len(c) for j in copies]
        got = lp_outcome(solve_lp, c + [c[j] for j in copies],
                         [row + [row[j] for j in copies] for row in A], b)
        want = lp_outcome(solve_lp, c, A, b)
        if want == "unbounded":
            assert got == want
        else:
            assert got == (want[0], want[1] + [0] * len(copies), want[2])

    def test_stop_examples(self):
        # one pivot from the slack basis, at 0, to the optimum -1: only a
        # basis that is not optimal stops
        assert solve_lp([-1], [[1]], [1], stop=0) == solve_lp([-1], [[1]], [1])
        # two pivots, through a basis at -1 to the optimum -2
        c, A, b = [-1, -1], [[1, 0], [0, 1]], [1, 1]
        assert solve_lp(c, A, b, stop=Fraction(-1, 2)) is None
        assert solve_lp(c, A, b, stop=-1) == solve_lp(c, A, b)
        with pytest.raises(ArithmeticError):
            solve_lp([-1, 0], [[1, -1]], [1], stop=-3)

    def test_matches_scipy(self, rng):
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            c = [rng.randint(-3, 3) for _ in range(n)]
            A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(0, 6) for _ in range(m)]
            A.append([1] * n)
            b.append(10)
            val, _, _ = solve_lp(c, A, b)
            ref = scipy.optimize.linprog(c, A_ub=np.array(A, float),
                                         b_ub=np.array(b, float),
                                         bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(float(val) - ref.fun) < 1e-7


def row_families(geo):
    """Every row of a cell geometry, by family (and key) in band order."""
    fams = {"box": geo.box, "var_box": geo.var_box, "width": [geo.width],
            "height": [geo.height], "zero": [geo.zero],
            "half_diam": [geo.half_diam[v] for v in sorted(geo.half_diam)]}
    for name in ("lo_rows", "hi_rows", "half_len", "gaps"):
        for key, rows in getattr(geo, name).items():
            fams[name, key] = rows
    return fams


def rect_corpus(rng):
    """Random non-rectangle staircases of sizes 4-10, thin and wide banded
    ones, and a dozen of them shifted by 1/3 along the diagonal and scaled
    by (3/5, 7/3)."""
    out = [random_staircase(rng, size=4 + k % 7) for k in range(30)]
    out += [banded_staircase(rng, m, n, thin)
            for m, n in ((2, 2), (3, 3), (4, 3), (3, 4))
            for thin in (True, False)]
    out = [M for M in out if not M.is_rectangle()]
    return out + [scale(diag_shift(M, Fraction(1, 3)),
                        (Fraction(3, 5), Fraction(7, 3))) for M in out[-12:]]


class TestCellRows:
    """_CellGeometry's int rows and the search on them, against the
    reference geometry's Fraction rows and its search without the stop."""

    def test_int_rows_are_scaled_fraction_rows(self, rng, monkeypatch):
        # on the int image every knot, value, intercept range and band edge
        # the int geometry builds is an int, the Fraction rows' right-hand
        # sides are ints already, and the int rows are them with columns
        # times col_scale
        built = []
        pl_init, reg_init = PL.__init__, DiagRegion.__init__

        def record_pl(self, xs, vs, lslope=None, rslope=None):
            built.extend((*xs, *vs))
            pl_init(self, xs, vs, lslope, rslope)

        def record_region(self, clo, chi, tlo, thi):
            built.extend(c for c in (clo, chi) if not is_inf(c))
            reg_init(self, clo, chi, tlo, thi)

        monkeypatch.setattr(PL, "__init__", record_pl)
        monkeypatch.setattr(DiagRegion, "__init__", record_region)
        for M in rect_corpus(rng):
            T = int_image(M)
            built.clear()
            geo = _CellGeometry(T)
            assert built and all(type(v) is int for v in built)
            assert all(type(v) is int for b in geo.bands for v in b)
            ref = FractionCellGeometry(T)
            cs = geo.col_scale
            assert ref.rhs_scale == 1
            assert geo.dual_rhs == [0, 0, 0, 0, cs]
            assert (geo.bands, geo.min_len) == (ref.bands, ref.min_len)
            got, want = row_families(geo), row_families(ref)
            assert got.keys() == want.keys()
            for key, rows in want.items():
                assert got[key] == [(tuple(v * cs for v in col), r)
                                    for col, r in rows], key
                assert all(type(v) is int for col, r in got[key]
                           for v in (*col, r))

    def test_search_matches_reference(self, rng):
        for M in rect_corpus(rng):
            res = optimal_rectangle(M)
            rect, eps = reference_optimal_rectangle(M)
            assert (res.rect.r, res.rect.s, res.epsilon) == \
                (rect.r, rect.s, eps)


    def test_hull_cells_pass_sums_meet(self, rng):
        for M in rect_corpus(rng):
            T = int_image(M)
            geo, ref = _CellGeometry(T), FractionCellGeometry(T)
            nb = len(geo.bands)
            for j in range(nb):
                for i in range(j, nb):
                    band = range(j, i + 1)
                    assert list(geo.hull_cells(i, j)) == [
                        (i, j, k, l) for k in band for l in band
                        if ref.sums_meet(i, j, k, l)]


class TestCertificatePool:
    """The search skips a cell LP that a certificate from an earlier one
    settles."""

    @staticmethod
    def shapes(thick_l, thin_l):
        rng = random.Random(15)
        return [thick_l, thin_l, banded_staircase(rng, 3, 4, True),
                banded_staircase(rng, 4, 3, False)]

    def test_skipped_lps_are_settled(self, thick_l, thin_l, monkeypatch):
        # every skipped LP, solved cold, is infeasible or above its stop
        skipped = []
        skip = _CellGeometry._skip

        def record(geo, rows, stop):
            if skip(geo, rows, stop):
                skipped.append((geo, rows, stop))
                return True
            return False

        monkeypatch.setattr(_CellGeometry, "_skip", record)
        kinds = set()
        for M in self.shapes(thick_l, thin_l):
            start = len(skipped)
            optimal_rectangle(M)
            assert len(skipped) > start
            for geo, rows, stop in skipped[start:]:
                cols, rhs = zip(*rows)
                got = lp_outcome(solve_lp, list(rhs),
                                 [list(a) for a in zip(*cols)], geo.dual_rhs)
                if got == "unbounded":
                    kinds.add("infeasible")
                else:
                    assert -got[0] > stop
                    kinds.add("above stop")
        assert kinds == {"infeasible", "above stop"}

    def test_pool_saves_lps(self, thick_l, thin_l, monkeypatch):
        # fewer LPs with the pool than without, the same results, and no
        # LP repeats a column
        lps_run = []

        def record(c, A, b, stop=None, cert=None):
            lps_run.append(len(c))
            assert len(set(zip(c, *A))) == len(c)
            return solve_lp(c, A, b, stop, cert)

        def search():
            start = len(lps_run)
            out = [optimal_rectangle(M)
                   for M in self.shapes(thick_l, thin_l)]
            return len(lps_run) - start, [(r.rect, r.epsilon) for r in out]

        monkeypatch.setattr(rect_approx, "solve_lp", record)
        pooled, got = search()
        monkeypatch.setattr(_CellGeometry, "_skip",
                            lambda geo, rows, stop: False)
        cold, want = search()
        assert pooled < cold and got == want


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


@given(st.integers(0, 10 ** 6), st.sampled_from([3, Fraction(1, 3)]),
       st.fractions(-5, 5, max_denominator=7))
@settings(max_examples=40, deadline=None)
def test_affine_map_maps_result(seed, s, t):
    """Under x -> s x + t on both axes the optimal rectangle's corners
    follow the map and epsilon is times s."""
    rng = random.Random(seed)
    M = random_staircase(rng, size=rng.choice([4, 6, 8]))
    f = lambda p: point(s * p.x1 + t, s * p.x2 + t)
    got = optimal_rectangle(StaircaseInterval.from_antichains(
        map(f, M.mins), map(f, M.maxs)))
    want = optimal_rectangle(M)
    assert got.epsilon == s * want.epsilon
    assert type(got.epsilon) is type(want.epsilon) is Fraction
    if want.rect.is_zero:
        assert got.rect.is_zero
    else:
        assert (got.rect.r, got.rect.s) == (f(want.rect.r), f(want.rect.s))


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
        the search's branches over every cell without pruning), both on the
        reference geometry with Fraction rows and no early stop."""
        geo = FractionCellGeometry(M)
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
        rects, agg = approx_decomposable([thick_l, thin_l])
        assert [optimal_rectangle(M).epsilon for M in (thick_l, thin_l)] \
            == [HALF, HALF]
        assert agg == HALF
        assert not rects[0].is_zero and rects[1].is_zero
