import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bottleneck_from_profile_oracle, exhaustive_bottleneck,
                     point_bottleneck_oracle)
from stairdist import bottleneck
from stairdist.bottleneck import (CostProfile, bottleneck_distance,
                                  bottleneck_from_profile, delta_matched,
                                  interleaving_lower_bound, linf_gap,
                                  pairwise_costs)
from stairdist.generate import random_presentation, random_staircase
from stairdist.geometry import StaircaseInterval, point
from stairdist.gmd import anchors
from stairdist.interleaving import di_interval, triv_distance
from stairdist.scalars import INF, NINF, is_inf

from conftest import (band_closures, point_bottleneck, random_rectangles,
                      square)


class TestPairwiseCosts:
    def test_squares(self):
        prof = pairwise_costs([square(0, 4)], [square(1, 3)])
        assert prof.costs == [[1]]
        assert prof.triv_m == [2]
        assert prof.triv_n == [1]

    def test_closed_form_matches_decision(self, rng, thick_l):
        prof = pairwise_costs([thick_l], [square(1, 3)])
        assert prof.costs[0][0] == di_interval(thick_l, square(1, 3))


class TestDeltaMatched:
    def test_feasible_at_one(self):
        prof = pairwise_costs([square(0, 4)], [square(1, 3)])
        res = delta_matched(prof, Fraction(1))
        assert res is not None and res.pairs == [(0, 0)]

    def test_infeasible_below(self):
        prof = pairwise_costs([square(0, 4)], [square(1, 3)])
        assert delta_matched(prof, Fraction(9, 10)) is None

    def test_monotone(self, rng):
        for _ in range(10):
            M = random_rectangles(rng, rng.randint(0, 3))
            N = random_rectangles(rng, rng.randint(0, 3))
            prof = pairwise_costs(M, N)
            feas = [delta_matched(prof, Fraction(k, 2)) is not None
                    for k in range(0, 30)]
            assert feas == sorted(feas)


class TestBottleneckDistance:
    def test_nested_squares(self):
        res = bottleneck_distance([square(0, 4)], [square(1, 3)])
        assert res.delta == 1
        assert res.pairs == [(0, 0)]

    def test_trivialized_extra_summand(self):
        res = bottleneck_distance([square(0, 4), square(10, 11)],
                                  [square(1, 3)])
        assert res.delta == 1
        assert res.pairs == [(0, 0)]
        assert res.unmatched_m == [(1, Fraction(1, 2))]

    def test_empty_side(self):
        res = bottleneck_distance([square(0, 1)], [])
        assert res.delta == Fraction(1, 2)
        assert res.pairs == []

    def test_identical(self, thick_l, thin_l):
        assert bottleneck_distance([thick_l, thin_l],
                                   [thick_l, thin_l]).delta == 0

    def test_matches_exhaustive(self, rng):
        for _ in range(30):
            M = random_rectangles(rng, rng.randint(0, 4), hi=6)
            N = random_rectangles(rng, rng.randint(0, 4), hi=6)
            prof = pairwise_costs(M, N)
            want = exhaustive_bottleneck(prof.costs, prof.triv_m,
                                         prof.triv_n)
            got = bottleneck_distance(M, N)
            assert got.delta == want
            # the reported matching certifies the value
            cert = Fraction(0)
            for i, j in got.pairs:
                cert = max(cert, prof.costs[i][j])
            for _, t in got.unmatched_m + got.unmatched_n:
                cert = max(cert, t)
            assert cert == got.delta

    def test_infinite_when_shapes_cannot_pair(self):
        Q = StaircaseInterval.from_antichains([point(0, 0)],
                                              [point(INF, INF)])
        res = bottleneck_distance([Q], [square(0, 1)])
        assert is_inf(res.delta)


# which corner coordinates go infinite: none (a finite rectangle), an upper
# or a lower quadrant, the plane, or one side of a half-strip
_OPEN = [(), ("s1", "s2"), ("r1", "r2"), ("r1", "r2", "s1", "s2"),
         ("s1",), ("s2",), ("r1",), ("r2",), ("r1", "s1"), ("r2", "s2")]


@st.composite
def rectangles(draw):
    half = st.integers(-10, 10).map(lambda k: Fraction(k, 2))
    r1, s1 = sorted([draw(half), draw(half)])
    r2, s2 = sorted([draw(half), draw(half)])
    c = dict(r1=r1, r2=r2, s1=s1, s2=s2)
    for name in draw(st.sampled_from(_OPEN)):
        c[name] = NINF if name[0] == "r" else INF
    return StaircaseInterval.rect(point(c["r1"], c["r2"]),
                                  point(c["s1"], c["s2"]))


class TestRectanglePairs:
    @given(rectangles(), rectangles())
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_search(self, A, B):
        prof = pairwise_costs([A, B], [B, A])
        assert prof.costs[0][0] == prof.costs[1][1] == di_interval(A, B)
        assert prof.costs[0][0] == di_interval(B, A)

    def test_quadrants_and_strips(self):
        q0 = StaircaseInterval.rect(point(0, 0), point(INF, INF))
        q1 = StaircaseInterval.rect(point(1, 3), point(INF, INF))
        strip = StaircaseInterval.rect(point(0, 0), point(INF, 2))
        prof = pairwise_costs([q0, strip], [q1, square(0, 1)])
        assert prof.costs == [[3, INF], [INF, 1]]


@st.composite
def one_relation_summands(draw):
    """Hooks, vertical and horizontal strips and quadrants with half-integer
    corners; a relation coordinate may coincide with the generator's."""
    half = st.integers(-8, 8).map(lambda k: Fraction(k, 2))
    g1, g2 = draw(half), draw(half)
    a = g1 + abs(draw(half))
    b = g2 + abs(draw(half))
    kind = draw(st.sampled_from(["hook", "vertical", "horizontal",
                                 "quadrant"]))
    maxs = {"hook": [point(a, INF), point(INF, b)],
            "vertical": [point(a, INF)],
            "horizontal": [point(INF, b)],
            "quadrant": [point(INF, INF)]}[kind]
    return StaircaseInterval.from_antichains([point(g1, g2)], maxs)


class TestHookPairs:
    @given(one_relation_summands(), one_relation_summands())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_search(self, A, B):
        prof = pairwise_costs([A, B], [B, A])
        assert prof.costs[0][0] == prof.costs[1][1] == di_interval(A, B)
        assert prof.costs[0][1] == prof.costs[1][0] == 0
        assert prof.costs[1][1] == di_interval(B, A)

    def test_named_pairs(self):
        def summand(g, *maxs):
            return StaircaseInterval.from_antichains(
                [point(*g)], [point(*w) for w in maxs])

        hook = summand((0, 1), (10, INF), (INF, 5))
        others = [summand((1, 1), (10, INF), (INF, 6)),
                  summand((0, 1), (10, INF)),  # relation (10, 1)
                  summand((0, 1), (INF, INF))]
        wide = summand((1, 0), (5, INF), (INF, 10))
        flat = summand((1, 0), (INF, 10))  # relation (1, 10)
        prof = pairwise_costs([hook, wide], others + [flat])
        assert prof.costs[0][:3] == [1, 4, INF]
        assert prof.costs[1][3] == 4
        assert prof.costs == [[di_interval(mi, nj) for nj in others + [flat]]
                              for mi in (hook, wide)]

    def test_gmd_band_summands(self):
        rng = random.Random(12)
        P = random_presentation(rng, size=5)
        Q = random_presentation(rng, size=5)
        C = anchors([P, Q]).bands[1]
        M, N = band_closures(P, C), band_closures(Q, C)
        assert len(M) > 1 and len(N) > 1
        assert any(len(S.maxs) == 2 for S in M + N)
        prof = pairwise_costs(M, N)
        assert prof.costs == [[di_interval(mi, nj) for nj in N] for mi in M]

    @pytest.mark.parametrize("other", [
        StaircaseInterval.from_antichains([point(0, 1), point(1, 0)],
                                          [point(3, INF), point(INF, 3)]),
        StaircaseInterval.from_antichains([point(0, 0)],
                                          [point(2, INF), point(3, 3)]),
    ], ids=["two-minima", "finite-maximum"])
    def test_other_shapes_reach_search(self, monkeypatch, other):
        calls = []

        def counted(M, N):
            calls.append((M, N))
            return di_interval(M, N)

        monkeypatch.setattr(bottleneck, "di_interval", counted)
        hook = StaircaseInterval.from_antichains(
            [point(0, 0)], [point(2, INF), point(INF, 2)])
        prof = pairwise_costs([hook, other], [hook])
        assert calls == [(other, hook)]
        assert prof.costs[1][0] == di_interval(other, hook)


class TestMatcher:
    def test_seven_hundred_bars_per_side(self):
        bars = [(Fraction(0), Fraction(1))] * 700
        assert point_bottleneck(bars, bars) == 0

    def test_seven_hundred_point_chain(self):
        # left bars start at odd multiples of h, right bars at even ones,
        # listed from the top; all are far too long to trivialize.  At
        # delta = h, L_i neighbours R_i and R_{i+1}, the greedy start gives
        # each L_i the free R_{i+1} it meets first, and L_{n-1} then needs
        # an augmenting path through all 1400 vertices (the right side's
        # search likewise), past the default recursion limit.  The chain
        # L_i - R_i matches every bar at gap h and no gap is smaller, so
        # the distance is h.
        n, h, w = 700, Fraction(1, 3), 10 ** 4
        left = [((2 * i + 1) * h, (2 * i + 1) * h + w) for i in range(n)]
        right = [(2 * j * h, 2 * j * h + w) for j in reversed(range(n))]
        assert point_bottleneck(left, right) == h


@st.composite
def flat_points(draw, dim):
    """Points g + rel with half-integer g, rel >= g, and rel at infinity
    (a free generator) one time in five."""
    half = st.integers(-6, 6).map(lambda k: Fraction(k, 2))
    g = tuple(draw(half) for _ in range(dim))
    if draw(st.integers(0, 4)) == 0:
        return g + (INF,) * dim
    return g + tuple(x + abs(draw(half)) for x in g)


class TestPointBottleneck:
    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_capped_costs(self, dim, data):
        # the interleaving cost of a pair of one-relation summands is
        # min(max triv, gap); the plain gap gives the same bottleneck value
        pts = st.lists(flat_points(dim), max_size=5)
        M, N = data.draw(pts), data.draw(pts)
        triv = lambda p: linf_gap(p[:dim], p[dim:]) / 2
        tm, tn = [triv(p) for p in M], [triv(q) for q in N]
        costs = [[min(max(ti, tj), linf_gap(p, q)) for q, tj in zip(N, tn)]
                 for p, ti in zip(M, tm)]
        want = bottleneck_from_profile(CostProfile(costs, tm, tn)).delta
        assert point_bottleneck(M, N) == want
        assert want == exhaustive_bottleneck(costs, tm, tn)

    def test_named(self):
        assert point_bottleneck([(0, 4)], [(1, 3)]) == 1
        assert point_bottleneck([(0, 4)], []) == 2
        assert point_bottleneck([(0, INF)], []) == INF
        hook, quad = (0, 0, 2, 6), (0, 0, INF, INF)
        assert point_bottleneck([hook], [(1, 0, 2, 5)]) == 1
        assert point_bottleneck([hook, quad], [quad]) == 3

    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_doubled_graph_oracle(self, dim, data):
        pts = st.lists(mixed_points(dim), max_size=5)
        M, N = data.draw(pts), data.draw(pts)
        assert point_bottleneck(M, N) == point_bottleneck_oracle(M, N)


@st.composite
def mixed_points(draw, dim):
    """Points g + rel whose coordinates mix ints and Fractions with
    denominators up to 7, with INF in any subset of rel's coordinates."""
    num = st.integers(-12, 12)
    scalar = st.one_of(num, st.builds(Fraction, num, st.integers(1, 7)))
    g = tuple(draw(scalar) for _ in range(dim))
    rel = [x + abs(draw(scalar)) for x in g]
    for k in draw(st.sets(st.integers(0, dim - 1))):
        rel[k] = INF
    return g + tuple(rel)


@st.composite
def cost_profiles(draw):
    """Up to four summands a side; costs and trivs are halves from 0 to 4,
    or INF (two draws in eleven)."""
    value = st.integers(-2, 8).map(
        lambda k: INF if k < 0 else Fraction(k, 2))
    nm, nn = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return CostProfile([[draw(value) for _ in range(nn)] for _ in range(nm)],
                       [draw(value) for _ in range(nm)],
                       [draw(value) for _ in range(nn)])


class TestThresholdSearch:
    @given(cost_profiles())
    @settings(max_examples=300, deadline=None)
    def test_matches_doubled_graph_oracle(self, profile):
        got = bottleneck_from_profile(profile)
        assert got == bottleneck_from_profile_oracle(profile)
        assert got.delta == exhaustive_bottleneck(
            profile.costs, profile.triv_m, profile.triv_n)


class TestLowerBound:
    def test_nested_squares(self):
        rep = interleaving_lower_bound([square(0, 4)], [square(1, 3)])
        assert rep.d_b == 1
        assert rep.eps_star_m == 0 and rep.eps_star_n == 0
        assert rep.lower_bound == Fraction(1, 3)

    def test_thick_l_vs_own_box(self, thick_l):
        box = square(0, Fraction(7, 2))
        rep = interleaving_lower_bound([thick_l], [box])
        assert rep.d_b == Fraction(1, 2)
        assert rep.eps_star_m == Fraction(1, 2)
        assert rep.eps_star_n == 0
        assert rep.raw == Fraction(-1, 2)
        assert rep.lower_bound == 0

    def test_lower_bound_below_distance(self, rng):
        for _ in range(10):
            M = [random_staircase(rng, size=6) for _ in range(2)]
            N = [random_staircase(rng, size=6) for _ in range(2)]
            rep = interleaving_lower_bound(M, N)
            assert rep.lower_bound <= rep.d_b
            assert rep.lower_bound >= 0
