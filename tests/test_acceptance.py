"""End-to-end acceptance checks, one test per contract.

Each test prints a single PASS line with its headline numbers; the fuzzed
checks are exact rational comparisons unless a tolerance is stated in the
test body.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (dim_oracle, exhaustive_bottleneck, pointwise_dim,
                     rect_grid_oracle)
from stairdist.bottleneck import (bottleneck_distance,
                                  interleaving_lower_bound, pairwise_costs)
from stairdist.geometry import RectangleSpec, hausdorff, point, pt_le
from stairdist.gmd import (_Pairings, _sample_intercepts, _scaled_ints,
                           anchors, default_directions, diagonalize,
                           dmatch_sampled, gmd, push_band,
                           validate_presentation)
from stairdist.interleaving import (di_decision, di_interval,
                                    di_interval_vs_rect, triv_distance)
from stairdist.rect_approx import construction1, optimal_rectangle
from stairdist.scalars import is_inf

from conftest import (block_pair, int_bands, random_presentation,
                      random_rectangles, random_staircase, square)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(11)
    out = []
    for k in range(200):
        size = 4 + 2 * (k % 5)
        out.append(random_staircase(rng, size=size))
    return out


@pytest.fixture(scope="module")
def corpus_construction(corpus):
    return [construction1(M) for M in corpus]


def _di_vs_result(M, res):
    if res.rect.is_zero:
        return triv_distance(M)
    return di_interval_vs_rect(M, res.rect)


def test_01_construction_rectangle_upper_bound(corpus, corpus_construction):
    start = time.monotonic()
    tight = 0
    for M, res in zip(corpus, corpus_construction):
        d = _di_vs_result(M, res)
        assert d <= res.epsilon
        if triv_distance(M) >= res.epsilon:
            assert d == res.epsilon
            tight += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print("PASS construction bound on 200 modules (%d tight) in %.1fs"
          % (tight, elapsed))


def test_02_optimal_rectangle_matches_grid_search():
    rng = random.Random(12)
    start = time.monotonic()
    worst = 0.0
    for _ in range(20):
        M = random_staircase(rng, size=8, lo=0, hi=10)
        got = float(optimal_rectangle(M).epsilon)
        ref = rect_grid_oracle(M, pitch=Fraction(1, 20))
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 0.1
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print("PASS grid-search agreement on 20 modules "
          "(max gap %.3f) in %.1fs" % (worst, elapsed))


def test_03_epsilon_dominance_chain(corpus, corpus_construction, thick_l,
                                    thin_l):
    for M, con in zip(corpus, corpus_construction):
        opt = optimal_rectangle(M)
        assert opt.epsilon <= con.epsilon <= triv_distance(M)
    assert optimal_rectangle(thick_l).epsilon == Fraction(1, 2)
    assert construction1(thick_l).epsilon == Fraction(1, 2)
    assert triv_distance(thick_l) == Fraction(3, 2)
    res = construction1(thin_l)
    assert optimal_rectangle(thin_l).epsilon == Fraction(1, 2)
    assert res.epsilon == Fraction(1, 2) and res.rect.is_zero
    assert triv_distance(thin_l) == Fraction(1, 2)
    print("PASS optimal <= construction <= trivialization on 200 modules")


def _random_inbounds_rect(rng, M):
    rb, sb = M.bounding_r, M.bounding_s
    r1 = rb.x1 + (sb.x1 - rb.x1) * Fraction(rng.randint(0, 4), 8)
    r2 = rb.x2 + (sb.x2 - rb.x2) * Fraction(rng.randint(0, 4), 8)
    s1 = sb.x1 - (sb.x1 - rb.x1) * Fraction(rng.randint(0, 3), 8)
    s2 = sb.x2 - (sb.x2 - rb.x2) * Fraction(rng.randint(0, 3), 8)
    return RectangleSpec((r1, r2), (s1, s2))


def test_04_closed_form_matches_decision_procedure():
    rng = random.Random(14)
    for _ in range(200):
        M = random_staircase(rng, size=6)
        R = _random_inbounds_rect(rng, M)
        assert di_interval_vs_rect(M, R) == di_interval(M, R.as_interval())
    print("PASS closed form equals decision procedure on 200 pairs")


def test_05_interleaving_below_hausdorff_and_monotone():
    rng = random.Random(15)
    for _ in range(200):
        A = random_staircase(rng, size=6)
        B = random_staircase(rng, size=6)
        d = di_interval(A, B)
        assert d <= hausdorff(A, B)
        assert di_decision(A, B, d + Fraction(1, 100)).accepted
        if d > 0:
            assert not di_decision(A, B, d - Fraction(1, 100)).accepted
    print("PASS d_I <= d_H and decision monotonicity on 200 pairs")


def _random_decomposable(rng, max_summands=6):
    out = list(random_rectangles(rng, rng.randint(0, max_summands - 1),
                                 hi=6))
    while len(out) < max_summands and rng.random() < 0.4:
        out.append(random_staircase(rng, size=4, hi=6))
    rng.shuffle(out)
    return out


def test_06_bottleneck_matches_exhaustive_matching():
    rng = random.Random(16)
    for _ in range(100):
        M = _random_decomposable(rng)
        N = _random_decomposable(rng)
        prof = pairwise_costs(M, N)
        want = exhaustive_bottleneck(prof.costs, prof.triv_m, prof.triv_n)
        assert bottleneck_distance(M, N).delta == want
    assert bottleneck_distance([square(0, 4)], [square(1, 3)]).delta == 1
    assert interleaving_lower_bound([square(0, 4)],
                                    [square(1, 3)]).lower_bound \
        == Fraction(1, 3)
    print("PASS bottleneck equals exhaustive matching on 100 pairs")


def test_07_bottleneck_bound_chain():
    rng = random.Random(17)
    for _ in range(100):
        M = [random_staircase(rng, size=6, hi=8)
             for _ in range(rng.randint(1, 3))]
        N = [random_staircase(rng, size=6, hi=8)
             for _ in range(rng.randint(1, 3))]
        rep = interleaving_lower_bound(M, N)
        assert rep.d_b <= rep.d_b_approx + rep.eps_star_m + rep.eps_star_n
        assert 0 <= rep.lower_bound <= rep.d_b
    print("PASS rectangle-approximation bound chain on 100 pairs")


def _grade_grid(P):
    coords1, coords2 = [], []
    for u in list(P.row_grades) + list(P.col_grades):
        coords1.append(u.x1)
        coords2.append(u.x2)
    lo1, hi1 = min(coords1), max(coords1)
    lo2, hi2 = min(coords2), max(coords2)
    s1 = (hi1 - lo1) / 20 or Fraction(1, 4)
    s2 = (hi2 - lo2) / 20 or Fraction(1, 4)
    return [(lo1 + i * s1, lo2 + j * s2)
            for i in range(21) for j in range(21)]


def test_08_diagonalization_dimension_contract():
    rng = random.Random(18)
    for _ in range(100):
        P = random_presentation(rng, size=rng.randint(1, 10),
                                total_order=True)
        S, grades, _ = _scaled_ints([P], (1, 1), [])
        points = diagonalize(*grades[0], _Pairings(P))
        for u in _grade_grid(P):
            v1, v2 = (x * S for x in u)
            got = sum(1 for g1, g2, r1, r2 in points
                      if g1 <= v1 and g2 <= v2
                      and not (r1 <= v1 and r2 <= v2))
            assert got == pointwise_dim(P, u)
            assert got == dim_oracle(P.row_grades, P.col_grades,
                                     P.nonzeros, u)
    print("PASS diagonalization dimension contract on 100 presentations, "
          "441-point grids")


def test_09_anchor_bands_totally_order_grades():
    rng = random.Random(19)
    checked = 0
    for _ in range(50):
        P = random_presentation(rng, size=rng.randint(2, 6))
        _, grades, edges = int_bands([P], (1, 1))
        for lo, hi in edges:
            for part in grades[0]:
                gs = [point(*u) for u in push_band(part, lo, hi)]
                for i in range(len(gs)):
                    for j in range(i + 1, len(gs)):
                        assert pt_le(gs[i], gs[j]) or pt_le(gs[j], gs[i])
                        checked += 1
    print("PASS pushed grades totally ordered in every anchor band "
          "(%d comparisons)" % checked)


def test_10_matching_distance_sandwich():
    rng = random.Random(20)
    refined_checked = 0
    for _ in range(50):
        P, M = block_pair(rng)
        Q, N = block_pair(rng)
        dirs = default_directions((P, Q), 3)
        lb = dmatch_sampled(P, Q, dirs, _sample_intercepts(anchors((P, Q)),
                                                           (P, Q)))
        rep = gmd(P, Q, directions=dirs)
        ub = bottleneck_distance(M, N).delta
        assert lb <= rep.value <= ub
        if 0 < rep.value and not is_inf(rep.value):
            fine = gmd(P, Q, directions=dirs, alpha=Fraction(1, 2))
            assert fine.value <= rep.value
            refined_checked += 1
    quad0 = validate_presentation([(0, 0)], [], set())
    quad1 = validate_presentation([(1, 1)], [], set())
    assert gmd(quad0, quad1, directions=16).value == 1
    print("PASS matching-distance sandwich on 50 pairs "
          "(%d refinement checks)" % refined_checked)


def test_11_band_width_epsilon_bound():
    rng = random.Random(21)
    for k in range(50):
        w = (1, 2, 4)[k % 3]
        M = random_staircase(rng, size=8, band_width=w)
        assert optimal_rectangle(M).epsilon <= Fraction(w, 4)
    print("PASS band-width bound epsilon <= w/4 on 50 modules")
