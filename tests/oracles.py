"""Independent reference computations used only by the tests.

Everything here deliberately avoids the code paths under test: dense
sampling, brute-force grid search, exhaustive enumeration, a separate
GF(2) elimination, the persistence pairing read off ranks instead of a
column reduction, a bottleneck search that probes every threshold
with a full matching on the doubled graph (delta_matched), and gmd and
dmatch on the per-band Fraction path (push_band_oracle,
diagonalize_oracle) instead of their int kernel (gmd.push_band,
gmd.diagonalize), and the optimal-rectangle search on Fraction rows with
no early stop, and the command line read by the argparse parser that
cli._parse replaced.  Values are floats where sampling is involved and exact
rationals where enumeration is.
"""

import argparse
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

from stairdist.bottleneck import CostProfile, delta_matched, linf_gap
from stairdist.errors import PreconditionError, ValidationError
from stairdist.geometry import (DiagRegion, Point2, RectangleSpec,
                                StaircaseInterval, band, intercept, point,
                                pt_le, region_intersection, tval)
from stairdist.gmd import (GmdReport, GradedMatrix, _sample_intercepts, _scaled_covering, anchors,
                           refine_alpha, scale_presentation)
from stairdist.interleaving import triv_distance
from stairdist.pl import PL, pl_max, pl_min
from stairdist.record import Record
from stairdist.rect_approx import (_GAPS, _CellGeometry, _rank,
                                   band_partition, construction1, solve_lp)
from stairdist.scalars import INF, NINF, is_inf, qdiv

HALF = Fraction(1, 2)


# --------------------------------------------------------------------------
# slice endpoints as a fold over one branch per corner


def _line(slope, v0):
    """The affine function of the intercept with value v0 at 0."""
    return PL([0], [v0], slope, slope)


def _min_branch(v):
    """Lower slice endpoint of up(v) as a function of the intercept."""
    x1, x2 = v
    if is_inf(x1) and x1 > 0 or is_inf(x2) and x2 > 0:
        raise ValidationError("minimal corner with a +inf coordinate")
    if is_inf(x1) and is_inf(x2):
        return NINF
    if is_inf(x1):
        return _line(-HALF, x2)
    if is_inf(x2):
        return _line(HALF, x1)
    return PL([x2 - x1], [(x1 + x2) / 2], -HALF, HALF)


def _max_branch(w):
    """Upper slice endpoint of down(w) as a function of the intercept."""
    x1, x2 = w
    if is_inf(x1) and x1 < 0 or is_inf(x2) and x2 < 0:
        raise ValidationError("maximal corner with a -inf coordinate")
    if is_inf(x1) and is_inf(x2):
        return INF
    if is_inf(x1):
        return _line(-HALF, x2)
    if is_inf(x2):
        return _line(HALF, x1)
    return PL([x2 - x1], [(x1 + x2) / 2], HALF, -HALF)


def region_fold_oracle(mins, maxs):
    """The region between two corner antichains, with tlo the pl_min fold
    of the minima's branches and thi the pl_max fold of the maxima's."""
    clo = min(v.x2 for v in mins) - max(w.x1 for w in maxs)
    chi = max(w.x2 for w in maxs) - min(v.x1 for v in mins)
    if clo > chi:
        raise ValidationError("lower staircase exceeds upper staircase")
    lo_branches = [_min_branch(v) for v in mins]
    hi_branches = [_max_branch(w) for w in maxs]
    tlo = NINF
    if NINF not in lo_branches:
        acc = lo_branches[0]
        for b in lo_branches[1:]:
            acc = pl_min(acc, b)
        tlo = acc.restrict(clo, chi)
    thi = INF
    if INF not in hi_branches:
        acc = hi_branches[0]
        for b in hi_branches[1:]:
            acc = pl_max(acc, b)
        thi = acc.restrict(clo, chi)
    return DiagRegion(clo, chi, tlo, thi)


def slice_gap_oracle(mins, maxs):
    """Whether the region between two sorted corner antichains has an empty
    diagonal slice inside its intercept hull, read off the least value of
    its slice length function; None where the slices are unbounded."""
    g = DiagRegion.from_antichains(mins, maxs).length_fn()
    if g is INF:
        return None
    return (-g).sup()[0] > 0


# --------------------------------------------------------------------------
# dense sampling along the diagonal direction


def sampled_intercepts(reg, step):
    lo, hi = reg.clo, reg.chi
    if is_inf(lo) or is_inf(hi):
        raise ValueError("dense sampling needs a bounded intercept range")
    n = int((hi - lo) / step)
    return [lo + k * step for k in range(n + 1)] + [hi]


def triv_region_walk(M):
    """Half the supremum of M's slice-length function, walked over the
    pieces of its diagonal region: the exact reference for
    interleaving.triv_distance, which reads the corners instead."""
    g = M.region().length_fn()
    if g is INF:
        return INF
    v, _ = g.sup()
    return qdiv(v, 2) if v > 0 else Fraction(0)


def triv_oracle(M, step=Fraction(1, 1000)):
    """Half the longest slice, by dense scanning."""
    reg = M.region()
    best = 0.0
    for c in sampled_intercepts(reg, step):
        seg = reg.slice_at(c)
        if not seg.is_empty:
            best = max(best, float(seg.t_hi - seg.t_lo))
    return best / 2


def _bar_di(a, b):
    """1-parameter interleaving distance of two bars given as pairs/None."""
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        s = b if a is None else a
        return (s[1] - s[0]) / 2
    return min(max(a[1] - a[0], b[1] - b[0]) / 2,
               max(abs(a[0] - b[0]), abs(a[1] - b[1])))


def diag_sup_oracle(M, N, step=Fraction(1, 1000)):
    """Supremum of the slicewise distance, by dense scanning."""
    ra, rb = M.region(), N.region()
    lo = min(ra.clo, rb.clo)
    hi = max(ra.chi, rb.chi)
    if is_inf(lo) or is_inf(hi):
        raise ValueError("dense sampling needs bounded intercept ranges")
    best = 0.0
    n = int((hi - lo) / step)
    for c in [lo + k * step for k in range(n + 1)] + [hi]:
        bars = []
        for reg in (ra, rb):
            if reg.clo <= c <= reg.chi:
                seg = reg.slice_at(c)
                bars.append(None if seg.is_empty
                            else (float(seg.t_lo), float(seg.t_hi)))
            else:
                bars.append(None)
        best = max(best, _bar_di(bars[0], bars[1]))
    return best


def di_bracket_oracle(M, N, d):
    """Whether d is the interleaving distance of M and N as di_decision
    alone sees it: accepted at d + eta and, when d is above the slicewise
    distance, rejected at d - eta.  eta is a quarter of the least common
    grid step of the finite corner coordinates, below the spacing of the
    candidate shifts (differences of corner coordinates and intercepts,
    and their halves).  An infinite d must be rejected at 4 B + 1, B the
    largest finite coordinate in absolute value, which is above every
    candidate."""
    from stairdist.interleaving import di_decision
    coords = [x for I in (M, N) for p in I.mins + I.maxs for x in p
              if not is_inf(x)]
    if d is INF:
        top = 4 * max((abs(x) for x in coords), default=0) + 1
        return not di_decision(M, N, top).accepted
    eta = Fraction(1, 4 * lcm(*(Fraction(x).denominator for x in coords)))
    above = di_decision(M, N, d + eta)
    if not above.accepted:
        return False
    return d == above.diag_distance or not di_decision(M, N, d - eta).accepted


def kill_requirement_oracle(A, B, dprime):
    """The kill requirement as the largest kill bound over the non-valid
    overlap components, with every component's validity and bound computed.

    Another exception: the components, the validity test and the bounds are
    the library's own (_probe_components, region_intersection, contains,
    _sup_gap), so this checks the order in which _kill_requirement visits
    the components and where it stops, not those primitives."""
    from stairdist.interleaving import _probe_components, _sup_gap
    worst = None
    for _, Q, src, sh in _probe_components(A, B, dprime):
        down = region_intersection(src, Q.down_extension())
        up = region_intersection(sh, Q.up_extension())
        valid = ((down is None or sh.contains(down))
                 and (up is None or src.contains(up)))
        t = max(_sup_gap(src.thi, Q.tlo, Q), _sup_gap(Q.thi, sh.tlo, Q))
        bound = t if is_inf(t) else HALF * t
        if not valid and (worst is None or bound > worst):
            worst = bound
    return worst


def t_form_crossing(x0, x1, v0, v1, d0, d1):
    """Where a gap going from d0 at x0 to d1 at x1 crosses zero, and the
    value there of the piece going from v0 to v1, through the ratio
    t = d0 / (d0 - d1)."""
    t = (Fraction(d0) if type(d0) is int else d0) / (d0 - d1)
    return x0 + t * (x1 - x0), v0 + t * (v1 - v0)


# --------------------------------------------------------------------------
# membership and rasterized connected components


def contains_point(I, x, y):
    reg = I.region()
    c = y - x
    if c < reg.clo or c > reg.chi:
        return False
    seg = reg.slice_at(c)
    if seg.is_empty:
        return False
    t = Fraction(x + y, 2) if not isinstance(x + y, Fraction) \
        else (x + y) / 2
    return seg.t_lo <= t <= seg.t_hi


def raster_components(I, J, pitch=Fraction(1, 20)):
    """Connected components of the rasterized intersection (4-adjacency)."""
    xs0 = min(I.bounding_r.x1, J.bounding_r.x1)
    xs1 = max(I.bounding_s.x1, J.bounding_s.x1)
    ys0 = min(I.bounding_r.x2, J.bounding_r.x2)
    ys1 = max(I.bounding_s.x2, J.bounding_s.x2)
    nx = int((xs1 - xs0) / pitch) + 1
    ny = int((ys1 - ys0) / pitch) + 1
    mask = {}
    for ix in range(nx):
        for iy in range(ny):
            x = xs0 + ix * pitch
            y = ys0 + iy * pitch
            if contains_point(I, x, y) and contains_point(J, x, y):
                mask[(ix, iy)] = None
    parent = {k: k for k in mask}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (ix, iy) in mask:
        for nb in ((ix + 1, iy), (ix, iy + 1)):
            if nb in mask:
                ra, rb = find((ix, iy)), find(nb)
                if ra != rb:
                    parent[ra] = rb
    return len({find(k) for k in mask})


# --------------------------------------------------------------------------
# grid search over rectangle approximations


def rect_grid_oracle(M, pitch=Fraction(1, 20)):
    """Best epsilon over on-grid rectangles and the zero module.

    Brute force over all corner placements on the pitch grid of the
    bounding rectangle; the objective is the four-corner formula (band
    trivializations, pinch bound, boundary shifts) evaluated in floats from
    densely tabulated slice endpoints.
    """
    rb, sb = M.bounding_r, M.bounding_s
    for v in (rb.x1, rb.x2, sb.x1, sb.x2):
        if is_inf(v):
            raise ValueError("grid search needs a bounded module")
    reg = M.region()
    h = Fraction(pitch)
    n1 = int((sb.x1 - rb.x1) / h)
    n2 = int((sb.x2 - rb.x2) / h)
    x1s = [rb.x1 + k * h for k in range(n1 + 1)]
    x2s = [rb.x2 + k * h for k in range(n2 + 1)]
    cs = sorted({x2s[0] - x for x in x1s} | {x - x1s[0] for x in x2s}
                | set(reg.knots()))
    tlo, thi = [], []
    for c in cs:
        seg = reg.slice_at(c)
        tlo.append(float(seg.t_lo))
        thi.append(float(seg.t_hi))
    C = np.array([float(c) for c in cs])
    TLO = np.array(tlo)
    THI = np.array(thi)
    LEN = THI - TLO
    pref = np.maximum.accumulate(LEN)
    suff = np.maximum.accumulate(LEN[::-1])[::-1]
    K = len(C)
    # sparse table for range maxima of LEN
    levels = [LEN]
    k = 1
    while (1 << k) <= K:
        prev = levels[-1]
        half = 1 << (k - 1)
        levels.append(np.maximum(prev[:K - (1 << k) + 1],
                                 prev[half:K - half + 1]))
        k += 1
    st = np.full((len(levels), K), -np.inf)
    for k, arr in enumerate(levels):
        st[k, :len(arr)] = arr

    def range_max(i, j):
        ln = j - i + 1
        kk = np.frexp(ln)[1] - 1
        return np.maximum(st[kk, i], st[kk, j - (1 << kk) + 1])

    X1 = np.array([float(v) for v in x1s])
    X2 = np.array([float(v) for v in x2s])
    ia, ib = np.triu_indices(n2 + 1)
    R2, S2 = X2[ia], X2[ib]
    H = S2 - R2
    eps = float(h) / 4
    best = float(triv_distance(M))
    # r1 enters only cp = S2 - r1 and cr = R2 - r1, and s1 only
    # cq = R2 - s1 and cx = S2 - s1, so each corner's shift terms and slice
    # searches are made once per grid index: s1's for every index up
    # front, r1's once per pass of the outer loop
    upper = []
    for s1 in X1:
        cq, cx = R2 - s1, S2 - s1
        shift_s = np.maximum.reduce([
            np.interp(cq, C, THI) - (s1 + R2) / 2,
            (s1 + R2) / 2 - np.interp(cq, C, TLO),
            (s1 + S2) / 2 - np.interp(cx, C, THI),
        ])
        upper.append((shift_s, np.searchsorted(C, cq - eps),
                      pref[np.searchsorted(C, cq + eps) - 1]))
    for i1 in range(n1 + 1):
        r1 = X1[i1]
        cp, cr = S2 - r1, R2 - r1
        shift_r = np.maximum.reduce([
            np.interp(cp, C, THI) - (r1 + S2) / 2,
            np.interp(cr, C, TLO) - (r1 + R2) / 2,
            (r1 + S2) / 2 - np.interp(cp, C, TLO),
        ])
        ihi = np.searchsorted(C, cp + eps) - 1
        out_r = suff[np.minimum(np.searchsorted(C, cp - eps), K - 1)]
        for j1 in range(i1, n1 + 1):
            shift_s, ilo, out_s = upper[j1]
            w = X1[j1] - r1
            shift = np.maximum(np.maximum(shift_r, shift_s), 0.0)
            pinch = 0.5 * np.minimum(w, H)
            t_in = 0.5 * range_max(ilo, ihi)
            t_out = 0.5 * np.maximum(out_s, out_r)
            obj = np.maximum(t_out,
                             np.minimum(np.maximum(t_in, pinch), shift))
            m = obj.min()
            if m < best:
                best = m
    return best


# --------------------------------------------------------------------------
# closures of one-relation summands


def closure_oracle(g, rel):
    """Closure of k<g>/<rel>, the set {x >= g} minus {x >= rel}, as a
    staircase interval, or None when it is empty; rel None is a free
    generator (a quadrant).  g and rel are finite Point2."""
    if rel is None:
        return StaircaseInterval.from_antichains([g], [Point2(INF, INF)])
    maxs = []
    if rel.x1 > g.x1:
        maxs.append(Point2(rel.x1, INF))
    if rel.x2 > g.x2:
        maxs.append(Point2(INF, rel.x2))
    if not maxs:
        return None
    return StaircaseInterval.from_antichains([g], maxs)


# --------------------------------------------------------------------------
# exhaustive partial matchings


def exhaustive_bottleneck(costs, triv_m, triv_n):
    """Minimax over every partial matching; exact scalars."""
    nm, nn = len(triv_m), len(triv_n)
    best = None
    for k in range(min(nm, nn) + 1):
        for ms in combinations(range(nm), k):
            rest_m = [triv_m[i] for i in range(nm) if i not in ms]
            for ns in permutations(range(nn), k):
                cand = Fraction(0)
                for i, j in zip(ms, ns):
                    cand = max(cand, costs[i][j])
                for v in rest_m:
                    cand = max(cand, v)
                taken = set(ns)
                for j in range(nn):
                    if j not in taken:
                        cand = max(cand, triv_n[j])
                if best is None or cand < best:
                    best = cand
    return best if best is not None else Fraction(0)


# --------------------------------------------------------------------------
# bottleneck threshold search with one doubled-graph matching per probe


def bottleneck_from_profile_oracle(profile):
    """MatchingResult at the least feasible candidate threshold, found by a
    binary search that runs delta_matched (a maximum matching on the graph
    doubled with shadow copies) at every probe; delta_matched(INF) when the
    largest candidate is infeasible."""
    cands = {Fraction(0)}
    for row in profile.costs:
        cands.update(v for v in row if not is_inf(v))
    cands.update(v for v in profile.triv_m if not is_inf(v))
    cands.update(v for v in profile.triv_n if not is_inf(v))
    cands = sorted(cands)
    lo, hi = 0, len(cands) - 1
    best = None
    if delta_matched(profile, cands[hi]) is None:
        return delta_matched(profile, INF)
    while lo <= hi:
        mid = (lo + hi) // 2
        res = delta_matched(profile, cands[mid])
        if res is None:
            lo = mid + 1
        else:
            best = res
            hi = mid - 1
    return best


def point_bottleneck_oracle(points_m, points_n):
    """Bottleneck distance of two lists of flat points g + rel with
    Fraction costs: linf_gap for a pair, ||rel - g||_inf / 2 for a point
    left unmatched, searched by bottleneck_from_profile_oracle."""
    def triv(p):
        d = len(p) // 2
        return linf_gap(p[:d], p[d:]) / 2

    profile = CostProfile([[linf_gap(p, q) for q in points_n]
                           for p in points_m],
                          [triv(p) for p in points_m],
                          [triv(q) for q in points_n])
    return bottleneck_from_profile_oracle(profile).delta


# --------------------------------------------------------------------------
# gmd and dmatch per band on Fractions


def _push_point(u, C):
    c = intercept(u)
    if c > C.hi:
        return Point2(u.x2 - C.hi, u.x2)
    if c < C.lo:
        return Point2(u.x1, u.x1 + C.lo)
    return u


def push_band_oracle(P, C):
    """Replace every grade by the least point of the band dominating it."""
    return GradedMatrix(tuple(_push_point(u, C) for u in P.row_grades),
                        tuple(_push_point(u, C) for u in P.col_grades),
                        P.nonzeros)


class HalfOpenInterval(Record):
    """The summand k<g>/<r>: support {x >= g} minus {x >= r}."""
    __slots__ = ("g",  # generator grade
                 "r")  # relation grade, or None for a free generator

    def __init__(self, g, r):
        self.g = g
        self.r = r


def _prefix_ranks(columns):
    """[rank over GF(2) of the first k columns for k = 0..len(columns)],
    by Gaussian elimination on 0/1 lists."""
    basis = []  # (pivot, column): zero at every earlier basis pivot
    ranks = [0]
    for col in columns:
        for p, b in basis:
            if col[p]:
                col = [x ^ y for x, y in zip(col, b)]
        if any(col):
            basis.append((col.index(1), col))
        ranks.append(len(basis))
    return ranks


def pairing_oracle(nonzeros, rorder, corder):
    """The persistence pairing of the 0/1 matrix with nonzeros at the given
    (row, column) pairs, its rows in rorder and its columns in corder, read
    off ranks: with r(i, j) the rank of the block of rows >= i and columns
    <= j, row i pairs with column j exactly when r(i, j) - r(i + 1, j)
    - r(i, j - 1) + r(i + 1, j - 1) = 1.  Returns (pairs, free) as
    gmd._pairing does: the (row, column) pairs and the unpaired rows, both
    in row order, as original indices."""
    nr, nc = len(rorder), len(corder)
    rpos = {old: new for new, old in enumerate(rorder)}
    cpos = {old: new for new, old in enumerate(corder)}
    M = [[0] * nc for _ in range(nr)]
    for i, j in nonzeros:
        M[rpos[i]][cpos[j]] = 1
    # R[i][k]: rank of the rows >= i and the first k columns
    R = [_prefix_ranks([[M[r][c] for r in range(i, nr)] for c in range(nc)])
         for i in range(nr + 1)]
    pairs = [(i, j) for i in range(nr) for j in range(nc)
             if R[i][j + 1] - R[i + 1][j + 1] - R[i][j] + R[i + 1][j] == 1]
    paired = {i for i, _ in pairs}
    return ([(rorder[i], corder[j]) for i, j in pairs],
            [rorder[i] for i in range(nr) if i not in paired])


def diagonalize_oracle(P):
    """Split a presentation with totally ordered row grades and totally
    ordered column grades into half-open interval summands: the pairs of
    pairing_oracle, then the free generators.
    """
    # birth/death order: for totally ordered grades the lexicographic sort
    # is the total order (pushing to a band may have perturbed it); sorted
    # is stable, so ties keep index order
    rows, cols = P.row_grades, P.col_grades
    rorder = sorted(range(len(rows)), key=rows.__getitem__)
    corder = sorted(range(len(cols)), key=cols.__getitem__)
    # the grades are a chain iff each one is below the next in this sort; a
    # lexicographically sorted pair u, v with u not below v is incomparable
    for gs, order in ((rows, rorder), (cols, corder)):
        for i, j in zip(order, order[1:]):
            if not pt_le(gs[i], gs[j]):
                raise PreconditionError("incomparable grades %r, %r"
                                        % (gs[i], gs[j]))
    pairs, free = pairing_oracle(P.nonzeros, rorder, corder)
    return ([HalfOpenInterval(rows[i], cols[j]) for i, j in pairs]
            + [HalfOpenInterval(rows[i], None) for i in free])


def band_points_oracle(P, C):
    """The summands of P pushed onto band C as flat points g + rel (see
    bottleneck.point_bottleneck); a free generator has rel = (INF, INF),
    and an empty summand (rel = g) is dropped."""
    out = []
    for iv in diagonalize_oracle(push_band_oracle(P, C)):
        rel = Point2(INF, INF) if iv.r is None else iv.r
        if rel != iv.g:
            out.append(iv.g + rel)
    return out


def band_epsilon_oracle(points):
    """Largest triv ||rel - g||_inf / 2 over the hooks among band points
    (rel > g in both coordinates); strips and quadrants add 0."""
    eps = Fraction(0)
    for g1, g2, r1, r2 in points:
        if g1 < r1 < INF and g2 < r2:
            eps = max(eps, max(r1 - g1, r2 - g2) / 2)
    return eps


def slice_bars_oracle(P, c):
    """Bars (t_lo, t_hi) of the presentation along the diagonal line of
    intercept c: its push onto the zero-width band [c, c]."""
    bars = []
    for iv in diagonalize_oracle(push_band_oracle(P, band(c, c))):
        lo = tval(iv.g)
        hi = INF if iv.r is None else tval(iv.r)
        if hi > lo:
            bars.append((lo, hi))
    return bars


def dmatch_oracle(M, N, directions, intercepts):
    """dmatch_sampled, one Fraction slice at a time."""
    best = Fraction(0)
    for a in directions:
        sm, sn = scale_presentation(M, a), scale_presentation(N, a)
        for c in intercepts:
            d = point_bottleneck_oracle(slice_bars_oracle(sm, c),
                                        slice_bars_oracle(sn, c))
            if d > best:
                best = d
            if is_inf(best):
                return best
    return best


def gmd_oracle(M, N, directions, alpha=None):
    """The GmdReport of gmd(M, N, directions, alpha), one Fraction band at
    a time."""
    pres = (M, N)
    cov = anchors(pres)
    if alpha is not None and alpha > 0:
        lb = dmatch_oracle(M, N, directions, _sample_intercepts(cov, pres))
        if lb > 0 and not is_inf(lb):
            cov = refine_alpha(cov, alpha, lb)
    table = []
    best = (Fraction(0), None, None)
    eps = Fraction(0)
    for a in directions:
        sm, sn = scale_presentation(M, a), scale_presentation(N, a)
        for C in _scaled_covering(cov, a).bands:
            left, right = band_points_oracle(sm, C), band_points_oracle(sn, C)
            val = point_bottleneck_oracle(left, right)
            table.append((a, C, val))
            if val > best[0]:
                best = (val, a, C)
            eps = max(eps, band_epsilon_oracle(left),
                      band_epsilon_oracle(right))
    return GmdReport(best[0], best[1], best[2], table, eps, cov)


# --------------------------------------------------------------------------
# pointwise dimension by plain Gaussian elimination


def dim_oracle(row_grades, col_grades, nonzeros, u):
    """dim at u = born generators minus rank of born relations, eliminating
    with smallest-index pivots over index sets."""
    u1, u2 = u
    born = {i for i, g in enumerate(row_grades)
            if g.x1 <= u1 and g.x2 <= u2}
    cols = []
    for j, g in enumerate(col_grades):
        if g.x1 <= u1 and g.x2 <= u2:
            col = {i for (i, jj) in nonzeros if jj == j and i in born}
            if col:
                cols.append(col)
    pivots = {}
    rank = 0
    for col in cols:
        while col:
            p = min(col)
            if p in pivots:
                col = col ^ pivots[p]
            else:
                pivots[p] = col
                rank += 1
                break
    return len(born) - rank


def pointwise_dim(P, u):
    """dim at u of the module P presents: born generators minus the GF(2)
    rank of the born relations, as bitmasks reduced by their lowest bit."""
    u = point(*u)
    gens = [i for i, g in enumerate(P.row_grades) if pt_le(g, u)]
    rels = [j for j, g in enumerate(P.col_grades) if pt_le(g, u)]
    pivots = []
    for j in rels:
        mask = 0
        for i in gens:
            if (i, j) in P.nonzeros:
                mask |= 1 << i
        for p in pivots:
            if mask & (p & -p):
                mask ^= p
        if mask:
            pivots.append(mask)
    return len(gens) - len(pivots)


# --------------------------------------------------------------------------
# two-phase simplex on a Fraction tableau


def fraction_simplex(c, A, b, duals=False):
    """min c.x s.t. A x <= b, x >= 0 on a tableau of Fractions, with the
    pivot rule of `rect_approx.solve_lp` (Bland: first negative reduced
    cost, least ratio, ties to the lower basis index) and its return
    conventions: (value, x), (value, x, y) with duals, None when
    infeasible, ArithmeticError when unbounded."""
    def sub_multiple(u, f, v):
        return [a - f * p if p else a for a, p in zip(u, v)]

    m, n = len(A), len(c)
    rows = []
    senses = []  # +1 slack, -1 needs artificial
    for i in range(m):
        ai = [Fraction(v) for v in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            ai = [-v for v in ai]
            bi = -bi
            senses.append(-1)
        else:
            senses.append(1)
        rows.append((ai, bi))
    nart = sum(1 for s in senses if s < 0)
    total = n + m + nart
    T = []
    basis = []
    ak = 0
    for i, (ai, bi) in enumerate(rows):
        row = ai + [Fraction(0)] * (m + nart) + [bi]
        row[n + i] = Fraction(1) if senses[i] > 0 else Fraction(-1)
        if senses[i] > 0:
            basis.append(n + i)
        else:
            row[n + m + ak] = Fraction(1)
            basis.append(n + m + ak)
            ak += 1
        T.append(row)

    def pivot(r, col):
        piv = T[r][col]
        T[r] = [v / piv if v else v for v in T[r]]
        for rr in range(len(T)):
            if rr != r and T[rr][col] != 0:
                T[rr] = sub_multiple(T[rr], T[rr][col], T[r])
        basis[r] = col

    def run(obj, ncols):
        red = list(obj) + [Fraction(0)]
        for r, bv in enumerate(basis):
            if obj[bv] != 0:
                red = sub_multiple(red, obj[bv], T[r])
        while True:
            col = None
            for j in range(ncols):
                if red[j] < 0:
                    col = j
                    break
            if col is None:
                return -red[-1], red
            row = None
            best = None
            for r in range(len(T)):
                if T[r][col] > 0:
                    ratio = T[r][-1] / T[r][col]
                    if best is None or ratio < best or \
                            (ratio == best and basis[r] < basis[row]):
                        best, row = ratio, r
            if row is None:
                raise ArithmeticError("unbounded linear program")
            pivot(row, col)
            if red[col] != 0:
                red = sub_multiple(red, red[col], T[row])

    if nart:
        obj1 = [Fraction(0)] * (n + m) + [Fraction(1)] * nart
        if run(obj1, total)[0] > 0:
            return None
        # pivot any artificial out of the basis
        for r in range(len(T)):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if T[r][j] != 0:
                        pivot(r, j)
                        break
    obj2 = [Fraction(v) for v in c] + [Fraction(0)] * (m + nart)
    val, red = run(obj2, n + m)
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    if duals:
        y = [red[n + i] * senses[i] for i in range(m)]
        return val, x, y
    return val, x


# --------------------------------------------------------------------------
# the optimal-rectangle search on Fraction rows, without the early stop

# affine expressions a0 + a.(p1, p2, q1, q2): the rectangle has lower corner
# r = (p1, q2) and upper corner s = (q1, p2)
_ZERO4 = (Fraction(0),) * 4


def _aff(const, coeffs=_ZERO4):
    return (Fraction(const), tuple(Fraction(v) for v in coeffs))


_P1 = _aff(0, (1, 0, 0, 0))
_P2 = _aff(0, (0, 1, 0, 0))
_Q1 = _aff(0, (0, 0, 1, 0))
_Q2 = _aff(0, (0, 0, 0, 1))


def _acomb(k1, e1, k2=0, e2=None, const=0):
    c = Fraction(const) + k1 * e1[0] + (k2 * e2[0] if e2 is not None else 0)
    v2 = e2[1] if e2 is not None else _ZERO4
    return (c, tuple(k1 * a + k2 * b for a, b in zip(e1[1], v2)))


# corner intercepts c = x2 - x1 and diagonal parameters t = (x1 + x2) / 2
_AFF_CORNERS = {
    "p": (_acomb(1, _P2, -1, _P1), _acomb(HALF, _P1, HALF, _P2)),
    "q": (_acomb(1, _Q2, -1, _Q1), _acomb(HALF, _Q1, HALF, _Q2)),
    "r": (_acomb(1, _Q2, -1, _P1), _acomb(HALF, _P1, HALF, _Q2)),
    "s": (_acomb(1, _P2, -1, _Q1), _acomb(HALF, _Q1, HALF, _P2)),
}
_WIDTH = _acomb(HALF, _Q1, -HALF, _P1)
_HEIGHT = _acomb(HALF, _P2, -HALF, _Q2)


def _piece(f, lo, hi):
    """PL f as (alpha, beta) with f(c) = alpha + beta*c on the band [lo, hi]."""
    if lo == hi:
        return (f(lo), Fraction(0))
    beta = Fraction(f(hi) - f(lo), hi - lo)
    return (f(lo) - beta * lo, beta)


class FractionCellGeometry(_CellGeometry):
    """`rect_approx._CellGeometry` with every row built in Fraction affine
    algebra and kept as Fractions, on any bounded interval.  On the int
    image optimal_rectangle searches, with corners at multiples of 4, the
    int geometry's rows are these with their columns times col_scale.
    Each LP is scaled to ints only when it is solved, by the lcm of the
    denominators of all columns (col_scale) and of all right-hand sides
    (rhs_scale), and it runs to optimality.  solve also takes
    which="all", the per-cell problem: both branch families with the r and
    s corners held to their own bands.  It sets every attribute the
    inherited pair() reads: bands, knots, lengths (each knot's slice
    length, from slice_at), min_len, half_len and half_diam."""

    def __init__(self, M):
        rb, sb = M.bounding_r, M.bounding_s
        if any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
            raise PreconditionError("cell optimization needs a bounded interval")
        reg = M.region()
        self.bands = band_partition(M)
        self.knots = reg.knots()
        self.lengths = [s.t_hi - s.t_lo for s in map(reg.slice_at, self.knots)]
        self.lbs = (rb.x1, rb.x2, rb.x1, rb.x2)
        ubs = (sb.x1, sb.x2, sb.x1, sb.x2)
        self.box = [self._row(e) for e in (
            _acomb(-1, _P1, const=rb.x1), _acomb(-1, _Q2, const=rb.x2),
            _acomb(1, _Q1, const=-sb.x1), _acomb(1, _P2, const=-sb.x2),
            _acomb(1, _P1, -1, _Q1), _acomb(1, _Q2, -1, _P2))]
        self.var_box = []
        for v in range(4):
            col = [Fraction(0)] * 5
            col[v] = Fraction(-1)
            self.var_box.append((tuple(col), ubs[v] - self.lbs[v]))
        self.width = self._row(_WIDTH, -1)
        self.height = self._row(_HEIGHT, -1)
        self.zero = self._row(_aff(0), -1)
        self.lo_rows = {name: [] for name in _AFF_CORNERS}
        self.hi_rows = {name: [] for name in _AFF_CORNERS}
        self.half_len = {"p": [], "q": []}
        self.gaps = {g: [] for g in _GAPS}
        self.min_len = []
        for b in self.bands:
            for name, (ce, _) in _AFF_CORNERS.items():
                self.lo_rows[name].append(
                    self._row(_acomb(-1, ce, const=b.lo)))
                self.hi_rows[name].append(
                    self._row(_acomb(1, ce, const=-b.hi)))
            pieces = {"lo": _piece(reg.tlo, b.lo, b.hi),
                      "hi": _piece(reg.thi, b.lo, b.hi)}
            a = pieces["hi"][0] - pieces["lo"][0]
            k = pieces["hi"][1] - pieces["lo"][1]
            for name in self.half_len:
                length = _acomb(k, _AFF_CORNERS[name][0], const=a)
                self.half_len[name].append(
                    self._row(_acomb(HALF, length), -1))
            for g in _GAPS:
                name, side, sign = g
                (alpha, beta), (ce, te) = pieces[side], _AFF_CORNERS[name]
                gap = _acomb(beta, ce, -1, te, const=alpha)
                self.gaps[g].append(self._row(_acomb(sign, gap), -1))
            self.min_len.append(max(min(a + k * b.lo, a + k * b.hi),
                                    Fraction(0)))
        self.half_diam = {v: self._row(_aff(Fraction(v, 2)), -1)
                          for v in set(self.lengths)}
        rows = [*self.box, *self.var_box, self.width, self.height, self.zero,
                *self.half_diam.values()]
        rows += [r for t in (self.lo_rows, self.hi_rows, self.half_len,
                             self.gaps)
                 for rs in t.values() for r in rs]
        self.col_scale = lcm(*(v.denominator for col, _ in rows for v in col))
        self.rhs_scale = lcm(*(rhs.denominator for _, rhs in rows))

    def _row(self, expr, epi=0):
        """The dual column of the primal row expr - epi * t <= 0."""
        c0, cv = expr
        shift = c0 + sum(k * l for k, l in zip(cv, self.lbs))
        return (tuple(-v for v in cv) + (Fraction(-epi),), -shift)

    def sums_meet(self, i, j, k, l):
        """Whether c_r + c_s = c_p + c_q can hold with the corners p, q, r,
        s in the bands i, j, k, l (`_CellGeometry.hull_cells` lists the
        cells that pass)."""
        b = self.bands
        return (b[k].hi + b[l].hi >= b[i].lo + b[j].lo
                and b[k].lo + b[l].lo <= b[i].hi + b[j].hi)

    def solve(self, cell, t1, t2a, which):
        """Best (rect, value) of one band placement, or None: which is
        "all", "pinch" or "hull"."""
        i, j, k, l = cell
        rk, sl = ((j, i), (j, i)) if which == "pinch" else ((k, k), (l, l))
        cons = [self.lo_rows["p"][i], self.hi_rows["p"][i],
                self.lo_rows["q"][j], self.hi_rows["q"][j],
                self.lo_rows["r"][rk[0]], self.hi_rows["r"][rk[1]],
                self.lo_rows["s"][sl[0]], self.hi_rows["s"][sl[1]]] \
            + self.box
        branches = []
        if which != "hull":
            branches.append(t1 + t2a + [self.width])
            branches.append(t1 + t2a + [self.height])
        if which != "pinch":
            bands = {"p": i, "q": j, "r": k, "s": l}
            branches.append(t1 + [self.gaps[g][bands[g[0]]] for g in _GAPS]
                            + [self.zero])
        outs = []
        for atoms in branches:
            res = self._solve_rows(cons + atoms + self.var_box)
            if res is not None:
                val, (p1, p2, q1, q2) = res
                outs.append((RectangleSpec((p1, q2), (q1, p2)), val))
        return min(outs, key=_rank, default=None)

    def _solve_rows(self, rows):
        cs, rs = self.col_scale, self.rhs_scale
        cols = [[int(v * cs) for v in col] for col, _ in rows]
        rhs = [int(r * rs) for _, r in rows]
        try:
            dval, _, x = solve_lp(rhs, list(map(list, zip(*cols))),
                                  [0] * 4 + [cs])
        except ArithmeticError:
            return None
        back = Fraction(cs, rs)
        return (-dval / rs,
                tuple(x[v] * back + self.lbs[v] for v in range(4)))


def reference_optimal_rectangle(M):
    """`rect_approx.optimal_rectangle` on FractionCellGeometry, every LP
    run to optimality: the same pruned search, cell order and tie-break,
    as (rect, epsilon)."""
    rb, sb = M.bounding_r, M.bounding_s
    if M.is_rectangle() or any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
        res = construction1(M)
        return res.rect, res.epsilon
    geo = FractionCellGeometry(M)
    nb = len(geo.bands)
    seed = construction1(M)
    best = None
    for j in range(nb):
        for i in range(j, nb):
            lb2, t1, t2a = geo.pair(i, j)
            if lb2 >= seed.epsilon:
                continue
            cells = [((i, j, j, j), "pinch")]
            cells += [((i, j, k, l), "hull")
                      for k in range(j, i + 1) for l in range(j, i + 1)
                      if geo.sums_meet(i, j, k, l)]
            for cell, which in cells:
                if best is not None and lb2 > best[1]:
                    break
                out = geo.solve(cell, t1, t2a, which)
                if out is not None and (best is None
                                        or _rank(out) < _rank(best)):
                    best = out
    rect, eps = seed.rect, seed.epsilon
    if best is not None and best[1] < eps:
        rect, eps = best
    triv = triv_distance(M)
    if rect.is_zero or triv <= eps:
        return RectangleSpec.zero(), triv
    return rect, eps


# --------------------------------------------------------------------------
# the command line as argparse reads it


def cli_parser_oracle():
    """The argparse parser stairdist.cli read its argv with before
    cli._parse: the reference that cli._parse is tested against."""
    p = argparse.ArgumentParser(prog="stairdist")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", choices=("json", "csv"), default="json")

    sp = sub.add_parser("interval-di", help="interleaving distance of two intervals")
    sp.add_argument("pathA")
    sp.add_argument("pathB")
    sp.add_argument("--explain", action="store_true")
    common(sp)

    sp = sub.add_parser("rect-approx", help="rectangle approximation of a module")
    sp.add_argument("path")
    sp.add_argument("--method", choices=("construction1", "optimal"),
                    default="optimal")
    common(sp)

    for name in ("bottleneck", "lower-bound"):
        sp = sub.add_parser(name)
        sp.add_argument("pathA")
        sp.add_argument("pathB")
        common(sp)

    for name in ("gmd", "dmatch"):
        sp = sub.add_parser(name)
        sp.add_argument("pathA")
        sp.add_argument("pathB")
        sp.add_argument("--directions", type=int, default=16)
        if name == "gmd":
            sp.add_argument("--alpha", type=str, default=None)
            sp.add_argument("--explain", action="store_true")
        common(sp)

    sp = sub.add_parser("generate", help="write a random instance to stdout")
    sp.add_argument("--kind", choices=("staircase", "rectangles", "presentation"),
                    default="staircase")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=6)
    common(sp)
    return p
