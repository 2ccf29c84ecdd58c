"""Matching-style distances for modules given by graded presentations.

A presentation is a GF(2) matrix with a grade per row (generator) and per
column (relation).  The pipeline: collect anchor diagonals from incomparable
grade pairs, push both presentations onto each band of the resulting
covering (push_band; there the grades become totally ordered), run
1-parameter style column reduction to split into summands k<g>/<rel>
(diagonalize), and take bottleneck distances of the per-band
decompositions, maximized over sampled scaling directions.  Each summand
is handled as the point (g, rel), so a per-band distance is an L-infinity
point-set bottleneck distance and no staircase is built.

gmd and dmatch_sampled run each sampled direction on ints: the direction's
scaled grades, band edges and intercepts are multiplied by one positive int
S, pushed, sorted, reduced and matched there, and each value is divided back
by S once; push_band and diagonalize take those int grades.  This is exact,
since pushing, the grade order, pt_le and L-infinity gaps all commute with
a uniform positive scaling.  The GF(2) reduction depends only on the orders
of the rows and of the columns, so within one call each presentation
reduces each pair of orders once (_Pairings).  Along one direction, every
line beyond the extreme grade intercepts only translates both
presentations' bars, so dmatch_sampled searches each distinct line once
(its docstring proves it).
"""

import math
from fractions import Fraction

from .bottleneck import int_point_bottleneck
from .errors import PreconditionError, ValidationError
from .geometry import Point2, band, intercept, point, pt_le
from .record import Record
from .scalars import INF, NINF, ext, fmt, int_scale, is_inf, qmul

# The most bands refine_alpha may cut a covering into.
MAX_BANDS = 10000
# The most directions default_directions may build.
MAX_DIRECTIONS = 10000


class GradedMatrix(Record):
    __slots__ = ("row_grades",  # generator grades, Point2
                 "col_grades",  # relation grades, Point2
                 "nonzeros")  # (row, col) index pairs over GF(2)

    def __init__(self, row_grades, col_grades, nonzeros):
        self.row_grades = row_grades
        self.col_grades = col_grades
        self.nonzeros = nonzeros


def validate_presentation(rows, cols, nonzeros) -> GradedMatrix:
    """Check the grade condition and return a GradedMatrix with rows and
    columns sorted by grade (lexicographic, ties by original index).  Every
    grade coordinate must be finite."""
    return graded_presentation([point(*u) for u in rows],
                               [point(*u) for u in cols], nonzeros)


def graded_presentation(rows, cols, nonzeros) -> GradedMatrix:
    """validate_presentation on grades that are Point2s already holding
    extended reals, as io's parser makes them: none is coerced again."""
    for u in rows + cols:
        if is_inf(u.x1) or is_inf(u.x2):
            raise ValidationError("grade (%s, %s) is not finite"
                                  % (fmt(u.x1), fmt(u.x2)))
    nonzeros = {_index_pair(e) for e in nonzeros}
    for i, j in nonzeros:
        if not (0 <= i < len(rows) and 0 <= j < len(cols)):
            raise ValidationError("nonzero (%d,%d) out of range" % (i, j))
        if not pt_le(rows[i], cols[j]):
            raise ValidationError(
                "entry (%d,%d) violates the grade order: %r vs %r"
                % (i, j, rows[i], cols[j]))
    rp = sorted(range(len(rows)), key=lambda i: (rows[i], i))
    cp = sorted(range(len(cols)), key=lambda j: (cols[j], j))
    rinv = {old: new for new, old in enumerate(rp)}
    cinv = {old: new for new, old in enumerate(cp)}
    nz = frozenset((rinv[i], cinv[j]) for i, j in nonzeros)
    return GradedMatrix(tuple(rows[i] for i in rp),
                        tuple(cols[j] for j in cp),
                        nz)


def _index_pair(e):
    """A nonzero entry as a (row, col) pair of ints; bools and other
    numbers are rejected, not truncated."""
    if not (isinstance(e, (tuple, list)) and len(e) == 2
            and all(isinstance(k, int) and not isinstance(k, bool)
                    for k in e)):
        raise ValidationError("nonzero entry %r is not a pair of int indices"
                              % (e,))
    return tuple(e)


def scale_presentation(P: GradedMatrix, a) -> GradedMatrix:
    a1, a2 = ext(a[0]), ext(a[1])
    if not (a1 > 0 and a2 > 0):
        raise ValidationError("scale factors must be positive")
    mv = lambda u: Point2(u.x1 / a1, u.x2 / a2)
    return GradedMatrix(tuple(mv(u) for u in P.row_grades),
                        tuple(mv(u) for u in P.col_grades),
                        P.nonzeros)


# --------------------------------------------------------------------------
# anchor coverings


class AnchorCovering(Record):
    __slots__ = ("points",  # anchor points (joins of incomparable grade pairs)
                 "intercepts",  # sorted distinct anchor intercepts
                 "bands")  # closed bands between consecutive anchor diagonals

    def __init__(self, points, intercepts, bands):
        self.points = points
        self.intercepts = intercepts
        self.bands = bands


def _covering_from_points(points):
    cs = sorted({intercept(p) for p in points})
    if not cs:
        bands = (band(NINF, INF),)
    else:
        edges = [NINF] + cs + [INF]
        bands = tuple(band(a, b) for a, b in zip(edges, edges[1:]))
    return AnchorCovering(tuple(points), tuple(cs), bands)


def anchors(presentations) -> AnchorCovering:
    """Joins of incomparable grade pairs, taken per grade set, with the band
    covering their diagonals induce."""
    pts = []
    for P in presentations:
        for grades in (P.row_grades, P.col_grades):
            for i in range(len(grades)):
                for j in range(i + 1, len(grades)):
                    u, v = grades[i], grades[j]
                    if pt_le(u, v) or pt_le(v, u):
                        continue
                    w = Point2(max(u.x1, v.x1), max(u.x2, v.x2))
                    if w not in pts:
                        pts.append(w)
    return _covering_from_points(pts)


def refine_alpha(cov: AnchorCovering, alpha, dmatch_lb) -> AnchorCovering:
    """Subdivide the covering until every finite band has width at most
    alpha * dmatch_lb / 2.

    Infinite end bands are peeled in slabs of that width out to four slabs
    beyond the outermost anchor intercept (in absolute value).  Synthetic
    cut diagonals are recorded as anchor points on the axes.  The bands are
    counted before any is cut, and more than MAX_BANDS of them is a
    ValidationError: their number grows as 1/alpha.
    """
    alpha = ext(alpha)
    if not (0 <= alpha <= 1):
        raise ValidationError("alpha must lie in [0, 1]")
    if alpha == 0:
        return cov
    dmatch_lb = ext(dmatch_lb)
    if dmatch_lb <= 0:
        raise PreconditionError("refinement needs a positive distance bound")
    slab = alpha * dmatch_lb / 2
    extent = max((abs(c) for c in cov.intercepts),
                 default=Fraction(0)) + 4 * slab
    lo_end = min(cov.intercepts, default=-extent)
    hi_end = max(cov.intercepts, default=extent)
    splits = [(b.lo, b.hi - b.lo, math.ceil((b.hi - b.lo) / slab))
              for b in cov.bands if not (is_inf(b.lo) or is_inf(b.hi))]
    below = math.floor((lo_end + extent) / slab)
    above = math.floor((extent - hi_end) / slab)
    count = (len(cov.intercepts) + 1 + below + above
             + sum(n - 1 for _, _, n in splits))
    if count > MAX_BANDS:
        raise ValidationError(
            "alpha %s would cut %d bands, more than %d"
            % (fmt(alpha), count, MAX_BANDS))
    cuts = set(cov.intercepts)
    for lo, w, n in splits:
        cuts.update(lo + w * Fraction(k, n) for k in range(1, n))
    cuts.update(lo_end - k * slab for k in range(1, below + 1))
    cuts.update(hi_end + k * slab for k in range(1, above + 1))
    pts = list(cov.points)
    for c in sorted(cuts - set(cov.intercepts)):
        pts.append(point(0, c) if c >= 0 else point(-c, 0))
    return _covering_from_points(pts)


def _scaled_covering(cov: AnchorCovering, a) -> AnchorCovering:
    a1, a2 = ext(a[0]), ext(a[1])
    pts = [Point2(p.x1 / a1, p.x2 / a2) for p in cov.points]
    return _covering_from_points(pts)


# --------------------------------------------------------------------------
# the per-direction int kernel


def _pairing(nonzeros, rorder, corder):
    """Standard left-to-right column reduction over GF(2) of the matrix
    with its rows in rorder and its columns in corder (original indices):
    each column is paired with the row of its surviving lowest 1.  Returns
    (pairs, free): the (row, column) pairs in row order and the unpaired
    rows in row order, as original indices."""
    rpos = {old: new for new, old in enumerate(rorder)}
    cpos = {old: new for new, old in enumerate(corder)}
    masks = [0] * len(corder)
    for i, j in nonzeros:
        masks[cpos[j]] |= 1 << rpos[i]
    low_owner = {}
    for j, m in enumerate(masks):
        while m:
            low = m.bit_length() - 1
            if low not in low_owner:
                low_owner[low] = j
                break
            m ^= masks[low_owner[low]]
        masks[j] = m
    pairs = [(rorder[i], corder[low_owner[i]]) for i in sorted(low_owner)]
    free = [r for i, r in enumerate(rorder) if i not in low_owner]
    return pairs, free


class _Pairings:
    """_pairing of one presentation, run once per (row order, column
    order).  gmd and dmatch_sampled make one per presentation per call, so
    it lives as long as that call."""

    __slots__ = ("nonzeros", "memo")

    def __init__(self, P: GradedMatrix):
        self.nonzeros = P.nonzeros
        self.memo = {}

    def __call__(self, rorder, corder):
        key = (rorder, corder)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = _pairing(self.nonzeros, rorder, corder)
        return got


def _scaled_ints(presentations, a, values):
    """The grades of each presentation scaled by direction a, and the given
    finite values, all times one int S > 0: (S, grades, values), where
    grades holds a (rows, cols) pair of lists of int pairs (x1, x2) per
    presentation.

    S is int_scale(2, ...) of all of them, so every scaled number is even:
    the halvings of the line parameter, of the unmatched cost and of
    _band_epsilon stay whole.  S is per direction, since a direction's
    factors bring their own denominators.
    """
    scaled = [scale_presentation(P, a) for P in presentations]
    S = int_scale(2, [x for P in scaled for u in P.row_grades + P.col_grades
                      for x in u] + list(values))
    grades = [tuple([(qmul(u.x1, S), qmul(u.x2, S)) for u in part]
                    for part in (P.row_grades, P.col_grades))
              for P in scaled]
    return S, grades, [qmul(v, S) for v in values]


def _intercept_range(grades):
    """The least and the greatest intercept x2 - x1 over every row and
    column grade of _scaled_ints' grades, or (0, 0) when there is none."""
    cs = [x2 - x1 for gs in grades for part in gs for x1, x2 in part]
    return min(cs, default=0), max(cs, default=0)


def _order(keys):
    """Indices sorted by key, ties by index, as a tuple."""
    return tuple(sorted(range(len(keys)), key=keys.__getitem__))


def _chain_order(grades):
    """_order of int grades (x1, x2); PreconditionError unless each one is
    below the next (in lexicographic order only x2 can fall)."""
    order = _order(grades)
    for i, j in zip(order, order[1:]):
        if grades[i][1] > grades[j][1]:
            raise PreconditionError("incomparable grades %r, %r (scaled)"
                                    % (grades[i], grades[j]))
    return order


def push_band(grades, lo, hi):
    """Int grades (x1, x2) pushed onto the band lo <= x2 - x1 <= hi, each
    to the least point of the band above it."""
    out = []
    for u in grades:
        x1, x2 = u
        c = x2 - x1
        out.append((x2 - hi, x2) if c > hi else (x1, x1 + lo) if c < lo
                   else u)
    return out


def diagonalize(rows, cols, pairing):
    """Split a presentation whose int row grades and column grades are
    chains (as push_band leaves them on an anchor band) into summands
    k<g>/<rel>, as flat int points g + rel (see
    bottleneck.int_point_bottleneck): the pairs, then the free generators
    with rel = (INF, INF); an empty summand (rel = g) is dropped.  pairing
    is the presentation's _Pairings."""
    pairs, free = pairing(_chain_order(rows), _chain_order(cols))
    pts = [rows[i] + cols[j] for i, j in pairs if rows[i] != cols[j]]
    pts += [rows[i] + (INF, INF) for i in free]
    return pts


def _band_epsilon(points):
    """Largest rectangle-approximation epsilon over a band's summands, as
    rect_approx.construction1 gives it: a hook (rel > g in both coordinates)
    gets its triv ||rel - g||_inf / 2, and strips (rel = g in one
    coordinate) and quadrants (rel at infinity) are rectangles, which add
    0.  The points are diagonalize's, whose gaps are even."""
    gap = 0
    for g1, g2, r1, r2 in points:
        if r1 is not INF and g1 < r1 and g2 < r2:
            gap = max(gap, r1 - g1, r2 - g2)
    return gap // 2


def _band_values(presentations, a, bands, pairings):
    """(value, epsilon) per band of the covering scaled by direction a, as
    exact rationals: the bottleneck distance between the two presentations'
    summands, each pushed onto the band and diagonalized, and the larger
    _band_epsilon."""
    edges = list({e for C in bands for e in C if not is_inf(e)})
    S, grades, ints = _scaled_ints(presentations, a, edges)
    at = dict(zip(edges, ints))
    # an infinite edge stands at the extreme grade intercept, so it moves
    # no grade
    cmin, cmax = _intercept_range(grades)
    out = []
    for C in bands:
        lo = cmin if is_inf(C.lo) else at[C.lo]
        hi = cmax if is_inf(C.hi) else at[C.hi]
        left, right = (diagonalize(push_band(rows, lo, hi),
                                   push_band(cols, lo, hi), p)
                       for (rows, cols), p in zip(grades, pairings))
        v = int_point_bottleneck(left, right)
        e = max(_band_epsilon(left), _band_epsilon(right))
        out.append((v if is_inf(v) else Fraction(v, S), Fraction(e, S)))
    return out


def _slice_bars(grades, h, pairing):
    """Bars (t_lo, t_hi) of a presentation along the diagonal line of
    intercept 2h, in ints: the line first meets the up-set of (x1, x2) at
    t = max(x1 + h, x2 - h).  Every two points of a line are comparable, so
    the order by t needs no chain check."""
    rows, cols = ([max(x1 + h, x2 - h) for x1, x2 in part] for part in grades)
    pairs, free = pairing(_order(rows), _order(cols))
    bars = [(rows[i], cols[j]) for i, j in pairs if cols[j] > rows[i]]
    bars += [(rows[i], INF) for i in free]
    return bars


# --------------------------------------------------------------------------
# sampled matching distance


def dmatch_sampled(M, N, directions, intercepts):
    """Max over sampled (direction, intercept) of the 1-parameter bottleneck
    distance between the diagonal slices of two presentations; a lower
    bound for the matching distance.

    Each direction runs one bottleneck search per distinct line: the line
    parameter h = c // 2 of each scaled intercept c is clamped into
    [lo, hi], the least and the greatest (x2 - x1) // 2 over every scaled
    row and column grade of both presentations.  Every grade is even, so
    each of these halvings is exact.

    Lemma.  The slices at h >= hi have the same bottleneck distance as the
    slices at hi, and those at h <= lo the same as those at lo.

    Proof.  Let h >= hi.  Every grade has x2 - x1 <= 2 hi <= 2 h, so
    x1 + h >= x2 - h, and _slice_bars places it at t = x1 + h, which is its
    t at hi plus s = h - hi.  So every t of both presentations moves by the
    same s.  The row order and the column order of each presentation
    (ties by index) are then those at hi, and so is its _Pairings pairing;
    whether a pair gives a bar (cols[j] > rows[i]) compares two t's, so
    the same pairs give bars.  Each bar of both presentations is its bar
    at hi moved by s in both ends, a free bar's INF end staying INF.
    int_point_bottleneck prices a pair by the L-infinity gap of the finite
    ends, and an unmatched bar by (d - b) / 2 (INF for a free bar); both
    are differences of t's, so every cost is the one at hi.  Hence the
    search, INF included, returns the value at hi.  For h <= lo every grade
    has x2 - x1 >= 2 h, it is placed at t = x2 - h, and the same argument
    holds with s = lo - h.  lo and hi must be taken over both presentations,
    since only a translation common to both bar sets keeps the costs.

    So the clamped lines give the same set of values as the sampled ones,
    and the early INF return and the maximum see the same values.  With
    no grade in either presentation every slice has no bar, and the one
    line lo = hi = 0 stands for all of them.
    """
    if not directions or not intercepts:
        raise PreconditionError("need at least one direction and intercept")
    best = Fraction(0)
    pairings = [_Pairings(M), _Pairings(N)]
    for a in directions:
        S, grades, cs = _scaled_ints((M, N), a, intercepts)
        lo, hi = (c // 2 for c in _intercept_range(grades))
        top = 0
        for h in {min(max(c // 2, lo), hi) for c in cs}:
            d = int_point_bottleneck(*(_slice_bars(gs, h, p)
                                       for gs, p in zip(grades, pairings)))
            if is_inf(d):
                return d
            top = max(top, d)
        best = max(best, Fraction(top, S))
    return best


# --------------------------------------------------------------------------
# the full pipeline


class GmdReport(Record):
    __slots__ = ("value", "direction", "band",
                 "table",  # (direction, band, value) triples
                 "epsilon",  # covering-quality estimate
                 "covering")

    def __init__(self, value, direction, band, table, epsilon,
                 covering: AnchorCovering):
        self.value = value
        self.direction = direction
        self.band = band
        self.table = table
        self.epsilon = epsilon
        self.covering = covering


def default_directions(presentations, count=16):
    """Direction sample: (1, t) and (t, 1) ladders up to the grade aspect.
    count must lie in [1, MAX_DIRECTIONS]; it is checked before anything is
    built."""
    if count < 1:
        raise ValidationError("need at least one direction")
    if count > MAX_DIRECTIONS:
        raise ValidationError("%d directions are more than %d"
                              % (count, MAX_DIRECTIONS))
    coords1, coords2 = [], []
    for P in presentations:
        for u in P.row_grades + P.col_grades:
            coords1.append(u.x1)
            coords2.append(u.x2)
    r1 = max(coords1) - min(coords1) if len(coords1) > 1 else Fraction(1)
    r2 = max(coords2) - min(coords2) if len(coords2) > 1 else Fraction(1)
    amax = max(r1, r2, Fraction(2))
    dirs = [(Fraction(1), Fraction(1))]
    half = (count - 1) // 2
    rest = count - 1 - half
    for k in range(1, half + 1):
        t = 1 + (amax - 1) * Fraction(k, half)
        dirs.append((Fraction(1), t))
    for k in range(1, rest + 1):
        t = 1 + (amax - 1) * Fraction(k, rest)
        dirs.append((t, Fraction(1)))
    return dirs


def _sample_intercepts(covering, presentations):
    cs = set(covering.intercepts)
    for P in presentations:
        for u in P.row_grades + P.col_grades:
            cs.add(intercept(u))
    if not cs:
        cs.add(Fraction(0))
    cs = sorted(cs)
    mids = [(x + y) / 2 for x, y in zip(cs, cs[1:])]
    return sorted(set(cs) | set(mids))


def gmd(M_pres: GradedMatrix, N_pres: GradedMatrix, directions=16,
        alpha=None) -> GmdReport:
    """Generalized matching distance estimate between two presentations.

    Maximizes, over sampled directions and the bands of the anchor covering,
    the bottleneck distance between the per-band interval decompositions of
    the scaled, band-pushed presentations.  alpha, when given, must lie in
    [0, 1].
    """
    if alpha is not None:
        alpha = ext(alpha)
        if not 0 <= alpha <= 1:
            raise ValidationError("alpha must lie in [0, 1]")
    pres = (M_pres, N_pres)
    if isinstance(directions, int):
        directions = default_directions(pres, directions)
    cov = anchors(pres)
    if alpha is not None and alpha > 0:
        lb = dmatch_sampled(M_pres, N_pres, directions,
                            _sample_intercepts(cov, pres))
        if lb > 0 and not is_inf(lb):
            cov = refine_alpha(cov, alpha, lb)
    table = []
    best = (Fraction(0), None, None)
    eps = Fraction(0)
    pairings = [_Pairings(M_pres), _Pairings(N_pres)]
    for a in directions:
        bands = _scaled_covering(cov, a).bands
        for C, (val, e) in zip(bands, _band_values(pres, a, bands, pairings)):
            table.append((a, C, val))
            if val > best[0]:
                best = (val, a, C)
            eps = max(eps, e)
    return GmdReport(best[0], best[1], best[2], table, eps, cov)
