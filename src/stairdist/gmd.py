"""Matching-style distances for modules given by graded presentations.

A presentation is a GF(2) matrix with a grade per row (generator) and per
column (relation).  The pipeline: collect anchor diagonals from incomparable
grade pairs, push both presentations onto each band of the resulting
covering (where grades become totally ordered), run 1-parameter style column
reduction to split into interval summands, and take bottleneck distances of
the per-band decompositions, maximized over sampled scaling directions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .bottleneck import CostProfile, bottleneck_distance, bottleneck_from_profile
from .errors import PreconditionError, ValidationError
from .geometry import (DiagBand, Point2, StaircaseInterval, band, intercept,
                       point, pt_le, scale as scale_interval, tval)
from .rect_approx import construction1, optimal_rectangle
from .scalars import INF, NINF, ext, is_inf


@dataclass
class GradedMatrix:
    row_grades: tuple  # generator grades, Point2
    col_grades: tuple  # relation grades, Point2
    nonzeros: frozenset  # (row, col) index pairs over GF(2)
    row_perm: tuple = None  # original index of each (sorted) row
    col_perm: tuple = None


def validate_presentation(rows, cols, nonzeros) -> GradedMatrix:
    """Check the grade condition and return a GradedMatrix with rows and
    columns sorted by grade (lexicographic, ties by original index)."""
    rows = [point(*u) for u in rows]
    cols = [point(*u) for u in cols]
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
                        nz, tuple(rp), tuple(cp))


def _index_pair(e):
    """A nonzero entry as a (row, col) pair of ints; bools and other
    numbers are rejected, not truncated."""
    if not (isinstance(e, (tuple, list)) and len(e) == 2
            and all(isinstance(k, int) and not isinstance(k, bool)
                    for k in e)):
        raise ValidationError("nonzero entry %r is not a pair of int indices"
                              % (e,))
    return tuple(e)


def pointwise_dim(P: GradedMatrix, u) -> int:
    u = point(*u)
    gens = [i for i, g in enumerate(P.row_grades) if pt_le(g, u)]
    rels = [j for j, g in enumerate(P.col_grades) if pt_le(g, u)]
    cols = []
    for j in rels:
        mask = 0
        for i in gens:
            if (i, j) in P.nonzeros:
                mask |= 1 << i
        cols.append(mask)
    return len(gens) - _gf2_rank(cols)


def _gf2_rank(cols):
    pivots = []
    rank = 0
    for mask in cols:
        for p in pivots:
            if mask & (p & -p):
                mask ^= p
        if mask:
            pivots.append(mask)
            rank += 1
    return rank


def _push_point(u: Point2, C: DiagBand) -> Point2:
    c = intercept(u)
    if not is_inf(C.hi) and c > C.hi:
        return Point2(u.x2 - C.hi, u.x2)
    if not is_inf(C.lo) and c < C.lo:
        return Point2(u.x1, u.x1 + C.lo)
    return u


def push_band(P: GradedMatrix, C: DiagBand) -> GradedMatrix:
    """Replace every grade by the least point of the band dominating it."""
    return GradedMatrix(tuple(_push_point(u, C) for u in P.row_grades),
                        tuple(_push_point(u, C) for u in P.col_grades),
                        P.nonzeros, P.row_perm, P.col_perm)


def scale_presentation(P: GradedMatrix, a) -> GradedMatrix:
    a1, a2 = ext(a[0]), ext(a[1])
    if not (a1 > 0 and a2 > 0):
        raise ValidationError("scale factors must be positive")
    mv = lambda u: Point2(u.x1 / a1, u.x2 / a2)
    return GradedMatrix(tuple(mv(u) for u in P.row_grades),
                        tuple(mv(u) for u in P.col_grades),
                        P.nonzeros, P.row_perm, P.col_perm)


# --------------------------------------------------------------------------
# anchor coverings


@dataclass
class AnchorCovering:
    points: tuple  # anchor points (joins of incomparable grade pairs)
    intercepts: tuple  # sorted distinct anchor intercepts
    bands: tuple  # closed bands between consecutive anchor diagonals

    @property
    def trivial(self):
        return not self.intercepts


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


def refine_alpha(cov: AnchorCovering, alpha, dmatch_lb,
                 extent=None) -> AnchorCovering:
    """Subdivide the covering until every finite band has width at most
    alpha * dmatch_lb / 2.

    Infinite end bands are peeled in slabs of that width out to `extent`
    (an absolute intercept bound; defaults to a few slabs beyond the
    outermost anchors).  Synthetic cut diagonals are recorded as anchor
    points on the axes.
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
    cuts = set(cov.intercepts)
    if extent is None:
        base = max((abs(c) for c in cov.intercepts), default=Fraction(0))
        extent = base + 4 * slab
    lo_end = min(cov.intercepts, default=-extent)
    hi_end = max(cov.intercepts, default=extent)
    for b in cov.bands:
        if is_inf(b.lo) or is_inf(b.hi):
            continue
        w = b.hi - b.lo
        n = math.ceil(w / slab) if w > 0 else 1
        for k in range(1, n):
            cuts.add(b.lo + w * Fraction(k, n))
    c = lo_end
    while c - slab >= -extent:
        c = c - slab
        cuts.add(c)
    c = hi_end
    while c + slab <= extent:
        c = c + slab
        cuts.add(c)
    pts = list(cov.points)
    for c in sorted(cuts - set(cov.intercepts)):
        pts.append(point(0, c) if c >= 0 else point(-c, 0))
    return _covering_from_points(pts)


def _scaled_covering(cov: AnchorCovering, a) -> AnchorCovering:
    a1, a2 = ext(a[0]), ext(a[1])
    pts = [Point2(p.x1 / a1, p.x2 / a2) for p in cov.points]
    return _covering_from_points(pts)


# --------------------------------------------------------------------------
# diagonalization of totally ordered presentations


@dataclass
class HalfOpenInterval:
    g: Point2  # generator grade
    r: object  # relation grade or None (free)
    host: DiagBand

    def closed(self):
        """Closure of ({x >= g} minus {x >= r}) as a staircase interval,
        or None when the support is empty."""
        if self.r is None:
            return StaircaseInterval.from_antichains(
                [self.g], [Point2(INF, INF)])
        if self.g == self.r:
            return None
        maxs = []
        if self.r.x1 > self.g.x1 or is_inf(self.r.x1):
            maxs.append(Point2(self.r.x1, INF))
        if self.r.x2 > self.g.x2 or is_inf(self.r.x2):
            maxs.append(Point2(INF, self.r.x2))
        if not maxs:
            return None
        return StaircaseInterval.from_antichains([self.g], maxs)


def diagonalize(P: GradedMatrix, host=None):
    """Split a presentation with totally ordered row grades and totally
    ordered column grades into half-open interval summands.

    Standard left-to-right column reduction over GF(2): columns are paired
    with the row of their surviving lowest 1, unpaired rows are free.
    """
    for gs in (P.row_grades, P.col_grades):
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                if not (pt_le(gs[i], gs[j]) or pt_le(gs[j], gs[i])):
                    raise PreconditionError(
                        "incomparable grades %r, %r" % (gs[i], gs[j]))
    if host is None:
        host = band(NINF, INF)
    # birth/death order: for totally ordered grades the lexicographic sort
    # is the total order (pushing to a band may have perturbed it)
    rorder = sorted(range(len(P.row_grades)),
                    key=lambda i: (P.row_grades[i], i))
    corder = sorted(range(len(P.col_grades)),
                    key=lambda j: (P.col_grades[j], j))
    rows = [P.row_grades[i] for i in rorder]
    cols = [P.col_grades[j] for j in corder]
    rpos = {old: new for new, old in enumerate(rorder)}
    masks = []
    for j in corder:
        m = 0
        for (i, jj) in P.nonzeros:
            if jj == j:
                m |= 1 << rpos[i]
        masks.append(m)
    low_owner = {}
    pairs = []
    for j in range(len(cols)):
        m = masks[j]
        while m:
            low = m.bit_length() - 1
            if low not in low_owner:
                low_owner[low] = j
                pairs.append((low, j))
                break
            m ^= masks[low_owner[low]]
        masks[j] = m
    paired_rows = {i for i, _ in pairs}
    out = []
    for i, j in sorted(pairs):
        out.append(HalfOpenInterval(rows[i], cols[j], host))
    for i in range(len(rows)):
        if i not in paired_rows:
            out.append(HalfOpenInterval(rows[i], None, host))
    return out


def _closed_summands(intervals):
    out = []
    for iv in intervals:
        closed = iv.closed()
        if closed is not None:
            out.append(closed)
    return out


# --------------------------------------------------------------------------
# sampled matching distance


def _line_param(u: Point2, c):
    """First diagonal parameter t at which the line of intercept c sees u."""
    return max(u.x1 + c / 2, u.x2 - c / 2)


def _project_presentation(P: GradedMatrix, c) -> GradedMatrix:
    mv = lambda u: Point2(_line_param(u, c) - c / 2, _line_param(u, c) + c / 2)
    return GradedMatrix(tuple(mv(u) for u in P.row_grades),
                        tuple(mv(u) for u in P.col_grades),
                        P.nonzeros, P.row_perm, P.col_perm)


def _slice_bars(side, a, c):
    """Bars (t_lo, t_hi) of the scaled module along the diagonal line."""
    if isinstance(side, GradedMatrix):
        scaled = scale_presentation(side, a)
        proj = _project_presentation(scaled, c)
        bars = []
        for iv in diagonalize(proj):
            lo = tval(iv.g)
            hi = INF if iv.r is None else tval(iv.r)
            if hi > lo:
                bars.append((lo, hi))
        return bars
    bars = []
    for summand in side:
        seg = scale_interval(summand, a).region().slice_at(c)
        if not seg.is_empty:
            bars.append((seg.t_lo, seg.t_hi))
    return bars


def _bar_cost(b1, b2):
    return max(abs(b1[0] - b2[0]), abs(b1[1] - b2[1]))


def _bar_triv(b):
    length = b[1] - b[0]
    return INF if is_inf(length) else length / 2


def bars_bottleneck(bars_m, bars_n):
    profile = CostProfile([[_bar_cost(x, y) for y in bars_n] for x in bars_m],
                          [_bar_triv(x) for x in bars_m],
                          [_bar_triv(y) for y in bars_n])
    return bottleneck_from_profile(profile).delta


def dmatch_sampled(M, N, directions, intercepts):
    """Max over sampled (direction, intercept) of the 1-parameter bottleneck
    distance between the diagonal slices; a lower bound for the matching
    distance.  Sides are decomposable interval lists or GradedMatrix."""
    if not directions or not intercepts:
        raise PreconditionError("need at least one direction and intercept")
    best = Fraction(0)
    for a in directions:
        for c in intercepts:
            d = bars_bottleneck(_slice_bars(M, a, c), _slice_bars(N, a, c))
            if d > best:
                best = d
            if is_inf(best):
                return best
    return best


# --------------------------------------------------------------------------
# the full pipeline


@dataclass
class GmdReport:
    value: object
    direction: object
    band: object
    table: list  # (direction, band, value) triples
    epsilon: object  # covering-quality estimate
    covering: AnchorCovering


def default_directions(presentations, count=16):
    """Direction sample: (1, t) and (t, 1) ladders up to the grade aspect."""
    if count < 1:
        raise ValidationError("need at least one direction")
    coords1, coords2 = [], []
    for P in presentations:
        for u in list(P.row_grades) + list(P.col_grades):
            if not is_inf(u.x1):
                coords1.append(u.x1)
            if not is_inf(u.x2):
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


def _band_epsilon(summands):
    eps = Fraction(0)
    for s in summands:
        if s.is_rectangle():
            continue
        rb, sb = s.bounding_r, s.bounding_s
        if any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
            e = construction1(s).epsilon
        else:
            e = optimal_rectangle(s).epsilon
        eps = max(eps, e)
    return eps


def _sample_intercepts(covering, presentations):
    cs = set(covering.intercepts)
    for P in presentations:
        for u in list(P.row_grades) + list(P.col_grades):
            c = intercept(u)
            if not is_inf(c):
                cs.add(c)
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
    the scaled, band-pushed presentations.
    """
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
    for di, a in enumerate(directions):
        sm = scale_presentation(M_pres, a)
        sn = scale_presentation(N_pres, a)
        scov = _scaled_covering(cov, a)
        for bi, C in enumerate(scov.bands):
            left = _closed_summands(diagonalize(push_band(sm, C), host=C))
            right = _closed_summands(diagonalize(push_band(sn, C), host=C))
            val = bottleneck_distance(left, right).delta
            table.append((a, C, val))
            if val > best[0]:
                best = (val, a, C)
            eps = max(eps, _band_epsilon(left), _band_epsilon(right))
    return GmdReport(best[0], best[1], best[2], table, eps, cov)
