"""Matching-style distances for modules given by graded presentations.

A presentation is a GF(2) matrix with a grade per row (generator) and per
column (relation).  The pipeline: collect anchor diagonals from incomparable
grade pairs, push both presentations onto each band of the resulting
covering (where grades become totally ordered), run 1-parameter style column
reduction to split into summands k<g>/<rel>, and take bottleneck distances
of the per-band decompositions, maximized over sampled scaling directions.
Each summand is handled as the point (g, rel), so a per-band distance is an
L-infinity point-set bottleneck distance and no staircase is built.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .bottleneck import point_bottleneck
from .errors import PreconditionError, ValidationError
from .geometry import DiagBand, Point2, band, intercept, point, pt_le, tval
from .scalars import INF, NINF, ext, fmt, is_inf


@dataclass
class GradedMatrix:
    row_grades: tuple  # generator grades, Point2
    col_grades: tuple  # relation grades, Point2
    nonzeros: frozenset  # (row, col) index pairs over GF(2)


def validate_presentation(rows, cols, nonzeros) -> GradedMatrix:
    """Check the grade condition and return a GradedMatrix with rows and
    columns sorted by grade (lexicographic, ties by original index).  Every
    grade coordinate must be finite."""
    rows = [point(*u) for u in rows]
    cols = [point(*u) for u in cols]
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
    if c > C.hi:
        return Point2(u.x2 - C.hi, u.x2)
    if c < C.lo:
        return Point2(u.x1, u.x1 + C.lo)
    return u


def push_band(P: GradedMatrix, C: DiagBand) -> GradedMatrix:
    """Replace every grade by the least point of the band dominating it."""
    return GradedMatrix(tuple(_push_point(u, C) for u in P.row_grades),
                        tuple(_push_point(u, C) for u in P.col_grades),
                        P.nonzeros)


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


def refine_alpha(cov: AnchorCovering, alpha, dmatch_lb) -> AnchorCovering:
    """Subdivide the covering until every finite band has width at most
    alpha * dmatch_lb / 2.

    Infinite end bands are peeled in slabs of that width out to four slabs
    beyond the outermost anchor intercept (in absolute value).  Synthetic
    cut diagonals are recorded as anchor points on the axes.
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
    extent = max((abs(c) for c in cov.intercepts),
                 default=Fraction(0)) + 4 * slab
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
    """The summand k<g>/<r>: support {x >= g} minus {x >= r}."""
    g: Point2  # generator grade
    r: object  # relation grade, or None for a free generator


def diagonalize(P: GradedMatrix):
    """Split a presentation with totally ordered row grades and totally
    ordered column grades into half-open interval summands.

    Standard left-to-right column reduction over GF(2): columns are paired
    with the row of their surviving lowest 1, unpaired rows are free.
    """
    # birth/death order: for totally ordered grades the lexicographic sort
    # is the total order (pushing to a band may have perturbed it)
    rorder = sorted(range(len(P.row_grades)),
                    key=lambda i: (P.row_grades[i], i))
    corder = sorted(range(len(P.col_grades)),
                    key=lambda j: (P.col_grades[j], j))
    rows = [P.row_grades[i] for i in rorder]
    cols = [P.col_grades[j] for j in corder]
    # the grades are a chain iff each one is below the next in this sort; a
    # lexicographically sorted pair u, v with u not below v is incomparable
    for gs in (rows, cols):
        for u, v in zip(gs, gs[1:]):
            if not pt_le(u, v):
                raise PreconditionError("incomparable grades %r, %r"
                                        % (u, v))
    rpos = {old: new for new, old in enumerate(rorder)}
    cpos = {old: new for new, old in enumerate(corder)}
    masks = [0] * len(cols)
    for i, j in P.nonzeros:
        masks[cpos[j]] |= 1 << rpos[i]
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
        out.append(HalfOpenInterval(rows[i], cols[j]))
    for i in range(len(rows)):
        if i not in paired_rows:
            out.append(HalfOpenInterval(rows[i], None))
    return out


def _band_points(P: GradedMatrix, C: DiagBand):
    """The summands of P pushed onto band C as flat points g + rel (see
    bottleneck.point_bottleneck); a free generator has rel = (INF, INF),
    and an empty summand (rel = g) is dropped."""
    out = []
    for iv in diagonalize(push_band(P, C)):
        rel = Point2(INF, INF) if iv.r is None else iv.r
        if rel != iv.g:
            out.append(iv.g + rel)
    return out


# --------------------------------------------------------------------------
# sampled matching distance


def _slice_bars(P: GradedMatrix, c):
    """Bars (t_lo, t_hi) of the presentation along the diagonal line of
    intercept c: its push onto the zero-width band [c, c]."""
    bars = []
    for iv in diagonalize(push_band(P, band(c, c))):
        lo = tval(iv.g)
        hi = INF if iv.r is None else tval(iv.r)
        if hi > lo:
            bars.append((lo, hi))
    return bars


def dmatch_sampled(M, N, directions, intercepts):
    """Max over sampled (direction, intercept) of the 1-parameter bottleneck
    distance between the diagonal slices of two presentations; a lower
    bound for the matching distance."""
    if not directions or not intercepts:
        raise PreconditionError("need at least one direction and intercept")
    best = Fraction(0)
    for a in directions:
        sm, sn = scale_presentation(M, a), scale_presentation(N, a)
        for c in intercepts:
            d = point_bottleneck(_slice_bars(sm, c), _slice_bars(sn, c))
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


def _band_epsilon(points):
    """Largest rectangle-approximation epsilon over a band's summands, as
    rect_approx.construction1 gives it: a hook (rel > g in both coordinates)
    gets its triv ||rel - g||_inf / 2, and strips (rel = g in one
    coordinate) and quadrants (rel at infinity) are rectangles, which add
    0."""
    eps = Fraction(0)
    for g1, g2, r1, r2 in points:
        if g1 < r1 < INF and g2 < r2:
            eps = max(eps, max(r1 - g1, r2 - g2) / 2)
    return eps


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
    for a in directions:
        sm = scale_presentation(M_pres, a)
        sn = scale_presentation(N_pres, a)
        for C in _scaled_covering(cov, a).bands:
            left, right = _band_points(sm, C), _band_points(sn, C)
            val = point_bottleneck(left, right)
            table.append((a, C, val))
            if val > best[0]:
                best = (val, a, C)
            eps = max(eps, _band_epsilon(left), _band_epsilon(right))
    return GmdReport(best[0], best[1], best[2], table, eps, cov)
