"""Rectangle approximations of interval modules.

Two approximations are provided: the midpoint construction (pull the two
extreme bounding-rectangle corners halfway onto the boundary staircases) and
the optimal rectangle, found by partitioning the bounding rectangle into
diagonal bands, placing the four rectangle corners into bands in every
combination, and solving each placement exactly as a handful of small linear
programs; placements that provably cannot win are skipped.  The LPs have
rational data, scaled to ints once per module, and run on a fraction-free
integer simplex tableau whose results are exact Fractions.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError
from .geometry import (RectangleSpec, StaircaseInterval, band, intercept,
                       point, tval)
from .interleaving import triv_distance
from .scalars import INF, NINF, ext, is_inf

HALF = Fraction(1, 2)


@dataclass
class RectApproxResult:
    rect: RectangleSpec
    epsilon: object


# --------------------------------------------------------------------------
# midpoint construction


def _corner_pull(reg, x, lower):
    """Distance from a bounding corner to its boundary staircase, and the
    midpoint of the pull (half the diagonal gap)."""
    c = intercept(x)
    seg = reg.slice_at(c)
    if seg.is_empty:
        return INF, x
    target = seg.t_lo if lower else seg.t_hi
    gap = (target - tval(x)) if lower else (tval(x) - target)
    if is_inf(gap):
        return INF, x
    step = gap / 2 if lower else -gap / 2
    return gap / 2, point(x.x1 + step, x.x2 + step)


def construction1(M: StaircaseInterval) -> RectApproxResult:
    """Midpoint rectangle approximation.

    The bounding corners r', s' are pulled halfway toward their diagonal
    projections on the lower/upper staircase; the achieved distance is the
    larger half-gap.  When trivializing the module is at least as cheap, the
    zero module is returned instead.
    """
    reg = M.region()
    triv = reg.triv()
    er, r = _corner_pull(reg, M.bounding_r, lower=True)
    es, s = _corner_pull(reg, M.bounding_s, lower=False)
    eps = max(er, es)
    if triv > eps:
        return RectApproxResult(RectangleSpec(r, s), eps)
    return RectApproxResult(RectangleSpec.zero(), triv)


# --------------------------------------------------------------------------
# slice-length tables over the vertex diagonals


class DiamTable:
    """Slice lengths at the vertex diagonals with range-max lookups."""

    def __init__(self, intercepts, lengths):
        self.intercepts = list(intercepts)
        self.lengths = list(lengths)
        n = len(lengths)
        self.inside_max = {}
        for i in range(n):
            acc = NINF
            for j in range(i, n):
                acc = max(acc, lengths[j])
                self.inside_max[(i, j)] = acc
        # prefix[i] = max(lengths[:i]), suffix[j] = max(lengths[j:])
        self.prefix = [NINF]
        for v in lengths:
            self.prefix.append(max(self.prefix[-1], v))
        self.suffix = [NINF]
        for v in reversed(lengths):
            self.suffix.append(max(self.suffix[-1], v))
        self.suffix.reverse()

    def diam(self, i, j):
        if j < i:
            return NINF
        return self.inside_max[(i, j)]

    def codiam(self, i, j):
        if j < i:
            return self.prefix[-1]
        return max(self.prefix[i], self.suffix[j + 1])


def diam_tables(M: StaircaseInterval) -> DiamTable:
    reg = M.region()
    cs = reg.knots()
    g = reg.length_fn()
    if g is INF:
        lengths = [INF for _ in cs]
    else:
        lengths = [g(c) for c in cs]
    return DiamTable(cs, lengths)


def band_partition(M: StaircaseInterval):
    """Diagonal bands of the bounding rectangle cut at the vertex diagonals."""
    reg = M.region()
    breaks = reg.knots()
    if reg.clo is NINF:
        breaks = [NINF] + breaks
    if reg.chi is INF:
        breaks = breaks + [INF]
    if len(breaks) == 1:
        return [band(breaks[0], breaks[0])]
    return [band(a, b) for a, b in zip(breaks, breaks[1:])]


# --------------------------------------------------------------------------
# exact fraction-free simplex (min c.x, A x <= b, x >= 0)


def _integral(rows):
    """(L, the rows times L) for the least positive int L that makes every
    entry of the rational rows an int."""
    scale = lcm(*(v.denominator for row in rows for v in row))
    return scale, [[v.numerator * (scale // v.denominator) for v in row]
                   for row in rows]


def solve_lp(c, A, b, duals=False):
    """Two-phase simplex with Bland's rule, exact on ints.

    The entries are ints or Fractions.  Returns (value, x) or None when
    infeasible.  Unbounded problems raise ArithmeticError.  With duals=True
    the result is (value, x, y) with y_i the reduced cost of the slack of
    row i, negated where b_i < 0.  Where b >= 0, y >= 0 is the optimal
    point of the dual max -b.y s.t. A^T y >= -c, so -b.y is the value; a
    row with b_i < 0 gets the opposite sign.  Every number returned is a
    Fraction.

    A and b are scaled by one positive int and c by another, which scales
    each tableau column, its ratios and its reduced costs by a positive
    factor and so keeps every pivot; the results are scaled back.  The
    tableau T, the reduced-cost row included, holds ints equal to D times
    the rational tableau of the current basis B, with D = |det B|.
    Pivoting on p = T[r][col] leaves row r as it is, replaces every other
    row a, whose entry in col is f, by (p*a - f*T[r]) / D, an exact
    division, and sets D = p; when p < 0 every row is negated and D = -p
    (Edmonds's integer-preserving pivot, as in Bareiss elimination).  The
    pivots are those of the rational tableau: the entering column is the
    first with a negative reduced cost, and the ratio test compares
    T[r][-1] / T[r][col] by cross-multiplication, ties going to the lower
    basis index.
    """
    m, n = len(A), len(c)
    row_scale, rows = _integral([list(a) + [bi] for a, bi in zip(A, b)])
    cost_scale, (cost,) = _integral([c])
    senses = [-1 if row[-1] < 0 else 1 for row in rows]
    nart = senses.count(-1)
    total = n + m + nart
    # rows 0..m-1 are the constraints, row m the reduced costs
    T = []
    basis = []
    ak = n + m
    for i, row in enumerate(rows):
        if senses[i] < 0:
            row = [-v for v in row]
        t = row[:n] + [0] * (m + nart) + row[n:]
        t[n + i] = senses[i]
        if senses[i] < 0:
            t[ak] = 1
            basis.append(ak)
            ak += 1
        else:
            basis.append(n + i)
        T.append(t)
    T.append([0] * (total + 1))
    D = 1

    def pivot(r, col):
        nonlocal D
        prow = T[r]
        p = prow[col]
        sign = -1 if p < 0 else 1
        p *= sign
        for k, row in enumerate(T):
            if k == r:
                continue
            f = row[col] * sign
            if f:
                T[k] = [(p * a - f * q) // D for a, q in zip(row, prow)]
            elif p != D:  # only the common factor changes
                T[k] = [p * a // D for a in row]
        if sign < 0:
            T[r] = [-v for v in prow]
        D = p
        basis[r] = col

    def run(obj, ncols):
        red = [D * v for v in obj] + [0]
        for r, bv in enumerate(basis):
            if obj[bv]:
                red = [a - obj[bv] * q for a, q in zip(red, T[r])]
        T[m] = red
        while True:
            red = T[m]
            col = next((j for j in range(ncols) if red[j] < 0), None)
            if col is None:
                return -red[-1]
            row = None
            for r in range(m):
                a = T[r][col]
                if a <= 0:
                    continue
                if row is None:
                    row = r
                    continue
                lhs, rhs = T[r][-1] * T[row][col], T[row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row = r
            if row is None:
                raise ArithmeticError("unbounded linear program")
            pivot(row, col)

    if nart:
        if run([0] * (n + m) + [1] * nart, total) > 0:
            return None
        # pivot any artificial out of the basis
        for r in range(m):
            if basis[r] >= n + m:
                for j in range(n + m):
                    if T[r][j]:
                        pivot(r, j)
                        break
    val = Fraction(run(cost + [0] * (m + nart), n + m), D * cost_scale)
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(T[r][-1], D)
    if duals:
        y = [Fraction(T[m][n + i] * senses[i] * row_scale, D * cost_scale)
             for i in range(m)]
        return val, x, y
    return val, x



# --------------------------------------------------------------------------
# per-cell optimization

# affine expressions a0 + a.(p1, p2, q1, q2): the rectangle has lower corner
# r = (p1, q2) and upper corner s = (q1, p2), so p = (p1, p2) is its top-left
# corner and q = (q1, q2) its bottom-right one
_ZERO4 = (Fraction(0),) * 4


def _aff(const, coeffs=_ZERO4):
    return (ext(const), tuple(Fraction(v) for v in coeffs))

_P1 = _aff(0, (1, 0, 0, 0))
_P2 = _aff(0, (0, 1, 0, 0))
_Q1 = _aff(0, (0, 0, 1, 0))
_Q2 = _aff(0, (0, 0, 0, 1))


def _acomb(k1, e1, k2=0, e2=None, const=0):
    c = ext(const) + k1 * e1[0] + (k2 * e2[0] if e2 is not None else 0)
    v2 = e2[1] if e2 is not None else _ZERO4
    return (c, tuple(k1 * a + k2 * b for a, b in zip(e1[1], v2)))

# corner intercepts c = x2 - x1 and diagonal parameters t = (x1 + x2) / 2;
# the intercepts satisfy c_r + c_s = c_p + c_q
_CORNERS = {
    "p": (_acomb(1, _P2, -1, _P1), _acomb(HALF, _P1, HALF, _P2)),
    "q": (_acomb(1, _Q2, -1, _Q1), _acomb(HALF, _Q1, HALF, _Q2)),
    "r": (_acomb(1, _Q2, -1, _P1), _acomb(HALF, _P1, HALF, _Q2)),
    "s": (_acomb(1, _P2, -1, _Q1), _acomb(HALF, _Q1, HALF, _P2)),
}
_WIDTH = _acomb(HALF, _Q1, -HALF, _P1)
_HEIGHT = _acomb(HALF, _P2, -HALF, _Q2)
# the boundary gaps of the hull branch: (corner, boundary, sign) for
# thi(c_p) - t_p, thi(c_q) - t_q, tlo(c_r) - t_r, t_p - tlo(c_p),
# t_q - tlo(c_q) and t_s - thi(c_s)
_GAPS = (("p", "hi", 1), ("q", "hi", 1), ("r", "lo", 1),
         ("p", "lo", -1), ("q", "lo", -1), ("s", "hi", -1))


def _piece(f, lo, hi):
    """PL f as (alpha, beta) with f(c) = alpha + beta*c on the band [lo, hi]."""
    if lo == hi:
        return (f(lo), Fraction(0))
    beta = (f(hi) - f(lo)) / (hi - lo)
    return (f(lo) - beta * lo, beta)


class _CellGeometry:
    """The rows of every cell LP of one bounded interval, built once.

    The LP variables are (p1, p2, q1, q2), shifted to start at the bounding
    corner, and the epigraph variable.  A row `a.x <= b` is kept as (-a, b),
    the column it contributes to the dual LP that `_solve_rows` solves.
    Constraints carry epigraph coefficient 0, atoms (`atom <= epigraph`) -1.
    The right-hand side of the dual LP, dual_rhs, says that the four shifted
    corner coordinates are free of cost and the epigraph variable costs 1.
    """

    def __init__(self, M: StaircaseInterval):
        rb, sb = M.bounding_r, M.bounding_s
        if any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
            raise PreconditionError("cell optimization needs a bounded interval")
        reg = M.region()
        self.bands = band_partition(M)
        self.tables = diam_tables(M)
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
        # per band: the rows lo <= c and c <= hi of each corner intercept,
        # half the slice length at c_p and c_q, the boundary gaps, and the
        # least slice length
        self.lo_rows = {name: [] for name in _CORNERS}
        self.hi_rows = {name: [] for name in _CORNERS}
        self.half_len = {"p": [], "q": []}
        self.gaps = {g: [] for g in _GAPS}
        self.min_len = []
        for b in self.bands:
            for name, (ce, _) in _CORNERS.items():
                self.lo_rows[name].append(self._row(_acomb(-1, ce,
                                                           const=b.lo)))
                self.hi_rows[name].append(self._row(_acomb(1, ce,
                                                           const=-b.hi)))
            pieces = {"lo": _piece(reg.tlo, b.lo, b.hi),
                      "hi": _piece(reg.thi, b.lo, b.hi)}
            a = pieces["hi"][0] - pieces["lo"][0]
            k = pieces["hi"][1] - pieces["lo"][1]
            for name in self.half_len:
                length = _acomb(k, _CORNERS[name][0], const=a)
                self.half_len[name].append(self._row(_acomb(HALF, length),
                                                     -1))
            for g in _GAPS:
                name, side, sign = g
                (alpha, beta), (ce, te) = pieces[side], _CORNERS[name]
                gap = _acomb(beta, ce, -1, te, const=alpha)
                self.gaps[g].append(self._row(_acomb(sign, gap), -1))
            # slice length is linear across a band: min at the ends
            self.min_len.append(max(min(a + k * b.lo, a + k * b.hi),
                                    Fraction(0)))
        # the outside and inside diameters of pair() are slice lengths
        self.half_diam = {v: self._row(_aff(v / 2), -1)
                          for v in set(self.tables.lengths)}
        self._scale_to_ints()

    def _row(self, expr, epi=0):
        """The dual column of the primal row expr - epi * t <= 0."""
        c0, cv = expr
        shift = c0 + sum(k * l for k, l in zip(cv, self.lbs))
        return (tuple(-v for v in cv) + (Fraction(-epi),), -shift)

    def _scale_to_ints(self):
        """Multiply every dual column by one positive int, col_scale, and
        every right-hand side by another, rhs_scale, the least that leave
        only ints, so that the simplex runs on ints."""
        per_band = (self.lo_rows, self.hi_rows, self.half_len, self.gaps)
        rows = [*self.box, *self.var_box, self.width, self.height, self.zero,
                *self.half_diam.values()]
        rows += [r for t in per_band for rs in t.values() for r in rs]
        cs = self.col_scale = lcm(*(v.denominator for col, _ in rows
                                    for v in col))
        rs = self.rhs_scale = lcm(*(rhs.denominator for _, rhs in rows))

        def ints(row):
            col, rhs = row
            return (tuple(v.numerator * (cs // v.denominator) for v in col),
                    rhs.numerator * (rs // rhs.denominator))

        self.box = [ints(r) for r in self.box]
        self.var_box = [ints(r) for r in self.var_box]
        self.width, self.height, self.zero = map(
            ints, (self.width, self.height, self.zero))
        self.half_diam = {v: ints(r) for v, r in self.half_diam.items()}
        for t in per_band:
            for key, family in t.items():
                t[key] = [ints(r) for r in family]
        self.dual_rhs = [0] * 4 + [cs]

    def pair(self, i, j):
        """Lower bound lb/2 on every cell with p in band i and q in band j,
        and the two atom lists those cells share."""
        cs = self.tables.intercepts
        # the vertex diagonals certainly inside [c_q, c_p]
        vi = bisect_left(cs, self.bands[j].hi)
        vj = bisect_right(cs, self.bands[i].lo) - 1
        out_d = self.tables.codiam(vi, vj)
        in_d = self.tables.diam(vi, vj)
        # every branch carries the outside diameter and both slice lengths
        lb = max(self.min_len[i], self.min_len[j],
                 out_d if out_d is not NINF else Fraction(0))
        lens = [self.half_len["p"][i], self.half_len["q"][j]]
        t1 = lens + ([self.half_diam[out_d]] if out_d is not NINF else [])
        t2a = lens + ([self.half_diam[in_d]] if in_d is not NINF else [])
        return lb / 2, t1, t2a

    def sums_meet(self, i, j, k, l):
        """Whether c_r + c_s = c_p + c_q can hold with the corners p, q, r,
        s in the bands i, j, k, l."""
        b = self.bands
        return (b[k].hi + b[l].hi >= b[i].lo + b[j].lo
                and b[k].lo + b[l].lo <= b[i].hi + b[j].hi)

    def solve(self, cell, t1, t2a, which):
        """Best (rect, value) of one band placement, or None.

        which selects the solved branches: "all" (the per-cell problem),
        "pinch" (the two width/height branches, with the r and s corner
        intercepts relaxed to the contiguous band range j..i - they do not
        appear in those objectives) or "hull" (the boundary-shift branch).
        """
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
        """Minimize the epigraph variable t over the rows (max(atoms) <= t).

        Solved through the dual: min b.y  s.t.  -A^T y <= (0,0,0,0,1), y >= 0.
        Its right-hand side is nonnegative, so no phase 1 is needed, and the
        tableau has only five rows; the primal optimum is -value and the
        primal point is the vector of row multipliers.  The rows are scaled
        to ints, so the dual value comes back times rhs_scale and the
        multipliers times rhs_scale / col_scale.
        """
        cols, rhs = zip(*rows)
        try:
            dval, _, x = solve_lp(rhs, list(zip(*cols)), self.dual_rhs,
                                  duals=True)
        except ArithmeticError:
            return None  # unbounded dual: the placement is infeasible
        back = Fraction(self.col_scale, self.rhs_scale)
        return (-dval / self.rhs_scale,
                tuple(x[v] * back + self.lbs[v] for v in range(4)))


def _rank(out):
    """Order of cell results (rect, value): value, then area, then the
    corners lexicographically."""
    rect, val = out
    return (val, rect.area(), *rect.r, *rect.s)


def optimize_cell(M, cell, geo=None, best_bound=None):
    """Best rectangle with its four corners in the given bands.

    cell = (i, j, k, l): the band indices for the top-left, bottom-right,
    bottom-left and top-right corners.  Returns (RectangleSpec, value) or
    None when the placement is infeasible or cannot beat best_bound.
    """
    if geo is None:
        geo = _CellGeometry(M)
    lb2, t1, t2a = geo.pair(cell[0], cell[1])
    if best_bound is not None and lb2 > best_bound:
        return None
    return geo.solve(cell, t1, t2a, "all")


# --------------------------------------------------------------------------
# global search


def optimal_rectangle(M: StaircaseInterval) -> RectApproxResult:
    """Best rectangle-or-zero approximation under the interleaving distance.

    Searches every placement of the four corners into diagonal bands,
    solves each exactly, and keeps the best value; ties go to smaller area,
    then lexicographic corners, and the zero module wins whenever
    trivializing is at least as cheap as the best rectangle.

    A placement is skipped, without changing the result, when its lower
    bound lb/2 is above the best value so far or at least the midpoint
    construction's epsilon (a cell only displaces that when strictly
    better), and when its r and s intercept bands cannot sum to a value
    of c_p + c_q.
    """
    triv = triv_distance(M)
    if M.is_rectangle():
        return RectApproxResult(RectangleSpec(M.bounding_r, M.bounding_s),
                                Fraction(0))
    rb, sb = M.bounding_r, M.bounding_s
    if any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
        # unbounded support: fall back to the midpoint construction
        return construction1(M)
    geo = _CellGeometry(M)
    nb = len(geo.bands)
    seed = construction1(M)
    best = None  # best cell result: (rect, value)

    for j in range(nb):
        for i in range(j, nb):
            lb2, t1, t2a = geo.pair(i, j)
            if lb2 >= seed.epsilon:
                continue
            # the width/height branches ignore the r and s corner bands
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
    # a cell only displaces the midpoint construction when strictly better
    rect, eps = seed.rect, seed.epsilon
    if best is not None and best[1] < eps:
        rect, eps = best
    if rect.is_zero or triv <= eps:
        return RectApproxResult(RectangleSpec.zero(), triv)
    return RectApproxResult(rect, eps)


def approx_decomposable(summands, method="optimal"):
    """Summand-wise rectangle approximation of a decomposable module.

    Returns (rect specs aligned with the summands, per-summand epsilons,
    aggregate epsilon = max).  Zero sentinels mark dropped summands.
    """
    if method == "construction1":
        results = [construction1(Mi) for Mi in summands]
    elif method == "optimal":
        results = [optimal_rectangle(Mi) for Mi in summands]
    else:
        raise ValueError("unknown method %r" % (method,))
    rects = [r.rect for r in results]
    eps = [r.epsilon for r in results]
    return rects, eps, (max(eps) if eps else Fraction(0))
