"""Rectangle approximations of interval modules.

Two approximations are provided: the midpoint construction (pull the two
extreme bounding-rectangle corners halfway onto the boundary staircases) and
the optimal rectangle, found by partitioning the bounding rectangle into
diagonal bands, placing the four rectangle corners into bands in every
combination, and solving each placement exactly as a handful of small linear
programs; placements that provably cannot win are skipped, and their LPs
stopped.  The LP rows are built on ints once per module and run on a
fraction-free integer simplex tableau whose results are exact Fractions.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm

from .errors import PreconditionError
from .geometry import (RectangleSpec, StaircaseInterval, band, intercept,
                       point, tval)
from .interleaving import triv_distance
from .record import Record
from .scalars import INF, NINF, is_inf


class RectApproxResult(Record):
    __slots__ = ("rect", "epsilon")

    def __init__(self, rect: RectangleSpec, epsilon):
        self.rect = rect
        self.epsilon = epsilon


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
    zero module is returned instead.  A rectangle module, bounded or not, is
    its own approximation at epsilon 0.
    """
    if M.is_rectangle():
        return RectApproxResult(RectangleSpec(M.bounding_r, M.bounding_s),
                                Fraction(0))
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
# exact fraction-free simplex (min c.x, A x <= b, x >= 0, b >= 0)


def solve_lp(c, A, b, stop=None):
    """Simplex with Bland's rule on int data with b >= 0.

    The entries of c, A and b must be ints and those of b nonnegative
    (ValueError otherwise), so the slack basis is feasible and one phase
    suffices: the LP is never infeasible.  Returns (value, x, y) as
    Fractions, where y >= 0 is the optimal point of the dual
    max -b.y s.t. A^T y >= -c, so -b.y is the value; y_i is the reduced
    cost of the slack of row i.  Unbounded problems raise ArithmeticError.

    The tableau T, the reduced-cost row included, holds ints equal to D
    times the rational tableau of the current basis B, with D = |det B|.
    Pivoting on p = T[r][col], which the ratio test keeps positive, leaves
    row r as it is, replaces every other row a, whose entry in col is f,
    by (p*a - f*T[r]) / D, an exact division, and sets D = p (Edmonds's
    integer-preserving pivot, as in Bareiss elimination).  The pivots are
    those of the rational tableau: the entering column is the first with a
    negative reduced cost, and the ratio test compares T[r][-1] / T[r][col]
    by cross-multiplication, ties going to the lower basis index.

    With stop (an int or a Fraction), it returns None instead once a basis
    that is not optimal has objective c.x below stop.  Every basis visited
    is feasible and no pivot raises the objective, so the optimum is below
    stop too, or the LP is unbounded.  Otherwise the result is unchanged.
    """
    m, n = len(A), len(c)
    if not all(type(v) is int for row in (c, b, *A) for v in row):
        raise ValueError("solve_lp takes int entries only")
    if any(bi < 0 for bi in b):
        raise ValueError("solve_lp needs b >= 0")
    if stop is not None:
        sn, sd = stop.numerator, stop.denominator
    # rows 0..m-1 are the constraints over the slack basis, row m the
    # reduced costs, which over the slack basis are c itself
    T = [list(a) + [0] * i + [1] + [0] * (m - i - 1) + [bi]
         for i, (a, bi) in enumerate(zip(A, b))]
    T.append(list(c) + [0] * (m + 1))
    basis = list(range(n, n + m))
    D = 1
    while True:
        red = T[m]
        col = next((j for j in range(n + m) if red[j] < 0), None)
        if col is None:
            break
        # the objective of the current basis is -red[-1] / D
        if stop is not None and -red[-1] * sd < sn * D:
            return None
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
        prow = T[row]
        p = prow[col]
        for k, t in enumerate(T):
            if k == row:
                continue
            f = t[col]
            if f:
                T[k] = [(p * a - f * q) // D for a, q in zip(t, prow)]
            elif p != D:  # only the common factor changes
                T[k] = [p * a // D for a in t]
        D = p
        basis[row] = col
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(T[r][-1], D)
    return (Fraction(-T[m][-1], D), x,
            [Fraction(v, D) for v in T[m][n:n + m]])


# --------------------------------------------------------------------------
# per-cell optimization

# the LP variables are (p1, p2, q1, q2): the rectangle has lower corner
# r = (p1, q2) and upper corner s = (q1, p2), so p = (p1, p2) is its
# top-left corner and q = (q1, q2) its bottom-right one; each corner maps
# to the positions of its x1 and x2.  The corner intercepts c = x2 - x1
# satisfy c_r + c_s = c_p + c_q.
_CORNERS = {"p": (0, 1), "q": (2, 3), "r": (0, 3), "s": (2, 1)}
# the boundary gaps of the hull branch: (corner, boundary, sign) for
# thi(c_p) - t_p, thi(c_q) - t_q, tlo(c_r) - t_r, t_p - tlo(c_p),
# t_q - tlo(c_q) and t_s - thi(c_s), with t = (x1 + x2) / 2
_GAPS = (("p", "hi", 1), ("q", "hi", 1), ("r", "lo", 1),
         ("p", "lo", -1), ("q", "lo", -1), ("s", "hi", -1))


def _col(corner, u1, u2, epi):
    """The dual column with u1 and u2 at the corner's x1 and x2 and epi
    at the epigraph variable."""
    col = [0, 0, 0, 0, epi]
    i1, i2 = _CORNERS[corner]
    col[i1], col[i2] = u1, u2
    return tuple(col)


class _CellGeometry:
    """The rows of every cell LP of one bounded interval, built once on ints.

    The LP variables are (p1, p2, q1, q2), shifted to start at the bounding
    corner rb, and the epigraph variable.  A row `a.x <= b` is kept as
    (-a, b), the column it contributes to the dual LP that `_solve_rows`
    solves.  Constraints carry epigraph coefficient 0, atoms
    (`atom <= epigraph`) -1.  The right-hand side of the dual LP, dual_rhs,
    says that the four shifted corner coordinates are free of cost and the
    epigraph variable costs 1.

    Each row combines corner intercepts c = x2 - x1 and parameters
    t = (x1 + x2) / 2 with coefficients +-1, +-1/2 or +-1/4, set by the
    band's boundary slopes beta in {-1/2, 0, 1/2}, so its column is an int
    column times col_scale = 4.  Its right-hand side is its constant at rb
    (a box side, half a slice length, a band edge minus rb.x2 - rb.x1, or a
    boundary alpha + beta*c - t), times rhs_scale, the lcm of their
    denominators.  Positive scalings of all columns and of all right-hand
    sides change no pivot of solve_lp: its LPs are the rational ones.
    """

    col_scale = 4
    dual_rhs = [0, 0, 0, 0, 4]

    def __init__(self, M: StaircaseInterval):
        rb, sb = M.bounding_r, M.bounding_s
        if any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
            raise PreconditionError("cell optimization needs a bounded interval")
        reg = M.region()
        self.bands = band_partition(M)
        self.tables = diam_tables(M)
        self.lbs = (rb.x1, rb.x2, rb.x1, rb.x2)
        cb, tb = rb.x2 - rb.x1, (rb.x1 + rb.x2) / 2
        # per band and boundary (tlo, thi), the piece t = alpha + beta*c as
        # (2 beta, alpha + beta*cb - tb): a staircase boundary has slope
        # +-1/2 between vertex diagonals, and a one-point band slope 0
        pieces, self.min_len = [], []
        for b in self.bands:
            ends = [(f(b.lo), f(b.hi)) for f in (reg.tlo, reg.thi)]
            piece = []
            for flo, fhi in ends:
                beta = (fhi - flo) / (b.hi - b.lo) if b.hi != b.lo else 0
                piece.append((int(2 * beta), flo + beta * (cb - b.lo) - tb))
            pieces.append(piece)
            # slice length is linear across a band: min at the ends
            (llo, lhi), (hlo, hhi) = ends
            self.min_len.append(max(min(hlo - llo, hhi - lhi), Fraction(0)))
        w, h = sb.x1 - rb.x1, sb.x2 - rb.x2
        half_diam = {v: v / 2 for v in set(self.tables.lengths)}
        consts = [w, h, *half_diam.values()]
        for b, ((_, glo), (_, ghi)) in zip(self.bands, pieces):
            consts += [b.lo - cb, b.hi - cb, glo, ghi, (ghi - glo) / 2]
        rs = self.rhs_scale = lcm(*(v.denominator for v in consts))

        def ints(v):
            return v.numerator * (rs // v.denominator)

        W, H = ints(w), ints(h)
        self.box = [((4, 0, 0, 0, 0), 0), ((0, 0, 0, 4, 0), 0),
                    ((0, 0, -4, 0, 0), W), ((0, -4, 0, 0, 0), H),
                    ((-4, 0, 4, 0, 0), 0), ((0, 4, 0, -4, 0), 0)]
        self.var_box = [(tuple(-4 * (k == v) for k in range(5)), ub)
                        for v, ub in enumerate((W, H, W, H))]
        self.width = ((2, 0, -2, 0, 4), 0)
        self.height = ((0, -2, 0, 2, 4), 0)
        self.zero = ((0, 0, 0, 0, 4), 0)
        # the outside and inside diameters of pair() are slice lengths
        self.half_diam = {v: (self.zero[0], -ints(hv))
                          for v, hv in half_diam.items()}
        # per band: the rows lo <= c and c <= hi of each corner intercept,
        # half the slice length at c_p and c_q, and the boundary gaps
        self.lo_rows = {name: [] for name in _CORNERS}
        self.hi_rows = {name: [] for name in _CORNERS}
        self.half_len = {"p": [], "q": []}
        self.gaps = {g: [] for g in _GAPS}
        for b, piece in zip(self.bands, pieces):
            for name in _CORNERS:
                self.lo_rows[name].append((_col(name, -4, 4, 0),
                                           ints(cb - b.lo)))
                self.hi_rows[name].append((_col(name, 4, -4, 0),
                                           ints(b.hi - cb)))
            (blo, glo), (bhi, ghi) = piece
            for name in self.half_len:
                self.half_len[name].append((_col(name, bhi - blo, blo - bhi, 4),
                                            -ints((ghi - glo) / 2)))
            side = {"lo": piece[0], "hi": piece[1]}
            for g in _GAPS:
                name, (b2, gv), sign = g[0], side[g[1]], g[2]
                self.gaps[g].append((_col(name, sign * (2 + 2 * b2),
                                          sign * (2 - 2 * b2), 4),
                                     -sign * ints(gv)))

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

    def solve(self, cell, t1, t2a, which, stop):
        """Best (rect, value) of one band placement, or None when it is
        infeasible or its value is above stop.

        which selects the solved branches: "pinch" (the two width/height
        branches, with the r and s corner intercepts relaxed to the
        contiguous band range j..i - they do not appear in those
        objectives) or "hull" (the boundary-shift branch).  A branch whose
        value is above stop may be dropped (see _solve_rows).
        """
        i, j, k, l = cell
        if which == "pinch":
            rk, sl = (j, i), (j, i)
            branches = [t1 + t2a + [self.width], t1 + t2a + [self.height]]
        else:
            rk, sl = (k, k), (l, l)
            bands = {"p": i, "q": j, "r": k, "s": l}
            branches = [t1 + [self.gaps[g][bands[g[0]]] for g in _GAPS]
                        + [self.zero]]
        cons = [self.lo_rows["p"][i], self.hi_rows["p"][i],
                self.lo_rows["q"][j], self.hi_rows["q"][j],
                self.lo_rows["r"][rk[0]], self.hi_rows["r"][rk[1]],
                self.lo_rows["s"][sl[0]], self.hi_rows["s"][sl[1]]] \
            + self.box
        outs = []
        for atoms in branches:
            res = self._solve_rows(cons + atoms + self.var_box, stop)
            if res is not None:
                val, (p1, p2, q1, q2) = res
                outs.append((RectangleSpec((p1, q2), (q1, p2)), val))
        return min(outs, key=_rank, default=None)

    def _solve_rows(self, rows, stop):
        """Minimize the epigraph variable t over the rows (max(atoms) <= t).

        Solved through the dual: min b.y  s.t.  -A^T y <= (0,0,0,0,1), y >= 0.
        Its right-hand side is nonnegative, as solve_lp requires, and the
        tableau has only five rows; the primal optimum is -value and the
        primal point is the dual point of this LP.  The rows are scaled to
        ints, so the dual value comes back times rhs_scale and the dual
        point times rhs_scale / col_scale.

        Returns None when the rows are infeasible (the dual is unbounded)
        or, possibly, when the minimum is above stop: each dual feasible y
        the simplex visits gives the lower bound -b.y / rhs_scale on the
        minimum (weak duality), rising from pivot to pivot, and solve_lp
        stops once that bound is above stop.
        """
        cols, rhs = zip(*rows)
        try:
            res = solve_lp(rhs, list(zip(*cols)), self.dual_rhs,
                           -stop * self.rhs_scale)
        except ArithmeticError:
            return None  # unbounded dual: the placement is infeasible
        if res is None:
            return None  # stopped: the minimum is above stop
        dval, _, x = res
        back = Fraction(self.col_scale, self.rhs_scale)
        return (-dval / self.rhs_scale,
                tuple(x[v] * back + self.lbs[v] for v in range(4)))


def _rank(out):
    """Order of cell results (rect, value): value, then area, then the
    corners lexicographically."""
    rect, val = out
    return (val, rect.area(), *rect.r, *rect.s)


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
    of c_p + c_q.  A placement's LPs stop once weak duality puts its value
    above the least of the best value so far and the midpoint epsilon:
    it could neither become the best (ties are solved, for the tie-break)
    nor displace the midpoint construction, and the skips above read only
    best values below that epsilon.
    """
    rb, sb = M.bounding_r, M.bounding_s
    if M.is_rectangle() or any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
        # a rectangle is its own approximation; unbounded support falls
        # back to the midpoint construction
        return construction1(M)
    triv = triv_distance(M)
    geo = _CellGeometry(M)
    nb = len(geo.bands)
    seed = construction1(M)
    best = None  # best cell result: (rect, value)
    stop = seed.epsilon  # a cell above min(best value, seed) cannot matter

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
                out = geo.solve(cell, t1, t2a, which, stop)
                if out is not None and (best is None
                                        or _rank(out) < _rank(best)):
                    best, stop = out, min(stop, out[1])
    # a cell only displaces the midpoint construction when strictly better
    rect, eps = seed.rect, seed.epsilon
    if best is not None and best[1] < eps:
        rect, eps = best
    if rect.is_zero or triv <= eps:
        return RectApproxResult(RectangleSpec.zero(), triv)
    return RectApproxResult(rect, eps)


def approx_decomposable(summands):
    """Summand-wise optimal rectangle approximation of a decomposable module.

    Returns (rect specs aligned with the summands, per-summand epsilons,
    aggregate epsilon = max).  Zero sentinels mark dropped summands.
    """
    results = [optimal_rectangle(Mi) for Mi in summands]
    rects = [r.rect for r in results]
    eps = [r.epsilon for r in results]
    return rects, eps, (max(eps) if eps else Fraction(0))
