"""Rectangle approximations of interval modules.

Two approximations are provided: the midpoint construction (pull the two
extreme bounding-rectangle corners halfway onto the boundary staircases) and
the optimal rectangle, found by partitioning the bounding rectangle into
diagonal bands, placing the four rectangle corners into bands in every
combination, and solving each placement exactly as a handful of small linear
programs; placements that provably cannot win are skipped, and their LPs
stopped.  A placement's lower bound and diameter rows read the largest
slice length at the knots inside and outside its intercept range, a max
over a slice of the list of those lengths.  The search runs on the
module's corners scaled to ints, where the LP rows are ints, built once
per module; they run on a fraction-free integer simplex tableau whose
results are exact Fractions.
Cell LPs share most of their rows, and each LP ends on an exact
certificate (an optimal or stopped dual point, or an unbounded ray) that
holds in every later LP containing its rows, so most cell LPs are settled
by an earlier certificate and never run.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain

from .errors import PreconditionError
from .geometry import (DiagBand, Point2, RectangleSpec, StaircaseInterval,
                       intercept, tval)
from .interleaving import triv_distance
from .record import Record
from .scalars import INF, NINF, int_scale, is_inf, qdiv


class RectApproxResult(Record):
    __slots__ = ("rect", "epsilon")

    def __init__(self, rect: RectangleSpec, epsilon):
        self.rect = rect
        self.epsilon = epsilon


# --------------------------------------------------------------------------
# midpoint construction


def _corner_pull(reg, x, lower):
    """Distance from a bounding corner to its boundary staircase, and the
    midpoint of the pull (half the diagonal gap, up from the lower corner
    and down from the upper one)."""
    seg = reg.slice_at(intercept(x))
    if seg.is_empty:
        return INF, x
    step = qdiv((seg.t_lo if lower else seg.t_hi) - tval(x), 2)
    if is_inf(step):
        return INF, x
    return abs(step), Point2(x.x1 + step, x.x2 + step)


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
    triv = triv_distance(M)
    er, r = _corner_pull(reg, M.bounding_r, lower=True)
    es, s = _corner_pull(reg, M.bounding_s, lower=False)
    eps = max(er, es)
    if triv > eps:
        return RectApproxResult(RectangleSpec(r, s), eps)
    return RectApproxResult(RectangleSpec.zero(), triv)


# --------------------------------------------------------------------------
# diagonal bands


def band_partition(M: StaircaseInterval):
    """Diagonal bands of the bounding rectangle cut at the vertex diagonals."""
    reg = M.region()
    breaks = reg.knots()
    if reg.clo is NINF:
        breaks = [NINF] + breaks
    if reg.chi is INF:
        breaks = breaks + [INF]
    return ([DiagBand(a, b) for a, b in zip(breaks, breaks[1:])]
            or [DiagBand(breaks[0], breaks[0])])


# --------------------------------------------------------------------------
# exact fraction-free simplex (min c.x, A x <= b, x >= 0, b >= 0)


def solve_lp(c, A, b, stop=None, cert=None):
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

    With cert (a list), it also appends the certificate it ends on, as
    (kind, v, D): v maps column indices to positive ints, the vector v / D
    over the columns being 0 elsewhere.
      - "opt": the optimal x, with c.x the value;
      - "stop": the feasible basic x at which it stopped, with c.x below
        stop;
      - "ray": from the ratio test that found no leaving row, a d >= 0
        with A d <= 0 and c.d < 0, so that x + s*d stays feasible for every
        s >= 0 while its objective falls without bound.
    Each proves its outcome from the columns in its support alone, so it
    holds on every LP with the same b that has those columns.
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

    def support(k):
        # the structural entries of tableau column k over the basis
        return {bv: T[r][k] for r, bv in enumerate(basis)
                if bv < n and T[r][k]}

    while True:
        red = T[m]
        col = next((j for j in range(n + m) if red[j] < 0), None)
        if col is None:
            break
        # the objective of the current basis is -red[-1] / D
        if stop is not None and -red[-1] * sd < sn * D:
            if cert is not None:
                cert.append(("stop", support(-1), D))
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
            if cert is not None:
                ray = {bv: -a for bv, a in support(col).items()}
                if col < n:
                    ray[col] = D
                cert.append(("ray", ray, D))
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
    if cert is not None:
        cert.append(("opt", support(-1), D))
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
    """The rows of every cell LP of one bounded interval with int corners.

    optimal_rectangle builds it on its module's int image, with the
    bounding corner rb at the origin and corners at multiples of 4.  The
    LP variables are (p1, p2, q1, q2), nonnegative, and the epigraph
    variable.  A row `a.x <= b` is kept as (-a, b), the column it
    contributes to the dual LP that `_solve_rows` solves.  Constraints
    carry epigraph coefficient 0, atoms (`atom <= epigraph`) -1.  The
    right-hand side of the dual LP, dual_rhs, says that the four corner
    coordinates are free of cost and the epigraph variable costs 1.

    Each row combines corner intercepts c = x2 - x1 and parameters
    t = (x1 + x2) / 2 with coefficients +-1, +-1/2 or +-1/4, set by the
    band's boundary slopes beta in {-1/2, 0, 1/2}, so its column is an int
    column times col_scale = 4, which changes no pivot of solve_lp: its
    LPs are the rational ones.  Its right-hand side is its constant at the
    origin: a box side, half a slice length, a band edge or a boundary's
    alpha.  Slice values and lengths are even and band edges multiples of
    4, so each of these is an int.

    Every cell LP has the same dual right-hand side, and a row is the same
    dual column wherever it appears, so a certificate solve_lp reports on
    one LP's rows holds on any later LP that has them all.  pool keeps each
    one, with its support (a frozenset of rows) and the bound it proves
    (None for a ray), under one row of its support: any row will do, since
    _skip probes every row of the LP it settles.  A pool lives as long as
    its geometry, which is one optimal_rectangle call.
    """

    col_scale = 4
    dual_rhs = [0, 0, 0, 0, 4]

    def __init__(self, M: StaircaseInterval):
        W, H = M.bounding_s
        if M.bounding_r != (0, 0) or is_inf(W) or is_inf(H):
            raise PreconditionError("cell optimization needs a bounded "
                                    "interval with rb at the origin")
        reg = M.region()
        self.bands = band_partition(M)
        # the slice lengths at the knots, for the diameters of pair()
        self.knots = reg.knots()
        self.lengths = list(map(reg.length_fn(), self.knots))
        # per band and boundary (tlo, thi), the piece t = alpha + beta*c as
        # (2 beta, alpha): a staircase boundary has slope +-1/2 between
        # vertex diagonals, and a one-point band slope 0
        pieces, self.min_len = [], []
        for b in self.bands:
            ends = [(f(b.lo), f(b.hi)) for f in (reg.tlo, reg.thi)]
            piece = []
            for flo, fhi in ends:
                b2 = qdiv(2 * (fhi - flo), b.hi - b.lo) if b.hi != b.lo else 0
                piece.append((b2, flo - qdiv(b2 * b.lo, 2)))
            pieces.append(piece)
            # slice length is linear across a band: min at the ends
            (llo, lhi), (hlo, hhi) = ends
            self.min_len.append(max(min(hlo - llo, hhi - lhi), 0))
        self.pool = {}  # row -> {support: bound} (see _keep)
        self.box = [((4, 0, 0, 0, 0), 0), ((0, 0, 0, 4, 0), 0),
                    ((0, 0, -4, 0, 0), W), ((0, -4, 0, 0, 0), H),
                    ((-4, 0, 4, 0, 0), 0), ((0, 4, 0, -4, 0), 0)]
        self.var_box = [(tuple(-4 * (k == v) for k in range(5)), ub)
                        for v, ub in enumerate((W, H, W, H))]
        self.width = ((2, 0, -2, 0, 4), 0)
        self.height = ((0, -2, 0, 2, 4), 0)
        self.zero = ((0, 0, 0, 0, 4), 0)
        # the outside and inside diameters of pair() are slice lengths
        self.half_diam = {v: (self.zero[0], -qdiv(v, 2))
                          for v in set(self.lengths)}
        # per band: the rows lo <= c and c <= hi of each corner intercept,
        # half the slice length at c_p and c_q, and the boundary gaps
        self.lo_rows = {name: [] for name in _CORNERS}
        self.hi_rows = {name: [] for name in _CORNERS}
        self.half_len = {"p": [], "q": []}
        self.gaps = {g: [] for g in _GAPS}
        for b, piece in zip(self.bands, pieces):
            for name in _CORNERS:
                self.lo_rows[name].append((_col(name, -4, 4, 0), -b.lo))
                self.hi_rows[name].append((_col(name, 4, -4, 0), b.hi))
            (blo, glo), (bhi, ghi) = piece
            for name in self.half_len:
                self.half_len[name].append((_col(name, bhi - blo, blo - bhi, 4),
                                            -qdiv(ghi - glo, 2)))
            side = {"lo": piece[0], "hi": piece[1]}
            for g in _GAPS:
                name, (b2, gv), sign = g[0], side[g[1]], g[2]
                self.gaps[g].append((_col(name, sign * (2 + 2 * b2),
                                          sign * (2 - 2 * b2), 4),
                                     -sign * gv))
        # the band edges of hull_cells: the lo and hi rows' right sides
        self.edge_lo = [r for _, r in self.lo_rows["p"]]
        self.edge_hi = [r for _, r in self.hi_rows["p"]]

    def pair(self, i, j):
        """Lower bound lb/2 on every cell with p in band i and q in band j,
        and the two atom lists those cells share."""
        cs, L = self.knots, self.lengths
        # the knots certainly inside [c_q, c_p] are cs[vi:vj + 1]
        vi = bisect_left(cs, self.bands[j].hi)
        vj = bisect_right(cs, self.bands[i].lo) - 1
        out_d = max(L[:vi] + L[vj + 1:], default=NINF)
        in_d = max(L[vi:vj + 1], default=NINF)
        # every branch carries the outside diameter and both slice lengths
        lb = max(self.min_len[i], self.min_len[j],
                 out_d if out_d is not NINF else 0)
        lens = [self.half_len["p"][i], self.half_len["q"][j]]
        t1 = lens + ([self.half_diam[out_d]] if out_d is not NINF else [])
        t2a = lens + ([self.half_diam[in_d]] if in_d is not NINF else [])
        return qdiv(lb, 2), t1, t2a

    def hull_cells(self, i, j):
        """The cells (i, j, k, l), k then l ascending in j..i, whose r and s
        intercept bands can meet c_r + c_s = c_p + c_q: with bands [lo, hi],
        hi_k + hi_l >= lo_i + lo_j and lo_k + lo_l <= hi_i + hi_j.  Tested
        on edge_lo = -lo and edge_hi = hi, and lazily, so that the search's
        break ends the enumeration too."""
        lo, hi = self.edge_lo, self.edge_hi
        for k in range(j, i + 1):
            for l in range(j, i + 1):
                if (hi[k] + hi[l] + lo[i] + lo[j] >= 0
                        and lo[k] + lo[l] + hi[i] + hi[j] >= 0):
                    yield i, j, k, l

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
            # a repeated row is a repeated dual column, which Bland's rule
            # never enters: only its first copy is kept
            rows = list(dict.fromkeys(cons + atoms + self.var_box))
            res = self._solve_rows(rows, stop)
            if res is not None:
                val, (p1, p2, q1, q2) = res
                outs.append((RectangleSpec((p1, q2), (q1, p2)), val))
        return min(outs, key=_rank, default=None)

    def _solve_rows(self, rows, stop):
        """Minimize the epigraph variable t over the rows (max(atoms) <= t).

        Solved through the dual: min b.y  s.t.  -A^T y <= (0,0,0,0,1), y >= 0.
        Its right-hand side is nonnegative, as solve_lp requires, and the
        tableau has only five rows; the primal optimum is -value and the
        primal point is the dual point of this LP.  The columns are scaled
        to ints, so the dual point comes back over col_scale.

        Returns None when the rows are infeasible (the dual is unbounded)
        or, possibly, when the minimum is above stop: each dual feasible y
        the simplex visits gives the lower bound -b.y on the minimum (weak
        duality), rising from pivot to pivot, and solve_lp stops once that
        bound is above stop.  Before any pivot, a pooled certificate may
        show either (_skip); every LP that runs adds the certificate it
        ends on to the pool.
        """
        if self._skip(rows, stop):
            return None
        cols, rhs = zip(*rows)
        cert = []
        try:
            res = solve_lp(rhs, list(zip(*cols)), self.dual_rhs, -stop, cert)
        except ArithmeticError:
            res = None  # unbounded dual: the placement is infeasible
        self._keep(rows, *cert[0])
        if res is None:
            return None  # stopped or infeasible
        dval, _, x = res
        return -dval, tuple(v * self.col_scale for v in x[:4])

    def _keep(self, rows, kind, v, D):
        """Pool the certificate solve_lp ended on, as its support (a set
        of rows) and the bound it proves.  A ray proves the rows
        infeasible (None).  A stopped or optimal y, zero off the support,
        is dual feasible on any rows that hold the support, so by weak
        duality -c.y bounds their minimum from below (for an optimal y it
        is the minimum itself).  Of two certificates on one support the
        pool keeps the stronger."""
        if not v:
            return  # y = 0 proves only the bound 0
        support = frozenset(rows[j] for j in v)
        bound = None if kind == "ray" else Fraction(
            -sum(rows[j][1] * vj for j, vj in v.items()), D)
        bucket = self.pool.setdefault(min(support), {})
        old = bucket.get(support, 0)
        if old is not None and (bound is None or bound > old):
            bucket[support] = bound

    def _skip(self, rows, stop):
        """Whether a pooled certificate settles the rows, so that their LP
        may end in None: its support is among them and it is a ray, or its
        bound is above stop.  A bound equal to stop settles
        nothing: a tie with the best value is solved, for the tie-break."""
        have = set(rows)
        for r in have:
            for support, bound in self.pool.get(r, {}).items():
                if support <= have and (bound is None or bound > stop):
                    return True
        return False


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

    An LP is not run at all when a certificate from an earlier LP of this
    search settles it (see _CellGeometry._skip): a ray proves it
    infeasible, and a stopped or optimal dual point on rows it contains
    proves its value at least L.  Only L strictly above the stop settles,
    so a skipped LP is infeasible or above the stop, where the stop
    already lets it end in None, and the result is the same as with every
    LP run.

    The search runs on M moved to put its bounding corner rb at the
    origin and scaled by S, 4 times the lcm of the corners' denominators,
    so that every LP row is an int row.  Every step commutes with that
    map, which keeps the tie-break order too, so the rect and epsilon are
    mapped back once at the end.
    """
    rb, sb = M.bounding_r, M.bounding_s
    if M.is_rectangle() or any(is_inf(v) for v in (rb.x1, rb.x2, sb.x1, sb.x2)):
        # a rectangle is its own approximation; unbounded support falls
        # back to the midpoint construction
        return construction1(M)
    S = int_scale(4, (x for p in M.mins + M.maxs for x in p))
    M = M.scaled(S, rb)
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
            cells = chain([((i, j, j, j), "pinch")],
                          ((cell, "hull") for cell in geo.hull_cells(i, j)))
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
        return RectApproxResult(RectangleSpec.zero(), Fraction(triv, S))
    back = lambda p: (rb.x1 + Fraction(p.x1, S), rb.x2 + Fraction(p.x2, S))
    return RectApproxResult(RectangleSpec(back(rect.r), back(rect.s)),
                            Fraction(eps, S))


def approx_decomposable(summands):
    """Summand-wise optimal rectangle approximation of a decomposable module.

    Returns (rect specs aligned with the summands, aggregate epsilon = the
    largest summand's).  Zero sentinels mark dropped summands.
    """
    results = [optimal_rectangle(Mi) for Mi in summands]
    return ([r.rect for r in results],
            max((r.epsilon for r in results), default=Fraction(0)))
