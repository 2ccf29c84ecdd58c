"""Independent reference computations used only by the tests.

Everything here deliberately avoids the code paths under test: dense
sampling, brute-force grid search, exhaustive enumeration, and a separate
GF(2) elimination.  Values are floats where sampling is involved and exact
rationals where enumeration is.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from stairdist.interleaving import triv_distance
from stairdist.scalars import INF, is_inf


# --------------------------------------------------------------------------
# dense sampling along the diagonal direction


def sampled_intercepts(reg, step):
    lo, hi = reg.clo, reg.chi
    if is_inf(lo) or is_inf(hi):
        raise ValueError("dense sampling needs a bounded intercept range")
    n = int((hi - lo) / step)
    return [lo + k * step for k in range(n + 1)] + [hi]

def triv_oracle(M, step=Fraction(1, 1000)):
    """Half the longest slice, by dense scanning."""
    reg = M.region()
    best = 0.0
    for c in sampled_intercepts(reg, step):
        seg = reg.slice_at(c)
        if not seg.is_empty:
            best = max(best, float(seg.length))
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
    for i1 in range(n1 + 1):
        r1 = X1[i1]
        for j1 in range(i1, n1 + 1):
            s1 = X1[j1]
            w = s1 - r1
            cp = S2 - r1
            cq = R2 - s1
            cr = R2 - r1
            cx = S2 - s1
            shift = np.maximum.reduce([
                np.interp(cp, C, THI) - (r1 + S2) / 2,
                np.interp(cq, C, THI) - (s1 + R2) / 2,
                np.interp(cr, C, TLO) - (r1 + R2) / 2,
                (r1 + S2) / 2 - np.interp(cp, C, TLO),
                (s1 + R2) / 2 - np.interp(cq, C, TLO),
                (s1 + S2) / 2 - np.interp(cx, C, THI),
            ])
            shift = np.maximum(shift, 0.0)
            pinch = 0.5 * np.minimum(w, H)
            ilo = np.searchsorted(C, cq - eps)
            ihi = np.searchsorted(C, cp + eps) - 1
            t_in = 0.5 * range_max(ilo, ihi)
            iq = np.searchsorted(C, cq + eps) - 1
            ip = np.searchsorted(C, cp - eps)
            t_out = 0.5 * np.maximum(pref[iq], suff[np.minimum(ip, K - 1)])
            obj = np.maximum(t_out,
                             np.minimum(np.maximum(t_in, pinch), shift))
            m = obj.min()
            if m < best:
                best = m
    return best


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
