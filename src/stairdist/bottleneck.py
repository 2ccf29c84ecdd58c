"""Bottleneck distance between interval decomposable modules.

A decomposable module is handled as a plain list of StaircaseInterval
summands.  The distance is the least threshold at which a partial matching
exists whose pairs are within the threshold and whose unmatched summands
trivialize within it; a binary search runs over the finite candidate set
of all pairwise costs and trivialization costs.  A probe only decides
whether such a matching exists: by the Mendelsohn-Dulmage theorem it does
exactly when, on each side, the summands that do not trivialize within the
threshold can be matched into the other side within it, so a probe is two
one-sided augmenting-path searches.  delta_matched then builds the
reported matching once, at the threshold found.  int_point_bottleneck is
the same search on summands given as points (g, rel) under the L-infinity
metric (the bars of a 1-parameter module, or the one-relation summands of
gmd), on int coordinates, and returns the value alone.
"""

from fractions import Fraction
from operator import sub

from .geometry import Point2, RectangleSpec
from .interleaving import di_interval, di_interval_vs_rect, triv_distance
from .record import Record
from .rect_approx import approx_decomposable
from .scalars import INF, is_inf


class CostProfile(Record):
    __slots__ = ("costs",  # costs[i][j] = interleaving distance of M_i and N_j
                 "triv_m", "triv_n")

    def __init__(self, costs, triv_m, triv_n):
        self.costs = costs
        self.triv_m = triv_m
        self.triv_n = triv_n


def linf_gap(p, q):
    """max_k |p_k - q_k| over two coordinate tuples of equal length.  With
    INF - INF = 0 a coordinate infinite on both sides adds no gap; INF minus
    a finite value is INF."""
    return max(map(abs, map(sub, p, q)))


def _one_relation(S):
    """(g, rel) when S is the closure of k<g>/<rel>, else None.

    Such a summand has one finite minimal point g and only maximal points
    at infinity: a hook (a, INF), (INF, b) has rel = (a, b); a vertical strip
    (a, INF) has rel = (a, g.x2); a horizontal strip (INF, b) has
    rel = (g.x1, b); a quadrant has rel = (INF, INF).
    """
    if len(S.mins) != 1:
        return None
    g = S.mins[0]
    if is_inf(g.x1) or is_inf(g.x2):
        return None
    a, b = g.x1, g.x2
    for w in S.maxs:
        if is_inf(w.x1) and is_inf(w.x2):
            return g, w
        if is_inf(w.x2):
            a = w.x1
        elif is_inf(w.x1):
            b = w.x2
        else:
            return None
    return g, Point2(a, b)


def _corner_pair_cost(A, B, triv_a, triv_b):
    """Interleaving distance of two cyclic summands, in closed form.

    A = (p, q) is either a rectangle with corners r = p, s = q, or a
    one-relation summand k<g>/<rel> with g = p, rel = q (see
    _one_relation).  Either way a morphism A -> B(eps) is a scalar multiple
    of the canonical one, which sends generator to generator.

    Rectangles: a nonzero eps-interleaving exists exactly when both corner
    gaps ||r_A - r_B||_inf and ||s_A - s_B||_inf are at most eps; otherwise
    both maps vanish, so each rectangle has to be 2 eps-trivial.

    One-relation summands: the canonical map k<g>/<rel> -> k<g'>/<rel'>(eps)
    is nonzero only if g' <= g + eps (the generator lands in the support)
    and rel' <= rel + eps (the relation is killed).  So when both maps of an
    eps-interleaving are nonzero, ||g - g'||_inf and ||rel - rel'||_inf are
    at most eps; when one is zero, both composites vanish and both modules
    are 2 eps-trivial.  Conversely, when both gaps are at most eps the
    canonical maps interleave, unless rel' <= g + eps makes the image zero;
    but then rel <= g + 2 eps and rel' <= g' + 2 eps, so both trivs are
    already at most eps.

    Hence d_I = min(max(triv_A, triv_B), max of the two corner gaps).
    """
    (pa, qa), (pb, qb) = A, B
    return min(max(triv_a, triv_b), linf_gap(pa + qa, pb + qb))


def _summand_cost(mi, nj, triv_i, triv_j):
    # rectangle pairs, pairs of one-relation summands (hooks, strips and
    # quadrants), and bounded rectangles inside the partner's bounding
    # rectangle hit closed forms; the rest goes through the decision procedure
    if nj.is_rectangle() and mi.is_rectangle():
        return _corner_pair_cost((mi.mins[0], mi.maxs[0]),
                                 (nj.mins[0], nj.maxs[0]), triv_i, triv_j)
    a, b = _one_relation(mi), _one_relation(nj)
    if a is not None and b is not None:
        return _corner_pair_cost(a, b, triv_i, triv_j)
    if nj.is_rectangle():
        rb, sb = mi.bounding_r, mi.bounding_s
        r, s = nj.bounding_r, nj.bounding_s
        coords = (rb.x1, rb.x2, sb.x1, sb.x2, r.x1, r.x2, s.x1, s.x2)
        if (not any(is_inf(v) for v in coords)
                and rb.x1 <= r.x1 and rb.x2 <= r.x2
                and s.x1 <= sb.x1 and s.x2 <= sb.x2):
            return di_interval_vs_rect(mi, RectangleSpec(r, s))
    return di_interval(mi, nj)


def pairwise_costs(M, N) -> CostProfile:
    triv_m = [triv_distance(mi) for mi in M]
    triv_n = [triv_distance(nj) for nj in N]
    costs = [[_summand_cost(mi, nj, ti, tj) for nj, tj in zip(N, triv_n)]
             for mi, ti in zip(M, triv_m)]
    return CostProfile(costs, triv_m, triv_n)


class MatchingResult(Record):
    __slots__ = ("delta",
                 "pairs",  # (i, j) index pairs
                 "unmatched_m",  # (i, trivialization cost)
                 "unmatched_n")

    def __init__(self, delta, pairs, unmatched_m, unmatched_n):
        self.delta = delta
        self.pairs = pairs
        self.unmatched_m = unmatched_m
        self.unmatched_n = unmatched_n


def _max_matching(nl, nr, adj):
    """Augmenting-path maximum matching; adj[l] lists right neighbours."""
    match_l = [None] * nl
    match_r = [None] * nr
    for l in range(nl):
        seen = [False] * nr
        _augment(l, adj, seen, match_l, match_r)
    return match_l, match_r


def _augment(root, adj, seen, match_l, match_r):
    """Depth-first augmenting path from root in adj order, flipped if found.

    An explicit stack, so path length is not bounded by the recursion limit.
    """
    ls, its, rs = [root], [iter(adj[root])], []  # rs[k] leads ls[k] to ls[k+1]
    while its:
        for r in its[-1]:
            if not seen[r]:
                break
        else:
            ls.pop()
            its.pop()
            if rs:
                rs.pop()
            continue
        seen[r] = True
        rs.append(r)
        l = match_r[r]
        if l is None:
            for lv, rv in zip(ls, rs):
                match_l[lv] = rv
                match_r[rv] = lv
            return True
        ls.append(l)
        its.append(iter(adj[l]))
    return False


def delta_matched(profile: CostProfile, delta):
    """MatchingResult at the threshold, or None when no matching works.

    Uses the standard doubled bipartite graph: each side is augmented with a
    shadow copy of the other, a summand may match its own shadow when it
    trivializes within delta, and shadows match each other freely.
    """
    nm, nn = len(profile.triv_m), len(profile.triv_n)
    size = nm + nn
    adj = [[] for _ in range(size)]
    for i in range(nm):
        for j in range(nn):
            if profile.costs[i][j] <= delta:
                adj[i].append(j)
        if profile.triv_m[i] <= delta:
            adj[i].append(nn + i)
    for j in range(nn):
        l = nm + j  # shadow of N_j on the left
        if profile.triv_n[j] <= delta:
            adj[l].append(j)
        adj[l].extend(range(nn, nn + nm))
    match_l, _ = _max_matching(size, size, adj)
    if any(r is None for r in match_l):
        return None
    pairs = [(i, match_l[i]) for i in range(nm) if match_l[i] < nn]
    um = [(i, profile.triv_m[i]) for i in range(nm) if match_l[i] >= nn]
    matched_n = {j for _, j in pairs}
    un = [(j, profile.triv_n[j]) for j in range(nn) if j not in matched_n]
    return MatchingResult(delta, pairs, um, un)


def _covers(heavy, adj, n_right):
    """True when every vertex in heavy can be matched to its own neighbour;
    adj[l] lists the right neighbours of left vertex l.  A root takes a
    free neighbour when it has one and searches for an augmenting path
    otherwise.  Only roots get matched, so the search only reaches adj of
    vertices in heavy."""
    match_l, match_r = [None] * len(adj), [None] * n_right
    for l in heavy:
        for r in adj[l]:
            if match_r[r] is None:
                match_l[l], match_r[r] = r, l
                break
        else:
            if not _augment(l, adj, [False] * n_right, match_l, match_r):
                return False
    return True


def _feasible(rows, cols, triv_m, triv_n, delta):
    """Whether a matching within delta leaves only summands trivial within
    delta unmatched; rows[i] and cols[j] list the finite costs (index,
    cost) of M_i and N_j.  By the Mendelsohn-Dulmage theorem (Canad. J.
    Math. 1958) such a matching exists exactly when the non-trivial
    summands of each side can be matched into the other side within delta,
    so this is two one-sided searches, with no shadow copies."""
    for nbrs, triv, n_right in ((rows, triv_m, len(triv_n)),
                                (cols, triv_n, len(triv_m))):
        heavy = [i for i, t in enumerate(triv) if t > delta]
        adj = [()] * len(triv)
        for i in heavy:
            adj[i] = [j for j, c in nbrs[i] if c <= delta]
        if not _covers(heavy, adj, n_right):
            return False
    return True


def _threshold(rows, triv_m, triv_n):
    """Least candidate (0, a finite cost or a finite triv) at which
    _feasible holds, or INF when none does; rows[i] lists the finite costs
    (j, cost) of M_i.  Feasibility is monotone in delta, so a binary search
    over the sorted candidates finds it."""
    cols = [[] for _ in triv_n]
    for i, row in enumerate(rows):
        for j, c in row:
            cols[j].append((i, c))
    cands = {0}
    for row in rows:
        cands.update(c for _, c in row)
    cands.update(v for v in triv_m if not is_inf(v))
    cands.update(v for v in triv_n if not is_inf(v))
    cands = sorted(cands)
    lo, hi = 0, len(cands)
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(rows, cols, triv_m, triv_n, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo] if lo < len(cands) else INF


def bottleneck_from_profile(profile: CostProfile) -> MatchingResult:
    """The matching delta_matched gives at the least feasible threshold."""
    rows = [[(j, c) for j, c in enumerate(row) if not is_inf(c)]
            for row in profile.costs]
    return delta_matched(profile, _threshold(rows, profile.triv_m,
                                             profile.triv_n))


def bottleneck_distance(M, N) -> MatchingResult:
    return bottleneck_from_profile(pairwise_costs(M, N))


def int_point_bottleneck(points_m, points_n):
    """Bottleneck distance between two lists of points (g, rel), each a flat
    tuple of the d coordinates of g followed by the d coordinates of rel.

    Every coordinate is an int or INF, and every finite gap is even, so
    halving a gap is exact; the value comes back in the same units (an int,
    or INF).  A pair costs linf_gap of the two points; a point left
    unmatched costs ||rel - g||_inf / 2, which is INF when rel is at
    infinity.  This is the L-infinity bottleneck distance of persistence
    diagrams (Cohen-Steiner, Edelsbrunner & Harer, DCG 2007): with d = 1
    the points are bars (birth, death).  With d = 2 they are one-relation
    summands k<g>/<rel>, for which the interleaving distance of a pair is
    min(max triv, gap) (_corner_pair_cost); the plain gap gives the same
    bottleneck value, because whenever max triv <= delta < gap, leaving
    both points unmatched is feasible at delta.

    Two points are at a finite gap exactly when they have INF in the same
    coordinates, so each point is split into its coordinates' types and its
    finite coordinates (0 where infinite).
    """
    inf, fin, triv = [], [], []
    for p in (*points_m, *points_n):
        a = tuple(map(type, p))
        if a.count(int) < len(p):
            p = tuple(x if type(x) is int else 0 for x in p)
        d = len(p) // 2
        inf.append(a)
        fin.append(p)
        triv.append(linf_gap(p[:d], p[d:]) // 2 if a[:d] == a[d:] else INF)
    nm = len(points_m)
    right = list(enumerate(zip(inf[nm:], fin[nm:])))
    rows = [[(j, linf_gap(p, q)) for j, (b, q) in right if a == b]
            for a, p in zip(inf[:nm], fin[:nm])]
    return _threshold(rows, triv[:nm], triv[nm:])


class LowerBoundReport(Record):
    __slots__ = ("d_b", "eps_star_m", "eps_star_n", "d_b_approx", "raw",
                 "lower_bound", "matching")

    def __init__(self, d_b, eps_star_m, eps_star_n, d_b_approx, raw,
                 lower_bound, matching: MatchingResult):
        self.d_b = d_b
        self.eps_star_m = eps_star_m
        self.eps_star_n = eps_star_n
        self.d_b_approx = d_b_approx
        self.raw = raw
        self.lower_bound = lower_bound
        self.matching = matching


def interleaving_lower_bound(M, N) -> LowerBoundReport:
    """Lower bound on the interleaving distance from the bottleneck chain.

    Computes d_B(M, N), the optimal per-summand rectangle approximations and
    their aggregate epsilons, and d_B between the approximations; reports
    (1/3) d_B(M, N) - (4/3)(eps_M + eps_N) both raw and clamped at 0.
    """
    matching = bottleneck_distance(M, N)
    rects_m, em = approx_decomposable(M)
    rects_n, en = approx_decomposable(N)
    am = [r.as_interval() for r in rects_m if not r.is_zero]
    an = [r.as_interval() for r in rects_n if not r.is_zero]
    d_b_approx = bottleneck_distance(am, an).delta
    d_b = matching.delta
    if is_inf(d_b):
        raw = INF if not (is_inf(em) or is_inf(en)) else Fraction(0)
    else:
        raw = Fraction(1, 3) * d_b - Fraction(4, 3) * (em + en)
    lb = max(Fraction(0), raw)
    return LowerBoundReport(d_b, em, en, d_b_approx, raw, lb, matching)
