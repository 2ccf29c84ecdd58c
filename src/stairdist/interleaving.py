"""Interleaving distances between staircase interval modules.

Everything here works on diagonal slice functions.  The slicewise distance
is a 1-parameter computation per intercept; the full interval distance adds
a correction obtained by probing shifted overlaps at finitely many shift
values: one probe inside each gap between candidate shifts decides the
whole gap (see _least_accepted).  The candidate shifts and the distance
to the zero module (triv_distance) are read off the corners alone, with
no region built.  All arithmetic is exact.

Each overlap component of one module with the other shifted is valid
(_is_valid), trivializable (its _kill_bound is below the shift) or blocks
the interleaving: the criterion of Dey & Xin (SoCG 2018).

The same code runs on Fraction data (di_decision, di_interval_vs_rect) and
on the regions of int corners that di_interval builds: it scales both
modules' corners once (StaircaseInterval.scaled), before any region is
built.  Every division is scalars.qdiv, which keeps an even quotient of
ints an int.
"""

from fractions import Fraction

from .errors import PreconditionError
from .geometry import (DiagRegion, StaircaseInterval, pt_le,
                       region_intersection, tval)
from .pl import PL, pl_abs, pl_max, pl_min, pl_sub
from .record import Record
from .scalars import INF, NINF, ext, int_scale, is_inf, qdiv

HALF = Fraction(1, 2)


def _as_region(x) -> DiagRegion:
    if isinstance(x, StaircaseInterval):
        return x.region()
    if isinstance(x, DiagRegion):
        return x
    raise TypeError("expected a StaircaseInterval or DiagRegion")


# --------------------------------------------------------------------------
# distance to the zero module


def triv_distance(M: StaircaseInterval):
    """Distance from M to the zero module: half the longest diagonal slice,
    read off the corners without building the region.

    Every slice [p, q] has a minimum v <= p and a maximum w >= q, and the
    diagonal segment from v of length min(w.x1 - v.x1, w.x2 - v.x2) lies
    in the support, so the longest slice is the largest such min.  Over
    the maxima by x1, w.x1 - v.x1 rises and w.x2 - v.x2 falls, so the term
    peaks at the first maximum k where the second is the smaller (where
    w's intercept crosses v's) or just before it; k never falls as v moves
    right, so one sweep finds every peak."""
    maxs, k, m = M.maxs, 0, NINF
    for v in M.mins:
        while k < len(maxs) and maxs[k].x1 - v.x1 <= maxs[k].x2 - v.x2:
            k += 1
        for w in maxs[max(k - 1, 0):k + 1]:
            m = max(m, min(w.x1 - v.x1, w.x2 - v.x2))
    if is_inf(m):
        return m
    return qdiv(m, 2) if m > 0 else Fraction(0)


# --------------------------------------------------------------------------
# supremum of the slicewise distance over all diagonals


def di_diag(M, N):
    v, _ = _di_diag(_as_region(M), _as_region(N))
    return v


def _di_diag(A: DiagRegion, B: DiagRegion):
    """(sup over intercepts of the interleaving distance of the two slices,
    a witness intercept or None)."""
    best, arg = Fraction(0), None

    def upd(v, a):
        nonlocal best, arg
        if v > best:
            best, arg = v, a

    for lo, hi in _only_pieces(A.clo, A.chi, B.clo, B.chi):
        upd(*_sup_half_length(A, lo, hi))
    for lo, hi in _only_pieces(B.clo, B.chi, A.clo, A.chi):
        upd(*_sup_half_length(B, lo, hi))
    lo, hi = max(A.clo, B.clo), min(A.chi, B.chi)
    if lo <= hi:
        upd(*_sup_both(A, B, lo, hi))
    return best, arg


def _only_pieces(alo, ahi, blo, bhi):
    """Closed pieces of [alo, ahi] outside (blo, bhi)."""
    ps = []
    if alo < blo:
        ps.append((alo, min(ahi, blo)))
    if bhi < ahi:
        ps.append((max(alo, bhi), ahi))
    return [(a, b) for a, b in ps if a <= b]


def _sup_half_length(A, lo, hi):
    g = A.length_fn()
    if g is INF:
        return INF, None
    return _sup_half_length_strip(g, lo, hi)


def _sup_both(A, B, lo, hi):
    rA = A.restrict_hull(lo, hi)
    rB = B.restrict_hull(lo, hi)
    gA, gB = rA.length_fn(), rB.length_fn()
    mx = None if (gA is INF or gB is INF) else pl_max(gA, gB).scale_y(HALF)
    t1 = _abs_gap(rA.tlo, rB.tlo, NINF, lo, hi)
    t2 = _abs_gap(rA.thi, rB.thi, INF, lo, hi)
    if t1 is INF or t2 is INF:
        shift = INF
    else:
        shift = pl_max(t1, t2)
    if mx is None and shift is INF:
        return INF, None
    if shift is INF:
        f = mx
    elif mx is None:
        f = shift
    else:
        f = pl_min(mx, shift)
    v, a = f.sup()
    return (v, a) if v > 0 else (Fraction(0), a)


def _abs_gap(f, g, sentinel, lo, hi):
    """|f - g| as a PL; two matching sentinels cancel, one alone is INF."""
    fs, gs = f is sentinel, g is sentinel
    if fs and gs:
        return PL.const(0, lo, hi)
    if fs or gs:
        return INF
    return pl_abs(pl_sub(f, g))


# --------------------------------------------------------------------------
# kill bound and validity of one overlap component


def _kill_bound(Q: DiagRegion, src: DiagRegion, shifted: DiagRegion):
    """Kill bound of one overlap component Q.

    Q must be a component of the intersection of src and shifted, and the
    canonical componentwise morphism under consideration maps src-sections
    into shifted-sections.  Where that morphism must vanish on Q, it can
    only when every section dies within the kill bound: half the larger of
    the climb from Q's bottom out of src's upper boundary and the drop from
    Q's top out of shifted's lower boundary.  Both are read on Q's own
    intercept range.
    """
    t = max(_sup_gap(src.thi, Q.tlo, Q), _sup_gap(Q.thi, shifted.tlo, Q))
    return t if is_inf(t) else qdiv(t, 2)


def _sup_gap(f, g, Q):
    """Supremum of f - g over Q's intercept range; INF where f is the INF
    boundary or g the NINF one."""
    if f is INF or g is NINF:
        return INF
    return pl_sub(f.restrict(Q.clo, Q.chi), g.restrict(Q.clo, Q.chi)).sup()[0]


def _is_valid(Q: DiagRegion, src: DiagRegion, shifted: DiagRegion):
    """Whether the morphism of _kill_bound may be the identity on Q.

    It may when everything of src below Q already lies in shifted and
    everything of shifted above Q lies back in src, tested on the full
    intercept range.
    """
    down = region_intersection(src, Q.down_extension())
    if down is not None and not shifted.contains(down):
        return False
    up = region_intersection(shifted, Q.up_extension())
    return up is None or src.contains(up)


# --------------------------------------------------------------------------
# the decision procedure and the distance


class DecisionReport(Record):
    # checks: (direction, shift, verdict) per overlap component, or
    # ("diag", intercept, "fails") when a diagonal slice pair is too far
    __slots__ = ("delta", "accepted", "diag_distance", "reason", "checks")

    def __init__(self, delta, accepted, diag_distance, reason="",
                 checks=None):
        self.delta = delta
        self.accepted = accepted
        self.diag_distance = diag_distance
        self.reason = reason
        self.checks = [] if checks is None else checks


def _candidate_deltas(M: StaircaseInterval, N: StaircaseInterval):
    """0 and every difference v - u of two finite corner coordinates of the
    two intervals, with its half, sorted: by the lemma of _least_accepted,
    every root of K(d) = d is one of them."""
    vals = sorted({x for I in (M, N) for p in I.mins + I.maxs for x in p
                   if not is_inf(x)})
    ds = {0} | {v - u for i, u in enumerate(vals) for v in vals[i:]}
    return sorted(ds | {qdiv(d, 2) for d in ds})


def _probe_components(A, B, dprime):
    """Overlap components in both shift directions at one probe value."""
    for direction, src, sh in (("M,N-shift", A, B.shift(dprime)),
                               ("M-shift,N", B, A.shift(dprime))):
        inter = region_intersection(src, sh)
        if inter is None:
            continue
        for comp in inter.components():
            yield direction, comp, src, sh


def _kill_requirement(A, B, dprime):
    """The kill requirement K: the largest kill bound over the non-valid
    overlap components.

    None means every component carries its canonical identity morphism, so
    the shift is acceptable regardless of the threshold.  The bounds are
    cheap (two PL gaps on each component's own intercept range) and the
    validity test is not (two region intersections and containments over
    the full range), so every bound is computed first and the components
    are tested in falling bound: the first non-valid one has the largest
    bound of all the non-valid ones, which is K, and the rest are never
    tested.
    """
    probes = [(_kill_bound(comp, src, sh), comp, src, sh)
              for _, comp, src, sh in _probe_components(A, B, dprime)]
    probes.sort(key=lambda p: p[0], reverse=True)
    for bound, comp, src, sh in probes:
        if not _is_valid(comp, src, sh):
            return bound
    return None


def di_decision(M, N, delta) -> DecisionReport:
    """Is there a delta-interleaving between the two interval modules?

    Requires the slicewise distance to fit within delta, then inspects the
    overlap components of each module with the other shifted down by delta.
    Each component must either carry the canonical identity morphism
    (valid) or have all of its sections die strictly within the shift
    (trivializable); any other component blocks the interleaving.
    """
    delta = ext(delta)
    if delta < 0:
        raise PreconditionError("delta must be nonnegative")
    A, B = _as_region(M), _as_region(N)
    dd, ddarg = _di_diag(A, B)
    rep = DecisionReport(delta, True, dd)
    if dd > delta:
        rep.accepted = False
        rep.reason = "some diagonal slice pair is farther than delta"
        if ddarg is not None:
            rep.checks.append(("diag", ddarg, "fails"))
        return rep
    if is_inf(delta):
        return rep
    for direction, comp, src, sh in _probe_components(A, B, delta):
        if _is_valid(comp, src, sh):
            verdict = "valid"
        elif _kill_bound(comp, src, sh) < delta:
            verdict = "trivializable"
        else:
            verdict = "fails"
        rep.checks.append((direction, delta, verdict))
        if verdict == "fails":
            rep.accepted = False
            rep.reason = ("overlap component at shift %s is neither valid "
                          "nor killed within delta" % (delta,))
            return rep
    return rep


def _least_accepted(M, N, dd):
    """Least accepted shift at or above dd, or INF, on int-scaled intervals:
    the first a of dd and the candidates above it whose probe at a + 2 is
    accepted (K is None or K < a + 2).  Most searches end at dd, so the
    O(V^2) candidates are built only when first needed.

    Lattice.  di_interval scales the corners to multiples of 16, so every
    corner coordinate and knot (an intercept x2 - x1) is a multiple of 16
    and every slice value (x1 + x2)/2 of 8.  Every candidate, (v - u)/2 or
    v - u of two corner coordinates, is then a multiple of 8.  So is dd.
    Where a slice end function has slope +1/2 the end keeps its x1, where
    -1/2 its x2, and that coordinate is a corner coordinate; along one
    diagonal a difference of t is one of x1 or of x2.  So at a knot every
    slice length and end gap is a multiple of 16, and so is any of them
    that is flat on one side.  Between knots half the longer slice and the
    larger end gap are convex, so the slicewise sup sits where they meet,
    neither flat: half a slice length rising at 1/2 against an end gap
    falling at 1, or the mirror.  There the distances force the slices to
    be equally long and the four ends to lie h apart in a row, h the
    distance, and two neighbours in the row keep the same coordinate, so
    h is a multiple of 16 too.  The probe needs only multiples of 4: a + 2
    lies strictly inside the gap (a, b) up to the next candidate.

    Lemma.  Acceptance is constant inside each such gap, so the least
    accepted shift is dd or a candidate, and a + 2 decides the gap above
    a; acceptance is monotone in the shift, as interleavings are, so an
    accepted a has an accepted gap above it.  As the candidate scan has
    always assumed, inside a gap the overlap components and their validity
    are fixed (a component splits, or an end of its range crosses a knot,
    only where a boundary difference at a knot equals the shift), so K is
    continuous there, and a change would need a root K(d) = d.  Any root
    is a candidate:

    Q's ends are Q.tlo = max(src.tlo, oth.tlo - d) and Q.thi =
    min(src.thi, oth.thi - d), oth being the other region before its
    shift, so both gaps of _kill_bound have the form min(P, R + d), with
    P = L_src or L_oth a slice length and R = src.thi - oth.tlo, and 2K is
    the sup of such a min over Q's range.  P, R have slopes in {-1, 0, 1}.
    Call a value two-term if it is a difference of two corner coordinates:
    by the above, a difference of two ends is two-term where it is flat on
    one side, and at a knot of either region unless both ends belong to
    the other; R is two-term at every knot.  Let p be the left end of a
    maximal interval where the min attains its sup M (the mirror
    (x1, x2) -> (x2, x1) negates intercepts, so p = -inf is the mirror
    of a finite right end); the min rises into p unless p ends Q's range.
    - p inside, at no knot: a min of two lines rising into p and not
      after needs P = R + d at p with one rising and the other not.  P
      rising at 1 against R falling at 1 would need src.thi (for L_src)
      or oth.tlo (for L_oth) to have slope +1/2 and -1/2 at once, and the
      mirror likewise, so one is flat: M is a two-term P, or R + d with a
      two-term R.
    - p inside, at a knot: M = R(p) + d, or M = P(p) with the min equal to
      P rising into p, so p is a knot of P's own region; both two-term.
    - p a fixed end of the range, the clo of src or oth: that region's
      slice is one corner point, and Q's slice is that point inside the
      other region's slice, so M = 0 or M = R(p) + d.  An end where
      R + d = 0 gives M = 0.
    - p an end where the shifted top meets src.tlo: Q's slice is one
      point and both gaps are P(p).  The constraint rises through d, so
      oth.thi has slope +1/2 and src.tlo -1/2 right of p (flat would make
      d two-term); P is flat there (two-term) or rises at 1, and then R +
      d = M caps it, which takes R flat: src.thi +1/2 for L_src forces
      oth.tlo +1/2, oth.tlo -1/2 for L_oth forces src.thi -1/2.
    An infinite P or R drops out of the min.  So at a root 2d = M is 0,
    a two-term v - u, or v - u + d, and d is 0, (v - u)/2 or v - u: a
    candidate.
    """
    A, B = M.region(), N.region()

    def accepted(a):
        K = _kill_requirement(A, B, a + 2)
        return K is None or K < a + 2

    if accepted(dd):
        return dd
    for a in _candidate_deltas(M, N):
        if a > dd and accepted(a):
            return a
    return INF


def di_interval(M, N):
    """Exact interleaving distance between two interval modules.

    Computed as the least shift, at or above the slicewise supremum, whose
    overlap components all pass the decision criterion: the supremum or a
    candidate shift, each decided by one probe inside the gap above it
    (_least_accepted).

    The search runs on both modules with their corners scaled by one int
    S, 16 times the lcm of their denominators, and its result is divided
    by S.  Every step commutes with a positive scaling of the plane, so
    this is exact, and the regions and the search stay on ints.
    """
    if M == N:
        return Fraction(0)
    S = int_scale(16, (x for I in (M, N) for p in I.mins + I.maxs for x in p))
    M, N = M.scaled(S), N.scaled(S)
    dd, _ = _di_diag(M.region(), N.region())
    d = INF if dd is INF else _least_accepted(M, N, int(dd))
    return d if d is INF else Fraction(d, S)


# --------------------------------------------------------------------------
# interval vs rectangle, in closed form


def _eval_lim(f, c):
    """f(c) extended by tail limits at c = +-inf; None outside the domain."""
    if is_inf(c):
        s = f.rslope if c > 0 else f.lslope
        if s is None:
            return None
        if s == 0:
            return f.vs[-1] if c > 0 else f.vs[0]
        sign = s if c > 0 else -s
        return INF if sign > 0 else NINF
    if c < f.dom_lo or c > f.dom_hi:
        return None
    return f(c)


def _lo_at(reg, c):
    if reg.tlo is NINF:
        return NINF
    return _eval_lim(reg.tlo, c)


def _hi_at(reg, c):
    if reg.thi is INF:
        return INF
    return _eval_lim(reg.thi, c)


def di_interval_vs_rect(M, R):
    """Interleaving distance from an interval module to a rectangle module.

    The rectangle must sit inside M's bounding rectangle
    (PreconditionError otherwise).  The distance splits into the slice
    mismatch outside the rectangle's diagonal band and, inside the band,
    the smaller of a kill bound and a boundary shift bound.
    """
    if not isinstance(M, StaircaseInterval):
        raise TypeError("M must be a StaircaseInterval")
    if R.is_zero:
        return triv_distance(M)
    rb, sb = M.bounding_r, M.bounding_s
    if not (pt_le(rb, R.r) and pt_le(R.s, sb)):
        raise PreconditionError("rectangle exceeds the bounding rectangle")
    reg = M.region()
    r, s, p, q = R.r, R.s, R.p, R.q
    cq = q.x2 - q.x1
    cp = p.x2 - p.x1
    cr = r.x2 - r.x1
    cs = s.x2 - s.x1
    g = reg.length_fn()
    t_out = Fraction(0)
    t_in = Fraction(0)
    if g is INF:
        if reg.clo < cq or reg.chi > cp:
            t_out = INF
        t_in = INF
    else:
        for lo, hi in _only_pieces(reg.clo, reg.chi, cq, cp):
            v, _ = _sup_half_length_strip(g, lo, hi)
            t_out = max(t_out, v)
        v, _ = _sup_half_length_strip(g, cq, cp)
        t_in = v
    t_pinch = qdiv(min(R.width, R.height), 2)
    t_shift = max(_sub_or_inf(_hi_at(reg, cp), tval(p)),
                  _sub_or_inf(_hi_at(reg, cq), tval(q)),
                  _sub_or_inf(_lo_at(reg, cr), tval(r)),
                  _sub_or_inf(tval(p), _lo_at(reg, cp)),
                  _sub_or_inf(tval(q), _lo_at(reg, cq)),
                  _sub_or_inf(tval(s), _hi_at(reg, cs)), Fraction(0))
    return max(t_out, min(max(t_in, t_pinch), t_shift))


def _sub_or_inf(a, b):
    if a is None or b is None:
        return INF
    return a - b


def _sup_half_length_strip(g, lo, hi):
    r = g.restrict(lo, hi)
    if r is None:
        return Fraction(0), None
    v, a = r.sup()
    if v <= 0:
        return Fraction(0), a
    return qdiv(v, 2), a
