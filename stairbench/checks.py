"""Checkers for the benchmark's CLI outputs.

Each checker compares an answer with an independent computation or with a
property the method must have, never with a stored copy of an earlier
output.  A checker returns a list of problems; an empty list means the
answer passed.  They run outside the timed region.
"""

import json
from fractions import Fraction

from stairdist import io as mio
from stairdist.geometry import StaircaseInterval, hausdorff, point
from stairdist.interleaving import di_decision, di_interval, triv_distance
from stairdist.rect_approx import construction1
from stairdist.scalars import ext, is_inf

PROBE = Fraction(1, 100)


def _exact(entry):
    return ext(entry["exact"])


# --------------------------------------------------------------------------
# diagonal slices straight from the vertex lists


def _slice(I, c):
    """Diagonal slice [t_lo, t_hi] of I on the line (t - c/2, t + c/2),
    or None when empty."""
    h = c / 2
    lo = min(max(v.x1 + h, v.x2 - h) for v in I.mins)
    hi = max(min(w.x1 + h, w.x2 - h) for w in I.maxs)
    return (lo, hi) if lo <= hi else None


def _bar_distance(a, b):
    """Interleaving distance of two closed bars (None = empty)."""
    if a is None and b is None:
        return Fraction(0)
    if a is None or b is None:
        lo, hi = a or b
        return (hi - lo) / 2
    half_longest = max(a[1] - a[0], b[1] - b[0]) / 2
    return min(half_longest, max(abs(a[0] - b[0]), abs(a[1] - b[1])))


def sampled_slice_distance(A, B):
    """Largest bar distance over diagonals through a vertex of A or B, and
    the midpoints between consecutive ones.  Restricting an interleaving
    to a diagonal line gives an interleaving of the slices, so this is a
    lower bound for the interleaving distance."""
    cs = sorted({v.x2 - v.x1 for I in (A, B) for v in I.mins + I.maxs})
    cs += [(a + b) / 2 for a, b in zip(cs, cs[1:])]
    return max(_bar_distance(_slice(A, c), _slice(B, c)) for c in cs)


def check_interval_di(A, B, out):
    d = _exact(out["delta"])
    problems = []
    if d < 0:
        problems.append("negative distance %s" % d)
    if d > hausdorff(A, B):
        problems.append("d=%s above the Hausdorff distance %s" % (d, hausdorff(A, B)))
    lb = sampled_slice_distance(A, B)
    if d < lb:
        problems.append("d=%s below the sampled slice distance %s" % (d, lb))
    if not di_decision(A, B, d + PROBE).accepted:
        problems.append("decision rejects d + 1/100")
    if d > 0 and di_decision(A, B, max(d - PROBE, Fraction(0))).accepted:
        problems.append("decision accepts d - 1/100")
    return problems


# --------------------------------------------------------------------------
# bottleneck matchings


def max_matching(n_left, n_right, adj):
    """Size of a maximum bipartite matching (iterative augmenting paths)."""
    match_l = [None] * n_left
    match_r = [None] * n_right
    for root in range(n_left):
        prev = {}  # right vertex -> left vertex it was reached from
        stack = [root]
        free = None
        while stack and free is None:
            left = stack.pop()
            for r in adj[left]:
                if r in prev:
                    continue
                prev[r] = left
                if match_r[r] is None:
                    free = r
                    break
                stack.append(match_r[r])
        r = free
        while r is not None:
            left = prev[r]
            r_next = match_l[left]
            match_l[left], match_r[r] = r, left
            r = r_next
    return sum(m is not None for m in match_l)


def matchable(costs, triv_m, triv_n, delta):
    """Is there a partial matching with every pair within delta and every
    unmatched summand trivializable within delta?  Doubled-graph test:
    each side gets a shadow of the other, and everything must be covered."""
    nm, nn = len(triv_m), len(triv_n)
    adj = [[] for _ in range(nm + nn)]
    for i in range(nm):
        adj[i] = [j for j in range(nn) if costs[i][j] <= delta]
        if triv_m[i] <= delta:
            adj[i].append(nn + i)
    for j in range(nn):
        adj[nm + j] = ([j] if triv_n[j] <= delta else []) + list(range(nn, nn + nm))
    return max_matching(nm + nn, nn + nm, adj) == nm + nn


def cost_profile(M, N):
    """Pairwise costs by the general decision-based search only, so that the
    closed-form routing of the timed path is checked too."""
    return ([[di_interval(a, b) for b in N] for a in M],
            [triv_distance(a) for a in M], [triv_distance(b) for b in N])


def check_bottleneck(M, N, out, profile=None):
    d = _exact(out["d_B"])
    costs, triv_m, triv_n = profile or cost_profile(M, N)
    problems = []
    pairs = [tuple(p) for p in out["matching"]]
    um = [i for i, _ in out["unmatched_M"]]
    un = [j for j, _ in out["unmatched_N"]]
    left = [i for i, _ in pairs]
    right = [j for _, j in pairs]
    if sorted(left + um) != list(range(len(M))):
        problems.append("matching does not cover M exactly once")
    if sorted(right + un) != list(range(len(N))):
        problems.append("matching does not cover N exactly once")
    for i, j in pairs:
        if not (0 <= i < len(M) and 0 <= j < len(N)) or costs[i][j] > d:
            problems.append("pair (%d, %d) is not within d_B=%s" % (i, j, d))
    for i in um:
        if 0 <= i < len(M) and triv_m[i] > d:
            problems.append("unmatched M_%d does not trivialize within d_B" % i)
    for j in un:
        if 0 <= j < len(N) and triv_n[j] > d:
            problems.append("unmatched N_%d does not trivialize within d_B" % j)
    cands = {v for row in costs for v in row} | set(triv_m) | set(triv_n)
    below = [c for c in cands if not is_inf(c) and c < d]
    if below and matchable(costs, triv_m, triv_n, max(below)):
        problems.append("a matching exists at %s < d_B" % max(below))
    return problems


# --------------------------------------------------------------------------
# rectangle approximation and the lower bound


def check_rect_approx(M, out):
    problems = []
    if len(out["summands"]) != len(M):
        return ["%d summand results for %d summands" % (len(out["summands"]), len(M))]
    eps_all = []
    for i, (S, res) in enumerate(zip(M, out["summands"])):
        eps = _exact(res["epsilon"])
        eps_all.append(eps)
        triv = triv_distance(S)
        if res["rect"] is None:
            attained = triv
        else:
            (r1, r2), (s1, s2) = res["rect"]
            R = StaircaseInterval.rect(point(r1, r2), point(s1, s2))
            attained = di_interval(S, R)
        if attained != eps:
            problems.append("summand %d: epsilon %s but the rectangle is at %s"
                            % (i, eps, attained))
        c1 = construction1(S).epsilon
        if not (eps <= c1 <= triv):
            problems.append("summand %d: epsilon %s, construction1 %s, triv %s "
                            "out of order" % (i, eps, c1, triv))
    if eps_all and _exact(out["epsilon"]) != max(eps_all):
        problems.append("aggregate epsilon is not the summand maximum")
    return problems


def check_lower_bound(out):
    lb, d_b = _exact(out["lower_bound"]), _exact(out["d_B"])
    approx = _exact(out["d_B_approx"])
    em, en = _exact(out["eps_star_M"]), _exact(out["eps_star_N"])
    problems = []
    if not (0 <= lb <= d_b):
        problems.append("lower bound %s outside [0, d_B=%s]" % (lb, d_b))
    if d_b > approx + em + en:
        problems.append("d_B=%s above d_B_approx + eps_M + eps_N = %s"
                        % (d_b, approx + em + en))
    return problems


# --------------------------------------------------------------------------
# presentations


def check_gmd(out):
    v = _exact(out["value"])
    if is_inf(v) or v < 0:
        return ["gmd value %s is not finite and nonnegative" % v]
    return []


def check_dmatch(out, delta, gmd_out):
    v = _exact(out["value"])
    problems = []
    if not (0 <= v <= delta):
        problems.append("dmatch %s outside [0, delta=%s]" % (v, delta))
    if gmd_out is not None and v > _exact(gmd_out["value"]):
        problems.append("dmatch %s above gmd %s" % (v, gmd_out["value"]["exact"]))
    return problems


# --------------------------------------------------------------------------


def load_inputs(op):
    """Parse an operation's input files the way the CLI does."""
    kind = op["meta"]["kind"]
    paths = [a for a in op["command"][1:] if a.endswith(".json")]
    data = [mio.load_json(p) for p in paths]
    if kind == "interval-di":
        return [mio.parse_module(x)[0] for x in data]
    if kind in ("gmd", "dmatch"):
        return []
    return [mio.parse_module(x) for x in data]


class Checker:
    """Checks every output of a run.  Inputs and cost profiles are parsed
    once per operation, and each distinct output is checked once."""

    def __init__(self, ops):
        self.ops = {op["id"]: op for op in ops}
        self.inputs = {}
        self.profiles = {}
        self.verdicts = {}
        self.latest = {}  # latest stdout per operation, for the dmatch check

    def check(self, op_id, stdout):
        op = self.ops[op_id]
        partner = self.latest.get(op["meta"].get("gmd_op"))
        self.latest[op_id] = stdout
        key = (op_id, stdout, partner)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self._check(op, stdout, partner)
            except Exception as e:  # a malformed report is a failed check
                self.verdicts[key] = ["checker raised %s: %s" % (type(e).__name__, e)]
        return self.verdicts[key]

    def _check(self, op, stdout, partner):
        out = json.loads(stdout)
        kind = op["meta"]["kind"]
        if op["id"] not in self.inputs:
            self.inputs[op["id"]] = load_inputs(op)
        args = self.inputs[op["id"]]
        if kind == "interval-di":
            return check_interval_di(args[0], args[1], out)
        if kind.startswith("bottleneck"):
            if op["id"] not in self.profiles:
                self.profiles[op["id"]] = cost_profile(*args)
            return check_bottleneck(args[0], args[1], out, self.profiles[op["id"]])
        if kind == "rect-approx":
            return check_rect_approx(args[0], out)
        if kind == "lower-bound":
            return check_lower_bound(out)
        if kind == "gmd":
            return check_gmd(out)
        if kind == "dmatch":
            gmd_out = json.loads(partner) if partner else None
            return check_dmatch(out, ext(op["meta"]["delta"]), gmd_out)
        raise ValueError("no checker for %r" % kind)
