"""Seeded input generator for the stairdist CLI benchmark.

Every workload is a fixed list of operations on a fixed corpus of shapes,
drawn once from the corpus stream below.  The seed translates each
operation's inputs along the diagonal, so every seed gives new coordinates
and the same work.
Inputs are written as JSON with stairdist.io.serialize_*, and the CLI
receives only these files.

Run directly to write one workload's inputs and print its operations:

    python3 stairbench/inputs.py --workload gmd --seed 3 --out /tmp/in
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import checkout

checkout.use_src()

from stairdist import generate as gen
from stairdist import io as mio
from stairdist.errors import ValidationError
from stairdist.geometry import StaircaseInterval, point
from stairdist.gmd import validate_presentation

# Operation lists per workload, as (kind, size parameters).  Each has an
# odd number of operations so that the median operation time is one
# operation's time rather than the mean of two unlike ones.
WORKLOADS = {
    # A few large di_interval calls on bounded k-corner staircases, plus
    # bottleneck on n x n random rectangles (pairwise di_interval) and on
    # mixed rectangle/staircase modules (some pairs take the closed form).
    "interval": [("interval-di", {"k": k}) for k in (4, 16, 24, 32, 32)] + [
        ("bottleneck-rects", {"n": 20}),
        ("bottleneck-mixed", {"rects": 6, "stairs": 6, "size": 8}),
    ],
    # The optimal-rectangle cell search with its exact LPs, on thin and
    # wide staircases given as (mins, maxs, thin); m x n corners give
    # 2(m + n) - 1 diagonal bands, here 7, 9 and 11.  The midpoint
    # construction is optimal on the wide ones and on only some of the thin
    # ones.  Plus lower-bound on small random modules.
    "rectapprox": [
        ("rect-approx", {"summands": [(2, 2, True), (2, 2, False)]}),
        ("rect-approx", {"summands": [(2, 3, True)]}),
        ("rect-approx", {"summands": [(3, 3, False)]}),
        ("lower-bound", {"summands": 3, "size": 5}),
        ("lower-bound", {"summands": 3, "size": 5}),
    ],
    # gmd and dmatch on a presentation against a copy whose grades move by
    # at most DELTA: thousands of small di_interval calls on hooks and
    # quadrants per operation, some of them repeated.  "gmd+dmatch" is two
    # operations on the same pair.
    "gmd": [("gmd", {"size": 4}), ("gmd+dmatch", {"size": 5}),
            ("gmd+dmatch", {"size": 6})],
}

GMD_DIRECTIONS = 8
DELTA = Fraction(1)  # l-infinity bound on the grade perturbation


def _half(rng, lo, hi):
    """A random multiple of 1/2 in [lo, hi]."""
    return Fraction(rng.randint(int(2 * lo), int(2 * hi)), 2)


def _chain(rng, k, x0, y0):
    """k points with x strictly increasing and y strictly decreasing."""
    steps = [(_half(rng, 1, 2), _half(rng, 1, 2)) for _ in range(k)]
    x, y = Fraction(x0), Fraction(y0) + sum(s[1] for s in steps)
    out = []
    for dx, dy in steps:
        out.append((x, y))
        x, y = x + dx, y - dy
    return out


def k_corner_staircase(rng, k):
    """A bounded staircase with k minimal and k maximal corners.

    The maximal corners are the minimal ones moved up-right by a common
    offset plus a jitter of at most 1/2 per axis, so the chains stay
    antichains and every minimal corner stays dominated.
    """
    mins = _chain(rng, k, 0, 0)
    off = _half(rng, 3, 6)
    maxs = [(x + off + _half(rng, 0, 0.5), y + off + _half(rng, 0, 0.5))
            for x, y in mins]
    return StaircaseInterval.from_antichains([point(*p) for p in mins],
                                             [point(*p) for p in maxs])


def banded_staircase(rng, nmins, nmaxs, thin=True):
    """A bounded staircase with nmins minimal and nmaxs maximal corners
    whose corner intercepts are pairwise distinct, so that its diagonal
    band count depends on the corner counts only.  On thin shapes the
    midpoint construction misses the optimum on about half of the draws;
    on wide ones it rarely does."""
    while True:
        mins = _chain(rng, nmins, 0, 0)
        maxs = _chain(rng, nmaxs, _half(rng, 0, 2), _half(rng, 0, 2))
        gap = max(max(v[0] for v in mins) - max(w[0] for w in maxs),
                  max(v[1] for v in mins) - max(w[1] for w in maxs))
        off = max(gap, Fraction(0)) + (_half(rng, 0.5, 1) if thin
                                       else _half(rng, 2, 4))
        maxs = [(x + off, y + off) for x, y in maxs]
        inner_lo = [(b[0], a[1]) for a, b in zip(mins, mins[1:])]
        inner_hi = [(a[0], b[1]) for a, b in zip(maxs, maxs[1:])]
        cs = [y - x for x, y in mins + maxs + inner_lo + inner_hi]
        if len(set(cs)) != len(cs):
            continue
        try:
            return StaircaseInterval.from_antichains(
                [point(*p) for p in mins], [point(*p) for p in maxs])
        except ValidationError:
            continue


def _incomparable_joins(grades):
    joins = set()
    for i, u in enumerate(grades):
        for v in grades[i + 1:]:
            if (u[0] <= v[0] and u[1] <= v[1]) or (v[0] <= u[0] and v[1] <= u[1]):
                continue
            joins.add((max(u[0], v[0]), max(u[1], v[1])))
    return joins


def _anchor_diagonals(*presentations):
    """Distinct intercepts of the joins of incomparable grade pairs.

    Counted here rather than with stairdist.gmd.anchors, so that which
    inputs get drawn does not depend on the code being measured."""
    cs = set()
    for rows, cols in presentations:
        for grades in (rows, cols):
            cs.update(y - x for x, y in _incomparable_joins(grades))
    return len(cs)


def perturbed_presentation(rng, size):
    """(P, Q): a random presentation and a copy with the same matrix whose
    generator grades move down and relation grades move up by at most DELTA
    per axis.  Every entry keeps row grade <= column grade, so Q is valid
    and the two modules are DELTA-interleaved.

    P has size - 2 relations, and the pair induces between size and
    2 * size anchor diagonals; draws outside that shape are skipped.
    """
    while True:
        P = gen.random_presentation(rng, size)
        if len(P.col_grades) != size - 2:
            continue
        rows = [(u.x1 - _half(rng, 0, DELTA), u.x2 - _half(rng, 0, DELTA))
                for u in P.row_grades]
        cols = [(u.x1 + _half(rng, 0, DELTA), u.x2 + _half(rng, 0, DELTA))
                for u in P.col_grades]
        bands = _anchor_diagonals(
            ([tuple(u) for u in P.row_grades], [tuple(u) for u in P.col_grades]),
            (rows, cols))
        if size <= bands <= 2 * size:
            return P, validate_presentation(rows, cols, P.nonzeros)


def write_json(out_dir, name, obj):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def corpus_item(rng, kind, p):
    """The objects one operation reads, drawn from the corpus stream."""
    if kind == "interval-di":
        return [k_corner_staircase(rng, p["k"]), k_corner_staircase(rng, p["k"])]
    if kind == "bottleneck-rects":
        return [gen.random_rectangles(rng, p["n"]), gen.random_rectangles(rng, p["n"])]
    if kind == "bottleneck-mixed":
        return [gen.random_rectangles(rng, p["rects"])
                + [gen.random_staircase(rng, p["size"]) for _ in range(p["stairs"])]
                for _ in range(2)]
    if kind == "rect-approx":
        return [[banded_staircase(rng, *shape) for shape in p["summands"]]]
    if kind == "lower-bound":
        return [[gen.random_staircase(rng, p["size"]) for _ in range(p["summands"])]
                for _ in range(2)]
    if kind in ("gmd", "gmd+dmatch"):
        return list(perturbed_presentation(rng, p["size"]))
    raise ValueError("unknown operation kind %r" % (kind,))


def _mover(rng):
    """A translation of the plane along the diagonal by a whole number t in
    [1000, 2000].  Distances between translated objects equal those between
    the originals, and diagonal intercepts do not move, so neither does the
    order in which the optimal-rectangle search visits its cells.

    Along the diagonal and far out, so that the work does not move either:
    the interleaving search takes as candidates the differences (and their
    halves) of a set that mixes intercepts, which stay, with x and y
    coordinates, which move by t.  Each corpus operation spans less than
    200 in every coordinate, so for t > 1000 the differences between kinds
    stay apart from those within a kind, and the number of distinct
    candidates is the same on every seed (translations near the origin let
    them coincide by chance, which moved one operation's work by up to 22%
    between seeds).  (Swapping the axes also keeps every distance but
    reverses the intercept order; the optimal-rectangle search then visits
    its cells in another order, and one corpus module needed 574 LPs one
    way and 303 the other.)"""
    t = Fraction(rng.randint(1000, 2000))
    return lambda p: (p[0] + t, p[1] + t)


def _moved(obj, move):
    if isinstance(obj, list):
        return [_moved(x, move) for x in obj]
    if isinstance(obj, StaircaseInterval):
        return StaircaseInterval.from_antichains(
            [point(*move(v)) for v in obj.mins], [point(*move(w)) for w in obj.maxs])
    return validate_presentation([move(u) for u in obj.row_grades],
                                 [move(u) for u in obj.col_grades], obj.nonzeros)


def generate(workload, seed, out_dir):
    """Write the workload's inputs for this seed; return its operations.

    The shapes come from a fixed corpus stream; the seed picks, per
    operation, the translation applied to them (see _mover).  Each operation
    is a dict with "id", "command" (the CLI arguments) and "meta" (what the
    checkers need beyond the input files).
    """
    shapes = random.Random("corpus:%s" % workload)
    moves = random.Random("%s:%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    ops = []
    for idx, (kind, p) in enumerate(WORKLOADS[workload]):
        tag = "op%02d" % idx
        move = _mover(moves)
        objs = _moved(corpus_item(shapes, kind, p), move)
        if kind in ("gmd", "gmd+dmatch"):
            files = [write_json(out_dir, "%s_%s.json" % (tag, name),
                                mio.serialize_presentation(P))
                     for name, P in zip("PQ", objs)]
            flags = ["--directions", str(GMD_DIRECTIONS)]
            ops.append({"id": tag + "g", "command": ["gmd"] + files + flags,
                        "meta": {"kind": "gmd", "delta": str(DELTA)}})
            if kind == "gmd+dmatch":
                ops.append({"id": tag + "d", "command": ["dmatch"] + files + flags,
                            "meta": {"kind": "dmatch", "delta": str(DELTA),
                                     "gmd_op": tag + "g"}})
            continue
        serialize = (mio.serialize_interval if kind == "interval-di"
                     else mio.serialize_module)
        files = [write_json(out_dir, "%s_%s.json" % (tag, name), serialize(x))
                 for name, x in zip("AB", objs)]
        command = [kind.split("-")[0] if kind.startswith("bottleneck") else kind]
        command += files
        if kind == "rect-approx":
            command += ["--method", "optimal"]
        ops.append({"id": tag, "command": command, "meta": {"kind": kind}})
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    for op in generate(args.workload, args.seed, args.out):
        print(json.dumps(op))
    return 0


if __name__ == "__main__":
    sys.exit(main())
