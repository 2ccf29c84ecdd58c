"""Command line interface.

Subcommands: interval-di, rect-approx, bottleneck, lower-bound, gmd, dmatch,
generate.  Reports go to stdout as JSON (default) or CSV; inputs are JSON
files, with "-" reading stdin where a single input is expected.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 precondition
failure.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from . import bottleneck as bn
from . import generate as gen
from . import io as mio
from .gmd import (_sample_intercepts, anchors, default_directions,
                  dmatch_sampled, gmd)
from .errors import ParseError, PreconditionError, ValidationError
from .geometry import point
from .interleaving import di_decision, di_interval
from .rect_approx import construction1, optimal_rectangle
from .scalars import fmt, is_inf


def _parser():
    p = argparse.ArgumentParser(prog="stairdist")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", choices=("json", "csv"), default="json")

    sp = sub.add_parser("interval-di", help="interleaving distance of two intervals")
    sp.add_argument("pathA")
    sp.add_argument("pathB")
    sp.add_argument("--explain", action="store_true")
    common(sp)

    sp = sub.add_parser("rect-approx", help="rectangle approximation of a module")
    sp.add_argument("path")
    sp.add_argument("--method", choices=("construction1", "optimal"),
                    default="optimal")
    common(sp)

    for name in ("bottleneck", "lower-bound"):
        sp = sub.add_parser(name)
        sp.add_argument("pathA")
        sp.add_argument("pathB")
        common(sp)

    for name in ("gmd", "dmatch"):
        sp = sub.add_parser(name)
        sp.add_argument("pathA")
        sp.add_argument("pathB")
        sp.add_argument("--directions", type=int, default=16)
        if name == "gmd":
            sp.add_argument("--alpha", type=str, default=None)
            sp.add_argument("--explain", action="store_true")
        common(sp)

    sp = sub.add_parser("generate", help="write a random instance to stdout")
    sp.add_argument("--kind", choices=("staircase", "rectangles", "presentation"),
                    default="staircase")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=6)
    common(sp)
    return p


def _emit(report, output):
    if output == "csv":
        lines = ["key,value"]
        for k, v in _flatten(report):
            lines.append("%s,%s" % (k, v))
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        if set(obj) == {"exact", "decimal"}:
            yield prefix, _csv_num(obj["decimal"])
            return
        for k in sorted(obj):
            yield from _flatten(obj[k], prefix + ("." if prefix else "") + str(k))
    elif isinstance(obj, list):
        yield prefix, json.dumps(obj)
    else:
        yield prefix, obj


def _csv_num(v):
    if isinstance(v, float):
        return "%.12g" % v
    return v


def _pair_list(pairs):
    return [[i, j] for i, j in pairs]


def _rect_json(rect):
    if rect.is_zero:
        return None
    return [mio.point_json(rect.r), mio.point_json(rect.s)]


def cmd_interval_di(args):
    A = mio.parse_module(mio.load_json(args.pathA))
    B = mio.parse_module(mio.load_json(args.pathB))
    if len(A) != 1 or len(B) != 1:
        raise ValidationError("interval-di expects single-interval modules")
    d = di_interval(A[0], B[0])
    report = {"delta": mio.num(d)}
    if args.explain:
        probe = d if not is_inf(d) else Fraction(0)
        dec = di_decision(A[0], B[0], probe)
        report["report"] = {
            "delta": mio.num(dec.delta),
            "accepted": dec.accepted,
            "diag_distance": mio.num(dec.diag_distance),
            "reason": dec.reason,
            "checks": [[str(tag), fmt(dp), str(kind)]
                       for tag, dp, kind in dec.checks],
        }
    return report


def cmd_rect_approx(args):
    M = mio.parse_module(mio.load_json(args.path))
    fn = construction1 if args.method == "construction1" else optimal_rectangle
    results = [fn(s) for s in M]
    eps = max((r.epsilon for r in results), default=Fraction(0))
    report = {
        "summands": [{"rect": _rect_json(r.rect), "epsilon": mio.num(r.epsilon)}
                     for r in results],
        "epsilon": mio.num(eps),
    }
    if len(results) == 1:
        report["rect"] = _rect_json(results[0].rect)
    return report


def cmd_bottleneck(args):
    M = mio.parse_module(mio.load_json(args.pathA))
    N = mio.parse_module(mio.load_json(args.pathB))
    res = bn.bottleneck_distance(M, N)
    return {
        "d_B": mio.num(res.delta),
        "matching": _pair_list(res.pairs),
        "unmatched_M": [[i, fmt(t)] for i, t in res.unmatched_m],
        "unmatched_N": [[j, fmt(t)] for j, t in res.unmatched_n],
    }


def cmd_lower_bound(args):
    M = mio.parse_module(mio.load_json(args.pathA))
    N = mio.parse_module(mio.load_json(args.pathB))
    rep = bn.interleaving_lower_bound(M, N)
    return {
        "d_B": mio.num(rep.d_b),
        "eps_star_M": mio.num(rep.eps_star_m),
        "eps_star_N": mio.num(rep.eps_star_n),
        "d_B_approx": mio.num(rep.d_b_approx),
        "raw": mio.num(rep.raw),
        "lower_bound": mio.num(rep.lower_bound),
        "matching": _pair_list(rep.matching.pairs),
    }


def _band_json(C):
    return [fmt(C.lo), fmt(C.hi)]


def cmd_gmd(args):
    P = mio.parse_presentation(mio.load_json(args.pathA))
    Q = mio.parse_presentation(mio.load_json(args.pathB))
    alpha = mio.parse_scalar(args.alpha) if args.alpha is not None else None
    rep = gmd(P, Q, directions=args.directions, alpha=alpha)
    report = {
        "value": mio.num(rep.value),
        "direction": None if rep.direction is None
        else [fmt(rep.direction[0]), fmt(rep.direction[1])],
        "band": None if rep.band is None else _band_json(rep.band),
        "epsilon": mio.num(rep.epsilon),
        "bands": len(rep.covering.bands),
    }
    if args.explain:
        report["table"] = [
            {"direction": [fmt(a[0]), fmt(a[1])], "band": _band_json(C),
             "value": mio.num(v)}
            for a, C, v in rep.table]
    return report


def cmd_dmatch(args):
    P = mio.parse_presentation(mio.load_json(args.pathA))
    Q = mio.parse_presentation(mio.load_json(args.pathB))
    dirs = default_directions((P, Q), args.directions)
    cov = anchors((P, Q))
    cs = _sample_intercepts(cov, (P, Q))
    val = dmatch_sampled(P, Q, dirs, cs)
    return {"value": mio.num(val), "directions": len(dirs),
            "intercepts": len(cs)}


def cmd_generate(args):
    if not 0 < args.size <= gen.MAX_SIZE:
        raise ValidationError("--size must lie in [1, %d], got %d"
                              % (gen.MAX_SIZE, args.size))
    rng = random.Random(args.seed)
    if args.kind == "staircase":
        inst = mio.serialize_module([gen.random_staircase(rng, args.size)])
    elif args.kind == "rectangles":
        inst = mio.serialize_module(gen.random_rectangles(rng, args.size))
    else:
        inst = mio.serialize_presentation(gen.random_presentation(rng, args.size))
    return inst


_COMMANDS = {
    "interval-di": cmd_interval_di,
    "rect-approx": cmd_rect_approx,
    "bottleneck": cmd_bottleneck,
    "lower-bound": cmd_lower_bound,
    "gmd": cmd_gmd,
    "dmatch": cmd_dmatch,
    "generate": cmd_generate,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except ValidationError as e:
        print("validation error: %s" % e, file=sys.stderr)
        return 3
    except PreconditionError as e:
        print("precondition failed: %s" % e, file=sys.stderr)
        return 4
    _emit(report, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
