"""Command line interface.

Subcommands: interval-di, rect-approx, bottleneck, lower-bound, gmd, dmatch,
generate.  Reports go to stdout as JSON (default) or CSV; inputs are JSON
files, with "-" reading stdin where a single input is expected.

The command line is read against one table, _SPEC: a plain argv straight
from the table, which keeps argparse out of start-up, and every other argv
by argparse, built from the same table (see _parse).

Exit codes: 0 success (and -h), 1 stdout was closed before the report was
written, 2 parse error or usage error (a bad command line, reported with a
usage line), 3 validation error, 4 precondition failure.
"""

import gc
import json
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import bottleneck as bn
from . import generate as gen
from . import io as mio
from .gmd import (_sample_intercepts, anchors, default_directions,
                  dmatch_sampled, gmd)
from .errors import ParseError, PreconditionError, ValidationError
from .interleaving import di_decision, di_interval
from .rect_approx import construction1, optimal_rectangle
from .scalars import fmt, is_inf


# subcommand -> (help, positionals, options).  An option maps to (default,
# kind): kind is the value's converter (int or str), a tuple of its
# choices, or None for a flag, which is False unless given.
_OUTPUT = {"--output": ("json", ("json", "csv"))}
_PAIR = ("pathA", "pathB")
_SPEC = {
    "interval-di": ("interleaving distance of two intervals", _PAIR,
                    {"--explain": (False, None), **_OUTPUT}),
    "rect-approx": ("rectangle approximation of a module", ("path",),
                    {"--method": ("optimal", ("construction1", "optimal")),
                     **_OUTPUT}),
    "bottleneck": ("bottleneck distance of two modules", _PAIR, _OUTPUT),
    "lower-bound": ("certified lower bound on the interleaving distance",
                    _PAIR, _OUTPUT),
    "gmd": ("sampled matching-distance estimate of two presentations",
            _PAIR, {"--directions": (16, int), "--alpha": (None, str),
                    "--explain": (False, None), **_OUTPUT}),
    "dmatch": ("sampled matching distance of two presentations", _PAIR,
               {"--directions": (16, int), **_OUTPUT}),
    "generate": ("write a random instance to stdout", (),
                 {"--kind": ("staircase",
                             ("staircase", "rectangles", "presentation")),
                  "--seed": (0, int), "--size": (6, int), **_OUTPUT}),
}


def _parse(argv=None):
    """Read argv (default sys.argv[1:]) against _SPEC.  The table reads a
    plain argv: the subcommand, then its positionals and options in any
    order, where a positional is "-" or a token not starting with "-",
    and an option is a full name, as "--opt value" (the value not
    starting with "-"), "--opt=value" or a bare flag; the last of a
    repeated option wins.  Every other argv (help, a prefix, "--", a value
    starting with "-", any usage error) goes to argparse, built from the
    same table: -h prints help and exits 0, and a usage error prints the
    usage and the reason to stderr and exits 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _plain(argv) or _argparse(argv)


def _plain(argv):
    """The namespace of a plain argv, or None for argparse to read it."""
    spec = _SPEC.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, positionals, options = spec
    args = SimpleNamespace(command=argv[0])
    for name, (default, _) in options.items():
        setattr(args, name[2:], default)
    got = []
    rest = iter(argv[1:])
    for tok in rest:
        if tok[:1] != "-" or tok == "-":
            got.append(tok)
            continue
        name, eq, value = tok.partition("=")
        if name not in options:
            return None
        kind = options[name][1]
        if kind is None:
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(rest, "-")
                if value[:1] == "-":
                    return None
            if isinstance(kind, tuple):
                if value not in kind:
                    return None
            else:
                try:
                    value = kind(value)
                except ValueError:
                    return None
        setattr(args, name[2:], value)
    if len(got) != len(positionals):
        return None
    vars(args).update(zip(positionals, got))
    return args


def _argparse(argv):
    # imported here: argparse, gettext and locale cost every call start-up
    # time, and a plain argv never needs them
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(2, "stairdist: error: %s\n" % message)

    class Store(argparse.Action):
        # argparse (3.11's among others) drops a "--" given as a value and
        # passes []: read it as the literal "--", as the table path does
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = "--"
                if self.choices or self.type is int:
                    parser.error("argument %s: invalid value: '--'"
                                 % option_string)
            setattr(namespace, self.dest, values)

    def unwrapped(prog):
        # the usage on one line, whatever the terminal width
        return argparse.HelpFormatter(prog, width=sys.maxsize)

    top = Parser(prog="stairdist", formatter_class=unwrapped)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (text, positionals, options) in _SPEC.items():
        p = sub.add_parser(command, help=text, description=text,
                           formatter_class=unwrapped)
        for name in positionals:
            p.add_argument(name, action=Store)
        for name, (default, kind) in options.items():
            if kind is None:
                p.add_argument(name, action="store_true")
            elif isinstance(kind, tuple):
                p.add_argument(name, choices=kind, default=default,
                               action=Store)
            else:
                p.add_argument(name, type=kind, default=default, action=Store)
    return top.parse_args(argv)


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
    args = _parse(argv)
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


def run():
    """The process's entry point (main(argv) is the in-process API): exit
    with main()'s code, the heap frozen first.  gc.freeze() moves every
    live object to the permanent generation, which the collections at
    interpreter exit skip.  Nothing observable changes: no stairdist object
    has a finalizer, the interpreter still flushes stdout and stderr, and
    atexit handlers (profilers, coverage) still run.  A closed stdout exits
    1 with one line on stderr, not a traceback."""
    try:
        try:
            sys.exit(main())
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("stairdist: stdout was closed before the report was written",
              file=sys.stderr)
        sys.exit(1)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
