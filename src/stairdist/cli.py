"""Command line interface.

Subcommands: interval-di, rect-approx, bottleneck, lower-bound, gmd, dmatch,
generate.  Reports go to stdout as JSON (default) or CSV; inputs are JSON
files, with "-" reading stdin where a single input is expected.

Exit codes: 0 success (and -h), 1 stdout was closed before the report was
written, 2 parse error or usage error (a bad command line, reported with a
usage line), 3 validation error, 4 precondition failure.
"""

import gc
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
_HELP = ("-h", "--help")
# a token shaped like a negative number is a value, never an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
_END = ("--", None)  # how _parse_command reads the first "--"


def _usage(command):
    if command is None:
        return "usage: stairdist [-h] {%s} ..." % ",".join(_SPEC)
    _, positionals, options = _SPEC[command]
    return " ".join(["usage: stairdist", command, "[-h]"]
                    + ["[%s]" % _form(name, kind)
                       for name, (_, kind) in options.items()]
                    + list(positionals))


def _form(name, kind):
    if kind is None:
        return name
    if isinstance(kind, tuple):
        return "%s {%s}" % (name, ",".join(kind))
    return "%s %s" % (name, name[2:].upper())


def _help(command):
    lines = [_usage(command), ""]
    if command is None:
        lines.append("commands:")
        lines += ["  %-12s %s" % (c, spec[0]) for c, spec in _SPEC.items()]
    else:
        text, _, options = _SPEC[command]
        lines += [text, "", "options:"]
        lines += ["  " + _form(name, kind)
                  + ("" if kind is None or default is None
                     else " (default: %s)" % default)
                  for name, (default, kind) in options.items()]
    print("\n".join(lines))
    sys.exit(0)


def _fail(command, reason):
    print(_usage(command), file=sys.stderr)
    print("stairdist: error: %s" % reason, file=sys.stderr)
    sys.exit(2)


def _read(tok, names, command):
    """A token before the first "--": None for a positional, else (option,
    value after "=" or None), the option None when unknown.  A long option
    may be cut to a unique prefix; "-h" may carry more "h"s."""
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    head, eq, value = tok.partition("=")
    if eq and head in names:
        return head, value
    if tok[1] == "-":
        hits = [n for n in names if n.startswith(head)]
        if len(hits) > 1:
            _fail(command, "ambiguous option: %s could match %s"
                  % (tok, ", ".join(hits)))
        if hits:
            return hits[0], value if eq else None
    elif tok.startswith("-h"):
        return "-h", tok[2:]
    if _NEGATIVE.match(tok) or " " in tok:
        return None
    return None, None


def _take_help(name, value, command):
    # "-hh" is help twice; any other value on a flag is an error
    if value is not None and (name == "--help" or not value
                              or value.strip("h")):
        _fail(command, "argument %s: ignored explicit argument %r"
              % (name, value))
    _help(command)


def _parse(argv=None):
    """Read argv (default sys.argv[1:]) against _SPEC: the subcommand, then
    its positionals and options in any order.  Options take "--opt value"
    or "--opt=value", "--" ends them, and the last of a repeated option
    wins.  -h prints help and exits 0; a usage error prints the usage and
    the reason to stderr and exits 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = []
    for i, tok in enumerate(argv):
        got = None if tok == "--" else _read(tok, _HELP, None)
        if got is None:
            break
        if got[0] is None:
            extras.append(tok)
        else:
            _take_help(*got, None)
    else:
        _fail(None, "the following arguments are required: command")
    if argv[i] not in _SPEC:
        _fail(None, "invalid command %r (choose from %s)"
              % (argv[i], ", ".join(_SPEC)))
    return _parse_command(argv[i], argv[i + 1:], extras)


def _parse_command(command, argv, extras):
    _, positionals, options = _SPEC[command]
    names = _HELP + tuple(options)
    end = argv.index("--") if "--" in argv else len(argv)
    reads = [_read(tok, names, command) for tok in argv[:end]]
    if end < len(argv):
        reads += [_END] + [None] * (len(argv) - end - 1)
    args = SimpleNamespace(command=command)
    for name, (default, _) in options.items():
        setattr(args, name[2:], default)
    got, last = [], None  # positional values, index of the last taken
    i = 0
    while i < len(argv):
        tok, read = argv[i], reads[i]
        i += 1
        if read is None:
            if len(got) < len(positionals):
                got.append(tok)
                last = i - 1
            else:
                extras.append(tok)
            continue
        if read is _END:
            # "--" is dropped only next to a positional that it leads to
            # or that it ends
            if len(got) == len(positionals) and last != i - 2:
                extras.append(tok)
            continue
        name, value = read
        if name is None:
            extras.append(tok)
            continue
        if name in _HELP:
            _take_help(name, value, command)
        kind = options[name][1]
        if kind is None:
            if value is not None:
                _fail(command, "argument %s: ignored explicit argument %r"
                      % (name, value))
            setattr(args, name[2:], True)
            continue
        if value is None:
            if i == len(argv) or reads[i] is not None:
                _fail(command, "argument %s: expected one argument" % name)
            value = argv[i]
            i += 1
        if isinstance(kind, tuple):
            if value not in kind:
                _fail(command, "argument %s: invalid choice: %r (choose "
                      "from %s)" % (name, value, ", ".join(kind)))
        else:
            try:
                value = kind(value)
            except ValueError:
                _fail(command, "argument %s: invalid %s value: %r"
                      % (name, kind.__name__, value))
        setattr(args, name[2:], value)
    if len(got) < len(positionals):
        _fail(command, "the following arguments are required: %s"
              % ", ".join(positionals[len(got):]))
    if extras:
        _fail(command, "unrecognized arguments: %s" % " ".join(extras))
    for name, value in zip(positionals, got):
        setattr(args, name, value)
    return args


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
