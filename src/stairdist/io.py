"""JSON (de)serialization for modules and presentations.

Numbers are accepted as integers, decimals, or exact "p/q" strings, with
"inf"/"-inf" for the infinities.  Output always carries the exact rational
form; reports add a float alongside for spreadsheet use.
"""

import json
import math
import sys

from .errors import ParseError
from .geometry import Point2, StaircaseInterval, chains_interval
from .gmd import GradedMatrix, graded_presentation
from .scalars import ext, fmt, is_inf


# decimal digits a numeral may spell out, exponent included: "1e2000000"
# would otherwise become a 6.6-million-bit integer
MAX_DIGITS = 1000


def _numeral_digits(v):
    """Decimal digits needed to write the exact value of a JSON number or
    a numeral string: its digits plus the size of its exponent."""
    s = str(v)
    digits = sum(ch.isdigit() for ch in s)
    _, e, exp = s.lower().partition("e")
    exp = exp.strip().lstrip("+-")
    if e and exp.isdigit() and digits <= MAX_DIGITS:
        digits += int(exp)
    return digits


def parse_scalar(v):
    """An extended real from a JSON value or a CLI string.

    JSON floats must be finite, and infinity is written as the string "inf"
    or "-inf", so an overflowing literal such as 1e999 is an error rather
    than an infinite coordinate.  Numerals needing more than MAX_DIGITS
    decimal digits are rejected.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ParseError("bad number %r: JSON numbers must be finite; "
                         'write "inf" or "-inf" for infinity' % (v,))
    if isinstance(v, (int, float, str)) and _numeral_digits(v) > MAX_DIGITS:
        raise ParseError("bad number %s...: more than %d digits"
                         % (str(v)[:20], MAX_DIGITS))
    try:
        return ext(v)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError("bad number %r: %s" % (v, e))


def _parse_points(obj, what):
    if not isinstance(obj, list) or not obj:
        raise ParseError("%s must be a non-empty list of [x, y] pairs" % what)
    pts = []
    for p in obj:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise ParseError("%s entry %r is not an [x, y] pair" % (what, p))
        pts.append(Point2(parse_scalar(p[0]), parse_scalar(p[1])))
    return pts


def parse_interval(obj) -> StaircaseInterval:
    if not isinstance(obj, dict) or "lower" not in obj or "upper" not in obj:
        raise ParseError('an interval needs "lower" and "upper" vertex lists')
    lower = _parse_points(obj["lower"], "lower")
    upper = _parse_points(obj["upper"], "upper")
    return chains_interval(lower, upper)


def parse_module(obj):
    """A decomposable module: {"summands": [...]} or a bare interval."""
    if isinstance(obj, dict) and "summands" in obj:
        if not isinstance(obj["summands"], list):
            raise ParseError('"summands" must be a list')
        return [parse_interval(s) for s in obj["summands"]]
    return [parse_interval(obj)]


def parse_presentation(obj) -> GradedMatrix:
    if not isinstance(obj, dict):
        raise ParseError("a presentation must be a JSON object")
    for key in ("row_grades", "col_grades", "nonzeros"):
        if key not in obj:
            raise ParseError('presentation is missing "%s"' % key)
        if not isinstance(obj[key], list):
            raise ParseError('presentation "%s" must be a list' % key)
    rows = _parse_points(obj["row_grades"], "row_grades") \
        if obj["row_grades"] else []
    cols = _parse_points(obj["col_grades"], "col_grades") \
        if obj["col_grades"] else []
    if not rows:
        raise ParseError("a presentation needs at least one generator")
    nz = set()
    for e in obj["nonzeros"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ParseError("nonzero entry %r is not an [i, j] pair" % (e,))
        if not all(isinstance(k, int) and not isinstance(k, bool)
                   for k in e):
            raise ParseError("nonzero entry %r is not an index pair" % (e,))
        nz.add(tuple(e))
    return graded_presentation(rows, cols, nz)


def load_json(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # a huge int; deep nesting
        raise ParseError("malformed JSON in %s: %s" % (path, e))


def point_json(p):
    return [fmt(p.x1), fmt(p.x2)]


def serialize_interval(I: StaircaseInterval):
    return {"lower": [point_json(v) for v in I.mins],
            "upper": [point_json(w) for w in I.maxs]}


def serialize_module(summands):
    return {"summands": [serialize_interval(s) for s in summands]}


def serialize_presentation(P: GradedMatrix):
    return {"row_grades": [point_json(u) for u in P.row_grades],
            "col_grades": [point_json(u) for u in P.col_grades],
            "nonzeros": sorted([i, j] for i, j in P.nonzeros)}


def num(x):
    """Exact string plus decimal rendering of a scalar for reports."""
    if is_inf(x):
        return {"exact": fmt(x), "decimal": fmt(x)}
    return {"exact": fmt(x), "decimal": float(x)}
