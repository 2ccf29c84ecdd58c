import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from stairdist import cli
from stairdist import generate as gen
from stairdist import io as mio
from stairdist.cli import main
from stairdist.generate import random_presentation, random_staircase
from stairdist.geometry import point

import golden_cli
from conftest import square
from oracles import cli_parser_oracle

SQ04 = {"lower": [[0, 0]], "upper": [[4, 4]]}
SQ13 = {"lower": [[1, 1]], "upper": [[3, 3]]}
THICK_L = {"lower": [[0, 0]], "upper": [[3, 4], [4, 3]]}
THIN_L = {"lower": [[0, 0]], "upper": [[1, 3], [3, 1]]}
QUAD0 = {"row_grades": [[0, 0]], "col_grades": [], "nonzeros": []}
QUAD1 = {"row_grades": [[1, 1]], "col_grades": [], "nonzeros": []}


@pytest.fixture
def run(tmp_path, capsys):
    def go(command, *inputs, args=(), code=0):
        paths = []
        for k, obj in enumerate(inputs):
            p = tmp_path / ("in%d.json" % k)
            p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
            paths.append(str(p))
        rc = main([command] + paths + list(args))
        out, err = capsys.readouterr()
        assert rc == code
        if code:
            return err
        return json.loads(out) if out else out

    return go


class TestIntervalDi:
    def test_nested_squares(self, run):
        rep = run("interval-di", SQ04, SQ13)
        assert rep["delta"] == {"exact": "1", "decimal": 1.0}

    def test_identical(self, run):
        rep = run("interval-di", THICK_L, THICK_L)
        assert rep["delta"]["exact"] == "0"

    def test_explain(self, run):
        rep = run("interval-di", SQ04, SQ13, args=["--explain"])
        assert rep["report"]["accepted"] is True
        assert rep["report"]["diag_distance"]["exact"] == "1"

    def test_malformed_json(self, run):
        run("interval-di", "{not json", SQ13, code=2)

    def test_bad_interval(self, run):
        bad = {"lower": [[3, 3]], "upper": [[1, 1]]}
        run("interval-di", bad, SQ13, code=3)

    def test_multi_summand_rejected(self, run):
        two = {"summands": [SQ04, SQ13]}
        run("interval-di", two, SQ13, code=3)


@pytest.mark.parametrize("command, inputs", [
    ("rect-approx", ["[" * 1000 + "]" * 1000]),
    ("interval-di", ["[" * 100000, SQ13])], ids=["closed", "unclosed"])
def test_deep_nesting_is_a_parse_error(run, command, inputs):
    # json.loads raises RecursionError past the interpreter's limit (from
    # Python 3.12 the 1,000-deep list loads and fails as a module instead)
    err = run(command, *inputs, code=2)
    assert err.startswith("parse error: ") and err.count("\n") == 1


class TestNumberGuards:
    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "Infinity",
                                         "-Infinity", "NaN"])
    def test_non_finite_json_float(self, run, literal):
        text = '{"lower": [[0, 0]], "upper": [[%s, 4]]}' % literal
        assert "finite" in run("interval-di", text, SQ13, code=2)

    def test_inf_string_still_accepted(self, run):
        quad = {"lower": [[0, 0]], "upper": [["inf", "inf"]]}
        rep = run("interval-di", quad, quad)
        assert rep["delta"]["exact"] == "0"

    @pytest.mark.parametrize("literal", ['"1e2000000"', '"1e-2000000"',
                                         '"1/1%s"' % ("0" * 1000),
                                         "1%s" % ("0" * 1000)],
                             ids=["exponent", "negative-exponent",
                                  "denominator", "integer"])
    def test_oversized_numeral(self, run, literal):
        text = '{"lower": [[0, 0]], "upper": [[%s, 4]]}' % literal
        assert "digits" in run("interval-di", text, SQ13, code=2)

    def test_integer_past_string_limit(self, run):
        text = '{"lower": [[0, 0]], "upper": [[1%s, 4]]}' % ("0" * 5000)
        run("interval-di", text, SQ13, code=2)

    def test_non_finite_nonzero_index(self, run):
        text = ('{"row_grades": [[0, 0]], "col_grades": [[1, 1]], '
                '"nonzeros": [[1e999, 0]]}')
        assert "index pair" in run("gmd", text, QUAD0, code=2)

    @pytest.mark.parametrize("entry", ["[0.7, 0.2]", '["1", 0]', "[true, 0]",
                                       "[0, 1.0]", "[null, 0]"],
                             ids=["fractional", "string", "bool", "float",
                                  "null"])
    def test_non_integer_nonzero_index(self, run, entry):
        text = ('{"row_grades": [[0, 0]], "col_grades": [[1, 1]], '
                '"nonzeros": [%s]}' % entry)
        assert "index pair" in run("gmd", text, QUAD0, code=2)

    def test_integer_nonzero_index_accepted(self, run):
        hook = {"row_grades": [[0, 0]], "col_grades": [[1, 1]],
                "nonzeros": [[0, 0]]}
        rep = run("gmd", hook, hook)
        assert rep["value"]["exact"] == "0"

    def test_oversized_alpha(self, run):
        run("gmd", QUAD0, QUAD1, args=["--alpha", "1e2000000"], code=2)

    def test_alpha_cutting_too_many_bands(self, run):
        # anchors at intercepts 0 and 6: the band between them is cut into
        # slabs of width alpha * dmatch / 2, about 10^10 of them here
        P = {"row_grades": [[0, 4], [4, 0]], "col_grades": [],
             "nonzeros": []}
        Q = {"row_grades": [[0, 8], [2, 0]], "col_grades": [],
             "nonzeros": []}
        assert run("gmd", P, Q, args=["--alpha", "1/2"])["bands"] < 100
        err = run("gmd", P, Q, args=["--alpha", "1e-9"], code=3)
        assert "alpha" in err and "bands, more than 10000" in err


class TestRectApprox:
    def test_thick_l_optimal(self, run):
        rep = run("rect-approx", THICK_L)
        assert rep["rect"] == [["0", "0"], ["7/2", "7/2"]]
        assert rep["epsilon"] == {"exact": "1/2", "decimal": 0.5}

    def test_thin_l_construction(self, run):
        rep = run("rect-approx", THIN_L, args=["--method", "construction1"])
        assert rep["rect"] is None
        assert rep["epsilon"]["exact"] == "1/2"

    @pytest.mark.parametrize("strip, s", [
        ({"lower": [[0, 0]], "upper": [[1, "inf"]]}, ["1", "inf"]),
        ({"lower": [[0, 0]], "upper": [["inf", 1]]}, ["inf", "1"])])
    @pytest.mark.parametrize("method", ["construction1", "optimal"])
    def test_strip_is_kept(self, run, strip, s, method):
        rep = run("rect-approx", strip, args=["--method", method])
        assert rep["rect"] == [["0", "0"], s]
        assert rep["epsilon"]["exact"] == "0"

    def test_module_aggregate(self, run):
        rep = run("rect-approx", {"summands": [THICK_L, THIN_L]})
        assert rep["epsilon"]["exact"] == "1/2"
        assert len(rep["summands"]) == 2
        assert "rect" not in rep

def test_csv_flattening(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(THICK_L))
    assert main(["rect-approx", str(p), "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "epsilon,0.5" in lines


class TestBottleneck:
    def test_nested_squares(self, run):
        rep = run("bottleneck", SQ04, SQ13)
        assert rep["d_B"]["exact"] == "1"
        assert rep["matching"] == [[0, 0]]

    def test_unmatched_reported(self, run):
        M = {"summands": [SQ04, {"lower": [[10, 10]], "upper": [[11, 11]]}]}
        rep = run("bottleneck", M, SQ13)
        assert rep["d_B"]["exact"] == "1"
        assert rep["unmatched_M"] == [[1, "1/2"]]


class TestLowerBound:
    def test_nested_squares(self, run):
        rep = run("lower-bound", SQ04, SQ13)
        assert rep["d_B"]["exact"] == "1"
        assert rep["lower_bound"] == {"exact": "1/3",
                                      "decimal": pytest.approx(1 / 3)}

    def test_clamped_at_zero(self, run):
        box = {"lower": [[0, 0]], "upper": [["7/2", "7/2"]]}
        rep = run("lower-bound", THICK_L, box)
        assert rep["raw"]["exact"] == "-1/2"
        assert rep["lower_bound"]["exact"] == "0"


class TestGmd:
    def test_quadrants(self, run):
        rep = run("gmd", QUAD0, QUAD1)
        assert rep["value"]["exact"] == "1"
        assert rep["bands"] == 1

    def test_explain_table(self, run):
        rep = run("gmd", QUAD0, QUAD1, args=["--directions", "4",
                                             "--explain"])
        assert len(rep["table"]) == 4

    def test_grade_violation(self, run):
        bad = {"row_grades": [[3, 0]], "col_grades": [[2, 2]],
               "nonzeros": [[0, 0]]}
        run("gmd", bad, QUAD0, code=3)

    def test_missing_field(self, run):
        run("gmd", {"row_grades": [[0, 0]]}, QUAD0, code=2)

    @pytest.mark.parametrize("key", ["row_grades", "col_grades", "nonzeros"])
    @pytest.mark.parametrize("value", [5, None, True, 1.5, 0, False, "x", {}],
                             ids=["int", "null", "true", "float", "zero",
                                  "false", "string", "object"])
    def test_field_not_a_list(self, run, key, value):
        bad = dict(QUAD0, **{key: value})
        for command in ("gmd", "dmatch"):
            err = run(command, bad, QUAD0, code=2)
            assert '"%s" must be a list' % key in err

    def test_empty_nonzeros_accepted(self, run):
        # a relation column with no entries leaves the quadrant free
        zero_col = {"row_grades": [[0, 0]], "col_grades": [[1, 1]],
                    "nonzeros": []}
        assert run("gmd", zero_col, QUAD0)["value"]["exact"] == "0"

    @pytest.mark.parametrize("alpha", ["-1", "2", "inf"])
    @pytest.mark.parametrize("other", [QUAD0, QUAD1],
                             ids=["identical", "different"])
    def test_alpha_out_of_range(self, run, alpha, other):
        err = run("gmd", QUAD0, other, args=["--alpha", alpha], code=3)
        assert "alpha" in err


# generators at +inf and -inf, a relation at infinity next to an
# incomparable relation, and a lone relation at infinity
INFINITE_GRADES = [
    {"row_grades": [[0, "inf"]], "col_grades": [], "nonzeros": []},
    {"row_grades": [["-inf", 0]], "col_grades": [], "nonzeros": []},
    {"row_grades": [[0, 0]], "col_grades": [[1, "inf"], [2, 0]],
     "nonzeros": [[0, 0], [0, 1]]},
    {"row_grades": [[0, 0]], "col_grades": [["inf", 2]],
     "nonzeros": [[0, 0]]},
]


@pytest.mark.parametrize("command", ["gmd", "dmatch"])
@pytest.mark.parametrize("bad", INFINITE_GRADES,
                         ids=["generator", "negative", "relation-anchor",
                              "relation"])
def test_infinite_grade_rejected(run, command, bad):
    assert "not finite" in run(command, bad, QUAD0, code=3)
    assert "not finite" in run(command, QUAD0, bad, code=3)


@pytest.mark.parametrize("command", ["gmd", "dmatch"])
def test_directions_capped(run, command):
    err = run(command, QUAD0, QUAD1, args=["--directions", "10001"], code=3)
    assert "more than 10000" in err


class TestDmatch:
    def test_quadrants(self, run):
        rep = run("dmatch", QUAD0, QUAD1)
        assert rep["value"]["exact"] == "1"
        assert rep["directions"] == 16

    def test_identical(self, run):
        rep = run("dmatch", QUAD0, QUAD0)
        assert rep["value"]["exact"] == "0"


class TestGenerate:
    def test_deterministic(self, capsys):
        assert main(["generate", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        assert main(["generate", "--seed", "8"]) == 0
        assert capsys.readouterr().out != first

    def test_kinds_parse_back(self, capsys):
        for kind, parse in (("staircase", mio.parse_module),
                            ("rectangles", mio.parse_module),
                            ("presentation", mio.parse_presentation)):
            assert main(["generate", "--kind", kind, "--seed", "3"]) == 0
            parse(json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("kind", ["staircase", "rectangles",
                                      "presentation"])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_nonpositive_size_rejected(self, capsys, kind, size):
        assert main(["generate", "--kind", kind, "--size", size]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "validation error" in err and "--size" in err

    @pytest.mark.parametrize("kind", ["staircase", "rectangles",
                                      "presentation"])
    def test_size_capped(self, capsys, kind):
        big = str(gen.MAX_SIZE + 1)
        assert main(["generate", "--kind", kind, "--size", big]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "validation error" in err and "--size" in err


class TestRoundTrip:
    def test_module(self, rng):
        mods = [random_staircase(rng, size=6) for _ in range(3)]
        back = mio.parse_module(
            json.loads(json.dumps(mio.serialize_module(mods))))
        assert back == mods

    def test_interval_with_infinities(self):
        from stairdist.geometry import StaircaseInterval
        from stairdist.scalars import INF
        Q = StaircaseInterval.from_antichains([point(0, 0)],
                                              [point(INF, INF)])
        assert mio.parse_module(mio.serialize_module([Q])) == [Q]

    def test_presentation(self, rng):
        P = random_presentation(rng, size=4)
        back = mio.parse_presentation(
            json.loads(json.dumps(mio.serialize_presentation(P))))
        assert back.row_grades == P.row_grades
        assert back.col_grades == P.col_grades
        assert back.nonzeros == P.nonzeros

    def test_fraction_strings(self):
        obj = {"lower": [["1/2", "-3/2"]], "upper": [["7/2", "inf"]]}
        I = mio.parse_interval(obj)
        assert I.mins == (point(Fraction(1, 2), Fraction(-3, 2)),)


def test_startup_imports_no_typing():
    # typing, dataclasses and inspect cost start-up time on every call, and
    # so do argparse and gettext, which imports locale once a parser is built
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, %r); import stairdist.cli; "
            "stairdist.cli._parse(['dmatch', 'P.json', 'Q.json', "
            "'--directions', '8']); "
            "print(sorted({'typing', 'dataclasses', 'inspect', 'argparse', "
            "'gettext', 'locale'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# the argvs the tests above give main, with A.json and B.json for the
# inputs they write
MAIN_ARGVS = [
    ["interval-di", "A.json", "B.json"],
    ["interval-di", "A.json", "B.json", "--explain"],
    ["gmd", "A.json", "B.json"],
    ["gmd", "A.json", "B.json", "--alpha", "1e2000000"],
    ["gmd", "A.json", "B.json", "--alpha", "1/2"],
    ["gmd", "A.json", "B.json", "--alpha", "1e-9"],
    ["gmd", "A.json", "B.json", "--directions", "4", "--explain"],
    ["gmd", "A.json", "B.json", "--alpha", "-1"],
    ["gmd", "A.json", "B.json", "--alpha", "2"],
    ["gmd", "A.json", "B.json", "--alpha", "inf"],
    ["gmd", "A.json", "B.json", "--directions", "10001"],
    ["dmatch", "A.json", "B.json"],
    ["dmatch", "A.json", "B.json", "--directions", "10001"],
    ["rect-approx", "A.json"],
    ["rect-approx", "A.json", "--method", "construction1"],
    ["rect-approx", "A.json", "--method", "optimal"],
    ["rect-approx", "A.json", "--output", "csv"],
    ["bottleneck", "A.json", "B.json"],
    ["lower-bound", "A.json", "B.json"],
    ["generate", "--seed", "7"],
    ["generate", "--seed", "8"],
] + [["generate", "--kind", kind, "--seed", "3"]
     for kind in ("staircase", "rectangles", "presentation")] + [
    ["generate", "--kind", kind, "--size", size]
    for kind in ("staircase", "rectangles", "presentation")
    for size in ("0", "-3", str(gen.MAX_SIZE + 1))]

# one or more per form the parser must read as argparse does
HAND_ARGVS = [
    [], ["bogus"], ["bogus", "A.json"], ["--output", "json", "bottleneck",
                                         "A.json", "B.json"],
    ["interval-di", "A.json"], ["interval-di"], ["generate", "A.json"],
    ["interval-di", "A.json", "B.json", "C.json"],
    ["interval-di", "A.json", "B.json", "--bogus"],
    ["--bogus", "interval-di", "A.json", "B.json"],
    ["generate", "--s", "3"], ["generate", "--si", "3"],
    ["generate", "--se", "3"], ["gmd", "A.json", "B.json", "--dir", "8"],
    ["gmd", "A.json", "B.json", "--d", "8", "--e"],
    ["gmd", "A.json", "B.json", "--dir=8", "--al=1/2"],
    ["rect-approx", "A.json", "--method", "midpoint"],
    ["rect-approx", "A.json", "--output", "xml"],
    ["rect-approx", "A.json", "--method=construction1", "--output=csv"],
    ["dmatch", "A.json", "B.json", "--directions", "x"],
    ["dmatch", "A.json", "B.json", "--directions", "1.5"],
    ["dmatch", "A.json", "B.json", "--directions"],
    ["dmatch", "A.json", "B.json", "--directions="],
    ["gmd", "--directions", "4", "A.json", "--explain", "B.json"],
    ["gmd", "--explain", "A.json", "--directions=4", "B.json"],
    ["gmd", "A.json", "B.json", "--explain=yes"],
    ["interval-di", "--", "A.json", "B.json"],
    ["interval-di", "A.json", "--", "--explain"],
    ["interval-di", "A.json", "B.json", "--"],
    ["interval-di", "A.json", "B.json", "--explain", "--"],
    ["interval-di", "--explain", "--", "-h", "B.json"],
    ["gmd", "A.json", "B.json", "--alpha", "--", "1/2"],
    ["generate", "--"], ["--", "generate"],
    ["interval-di", "-", "B.json"], ["rect-approx", "-"],
    ["dmatch", "A.json", "B.json", "--directions", "-3"],
    ["interval-di", "-3", "B.json"],
    ["gmd", "A.json", "B.json", "--alpha", "-1/2"],
    ["gmd", "A.json", "B.json", "--alpha=-1/2"],
    ["gmd", "A.json", "B.json", "--alpha", "-.5"],
    ["gmd", "A.json", "B.json", "--alpha", "-1/2 "],
    ["generate", "--seed", "3", "--seed", "4", "--kind", "rectangles",
     "--kind", "presentation"],
    ["interval-di", "A.json", "B.json", "--explain", "--explain"],
    ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"], ["--help=x"],
    ["bogus", "-h"], ["-h", "bogus"], ["gmd", "-h"],
    ["gmd", "A.json", "--bogus", "-h"], ["gmd", "--directions", "x", "-h"],
    ["generate", "--h"], ["generate", "-h", "--s", "3"],
    ["bottleneck", "A.json", "B.json", "C.json", "--help"],
]


def _parsed(parse, argv, capsys):
    """vars of the parsed argv, or (exit code, stdout written)."""
    try:
        args = parse(list(argv))
    except SystemExit as e:
        return e.code, capsys.readouterr().out != ""
    return vars(args)


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv) or "(none)")
    for argv in dict.fromkeys(
        tuple(a) for a in [case["args"] for _, case in golden_cli.cases()]
        + MAIN_ARGVS + HAND_ARGVS)])
def test_parse_matches_argparse(argv, capsys):
    # the same namespace, or the same exit: 2 for a usage error, 0 for help
    want = _parsed(cli_parser_oracle().parse_args, argv, capsys)
    assert _parsed(cli._parse, argv, capsys) == want


@pytest.mark.parametrize("argv", [["bogus"], ["interval-di", "A.json"],
                                  ["gmd", "A.json", "B.json", "--alpha",
                                   "-1/2"]])
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: stairdist")
    assert error.startswith("stairdist: error: ")


def test_committed_argvs_stay_off_argparse(monkeypatch):
    # start-up: every committed case, the benchmark's operations at seeds
    # 12 and 77 among them, is read from the table without argparse
    def fail(argv):
        raise AssertionError("argparse read %r" % (argv,))
    monkeypatch.setattr(cli, "_argparse", fail)
    argvs = [case["args"] for _, case in golden_cli.cases()]
    assert argvs
    for argv in argvs:
        assert cli._parse(argv).command == argv[0]


def test_second_double_dash_is_a_path(tmp_path, capsys, monkeypatch):
    # argparse (3.11's among others) leaves [] for a positional given as a
    # second "--"; it is read as the path "--", which does not exist
    (tmp_path / "A.json").write_text(json.dumps(SQ04))
    monkeypatch.chdir(tmp_path)
    assert main(["interval-di", "A.json", "--", "--"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("parse error: cannot read --: ")


@pytest.mark.parametrize("argv, want", [
    (["gmd", "A.json", "B.json", "--alpha=--", "--dir", "4"],
     {"alpha": "--", "directions": 4}),
    (["gmd", "A.json", "B.json", "--directions=--", "--alpha", "-1"], 2),
    (["rect-approx", "A.json", "--output=--", "--me", "optimal"], 2),
    (["generate", "--kind=--", "--seed", "-3"], 2)])
def test_double_dash_value_is_literal(argv, want, capsys):
    # argparse reads an attached "--opt=--" beside a non-plain token; the
    # value is "--", as on the table path, so only a str option takes it
    got = _parsed(cli._parse, argv, capsys)
    if want == 2:
        assert got == (2, False)
    else:
        assert {k: got[k] for k in want} == want


def test_attached_negative_alpha_is_validated(run):
    # "--alpha -1/2" is a usage error (-1/2 reads as an option), while the
    # attached form reaches gmd's own range check
    err = run("gmd", QUAD0, QUAD1, args=["--alpha=-1/2"], code=3)
    assert "alpha" in err


@pytest.mark.parametrize("root, case", [
    pytest.param(root, case, id=" ".join(case["args"]))
    for root, case in golden_cli.cases()])
def test_committed_outputs(root, case):
    # stdout and exit code byte for byte against tests/data (golden_cli.py)
    assert golden_cli.run_case(root, case) is None


def _python(args, stdout=subprocess.PIPE):
    # stdout block-buffered, as it is by default on a pipe
    env = dict(os.environ, PYTHONPATH=golden_cli.SRC)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable] + args, env=env, stdout=stdout,
                          stderr=subprocess.PIPE)


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv", [["generate", "--size", "4"],
                                  ["generate", "--size", "0"]])
def test_main_leaves_the_collector_unfrozen(argv, capsys):
    # only run() freezes the heap; an in-process caller keeps its collector
    before = gc.get_freeze_count()
    _in_process(argv, capsys)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code", [
    (["rect-approx", "M.json", "--output", "csv"], 0),
    (["gmd", "A.json", "B.json", "--explain"], 0), (["-h"], 0),
    (["interval-di", "A.json", "bad.json"], 2), (["bogus"], 2),
    (["gmd", "A.json", "B.json", "--alpha", "2"], 3),
    (["generate", "--size", "0"], 3)])
def test_process_exit_matches_main(argv, code, tmp_path, capsys,
                                   monkeypatch):
    (tmp_path / "A.json").write_text(json.dumps(QUAD0))
    (tmp_path / "B.json").write_text(json.dumps(QUAD1))
    (tmp_path / "M.json").write_text(json.dumps(THICK_L))
    (tmp_path / "bad.json").write_text("{not json")
    monkeypatch.chdir(tmp_path)
    proc = _python(["-m", "stairdist.cli"] + argv)
    assert (proc.returncode, proc.stdout) == _in_process(argv, capsys)
    assert proc.returncode == code and b"Traceback" not in proc.stderr


def test_run_exit_4_frozen_with_atexit(capsys, monkeypatch):
    # no command line reaches a PreconditionError (the commands validate
    # first), so one is raised from a patched command; an atexit handler
    # still runs after run(), and sees the heap frozen
    def fail(args):
        raise cli.PreconditionError("patched")
    monkeypatch.setitem(cli._COMMANDS, "generate", fail)
    assert _in_process(["generate"], capsys) == (4, b"")
    script = ("import atexit, gc, sys\n"
              "from stairdist import cli\n"
              "atexit.register(lambda: print('frozen:', gc.get_freeze_count()"
              " > 0, file=sys.stderr))\n"
              "def fail(args):\n"
              "    raise cli.PreconditionError('patched')\n"
              "cli._COMMANDS['generate'] = fail\n"
              "sys.argv[1:] = ['generate']\n"
              "cli.run()\n")
    proc = _python(["-c", script])
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == b"precondition failed: patched\nfrozen: True\n"


@pytest.mark.parametrize("argv", [
    ["generate", "--size", "4"], ["-h"],
    ["generate", "--kind", "presentation", "--size", "500"]],
    ids=["at-exit-flush", "help", "in-main"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # a small report or the help text is still buffered when main() ends;
    # a large report fills the buffer and is written inside main()
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _python(["-m", "stairdist.cli"] + argv, stdout=w)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == (b"stairdist: stdout was closed before the "
                           b"report was written\n")


def test_profiler_still_reports():
    # the profiler prints its statistics after run() has frozen the heap
    proc = _python(["-m", "cProfile", "-m", "stairdist.cli", "generate",
                    "--size", "4"])
    assert proc.returncode == 0
    assert b'"summands"' in proc.stdout and b"function calls" in proc.stdout
