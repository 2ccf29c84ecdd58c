"""Show that the checkers reject planted wrong answers.

    python3 stairbench/selftest.py

Runs each CLI command once in-process on small seeded inputs, checks that
the true answer passes, then plants wrong answers (a distance off by 1/2, a
matching with a pair removed, ...) and requires every one to be rejected.
Exits 1 if a true answer fails or a planted one passes.
"""

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import checkout

checkout.use_src()

import checks  # noqa: E402
import inputs  # noqa: E402
from stairdist import cli  # noqa: E402
from stairdist import generate as gen  # noqa: E402
from stairdist import io as mio  # noqa: E402
from stairdist.scalars import ext, fmt  # noqa: E402

HALF = Fraction(1, 2)


def run_cli(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command)
    if code != 0:
        raise RuntimeError("%s exited with %d" % (command[0], code))
    return json.loads(buf.getvalue())


def shifted(entry, by):
    v = ext(entry["exact"]) + by
    return {"exact": fmt(v), "decimal": float(v)}


def with_value(out, key, by):
    bad = copy.deepcopy(out)
    bad[key] = shifted(out[key], by)
    return bad


def cases(tmp):
    """(name, checker, true output, planted) per command; a planted entry
    is (plant name, wrong output[, checker to use instead])."""
    rng = random.Random(7)

    def write(name, obj):
        return inputs.write_json(tmp, name, obj)

    A, B = inputs.k_corner_staircase(rng, 8), inputs.k_corner_staircase(rng, 8)
    out = run_cli(["interval-di", write("A.json", mio.serialize_interval(A)),
                   write("B.json", mio.serialize_interval(B))])
    yield ("interval-di", lambda o: checks.check_interval_di(A, B, o), out, [
        ("d + 1/2", with_value(out, "delta", HALF)),
        ("d - 1/2", with_value(out, "delta", -HALF)),
    ])

    M, N = gen.random_rectangles(rng, 5), gen.random_rectangles(rng, 5)
    out = run_cli(["bottleneck", write("M.json", mio.serialize_module(M)),
                   write("N.json", mio.serialize_module(N))])
    dropped = copy.deepcopy(out)
    dropped["matching"] = dropped["matching"][1:]
    yield ("bottleneck", lambda o: checks.check_bottleneck(M, N, o), out, [
        ("d_B + 1/2", with_value(out, "d_B", HALF)),
        ("d_B - 1/2", with_value(out, "d_B", -HALF)),
        ("a pair removed", dropped),
    ])

    R = [inputs.banded_staircase(rng, 2, 2), inputs.banded_staircase(rng, 1, 2)]
    out = run_cli(["rect-approx", write("R.json", mio.serialize_module(R))])
    off = copy.deepcopy(out)
    off["summands"][0]["epsilon"] = shifted(off["summands"][0]["epsilon"], HALF)
    under = copy.deepcopy(out)
    under["summands"][1]["epsilon"] = shifted(under["summands"][1]["epsilon"], -HALF)
    yield ("rect-approx", lambda o: checks.check_rect_approx(R, o), out, [
        ("summand epsilon + 1/2", off),
        ("summand epsilon - 1/2", under),
        ("aggregate epsilon + 1/2", with_value(out, "epsilon", HALF)),
    ])

    L1 = [gen.random_staircase(rng, 4) for _ in range(2)]
    L2 = [gen.random_staircase(rng, 4) for _ in range(2)]
    out = run_cli(["lower-bound", write("L1.json", mio.serialize_module(L1)),
                   write("L2.json", mio.serialize_module(L2))])
    above = copy.deepcopy(out)
    above["lower_bound"] = shifted(out["d_B"], HALF)
    yield ("lower-bound", checks.check_lower_bound, out, [
        ("lower bound above d_B", above),
        ("d_B above the approximation chain",
         with_value(out, "d_B", ext(out["d_B_approx"]["exact"])
                    + ext(out["eps_star_M"]["exact"])
                    + ext(out["eps_star_N"]["exact"]) + HALF
                    - ext(out["d_B"]["exact"]))),
    ])

    P, Q = inputs.perturbed_presentation(rng, 4)
    files = [write("P.json", mio.serialize_presentation(P)),
             write("Q.json", mio.serialize_presentation(Q))]
    g = run_cli(["gmd"] + files + ["--directions", "4"])
    d = run_cli(["dmatch"] + files + ["--directions", "4"])
    infinite = copy.deepcopy(g)
    infinite["value"] = {"exact": "inf", "decimal": "inf"}
    yield ("gmd", checks.check_gmd, g, [("infinite value", infinite)])
    delta = inputs.DELTA
    low_gmd = copy.deepcopy(g)
    low_gmd["value"] = shifted(d["value"], -HALF)
    yield ("dmatch", lambda o: checks.check_dmatch(o, delta, g), d, [
        ("dmatch above delta",
         with_value(d, "value", delta + HALF - ext(d["value"]["exact"]))),
        ("gmd below dmatch", d,
         lambda o: checks.check_dmatch(o, delta, low_gmd)),
    ])


def main():
    ok = True
    work = os.path.join(checkout.ROOT, ".stairbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name, check, good, planted in cases(tmp):
            problems = check(good)
            ok = ok and not problems
            print("%-12s %-33s %s" % (name, "true answer",
                                      "; ".join(problems) or "passes"))
            for plant, bad, *other_check in planted:
                problems = (other_check[0] if other_check else check)(bad)
                ok = ok and bool(problems)
                print("%-12s %-33s %s" % (name, plant,
                                          "; ".join(problems) or "NOT REJECTED"))
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
