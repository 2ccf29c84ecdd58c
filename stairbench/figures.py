"""Corpus shares and one-off reference timings quoted in README.md.

    python3 stairbench/figures.py shares      # under a minute
    python3 stairbench/figures.py reference   # about ten minutes

`shares` measures, on the fixed corpus: how many rect-approx modules the
midpoint construction already solves optimally, how many bottleneck pairs
take the interval-vs-rectangle closed form, and how many interval-di and
bottleneck pairs have a distance above the slicewise supremum (there the
candidate scan goes past its first candidate).  `reference` times one CLI
call each on the largest Baseline shapes, which are too slow for the timed
runs.
"""

import os
import random
import subprocess
import sys
import tempfile
import time

import checkout

checkout.use_src()

import inputs  # noqa: E402
from stairdist import bottleneck as bn  # noqa: E402
from stairdist import generate as gen  # noqa: E402
from stairdist import interleaving as il  # noqa: E402
from stairdist import io as mio  # noqa: E402
from stairdist.rect_approx import construction1, optimal_rectangle  # noqa: E402


def corpus(workload):
    shapes = random.Random("corpus:%s" % workload)
    for kind, p in inputs.WORKLOADS[workload]:
        yield kind, inputs.corpus_item(shapes, kind, p)


def shares():
    optimal = total = 0
    for kind, objs in corpus("rectapprox"):
        if kind == "rect-approx":
            for M in objs[0]:
                total += 1
                optimal += construction1(M).epsilon == optimal_rectangle(M).epsilon
    print("rect-approx modules where construction1 is optimal: %d of %d"
          % (optimal, total))

    closed = [0]
    orig = bn.di_interval_vs_rect

    def counted(*args):
        closed[0] += 1
        return orig(*args)

    bn.di_interval_vs_rect = counted
    pairs = 0
    above = {"interval-di": [0, 0], "bottleneck": [0, 0]}
    for kind, objs in corpus("interval"):
        if kind.startswith("bottleneck"):
            pairs += len(objs[0]) * len(objs[1])
            bn.bottleneck_distance(*objs)
            tally, todo = above["bottleneck"], [(a, b) for a in objs[0] for b in objs[1]]
        else:
            tally, todo = above["interval-di"], [objs]
        for A, B in todo:
            tally[0] += il.di_interval(A, B) > il.di_diag(A, B)
            tally[1] += 1
    bn.di_interval_vs_rect = orig
    print("bottleneck pairs routed to di_interval_vs_rect: %d of %d"
          % (closed[0], pairs))
    for kind, (n, of) in above.items():
        print("%s pairs with d above the slicewise supremum: %d of %d"
              % (kind, n, of))


def reference():
    rng = random.Random("reference")
    cases = [
        ("rect-approx, wide 29-band staircase (7 x 8 corners)", "rect-approx",
         [mio.serialize_module([inputs.banded_staircase(rng, 7, 8, thin=False)])],
         ["--method", "optimal"]),
        ("bottleneck, 64 x 64 random rectangles", "bottleneck",
         [mio.serialize_module(gen.random_rectangles(rng, 64)) for _ in range(2)],
         []),
        ("gmd --directions 8, size-8 presentation", "gmd",
         [mio.serialize_presentation(P)
          for P in inputs.perturbed_presentation(rng, 8)],
         ["--directions", str(inputs.GMD_DIRECTIONS)]),
    ]
    work = os.path.join(checkout.ROOT, ".stairbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for label, command, objs, flags in cases:
            files = [inputs.write_json(tmp, "%s_%d.json" % (command, i), o)
                     for i, o in enumerate(objs)]
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "stairdist.cli", command] + files + flags,
                env=checkout.child_env(), cwd=checkout.ROOT,
                capture_output=True, text=True)
            wall = time.perf_counter() - t0
            print("%s: %.1f s, exit %d" % (label, wall, proc.returncode), flush=True)


if __name__ == "__main__":
    {"shares": shares, "reference": reference}[sys.argv[1]]()
