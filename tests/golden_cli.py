"""Byte-for-byte check of committed CLI outputs.

    python3 tests/golden_cli.py

Each case in tests/data/*/cases.json names CLI arguments (paths relative
to its data directory), the exit code and the file holding the expected
stdout.  Every case runs as a fresh `python -m stairdist.cli` process on
the source tree of this checkout, with nothing installed; the script
prints one line per mismatch and exits 1 if there is any.  Standard
library only, so it runs on every supported Python.

The rectapprox, interval and gmd cases are the benchmark workloads'
inputs at seeds 12 and 77, as `stairbench/inputs.py --workload W` writes
them, each op's command with its outputs:
- rectapprox: the optimal and midpoint rect-approx reports and the csv
  output, and lower-bound as json and csv;
- interval: interval-di with and without --explain, and bottleneck;
- gmd: gmd (8 directions) with and without --explain, and dmatch; on
  some ops also dmatch with 16 directions, and gmd --alpha 1/2, whose
  covering refinement starts from a dmatch lower bound.
The unbounded cases are modules with infinite corners, which no workload
reaches: a quadrant, hooks, a vertical and a horizontal strip, a staircase
with infinite maximal corners and mixed multi-summand modules, through
interval-di --explain in both argument orders, rect-approx with both
methods, bottleneck as json and csv, and lower-bound.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
SRC = os.path.join(os.path.dirname(HERE), "src")


def cases():
    """(data directory, case) for every committed case."""
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name, "cases.json")
        if os.path.exists(path):
            with open(path) as fh:
                for case in json.load(fh):
                    yield os.path.join(DATA, name), case


def run_case(root, case):
    """The mismatch message of one case, or None when it matches."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "stairdist.cli",
                           *case["args"]], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with open(os.path.join(root, case["stdout"]), "rb") as fh:
        want = fh.read()
    label = " ".join(case["args"])
    if proc.returncode != case["exit"]:
        return "%s: exit %d, want %d" % (label, proc.returncode, case["exit"])
    if proc.stdout != want:
        return "%s: stdout differs from %s" % (label, case["stdout"])
    return None


def main():
    n, bad = 0, []
    for root, case in cases():
        n += 1
        msg = run_case(root, case)
        if msg is not None:
            bad.append(msg)
            print(msg)
    print("%d of %d CLI outputs match" % (n - len(bad), n))
    return 1 if bad or n == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
