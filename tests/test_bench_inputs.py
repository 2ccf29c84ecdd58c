"""The benchmark corpus stays what it was when tests/data/bench_inputs.json
was recorded.

The corpora are drawn by rejection on ValidationError
(stairdist.generate.random_staircase, stairbench/inputs.banded_staircase),
so a change that made validation accept or reject one more draw would
silently change what the benchmark measures.  This runs
stairbench/inputs.generate for every workload at the recorded seeds and
compares the sha256 of every file it writes, and each operation's command
words with the file names taken relative to the output directory.

stairbench/ is read as source and run in memory, as
tests/test_bench_surface.py reads it: nothing is written there.  Record
the data afresh, only when the corpus is meant to change, with

    PYTHONPATH=src python3 tests/test_bench_inputs.py
"""

import hashlib
import json
import os
import sys
import tempfile
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "stairbench")
DATA = os.path.join(ROOT, "tests", "data", "bench_inputs.json")
WORKLOADS = ("gmd", "interval", "rectapprox")
SEEDS = (1, 12)
KEYS = ["%s:%d" % (w, s) for w in WORKLOADS for s in SEEDS]


def _load(name):
    """A stairbench module compiled from its source, without bytecode."""
    path = os.path.join(BENCH, name + ".py")
    mod = types.ModuleType(name)
    mod.__file__ = path
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    sys.modules[name] = mod  # inputs.py imports checkout by name
    exec(code, mod.__dict__)
    return mod


def _inputs():
    saved = {n: sys.modules.get(n) for n in ("checkout", "inputs")}
    try:
        _load("checkout")
        return _load("inputs")
    finally:
        for n, mod in saved.items():
            if mod is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = mod


def record(inputs, workload, seed):
    """{"files": {name: sha256}, "ops": [[id, *command words]]}."""
    with tempfile.TemporaryDirectory() as out:
        ops = inputs.generate(workload, seed, out)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        rel = lambda w: os.path.relpath(w, out) if w.startswith(out) else w
        return {"files": files,
                "ops": [[op["id"]] + [rel(w) for w in op["command"]]
                        for op in ops]}


def record_all():
    inputs = _inputs()
    assert sorted(inputs.WORKLOADS) == list(WORKLOADS)
    return {"%s:%d" % (w, s): record(inputs, w, s)
            for w in WORKLOADS for s in SEEDS}


@pytest.fixture(scope="module")
def current():
    return record_all()


@pytest.fixture(scope="module")
def want():
    with open(DATA) as fh:
        return json.load(fh)


def test_every_workload_recorded(want):
    assert sorted(want) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_corpus_unchanged(current, want, key):
    assert current[key] == want[key]


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump(record_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
