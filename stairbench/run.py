"""Closed-loop, one-client benchmark of the stairdist CLI.

    python3 stairbench/run.py --workload interval --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up writes the workload's inputs for
the seed and makes one untimed warm-up CLI call; it is repeated at least
SETUPS times and for at least SETUP_SECONDS, and the median is reported.
The timed part runs as many whole rounds of the workload's operations as
fit in --seconds (at least one), each operation a fresh
`python -m stairdist.cli` process started only after the previous one
exited.  Every output is then checked (checks.py).

Shared hosts change speed by tens of percent within seconds, so every
set-up and every operation is bracketed by a host-speed probe (probe_s) and
the reported times are scaled to a host on which the probe takes
PROBE_NOMINAL_S seconds.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it runs one plain round and one traced round (trace_cli.py) and
reports the per-layer metrics.  Progress goes to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from fractions import Fraction

import checkout

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
SETUP_SECONDS = 2.0
WARMUP = ["generate", "--kind", "staircase", "--seed", "0", "--size", "4"]
# A probe of 12,000 steps (0.05 to 0.1 s) caught the host's flicker within
# a second rather than the speed a multi-second operation sees.
PROBE_STEPS = 36000
PROBE_NOMINAL_S = 0.15


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(argv, out_path):
    """Run argv to completion with stdout in out_path.

    Returns (wall seconds from spawn to exit, exit code, max RSS in MB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=checkout.ROOT, env=checkout.child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    # wait4 reaped the child; record its status so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe_s():
    """Seconds one fixed loop of Fraction arithmetic takes, the kind of
    work the CLI does, measured in this process."""
    t0 = time.perf_counter()
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, PROBE_STEPS):
        s += a * Fraction(i % 7 + 1, i % 5 + 2)
        if s > 100:
            s -= 100
    return time.perf_counter() - t0


def scaled(wall, before, after):
    """wall seconds scaled to the nominal host: the probe's mean time
    around the interval stands for the host's speed during it."""
    return wall * PROBE_NOMINAL_S / ((before + after) / 2)


def cli_argv(command):
    return [sys.executable, "-m", "stairdist.cli"] + command


def traced_argv(command, spans):
    return [sys.executable, os.path.join(HERE, "trace_cli.py"), spans] + command


def setup(workload, seed, work):
    """Write the inputs and make one warm-up call; (scaled seconds,
    operations)."""
    import inputs
    before = probe_s()
    t0 = time.perf_counter()
    in_dir = os.path.join(work, "inputs")
    shutil.rmtree(in_dir, ignore_errors=True)
    ops = inputs.generate(workload, seed, in_dir)
    _, code, _ = run_process(cli_argv(WARMUP), os.path.join(work, "warmup.out"))
    if code != 0:
        raise RuntimeError("warm-up CLI call exited with %d" % code)
    wall = time.perf_counter() - t0
    return scaled(wall, before, probe_s()), ops


def run_round(ops, work, tag, trace):
    """One pass over the operations; a record per operation, with its wall
    time and that time scaled to the nominal host."""
    records = []
    before = probe_s()
    for op in ops:
        out_path = os.path.join(work, "%s_%s.out" % (tag, op["id"]))
        spans = os.path.join(work, "%s_%s.spans" % (tag, op["id"]))
        argv = traced_argv(op["command"], spans) if trace else cli_argv(op["command"])
        wall, code, rss = run_process(argv, out_path)
        after = probe_s()
        with open(out_path) as fh:
            stdout = fh.read()
        records.append({"id": op["id"], "wall": wall, "code": code, "rss": rss,
                        "scaled": scaled(wall, before, after),
                        "probe": (before + after) / 2,
                        "stdout": stdout, "spans": spans if trace else None})
        before = after
    return records


def layer_metrics(records, untraced):
    """Per-layer totals over one traced round (see README.md)."""
    from trace_cli import NAMES, REPEAT_LAYER, read_spans
    calls = dict.fromkeys(NAMES, 0)
    self_s = dict.fromkeys(NAMES, 0.0)
    startup = 0.0
    repeats = 0
    for rec in records:
        if rec["code"] != 0 or not os.path.exists(rec["spans"] + ".json"):
            continue
        trailer, layer, parent, start, end = read_spans(rec["spans"])
        n = len(layer)
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            dur = end[i] - start[i]
            if parent[i] >= 0:
                child[parent[i]] += dur
            else:
                root += dur
        for i in range(n):
            name = NAMES[layer[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        startup += rec["wall"] - root - trailer["write_s"]
        repeats += trailer["repeats"]
    traced_wall = sum(r["wall"] for r in records)
    metrics = {"cli.startup_s": (startup, "s")}
    for name in NAMES:
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (self_s[name], "s")
    n_di = calls[REPEAT_LAYER]
    metrics[REPEAT_LAYER + ".repeat_share"] = (repeats / n_di if n_di else 0.0, "ratio")
    metrics["trace.op_s"] = (traced_wall, "s")
    metrics["trace.remainder_s"] = (
        traced_wall - startup - sum(self_s.values()), "s")
    metrics["trace.overhead_s"] = (
        sum(r["scaled"] for r in records) - sum(r["scaled"] for r in untraced), "s")
    metrics["host.probe_s"] = (statistics.median(
        r["probe"] for r in records + untraced), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the running CLI process is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        checkout.use_src()
    except checkout.MissingSources as e:
        log("cannot benchmark: %s" % e)
        return 2
    import checks
    import inputs
    if args.workload not in inputs.WORKLOADS:
        log("unknown workload %r; choose from %s"
            % (args.workload, ", ".join(sorted(inputs.WORKLOADS))))
        return 2

    work = os.path.join(checkout.ROOT, ".stairbench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setups = []
        t0 = time.perf_counter()
        while len(setups) < SETUPS or time.perf_counter() - t0 < SETUP_SECONDS:
            secs, ops = setup(args.workload, args.seed, work)
            setups.append(secs)
        log("set-up x%d: %s s, %d operations" % (
            len(setups), " ".join("%.3f" % s for s in setups), len(ops)))

        rounds = []
        if args.trace:
            rounds.append(run_round(ops, work, "plain", trace=False))
            rounds.append(run_round(ops, work, "traced", trace=True))
        else:
            t0 = time.perf_counter()
            last = 0.0
            while not rounds or time.perf_counter() - t0 + last <= args.seconds:
                rounds.append(run_round(ops, work, "r%d" % len(rounds), trace=False))
                last = sum(r["wall"] for r in rounds[-1])
        for i, rnd in enumerate(rounds):
            log("round %d: %.2f s (scaled %.2f s)  %s" % (
                i, sum(r["wall"] for r in rnd), sum(r["scaled"] for r in rnd),
                " ".join("%s=%.2f" % (r["id"], r["wall"]) for r in rnd)))

        checker = checks.Checker(ops)
        attempted = failed = 0
        correct = True
        for rnd in rounds:
            for rec in rnd:
                attempted += 1
                if rec["code"] != 0:
                    failed += 1
                    log("%s exited with %d" % (rec["id"], rec["code"]))
                    continue
                problems = checker.check(rec["id"], rec["stdout"])
                if problems:
                    failed += 1
                    correct = False
                    log("%s: %s" % (rec["id"], "; ".join(problems)))

        if args.trace:
            metrics = layer_metrics(rounds[1], rounds[0])
        else:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "run_s": (statistics.median(
                    sum(r["scaled"] for r in rnd) for rnd in rounds), "s"),
                "op_p50_s": (statistics.median(
                    statistics.median(rnd[i]["scaled"] for rnd in rounds)
                    for i in range(len(ops))), "s"),
                "peak_rss_mb": (max(r["rss"] for rnd in rounds for r in rnd), "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
