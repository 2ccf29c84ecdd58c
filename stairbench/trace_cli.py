"""Run one stairdist CLI command with spans around each layer's public calls.

    python3 stairbench/trace_cli.py SPANS CLI-ARG...

Wraps the functions in LAYERS wherever a stairdist module holds them (the
modules import each other's functions by name, and the package attribute
stairdist.gmd is the gmd function, so the defining module is reached
through sys.modules).  Spans stay in memory and are written to SPANS when
the command ends: four raw arrays (layer index, parent span, start, end)
followed by a JSON trailer in SPANS.json.
"""

import json
import sys
import time
from array import array

import checkout

# span name -> (defining module, attribute); "Class.method" patches a class
LAYERS = {
    "cli.main": ("stairdist.cli", "main"),
    "io.parse": [("stairdist.io", "load_json"),
                 ("stairdist.io", "parse_module"),
                 ("stairdist.io", "parse_presentation")],
    "interleaving.di_interval": ("stairdist.interleaving", "di_interval"),
    "interleaving.di_interval_vs_rect": ("stairdist.interleaving",
                                         "di_interval_vs_rect"),
    "interleaving.triv_distance": ("stairdist.interleaving", "triv_distance"),
    "geometry.region_intersection": ("stairdist.geometry",
                                     "region_intersection"),
    "geometry.DiagRegion.components": ("stairdist.geometry",
                                       "DiagRegion.components"),
    "pl.align": ("stairdist.pl", "align"),
    "pl.pl_max": ("stairdist.pl", "pl_max"),
    "rect_approx.optimal_rectangle": ("stairdist.rect_approx",
                                      "optimal_rectangle"),
    "rect_approx.solve_lp": ("stairdist.rect_approx", "solve_lp"),
    "rect_approx.construction1": ("stairdist.rect_approx", "construction1"),
    "bottleneck.bottleneck_distance": ("stairdist.bottleneck",
                                       "bottleneck_distance"),
    "bottleneck.pairwise_costs": ("stairdist.bottleneck", "pairwise_costs"),
    "bottleneck.delta_matched": ("stairdist.bottleneck", "delta_matched"),
    "gmd.gmd": ("stairdist.gmd", "gmd"),
    "gmd.diagonalize": ("stairdist.gmd", "diagonalize"),
    "gmd.push_band": ("stairdist.gmd", "push_band"),
    "gmd.anchors": ("stairdist.gmd", "anchors"),
    "gmd.dmatch_sampled": ("stairdist.gmd", "dmatch_sampled"),
}

NAMES = list(LAYERS)
REPEAT_LAYER = "interleaving.di_interval"


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.pairs = set()
        self.repeats = 0

    def wrap(self, name, fn):
        idx = NAMES.index(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if name != REPEAT_LAYER:
            return traced

        def traced_pairs(M, N):
            key = frozenset((M, N))
            if key in self.pairs:
                self.repeats += 1
            else:
                self.pairs.add(key)
            return traced(M, N)

        return traced_pairs

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stairdist" or n.startswith("stairdist.")]
        for name, targets in LAYERS.items():
            for modname, attr in (targets if isinstance(targets, list)
                                  else [targets]):
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(owner, attr)
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def write(self, path):
        t0 = time.perf_counter()
        with open(path, "wb") as fh:
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(fh)
        write_s = time.perf_counter() - t0
        with open(path + ".json", "w") as fh:
            json.dump({"names": NAMES, "spans": len(self.layer),
                       "repeats": self.repeats, "write_s": write_s}, fh)


def read_spans(path):
    """(trailer dict, layer, parent, start, end) as written by Tracer."""
    with open(path + ".json") as fh:
        trailer = json.load(fh)
    n = trailer["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (trailer, *arrays)


def main(argv):
    checkout.use_src()
    import stairdist  # noqa: F401  (loads every module before patching)
    import stairdist.cli
    tracer = Tracer()
    tracer.install()
    code = stairdist.cli.main(argv[1:])
    sys.stdout.flush()
    tracer.write(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
