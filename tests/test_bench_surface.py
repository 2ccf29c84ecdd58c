"""The stairdist names the benchmark in stairbench/ reaches must exist.

The benchmark files are read as source, not imported or run: figures.py is
not part of any routine run, and trace_cli.py only resolves its LAYERS
when a traced round starts.
"""

import ast
import importlib
import os
import sys

import pytest

# what trace_cli.py imports before it patches: every module
import stairdist  # noqa: F401
import stairdist.cli  # noqa: F401

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "stairbench")
USERS = ("checks.py", "inputs.py", "selftest.py", "figures.py")


def _tree(name):
    with open(os.path.join(BENCH, name)) as fh:
        return ast.parse(fh.read(), name)


def _layers():
    for node in _tree("trace_cli.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("trace_cli.py defines no LAYERS")


def _used_names(name):
    """(module, attribute) for every stairdist name the file imports by
    name, or reads off a module alias such as `bn.di_interval_vs_rect`."""
    aliases, out = {}, []
    tree = _tree(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "stairdist":
            for a in node.names:
                aliases[a.asname or a.name] = "stairdist." + a.name
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("stairdist.")):
            out += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append((aliases[node.value.id], node.attr))
    return sorted(set(out))


LAYER_TARGETS = [(span, mod, attr) for span, targets in _layers().items()
                 for mod, attr in (targets if isinstance(targets, list)
                                   else [targets])]


@pytest.mark.parametrize("span, modname, attr", LAYER_TARGETS,
                         ids=[t[0] + ":" + t[2] for t in LAYER_TARGETS])
def test_trace_layer_resolves(span, modname, attr):
    # as Tracer.install does: the defining module from sys.modules, and
    # "Class.method" through the class
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = getattr(getattr(owner, cls_name), meth)
    else:
        target = getattr(owner, attr)
    assert callable(target)


@pytest.mark.parametrize("name", USERS)
def test_benchmark_imports_resolve(name):
    used = _used_names(name)
    assert used
    missing = [(m, a) for m, a in used
               if not hasattr(importlib.import_module(m), a)]
    assert missing == []
