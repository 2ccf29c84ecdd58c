"""Locate the stairdist sources of the checkout the benchmark sits in.

The benchmark must measure the code next to it, never an installed copy,
so every entry point puts <checkout>/src first on sys.path and refuses to
run when the sources are missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSources(RuntimeError):
    pass


def use_src():
    """Import stairdist from <checkout>/src or raise MissingSources."""
    if not os.path.isfile(os.path.join(SRC, "stairdist", "cli.py")):
        raise MissingSources("no stairdist sources under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import stairdist
    if not os.path.abspath(stairdist.__file__).startswith(SRC + os.sep):
        raise MissingSources("stairdist was imported from %s" % stairdist.__file__)


def child_env():
    """Environment for a CLI process: the checkout's sources first, and
    bytecode caching on, so that the set-up's warm-up call leaves compiled
    modules behind as an installed package has them.  Without them every
    operation compiles stairdist afresh: in a fresh checkout under
    PYTHONDONTWRITEBYTECODE=1, setup_s read 40% and run_s 5% higher."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
