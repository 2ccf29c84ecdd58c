"""Seeded random instance generators on small half-integer grids.

Small grids keep coordinate collisions frequent, which both exercises the
degenerate branches and keeps candidate sets small for the distance search.
"""

import random
from fractions import Fraction

from .errors import ValidationError
from .geometry import StaircaseInterval, point
from .gmd import GradedMatrix, validate_presentation

# The largest size of every kind; random_presentation draws about
# size^2 / 4 nonzeros, 0.8 s at this size.
MAX_SIZE = 500


def _coord(rng, hi):
    """A random multiple of 1/2 in [0, hi]."""
    return Fraction(rng.randint(0, 2 * hi), 2)


def random_staircase(rng: random.Random, size=6) -> StaircaseInterval:
    """A random staircase interval in [0, 10]^2 with at most size // 2
    (and at least 1) vertices per chain: sizes below 4 always give a
    rectangle."""
    for _ in range(2000):
        n = rng.randint(1, max(1, size // 2))
        m = rng.randint(1, max(1, size // 2))
        mins = [point(_coord(rng, 10), _coord(rng, 10)) for _ in range(n)]
        maxs = [point(_coord(rng, 10), _coord(rng, 10)) for _ in range(m)]
        try:
            return StaircaseInterval.from_antichains(mins, maxs)
        except ValidationError:
            continue
    raise RuntimeError("random staircase generation did not converge")


def random_rectangles(rng: random.Random, count=3):
    """`count` random rectangles with lower corners in [0, 9]^2."""
    out = []
    for _ in range(count):
        a, b = _coord(rng, 9), _coord(rng, 9)
        w = Fraction(rng.randint(1, 20), 2)
        h = Fraction(rng.randint(1, 20), 2)
        out.append(StaircaseInterval.rect(point(a, b), point(a + w, b + h)))
    return out


def random_presentation(rng: random.Random, size=4) -> GradedMatrix:
    """A valid graded presentation with `size` generators graded in
    [0, 8]^2; relations dominate a random generator subset."""
    ng = max(1, size)
    rows = [(_coord(rng, 8), _coord(rng, 8)) for _ in range(ng)]
    nr = rng.randint(0, ng)
    cols, nz = [], set()
    for j in range(nr):
        sub = [i for i in range(ng) if rng.random() < 0.5]
        if not sub:
            sub = [rng.randrange(ng)]
        cg = (max(rows[i][0] for i in sub) + Fraction(rng.randint(0, 4), 2),
              max(rows[i][1] for i in sub) + Fraction(rng.randint(0, 4), 2))
        cols.append(cg)
        nz.update((i, j) for i in sub)
    return validate_presentation(rows, cols, nz)
