import random
from fractions import Fraction

import pytest

from oracles import closure_oracle
from stairdist.geometry import StaircaseInterval, point
from stairdist.gmd import diagonalize, push_band, validate_presentation


def square(a, b):
    return StaircaseInterval.rect(point(a, a), point(b, b))


def rect(r1, r2, s1, s2):
    return StaircaseInterval.rect(point(r1, r2), point(s1, s2))


def block_pair(rng):
    """A direct sum of one to three random hooks and quadrants, as a
    presentation and as the list of its summands' closures."""
    rows, cols, nz, mods = [], [], set(), []
    for _ in range(rng.randint(1, 3)):
        g = (Fraction(rng.randint(0, 10), 2), Fraction(rng.randint(0, 10), 2))
        r = None
        if rng.random() < 0.5:
            r = (g[0] + Fraction(rng.randint(1, 6), 2),
                 g[1] + Fraction(rng.randint(1, 6), 2))
            nz.add((len(rows), len(cols)))
            cols.append(r)
            r = point(*r)
        rows.append(g)
        mods.append(closure_oracle(point(*g), r))
    return validate_presentation(rows, cols, nz), mods


def band_closures(P, C):
    """The closures of the summands of P pushed onto band C: the staircase
    intervals that gmd's band points stand for."""
    out = [closure_oracle(iv.g, iv.r) for iv in diagonalize(push_band(P, C))]
    return [S for S in out if S is not None]


@pytest.fixture
def thick_l():
    # ([0,4] x [0,3]) union ([0,3] x [0,4])
    return StaircaseInterval.from_antichains([point(0, 0)],
                                             [point(3, 4), point(4, 3)])


@pytest.fixture
def thin_l():
    # ([0,3] x [0,1]) union ([0,1] x [0,3])
    return StaircaseInterval.from_antichains([point(0, 0)],
                                             [point(1, 3), point(3, 1)])


@pytest.fixture
def rng():
    return random.Random(20240817)


def frac(a, b=1):
    return Fraction(a, b)
