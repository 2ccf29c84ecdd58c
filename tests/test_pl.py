from fractions import Fraction

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import t_form_crossing
from stairdist import pl
from stairdist.pl import PL, _crossing, align, pl_max
from stairdist.scalars import INF, NINF

HALF = Fraction(1, 2)


def _scalar(a, d):
    # d == 0 stands for the int a, the kind of scalar di_interval scales to
    return a if d == 0 else Fraction(a, d)


# ints and rationals
scalars = st.builds(_scalar, st.integers(-12, 12),
                    st.sampled_from([0, 0, 1, 2, 3]))
slopes = st.sampled_from([None, None, -HALF, Fraction(0), HALF, Fraction(1)])


def _exact(values):
    """No float among the values."""
    for v in values:
        assert isinstance(v, (int, Fraction)), v


@st.composite
def pls(draw, scalars=scalars):
    xs = sorted(set(draw(st.lists(scalars, min_size=1, max_size=6))))
    vs = draw(st.lists(scalars, min_size=len(xs), max_size=len(xs)))
    return PL(xs, vs, draw(slopes), draw(slopes))


@given(pls(), st.one_of(scalars, st.just(NINF)),
       st.one_of(scalars, st.just(INF)))
@settings(max_examples=300, deadline=None)
def test_restrict_keeps_pointwise_values(f, lo, hi):
    r = f.restrict(lo, hi)
    lo, hi = max(lo, f.dom_lo), min(hi, f.dom_hi)
    if r is None:
        assert lo > hi
        return
    want = [x for x in (lo, hi) if x is not INF and x is not NINF]
    want = sorted(set(want) | {x for x in f.xs if lo < x < hi})
    assert list(r.xs) == want
    assert list(r.vs) == [f(x) for x in r.xs]
    _exact(r.vs)
    assert r.lslope == (f.lslope if lo is NINF else None)
    assert r.rslope == (f.rslope if hi is INF else None)


@given(pls(), pls())
@settings(max_examples=300, deadline=None)
def test_align_matches_pointwise_evaluation(f, g):
    al = align(f, g)
    lo, hi = max(f.dom_lo, g.dom_lo), min(f.dom_hi, g.dom_hi)
    if al is None:
        assert lo > hi
        return
    xs, fv, gv, lf, lg, rf, rg = al
    f2, g2 = f.restrict(lo, hi), g.restrict(lo, hi)
    assert xs == sorted(set(f2.xs) | set(g2.xs))
    assert fv == [f(x) for x in xs]
    assert gv == [g(x) for x in xs]
    _exact(fv + gv)
    assert (lf, lg, rf, rg) == (f2.lslope, g2.lslope, f2.rslope, g2.rslope)


def test_align_infinite_tails():
    f = PL([0, 2], [1, 3], HALF, None)
    g = PL([1], [0], Fraction(0), Fraction(1))
    xs, fv, gv, lf, lg, rf, rg = align(f, g)
    assert xs == [0, 1, 2]
    assert fv == [1, 2, 3] and gv == [0, 0, 1]
    assert all(type(v) is int for v in fv + gv)
    assert (lf, lg, rf, rg) == (HALF, 0, None, None)


@given(pls(), pls())
@settings(max_examples=300, deadline=None)
@example(f=PL([-1], [0], None, -HALF), g=PL([2], [-1], Fraction(0), None))
@example(f=PL([0], [0], Fraction(1), None), g=PL([1], [0], HALF, None))
def test_pl_max_is_pointwise_max(f, g):
    m = pl_max(f, g)
    lo, hi = max(f.dom_lo, g.dom_lo), min(f.dom_hi, g.dom_hi)
    if m is None:
        assert lo > hi
        return
    assert (m.dom_lo, m.dom_hi) == (lo, hi)
    _exact(m.xs + m.vs)
    probes = set(f.xs) | set(g.xs) | set(m.xs)
    probes |= {a + b for a in probes for b in (-1, HALF)}
    for x in probes:
        if lo <= x <= hi:
            assert m(x) == max(f(x), g(x))
    # on int data, every crossing that lands on an integer is an int, also
    # where it is placed from a Fraction value read off a tail (examples)
    if all(type(v) is int for v in f.xs + f.vs + g.xs + g.vs):
        assert all(type(v) is int for v in m.xs + m.vs if v.denominator == 1)


positives = st.builds(_scalar, st.integers(1, 12),
                      st.sampled_from([0, 0, 1, 2, 3]))


@given(scalars, positives, scalars, scalars, positives, positives,
       st.booleans())
@settings(max_examples=500, deadline=None)
def test_crossing_is_the_t_form(x0, dx, v0, v1, p, q, rising):
    """One division per coordinate gives the crossing of the t-form on
    int and Fraction operands, where d0 and d1 have opposite signs."""
    d0, d1 = (-p, q) if rising else (p, -q)
    args = (x0, x0 + dx, v0, v1, d0, d1)
    assert _crossing(*args) == t_form_crossing(*args)


@given(pls(), pls())
@settings(max_examples=300, deadline=None)
def test_pl_max_crossings_match_the_t_form(f, g):
    m = pl_max(f, g)
    with mock.patch.object(pl, "_crossing", t_form_crossing):
        want = pl_max(f, g)
    if m is None:
        assert want is None
        return
    assert (m.xs, m.vs, m.lslope, m.rslope) == (
        want.xs, want.vs, want.lslope, want.rslope)
