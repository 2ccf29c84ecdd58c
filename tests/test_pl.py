from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stairdist.pl import PL, align, pl_max
from stairdist.scalars import INF, NINF, Dual

HALF = Fraction(1, 2)


def _scalar(a, d, eps):
    # d == 0 stands for the int a, the kind of scalar di_interval scales to
    x = a if d == 0 else Fraction(a, d)
    return Dual(x, eps) if eps else x


# ints and rationals, some pushed just above or below by an infinitesimal
scalars = st.builds(_scalar, st.integers(-12, 12),
                    st.sampled_from([0, 0, 1, 2, 3]),
                    st.sampled_from([0, 0, -1, 1]))
slopes = st.sampled_from([None, None, -HALF, Fraction(0), HALF, Fraction(1)])


def _exact(values):
    """No float among the values or the parts of Dual values."""
    for v in values:
        for p in ((v.a, v.b) if isinstance(v, Dual) else (v,)):
            assert isinstance(p, (int, Fraction)), p


@st.composite
def pls(draw, scalars=scalars):
    xs = sorted(set(draw(st.lists(scalars, min_size=1, max_size=6))))
    vs = draw(st.lists(scalars, min_size=len(xs), max_size=len(xs)))
    return PL(xs, vs, draw(slopes), draw(slopes))


plain = st.builds(_scalar, st.integers(-12, 12),
                  st.sampled_from([0, 0, 1, 2, 3]), st.just(0))


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
@example(f=PL([Dual(-1, -1), Fraction(0)], [Fraction(0), Fraction(1)]),
         g=PL([Fraction(-2), Fraction(-1), Dual(-1, 1)], [Fraction(0)] * 3))
def test_align_matches_pointwise_evaluation(f, g):
    al = align(f, g)
    lo, hi = max(f.dom_lo, g.dom_lo), min(f.dom_hi, g.dom_hi)
    if al is None:
        assert lo > hi
        return
    xs, fv, gv, lf, lg, rf, rg = al
    # values are those of the restrictions: on a piece only infinitesimally
    # long, Dual arithmetic drops the eps^2 term and f itself can differ
    f2, g2 = f.restrict(lo, hi), g.restrict(lo, hi)
    assert xs == sorted(set(f2.xs) | set(g2.xs))
    assert fv == [f2(x) for x in xs]
    assert gv == [g2(x) for x in xs]
    _exact(fv + gv)
    assert (lf, lg, rf, rg) == (f2.lslope, g2.lslope, f2.rslope, g2.rslope)


def test_align_infinite_tails_and_dual_knots():
    f = PL([Fraction(0), Dual(2, 1)], [Fraction(1), Dual(3, -1)], HALF, None)
    g = PL([Fraction(1)], [Fraction(0)], Fraction(0), Fraction(1))
    xs, fv, gv, lf, lg, rf, rg = align(f, g)
    assert xs == [0, 1, Dual(2, 1)]
    assert fv == [1, Dual(2, -1), Dual(3, -1)]
    assert gv == [0, 0, Dual(1, 1)]
    assert (lf, lg, rf, rg) == (HALF, 0, None, None)


@given(pls(plain), pls(plain))
@settings(max_examples=300, deadline=None)
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
    # on int data, every crossing that lands on an integer is an int
    if all(type(v) is int for v in f.xs + f.vs + g.xs + g.vs):
        assert all(type(v) is int for v in m.xs + m.vs if v.denominator == 1)
