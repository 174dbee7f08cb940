"""The package's integer polynomial ring against sympy's ring(..., ZZ).

opalg.poly carries every exact coefficient, so its gcds decide the normal
forms the catalog certifies.  Random polynomials in up to five generators
are built with a common factor, so that gcds are not all trivial, and
every operation the coefficient field uses is compared with sympy's
term by term, content and sign included: the gcd and its cofactors,
cancel, lcm, exact division, derivatives, sums, products and powers.
Some pairs carry coprime factors whose values at every integer share the
factor 2, so that every image gcd of the heuristic is too large.  Two
large pairs check that the heuristic, which never gives up, finds its
gcd within a wall-clock bound, so that a gcd that regresses to minutes
fails instead of stalling the suite.
"""

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from cuspwave.opalg.poly import Poly, PolyRing


def _terms(ngens, max_exp, max_terms):
    monoms = st.tuples(*[st.integers(0, max_exp)] * ngens)
    coeffs = st.integers(-12, 12).filter(bool)
    return st.dictionaries(monoms, coeffs, max_size=max_terms)


@st.composite
def _triples(draw, max_gens=5, max_exp=3, max_terms=4):
    """(ngens, f, g) with f = a*c and g = b*c for random a, b, c; half
    the time f and g also carry x**2 + x and x**2 + x + 2 for one
    generator x, coprime but even at every integer, and half the time
    some exponents step by 2 or 3."""
    ngens = draw(st.integers(1, max_gens))
    R = PolyRing(ngens)
    a, b, c = (Poly(draw(_terms(ngens, max_exp, max_terms)))
               for _ in range(3))
    if not c:
        c = R.one
    f, g = a * c, b * c
    if draw(st.booleans()):
        x = R.gens[draw(st.integers(0, ngens - 1))]
        f, g = f * (x * x + x), g * (x * x + x + R.ground_new(2))
    steps = draw(st.sampled_from([None, None, (2,) * ngens,
                                  tuple(range(1, ngens + 1))]))
    if steps:
        f, g = (Poly({tuple(e * d for e, d in zip(m, steps)): v
                      for m, v in p.items()}) for p in (f, g))
    return ngens, f, g


def _sympy(ngens):
    return ring(",".join("x%d" % i for i in range(ngens)), ZZ)[0]


def _dict(p):
    return {m: int(v) for m, v in p.items()}


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(_triples())
def test_gcd_cancel_and_lcm_match_sympy(case):
    ngens, f, g = case
    R = _sympy(ngens)
    sf, sg = R.from_dict(dict(f)), R.from_dict(dict(g))
    if f and g:
        h, p, q = f.cofactors(g)
        want = sf.cofactors(sg)
        assert [_dict(h), _dict(p), _dict(q)] == [_dict(w) for w in want]
        assert h.LC > 0
    if g:
        assert [_dict(x) for x in f.cancel(g)] \
            == [_dict(x) for x in sf.cancel(sg)]
    if f or g:
        assert _dict(f.lcm(g)) == _dict(sf.lcm(sg))


@_SETTINGS
@given(_triples())
def test_ring_operations_exquo_and_diff_match_sympy(case):
    ngens, f, g = case
    R = _sympy(ngens)
    sf, sg = R.from_dict(dict(f)), R.from_dict(dict(g))
    assert _dict(f + g) == _dict(sf + sg)
    assert _dict(f - g) == _dict(sf - sg)
    assert _dict(-f) == _dict(-sf)
    assert _dict(f * g) == _dict(sf * sg)
    assert _dict(3 * f) == _dict(3 * sf)
    if f:
        for n in range(4):
            assert _dict(f ** n) == _dict(sf ** n)
    for gen, sgen in zip(PolyRing(ngens).gens, R.gens):
        assert _dict(f.diff(gen)) == _dict(sf.diff(sgen))
    if g:
        assert _dict((f * g).exquo(g)) == f
        if sf.rem(sg):
            with pytest.raises(ArithmeticError):
                f.exquo(g)
        else:
            assert _dict(f.exquo(g)) == _dict(sf.exquo(sg))
    if f:
        assert f.LC == R.from_dict(dict(f)).LC
        assert hash(f) == hash(Poly(dict(f)))


@contextmanager
def _within(seconds):
    """Raise TimeoutError when the body runs past seconds of wall clock."""
    def expire(signum, frame):
        raise TimeoutError("over %d s of wall clock" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_the_heuristic_sees_the_gcd_through_large_evaluations():
    # five generators evaluated in turn make images of some 20 000 bits,
    # past the 5000 decimal digits at which Char, Geddes and Gonnet give
    # up; the normal forms of the n = 3 combination checks reach that
    # size
    ring5 = PolyRing(5)
    h, x1, x2, x3, r = ring5.gens
    c = h ** 9 * x1 * x2 - 2 * x2 ** 3 * r + h * x3 ** 2 \
        + ring5.ground_new(7)
    f = c * (h ** 10 * x2 ** 2 * x3 - x1 * x3 ** 3 * r
             + ring5.ground_new(5)) * (x1 + x2 ** 2 + x3 + r)
    g = c * (h ** 8 - 3 * x1 ** 2 * x2 * x3 ** 2) * (x2 ** 2 - r)
    R = _sympy(5)
    want = R.from_dict(dict(f)).gcd(R.from_dict(dict(g)))
    with _within(60):
        h = f.cofactors(g)[0]
    assert _dict(h) == _dict(want)


def test_the_heuristic_finds_a_large_univariate_gcd():
    # degree 260 and 1800-bit coefficients: the first image has some
    # 470 000 bits, where the 1989 heuristic would have given up
    rng = random.Random(260)

    def dense(degree, bits):
        return Poly({(e,): rng.getrandbits(bits) - (1 << (bits - 1))
                     for e in range(degree + 1)})

    c = dense(100, 600)
    f, g = c * dense(160, 1200), c * dense(160, 1200)
    R = _sympy(1)
    want = R.from_dict(dict(f)).cofactors(R.from_dict(dict(g)))
    with _within(60):
        got = f.cofactors(g)
    assert [_dict(x) for x in got] == [_dict(w) for w in want]
