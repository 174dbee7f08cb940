"""The package's integer polynomial ring against sympy's ring(..., ZZ).

opalg.poly carries every exact coefficient, so its gcds decide the normal
forms the catalog certifies.  Random polynomials in up to five generators
are built with a common factor, so that gcds are not all trivial, and
every operation the coefficient field uses is compared with sympy's
term by term, content and sign included: the gcd and its cofactors,
cancel, lcm, exact division, derivatives, sums, products and powers.
The primitive PRS fallback is checked the same way, with the heuristic
made to give up.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from cuspwave.opalg import poly
from cuspwave.opalg.poly import Poly, PolyRing


def _terms(ngens, max_exp, max_terms):
    monoms = st.tuples(*[st.integers(0, max_exp)] * ngens)
    coeffs = st.integers(-12, 12).filter(bool)
    return st.dictionaries(monoms, coeffs, max_size=max_terms)


@st.composite
def _triples(draw, max_gens=5, max_exp=3, max_terms=4):
    """(ngens, f, g) with f = a*c and g = b*c for random a, b, c; a
    third of the time some exponents step by 2 or 3."""
    ngens = draw(st.integers(1, max_gens))
    a, b, c = (Poly(draw(_terms(ngens, max_exp, max_terms)))
               for _ in range(3))
    if not c:
        c = PolyRing(ngens).one
    f, g = a * c, b * c
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


def _refuse(f, k, xi):
    return None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_triples(max_gens=3, max_exp=2, max_terms=3))
def test_prs_fallback_gives_the_same_gcd(case):
    # every evaluation is refused, so GCDHEU gives up at once and the
    # primitive PRS finds each gcd that is not a monomial's
    ngens, f, g = case
    R = _sympy(ngens)
    sf, sg = R.from_dict(dict(f)), R.from_dict(dict(g))
    if not (f and g):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_evaluate", _refuse)
        h, p, q = f.cofactors(g)
    want = sf.cofactors(sg)
    assert [_dict(h), _dict(p), _dict(q)] == [_dict(w) for w in want]


def test_the_heuristic_gives_up_when_evaluation_is_refused(monkeypatch):
    x, y, z = PolyRing(3).gens
    f = (x * y + 2 * z) * (x - y)
    g = (x * y + 2 * z) * (y * z + 3 * x)
    assert poly._heuristic_cofactors(f, g) is not None
    monkeypatch.setattr(poly, "_evaluate", _refuse)
    assert poly._heuristic_cofactors(f, g) is None
    assert _dict(f.cofactors(g)[0]) == _dict(x * y + 2 * z)


def test_the_heuristic_sees_the_gcd_through_large_evaluations():
    # five generators evaluated in turn make images of some 20 000 bits,
    # past the 5000 decimal digits at which Char, Geddes and Gonnet give
    # up; the normal forms of the n = 3 combination checks reach that
    # size, and the heuristic must still find their gcds
    ring5 = PolyRing(5)
    h, x1, x2, x3, r = ring5.gens
    c = h ** 9 * x1 * x2 - 2 * x2 ** 3 * r + h * x3 ** 2 \
        + ring5.ground_new(7)
    f = c * (h ** 10 * x2 ** 2 * x3 - x1 * x3 ** 3 * r
             + ring5.ground_new(5)) * (x1 + x2 ** 2 + x3 + r)
    g = c * (h ** 8 - 3 * x1 ** 2 * x2 * x3 ** 2) * (x2 ** 2 - r)
    R = _sympy(5)
    want = R.from_dict(dict(f)).gcd(R.from_dict(dict(g)))
    assert poly._heuristic_cofactors(f, g) is not None
    assert _dict(f.cofactors(g)[0]) == _dict(want)
