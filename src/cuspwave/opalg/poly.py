"""Sparse multivariate polynomials over the integers.

A polynomial is a Poly: a dict from exponent tuples to nonzero Python
ints, one exponent per generator.  Terms are ordered lex by comparing the
exponent tuples, so the leading term is the one with the largest tuple.

Gcds come from the heuristic GCD (GCDHEU) of Char, Geddes and Gonnet,
"GCDHEU: Heuristic polynomial GCD algorithm based on integer GCD
computation", J. Symbolic Comput. 7 (1989): evaluate one variable at a
large integer xi, take the gcd of the images (recursively, down to
integers), rebuild a candidate from its balanced xi-adic digits and
accept it only when it divides both inputs exactly.  With
xi >= 2 * min(|f|, |g|) + 2 (max-norms of the integer-primitive inputs)
an accepted candidate is the gcd.  When the heuristic gives up, the gcd
comes from the primitive polynomial remainder sequence (Geddes, Czapor
and Labahn, Algorithms for Computer Algebra, ch. 7).

Only what the coefficient field of opalg needs is here: ring operations,
powers, derivatives, exact division, cancel and lcm.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd as igcd
from operator import add, floordiv, neg, sub

__all__ = ["Poly", "PolyRing"]

# the heuristic gives up when an evaluation would pass this many bits
_MAX_BITS = 1 << 18


class PolyRing:
    """Z[x_0, .., x_{ngens-1}]: its generators and ground constants."""

    def __init__(self, ngens):
        self._zero_monom = (0,) * ngens
        self.gens = tuple(
            Poly({tuple(int(i == j) for j in range(ngens)): 1})
            for i in range(ngens))

    @property
    def zero(self):
        return Poly()

    @property
    def one(self):
        return Poly({self._zero_monom: 1})

    def ground_new(self, c):
        """The constant polynomial c, for an int c."""
        return Poly({self._zero_monom: c} if c else {})


class Poly(dict):
    """A polynomial of some PolyRing, as {exponent tuple: nonzero int}.

    A Poly does not refer to its ring: the exponent tuples carry the
    number of generators.  Only polynomials of one ring are combined.
    """

    __slots__ = ()

    def new(self, terms):
        """The polynomial with the given nonzero terms."""
        return Poly(terms)

    def strip_zero(self):
        """Drop the terms whose coefficient is zero, in place."""
        for monom in [m for m, c in self.items() if not c]:
            del self[monom]

    @property
    def LC(self):
        """The leading coefficient in lex order; 0 for the zero polynomial."""
        return self[max(self)] if self else 0

    def __hash__(self):
        return hash(frozenset(self.items()))

    # -- ring operations -------------------------------------------------

    def __neg__(self):
        return Poly({m: -c for m, c in self.items()})

    def __add__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            v = get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return out

    def __sub__(self, other):
        out = Poly(self)
        get = out.get
        for m, c in other.items():
            v = get(m, 0) - c
            if v:
                out[m] = v
            else:
                del out[m]
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly()
            return Poly({m: c * other for m, c in self.items()})
        if len(self) > len(other):
            self, other = other, self
        if len(self) == 1:
            (ms, cs), = self.items()
            return Poly({tuple(map(add, ms, m)): cs * c
                         for m, c in other.items()})
        out = {}
        get = out.get
        terms = list(other.items())
        for ms, cs in self.items():
            for mo, co in terms:
                m = tuple(map(add, ms, mo))
                out[m] = get(m, 0) + cs * co
        return Poly({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        """self ** n for an int n >= 0; the zero polynomial has no 0th
        power here, since it does not know its number of generators."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponents must be nonnegative ints")
        if len(self) == 1:
            (m, c), = self.items()
            return Poly({tuple(e * n for e in m): c ** n})
        if not self:
            if not n:
                raise ValueError("0 ** 0 of a polynomial without a ring")
            return Poly()
        out = Poly({(0,) * len(next(iter(self))): 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- calculus and division -------------------------------------------

    def diff(self, gen):
        """The derivative in the generator gen (one of the ring's gens)."""
        k = next(iter(gen)).index(1)
        out = {}
        for m, c in self.items():
            e = m[k]
            if e:
                out[m[:k] + (e - 1,) + m[k + 1:]] = c * e
        return Poly(out)

    def exquo(self, other):
        """self / other, which must divide self exactly."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = _divide(self, other)
        if quotient is None:
            raise ArithmeticError("the divisor does not divide exactly")
        return quotient

    def cofactors(self, other):
        """(h, self / h, other / h) for the gcd h of the nonzero self and
        other, with LC(h) > 0."""
        f, g = self, other
        if not f or not g:
            raise ZeroDivisionError("gcd cofactors of the zero polynomial")
        if len(f) == 1 or len(g) == 1:
            h, p, q = _monomial_cofactors(f, g)
        else:
            # the monomial content of the gcd is found from exponents
            # alone, and x_k**steps[k] stands in for x_k where every
            # exponent of x_k is a multiple of steps[k]
            mf, mg = _low_exponents(f), _low_exponents(g)
            m = tuple(map(min, mf, mg))
            F, G = _shift(f, mf, sub), _shift(g, mg, sub)
            steps = tuple(igcd(*column) or 1 for column in zip(*F, *G))
            F, G = _deflate(F, steps), _deflate(G, steps)
            found = _heuristic_cofactors(F, G)
            if found is None:
                h = _prs_gcd(F, G)
                found = h, _divide(F, h), _divide(G, h)
            h, p, q = found
            h = _inflate(h, steps, m)
            p = _inflate(p, steps, tuple(map(sub, mf, m)))
            q = _inflate(q, steps, tuple(map(sub, mg, m)))
        if h.LC < 0:
            h, p, q = -h, -p, -q
        return h, p, q

    def cancel(self, other):
        """(p, q) = (self / h, other / h) for h = gcd(self, other), signed
        so that LC(q) > 0; (0, 1) when self is zero."""
        if not self:
            return Poly(), Poly({(0,) * len(next(iter(other))): 1})
        _, p, q = self.cofactors(other)
        if q.LC < 0:
            p, q = -p, -q
        return p, q

    def lcm(self, other):
        """The lcm c * (f / h) * g of the primitive parts f and g of self
        and other, with h = gcd(f, g), LC(h) > 0, and c the lcm of their
        integer contents."""
        if not self or not other:
            return Poly()
        cf, cg = igcd(*self.values()), igcd(*other.values())
        f = _scale_down(self, cf)
        g = _scale_down(other, cg)
        _, p, _ = f.cofactors(g)
        return p * g * (cf * cg // igcd(cf, cg))


# -- helpers -----------------------------------------------------------------

def _scale_down(f, c):
    """f / c for an int c that divides every coefficient."""
    return f if c == 1 else Poly({m: v // c for m, v in f.items()})


def _low_exponents(f):
    """The exponents of the largest monomial that divides every term."""
    return tuple(min(column) for column in zip(*f))


def _shift(f, monom, op):
    """f times (op is add) or over (op is sub) the monomial x**monom."""
    if not any(monom):
        return f
    return Poly({tuple(map(op, m, monom)): c for m, c in f.items()})


def _deflate(f, steps):
    """f with each exponent of x_k divided by steps[k]."""
    if all(d == 1 for d in steps):
        return f
    return Poly({tuple(map(floordiv, m, steps)): c for m, c in f.items()})


def _inflate(f, steps, low):
    """f with each exponent e of x_k made e * steps[k] + low[k]."""
    return Poly({tuple(e * d + a for e, d, a in zip(m, steps, low)): c
                 for m, c in f.items()})


def _divide(f, g):
    """f / g when the nonzero g divides f exactly, else None.

    Lex division: each step takes the leading term of what remains,
    which must be a multiple of the leading term of g.  The remaining
    monomials wait in a heap of negated exponent tuples, so the largest
    comes first; a monomial that cancels leaves a stale entry behind.
    """
    if len(g) == 1:
        (mg, cg), = g.items()
        out = {}
        for m, c in f.items():
            q, r = divmod(c, cg)
            e = tuple(map(sub, m, mg))
            if r or min(e) < 0:
                return None
            out[e] = q
        return Poly(out)
    lead = max(g)
    lc = g[lead]
    tail = [(m, c) for m, c in g.items() if m != lead]
    rest = dict(f)
    heap = [tuple(map(neg, m)) for m in rest]
    heapify(heap)
    out = {}
    while heap:
        m = tuple(map(neg, heappop(heap)))
        c = rest.pop(m, 0)
        if not c:
            continue
        q, r = divmod(c, lc)
        e = tuple(map(sub, m, lead))
        if r or min(e) < 0:
            return None
        out[e] = q
        for mg, cg in tail:
            k = tuple(map(add, e, mg))
            v = rest.get(k, 0) - q * cg
            if v:
                if k not in rest:
                    heappush(heap, tuple(map(neg, k)))
                rest[k] = v
            else:
                del rest[k]
    return Poly(out)


def _monomial_cofactors(f, g):
    """(h, f / h, g / h) when f or g is a single term: then the gcd is the
    monomial with the lowest exponents of all terms and the gcd of all
    coefficients."""
    c = igcd(*f.values(), *g.values())
    m = tuple(min(column) for column in zip(*f, *g))
    h = Poly({m: c})
    return h, _divide(f, h), _divide(g, h)


def _evaluate(f, k, xi):
    """f with x_k = xi, its exponents of x_k set to 0; None when the
    image would be too large to be worth its gcd."""
    degree = max(m[k] for m in f)
    if xi.bit_length() * degree > _MAX_BITS:
        return None
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * xi)
    out = {}
    get = out.get
    for m, c in f.items():
        e = m[k]
        if e:
            m = m[:k] + (0,) + m[k + 1:]
        out[m] = get(m, 0) + c * powers[e]
    return Poly({m: c for m, c in out.items() if c})


def _interpolate(gamma, k, xi):
    """The polynomial whose x_k-coefficients are the balanced xi-adic
    digits of gamma's coefficients, each digit in (-xi/2, xi/2]."""
    half = xi // 2
    out = {}
    i = 0
    while gamma:
        rest = {}
        for m, c in gamma.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m[:k] + (i,) + m[k + 1:]] = d
            c = (c - d) // xi
            if c:
                rest[m] = c
        gamma = rest
        i += 1
    return Poly(out)


def _heuristic_cofactors(f, g):
    """(h, f / h, g / h) for the gcd h of the nonzero f and g, up to sign,
    by GCDHEU; None when the heuristic gives up."""
    if len(f) == 1 or len(g) == 1:
        return _monomial_cofactors(f, g)
    cf, cg = igcd(*f.values()), igcd(*g.values())
    c = igcd(cf, cg)
    f, g = _scale_down(f, cf), _scale_down(g, cg)
    k = _main_variable(f, g)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(6):
        fx, gx = _evaluate(f, k, xi), _evaluate(g, k, xi)
        if fx is None or gx is None:
            return None
        if fx and gx:
            image = _heuristic_cofactors(fx, gx)
            if image is None:
                return None
            gamma = image[0]
        else:
            gamma = fx or gx
        if gamma:
            h = _interpolate(gamma, k, xi)
            h = _scale_down(h, igcd(*h.values()))
            p = _divide(f, h)
            if p is not None:
                q = _divide(g, h)
                if q is not None:
                    return h * c, p * (cf // c), q * (cg // c)
        # the paper's next point, about (1 + sqrt 3) xi, is no simple
        # multiple of xi, so it does not fail for the same reason
        xi = xi * 73794 // 27011
    return None


def _degree(f, k):
    return max(m[k] for m in f)


def _coefficient(f, k, i):
    """The coefficient of x_k**i in f, a polynomial free of x_k."""
    return Poly({m[:k] + (0,) + m[k + 1:]: c for m, c in f.items()
                 if m[k] == i})


def _primitive(f, k):
    """(content, primitive part) of the nonzero f as a polynomial in x_k
    over the other generators."""
    coeffs = {}
    for m, c in f.items():
        coeffs.setdefault(m[k], {})[m[:k] + (0,) + m[k + 1:]] = c
    content = None
    for terms in coeffs.values():
        terms = Poly(terms)
        content = terms if content is None else _prs_gcd(content, terms)
    out = {}
    for i, terms in coeffs.items():
        for m, c in _divide(Poly(terms), content).items():
            out[m[:k] + (i,) + m[k + 1:]] = c
    return content, Poly(out)


def _prem(f, g, k):
    """The pseudo-remainder of f by g as polynomials in x_k."""
    dg = _degree(g, k)
    lc = _coefficient(g, k, dg)
    r = f
    e = _degree(f, k) - dg + 1
    while r and _degree(r, k) >= dg:
        d = _degree(r, k)
        step = [0] * len(next(iter(r)))
        step[k] = d - dg
        r = lc * r - _shift(_coefficient(r, k, d), tuple(step), add) * g
        e -= 1
    return r * lc ** e if r else r


def _prs_gcd(f, g):
    """The gcd of the nonzero f and g, up to sign, by the primitive
    remainder sequence in the generator of least degree that both have,
    with the gcd of their contents found the same way, one generator
    fewer."""
    if len(f) == 1 or len(g) == 1:
        return _monomial_cofactors(f, g)[0]
    mf, mg = _low_exponents(f), _low_exponents(g)
    f, g = _shift(f, mf, sub), _shift(g, mg, sub)
    monomial = Poly({tuple(map(min, mf, mg)): igcd(igcd(*f.values()),
                                                  igcd(*g.values()))})
    f = _scale_down(f, igcd(*f.values()))
    g = _scale_down(g, igcd(*g.values()))
    k = _main_variable(f, g)
    fc, f = _primitive(f, k)
    gc, g = _primitive(g, k)
    content = _prs_gcd(fc, gc)
    if _degree(f, k) < _degree(g, k):
        f, g = g, f
    while True:
        r = _prem(f, g, k)
        if not r:
            return monomial * content * g
        f, g = g, _primitive(r, k)[1]


def _main_variable(f, g):
    """The generator of least positive degree in f and g together,
    preferring one that both have; f or g has two terms or more."""
    degrees = [(not (a and b), max(a, b), k) for k, (a, b)
               in enumerate(zip(map(max, zip(*f)), map(max, zip(*g))))
               if a or b]
    return min(degrees)[2]
