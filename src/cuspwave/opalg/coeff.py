"""Exact coefficient arithmetic for degenerate-operator identities.

Coefficients live in the fraction field Q(h, x1..xn, r) subject to the
algebraic relation r**2 = x1**2 + ... + xn**2, where h = t**(1/2) carries
the half-integer time powers.  A coefficient is stored as a pair
(num, den) of polynomials in Z[h, x1..xn, r], in a normal form: no
common factor (their integer contents included), the radical r to
degree at most one in num, den r-free (rationalized by the r-conjugate)
and its leading coefficient positive.  The normal form of an element is
unique, so two coefficients are equal exactly when their pairs are.
Only CoeffContext.normal reduces a pair to its normal form; the
constructors build pairs that already are one.  The polynomials are
those of opalg.poly, sparse maps from exponent tuples to Python ints
ordered lex over (h, x1..xn, r), so all coefficient arithmetic is on
Python ints; a rational constant p/q is the pair (p, q).  In one space
dimension the radical generator is omitted, since adjoining r with
r**2 = x1**2 would create zero divisors.

This is the only module that touches the polynomials: the operator
algebra and the catalog use CoeffContext and CoeffExpr alone.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ParameterError
from .poly import PolyRing

__all__ = ["CoeffContext", "CoeffExpr"]


class CoeffContext:
    """Coefficient field for a fixed number of space dimensions."""

    def __init__(self, n):
        if n not in (1, 2, 3):
            raise ParameterError("space dimension must be 1, 2 or 3")
        self.n = n
        # (num, den, multi-index) -> CoeffExpr, kept by CoeffExpr.derivative
        self._derivatives = {}
        # generators h, x1..xn and, for n >= 2, r
        self.r_index = 1 + n if n >= 2 else None
        self.poly_ring = PolyRing(n + 2 if n >= 2 else n + 1)
        if self.r_index is not None:
            self._r_poly = self.poly_ring.gens[self.r_index]
            self._sum_x2_poly = sum(
                (self.poly_ring.gens[1 + i] ** 2 for i in range(n)),
                self.poly_ring.zero)
        else:
            self._r_poly = None
            self._sum_x2_poly = None

    # -- constructors ----------------------------------------------------

    # each builds a pair that is already a normal form

    def zero(self):
        return CoeffExpr(self, self.poly_ring.zero, self.poly_ring.one)

    def one(self):
        return CoeffExpr(self, self.poly_ring.one, self.poly_ring.one)

    def rational(self, p, q=1):
        # a reduced fraction with a positive denominator is a normal form
        value = Fraction(p, q)
        ground = self.poly_ring.ground_new
        return CoeffExpr(self, ground(value.numerator),
                         ground(value.denominator))

    def t_pow(self, half_exponent):
        """t raised to half_exponent/2, encoded as a power of h."""
        one = self.poly_ring.one
        power = self.poly_ring.gens[0] ** abs(half_exponent)
        if half_exponent < 0:
            return CoeffExpr(self, one, power)
        return CoeffExpr(self, power, one)

    def x(self, i):
        if not 1 <= i <= self.n:
            raise ParameterError("coordinate index %d out of range" % i)
        return CoeffExpr(self, self.poly_ring.gens[i], self.poly_ring.one)

    def r(self):
        if self._r_poly is None:
            raise ParameterError(
                "the radial generator is not available in one dimension")
        return CoeffExpr(self, self._r_poly, self.poly_ring.one)

    # -- normal form helpers ---------------------------------------------

    def _reduce_poly(self, p):
        """Rewrite powers of r via r**2 -> sum of x_i**2."""
        idx = self.r_index
        if idx is None or all(monom[idx] < 2 for monom in p):
            return p
        out = self.poly_ring.zero
        for monom, coeff in p.items():
            e = monom[idx]
            if e < 2:
                out[monom] = out.get(monom, 0) + coeff
                continue
            base = monom[:idx] + (e % 2,) + monom[idx + 1:]
            for m2, c2 in (self._sum_x2_poly ** (e // 2)).items():
                key = tuple(a + b for a, b in zip(base, m2))
                out[key] = out.get(key, 0) + coeff * c2
        out.strip_zero()
        return out

    def _split_r(self, p):
        """Decompose p = a + b*r with a, b free of r."""
        idx = self.r_index
        a = self.poly_ring.zero
        b = self.poly_ring.zero
        for monom, coeff in p.items():
            if monom[idx] == 0:
                a[monom] = coeff
            else:
                b[monom[:idx] + (0,) + monom[idx + 1:]] = coeff
        return a, b

    def normal(self, num, den):
        """The coefficient num/den, for polynomials num and den != 0.

        The one gcd of the normal form is the closing cancel, so callers
        pass the pair uncancelled; cancel also leaves LC(den) > 0.
        """
        num = self._reduce_poly(num)
        den = self._reduce_poly(den)
        if self.r_index is not None:
            a, b = self._split_r(den)
            if b:
                conj = a - b * self._r_poly
                num = self._reduce_poly(num * conj)
                den = self._reduce_poly(den * conj)
        num, den = num.cancel(den)
        return CoeffExpr(self, num, den)

    def axis_image(self, poly, sigma):
        """poly with each x_k renamed x_sigma[k-1]; h and r stay.

        sigma lists (sigma(1), .., sigma(n)), a permutation of 1..n.
        """
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise ParameterError("not a permutation of the axes: %r"
                                 % (sigma,))
        source = list(range(len(self.poly_ring.gens)))
        for k, image in enumerate(sigma, 1):
            source[image] = k
        return poly.new({tuple(monom[j] for j in source): coeff
                         for monom, coeff in poly.items()})

    def _lcm(self, dens):
        """The lcm of the distinct polynomials dens; 1 when there are none."""
        dens = iter(dens)
        out = next(dens, self.poly_ring.one)
        for den in dens:
            out = out.lcm(den)
        return out

    def clear_denominators(self, coeffs):
        """(scaled, L): L is the lcm of the distinct denominators of the
        nonzero coeffs, and scaled[j] = coeffs[j] * L; each is a
        polynomial over 1, found by exact division alone."""
        lcm = self._lcm(dict.fromkeys(c.den for c in coeffs
                                      if not c.is_zero()))
        one = self.poly_ring.one
        scaled = [CoeffExpr(self, c.num * lcm.exquo(c.den), one)
                  for c in coeffs]
        return scaled, CoeffExpr(self, lcm, one)

    def combination_is_zero(self, pairs):
        """Whether sum(a * b for a, b in pairs) is exactly zero.

        The products stay unreduced, grouped by denominator; the lcm of
        the distinct denominators is the only gcd work.  Numerators and
        denominators are integer polynomials, the denominators r-free and
        nonzero, and Z[h, x][r]/(r**2 - sum x_i**2) is an integral domain
        for n >= 2 (sum x_i**2 is not a square), so scaling by the lcm
        keeps zero and nonzero apart, and the reduced numerator a + b*r
        vanishes exactly when the sum does.
        """
        groups = {}
        for a, b in pairs:
            if a.is_zero() or b.is_zero():
                continue
            den = a.den * b.den
            num = a.num * b.num
            groups[den] = groups[den] + num if den in groups else num
        if not groups:
            return True
        common = self._lcm(groups)
        total = self.poly_ring.zero
        for den, num in groups.items():
            total += num * common.exquo(den) if den != common else num
        return not self._reduce_poly(total)


class CoeffExpr:
    """One element of the coefficient field, as its normal-form pair
    (num, den); see the module docstring."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
        self.num = num
        self.den = den

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CoeffExpr):
            if other.ctx is not self.ctx:
                raise ValueError("mixed coefficient contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den == other.den:
            return self.ctx.normal(self.num + other.num, self.den)
        return self.ctx.normal(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return self.ctx.normal(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        if self.is_zero():
            return self
        return self.ctx.normal(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return CoeffExpr(self.ctx, -self.num, self.den)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(
                "coefficient exponents must be nonnegative integers")
        if not exponent:
            return self.ctx.one()
        return self.ctx.normal(self.num ** exponent, self.den ** exponent)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return not self.num

    def size(self):
        """Number of numerator plus denominator terms."""
        return len(self.num) + len(self.den)

    def permuted(self, sigma):
        """The image under the axis map x_k -> x_sigma[k-1]; h and r stay.

        r**2 = x1**2 + ... + xn**2 is symmetric in the x, so the map is a
        field automorphism and renaming keeps the normal form coprime,
        content-free and its denominator r-free; only the sign rule
        LC(den) > 0 is restored, since the lex-leading term can move.
        """
        ctx = self.ctx
        num = ctx.axis_image(self.num, sigma)
        den = ctx.axis_image(self.den, sigma)
        if den.LC < 0:
            num, den = -num, -den
        return CoeffExpr(ctx, num, den)

    # -- derivations -----------------------------------------------------

    # The derivations build one numerator/denominator pair and normalise
    # once; the denominator d of a normal form is r-free.

    def dt(self):
        """Derivative in t, via d/dt = (2h)**-1 d/dh."""
        ctx = self.ctx
        n, d = self.num, self.den
        h = ctx.poly_ring.gens[0]
        return ctx.normal(n.diff(h) * d - n * d.diff(h), 2 * h * d ** 2)

    def dx(self, i):
        """Derivative in x_i, with the chain rule through r = |x|."""
        ctx = self.ctx
        if not 1 <= i <= ctx.n:
            raise ParameterError("coordinate index %d out of range" % i)
        n, d = self.num, self.den
        xi = ctx.poly_ring.gens[i]
        num = n.diff(xi) * d - n * d.diff(xi)
        if ctx.r_index is None:
            return ctx.normal(num, d ** 2)
        # x_i / r equals x_i * r / (x1**2 + ... + xn**2)
        sum_x2, r = ctx._sum_x2_poly, ctx._r_poly
        return ctx.normal(num * sum_x2 + n.diff(r) * xi * r * d,
                          d ** 2 * sum_x2)

    def derivative(self, gamma):
        """Dt**gamma[0] * prod_i Di**gamma[i] applied to this coefficient.

        Each result is kept on the context, keyed by the normal form and
        the multi-index, so any one derivative is built once.
        """
        if not any(gamma):
            return self
        memo = self.ctx._derivatives
        key = (self.num, self.den, tuple(gamma))
        out = memo.get(key)
        if out is None:
            out = self
            for _ in range(gamma[0]):
                out = out.dt()
            for i in range(1, len(gamma)):
                for _ in range(gamma[i]):
                    out = out.dx(i)
            memo[key] = out
        return out

    # -- text ------------------------------------------------------------

    def text(self):
        """The pair as "num / den", each polynomial written as
        {exponent tuple: integer} with its terms in lex order, leading
        term first; the exponents follow the generators h, x1..xn, r.
        The text is this module's own, so it is the same over any ring
        that stores the same normal form."""
        return "%s / %s" % (_terms_text(self.num), _terms_text(self.den))

    def __repr__(self):
        return "CoeffExpr(%s)" % self.text()


def _terms_text(poly):
    return "{%s}" % ", ".join("%r: %d" % (monom, coeff) for monom, coeff
                              in sorted(poly.items(), reverse=True))
