"""Exact coefficient arithmetic for degenerate-operator identities.

Coefficients live in the fraction field Q(h, x1..xn, r) subject to the
algebraic relation r**2 = x1**2 + ... + xn**2, where h = t**(1/2) carries
the half-integer time powers.  Every element is kept in a normal form:
a numerator and a denominator in Z[h, x1..xn, r] with no common factor
(their integer contents included), the radical r to degree at most one
in the numerator, the denominator r-free (rationalized by the
r-conjugate) and its leading coefficient positive.  The field is built
over the ground ring ZZ, so all coefficient arithmetic is on Python
ints; a rational constant p/q is the pair (p, q).  In one space
dimension the radical generator is omitted, since adjoining r with
r**2 = x1**2 would create zero divisors.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ParameterError

from sympy import ZZ
from sympy.polys.fields import field

__all__ = ["CoeffContext", "CoeffExpr"]


class CoeffContext:
    """Coefficient field for a fixed number of space dimensions."""

    def __init__(self, n):
        if n not in (1, 2, 3):
            raise ParameterError("space dimension must be 1, 2 or 3")
        self.n = n
        # (normal form, multi-index) -> CoeffExpr, kept by CoeffExpr.derivative
        self._derivatives = {}
        names = ["h"] + ["x%d" % i for i in range(1, n + 1)]
        if n >= 2:
            names.append("r")
        unpacked = field(",".join(names), ZZ)
        self.field = unpacked[0]
        gens = unpacked[1:]
        self._h = gens[0]
        self._x = gens[1:1 + n]
        self._r = gens[1 + n] if n >= 2 else None
        self.poly_ring = self._h.numer.ring
        self.r_index = 1 + n if n >= 2 else None
        if self.r_index is not None:
            self._r_poly = self.poly_ring.gens[self.r_index]
            self._sum_x2_poly = sum(
                self.poly_ring.gens[1 + i] ** 2 for i in range(n))
        else:
            self._r_poly = None
            self._sum_x2_poly = None

    # -- constructors ----------------------------------------------------

    def zero(self):
        return CoeffExpr(self, self.field.zero)

    def one(self):
        return CoeffExpr(self, self.field.one)

    def rational(self, p, q=1):
        # a reduced fraction with a positive denominator is a normal form
        value = Fraction(p, q)
        ring = self.poly_ring
        elem = self.field.raw_new(ring.ground_new(value.numerator),
                                  ring.ground_new(value.denominator))
        return CoeffExpr(self, elem, reduce=False)

    def t_pow(self, half_exponent):
        """t raised to half_exponent/2, encoded as a power of h."""
        return CoeffExpr(self, self._h ** half_exponent, reduce=False)

    def x(self, i):
        if not 1 <= i <= self.n:
            raise ParameterError("coordinate index %d out of range" % i)
        return CoeffExpr(self, self._x[i - 1], reduce=False)

    def r(self):
        if self._r is None:
            raise ParameterError(
                "the radial generator is not available in one dimension")
        return CoeffExpr(self, self._r, reduce=False)

    # -- normal form helpers ---------------------------------------------

    def _reduce_poly(self, p):
        """Rewrite powers of r via r**2 -> sum of x_i**2."""
        idx = self.r_index
        if idx is None or all(monom[idx] < 2 for monom in p):
            return p
        out = self.poly_ring.zero
        zero = self.poly_ring.domain.zero
        for monom, coeff in p.items():
            e = monom[idx]
            if e < 2:
                out[monom] = out.get(monom, zero) + coeff
                continue
            base = monom[:idx] + (e % 2,) + monom[idx + 1:]
            for m2, c2 in (self._sum_x2_poly ** (e // 2)).items():
                key = tuple(a + b for a, b in zip(base, m2))
                out[key] = out.get(key, zero) + coeff * c2
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
        """Return the normal form of num/den, for polynomials num, den.

        The one gcd of the normal form is the closing cancel, so callers
        pass the pair uncancelled.
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
        if den.LC < 0:
            num, den = -num, -den
        return self.field.raw_new(num, den)

    def normalize(self, frac):
        """Return the normal form of a raw fraction-field element."""
        return self.normal(frac.numer, frac.denom)

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
            fa, fb = a.frac, b.frac
            den = fa.denom * fb.denom
            num = fa.numer * fb.numer
            groups[den] = groups[den] + num if den in groups else num
        if not groups:
            return True
        dens = list(groups)
        common = dens[0]
        for den in dens[1:]:
            common = common.lcm(den)
        total = self.poly_ring.zero
        for den, num in groups.items():
            total += num * common.exquo(den) if den != common else num
        return not self._reduce_poly(total)


class CoeffExpr:
    """One element of the coefficient field, in normal form."""

    __slots__ = ("ctx", "frac")

    def __init__(self, ctx, frac, reduce=True):
        self.ctx = ctx
        self.frac = ctx.normalize(frac) if reduce else frac

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CoeffExpr):
            if other.ctx is not self.ctx:
                raise ValueError("mixed coefficient contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return NotImplemented

    def _new(self, num, den):
        return CoeffExpr(self.ctx, self.ctx.normal(num, den), reduce=False)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b = self.frac, other.frac
        if a.denom == b.denom:
            return self._new(a.numer + b.numer, a.denom)
        return self._new(a.numer * b.denom + b.numer * a.denom,
                         a.denom * b.denom)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        a, b = self.frac, other.frac
        return self._new(a.numer * b.numer, a.denom * b.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        if self.is_zero():
            return self
        a, b = self.frac, other.frac
        return self._new(a.numer * b.denom, a.denom * b.numer)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return CoeffExpr(self.ctx, -self.frac, reduce=False)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("coefficient exponents must be integers")
        return CoeffExpr(self.ctx, self.frac ** exponent)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((id(self.ctx), self.frac))

    def is_zero(self):
        return not self.frac.numer

    def size(self):
        """Number of numerator plus denominator terms."""
        return len(self.frac.numer) + len(self.frac.denom)

    def permuted(self, sigma):
        """The image under the axis map x_k -> x_sigma[k-1]; h and r stay.

        r**2 = x1**2 + ... + xn**2 is symmetric in the x, so the map is a
        field automorphism and renaming keeps the normal form coprime,
        content-free and its denominator r-free; only the sign rule
        LC(den) > 0 is restored, since the lex-leading term can move.
        """
        ctx = self.ctx
        num = ctx.axis_image(self.frac.numer, sigma)
        den = ctx.axis_image(self.frac.denom, sigma)
        if den.LC < 0:
            num, den = -num, -den
        return CoeffExpr(ctx, ctx.field.raw_new(num, den), reduce=False)

    # -- derivations -----------------------------------------------------

    # The derivations build one numerator/denominator pair and normalise
    # once; the denominator d of a normal form is r-free.

    def dt(self):
        """Derivative in t, via d/dt = (2h)**-1 d/dh."""
        ctx = self.ctx
        n, d = self.frac.numer, self.frac.denom
        h = ctx.poly_ring.gens[0]
        return self._new(n.diff(h) * d - n * d.diff(h), 2 * h * d ** 2)

    def dx(self, i):
        """Derivative in x_i, with the chain rule through r = |x|."""
        ctx = self.ctx
        if not 1 <= i <= ctx.n:
            raise ParameterError("coordinate index %d out of range" % i)
        n, d = self.frac.numer, self.frac.denom
        xi = ctx.poly_ring.gens[i]
        num = n.diff(xi) * d - n * d.diff(xi)
        if ctx.r_index is None:
            return self._new(num, d ** 2)
        # x_i / r equals x_i * r / (x1**2 + ... + xn**2)
        sum_x2, r = ctx._sum_x2_poly, ctx._r_poly
        return self._new(num * sum_x2 + n.diff(r) * xi * r * d,
                         d ** 2 * sum_x2)

    def derivative(self, gamma):
        """Dt**gamma[0] * prod_i Di**gamma[i] applied to this coefficient.

        Each result is kept on the context, keyed by the normal form and
        the multi-index, so any one derivative is built once.
        """
        if not any(gamma):
            return self
        memo = self.ctx._derivatives
        key = (self.frac, tuple(gamma))
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

    def __repr__(self):
        return "CoeffExpr(%s)" % (self.frac,)
