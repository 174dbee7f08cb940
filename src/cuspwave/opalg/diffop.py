"""Differential operators with exact coefficients.

An operator is a finite sum of terms c(t, x) * Dt**a * D1**b1 ... Dn**bn
stored as a map from the multi-index (a, b1, .., bn) to a CoeffExpr.
Composition uses the generalized Leibniz rule, so commutators of the
degenerate operators studied here come out exactly.
"""

from __future__ import annotations

from math import comb
from itertools import product

__all__ = ["DiffOp", "compose", "commutator", "span_decompose"]


class DiffOp:
    """A polynomial differential operator over a coefficient context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        cleaned = {}
        if terms:
            for index, coeff in terms.items():
                index = tuple(index)
                if len(index) != ctx.n + 1 or any(e < 0 for e in index):
                    raise ValueError("bad derivative multi-index %r"
                                     % (index,))
                if not coeff.is_zero():
                    cleaned[index] = coeff
        self.terms = cleaned

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def dt(cls, ctx):
        index = (1,) + (0,) * ctx.n
        return cls(ctx, {index: ctx.one()})

    @classmethod
    def dx(cls, ctx, i):
        if not 1 <= i <= ctx.n:
            raise ValueError("coordinate index %d out of range" % i)
        index = tuple(1 if j == i else 0 for j in range(ctx.n + 1))
        return cls(ctx, {index: ctx.one()})

    # -- linear structure ------------------------------------------------

    def _check(self, other):
        if not isinstance(other, DiffOp):
            raise TypeError("expected a DiffOp")
        if other.ctx is not self.ctx:
            raise ValueError("mixed coefficient contexts")

    def __add__(self, other):
        self._check(other)
        merged = dict(self.terms)
        for index, coeff in other.terms.items():
            if index in merged:
                merged[index] = merged[index] + coeff
            else:
                merged[index] = coeff
        return DiffOp(self.ctx, merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffOp(self.ctx,
                      {idx: -c for idx, c in self.terms.items()})

    def scaled(self, coeff):
        """Multiply on the left by a coefficient."""
        if isinstance(coeff, int):
            coeff = self.ctx.rational(coeff)
        return DiffOp(self.ctx,
                      {idx: coeff * c for idx, c in self.terms.items()})

    def permuted(self, sigma):
        """The image under the axis map x_k -> x_sigma[k-1] and
        D_k -> D_sigma[k-1]; t and Dt stay.  See CoeffExpr.permuted."""
        out = {}
        for index, coeff in self.terms.items():
            image = list(index)
            for k, slot in enumerate(sigma, 1):
                image[slot] = index[k]
            out[tuple(image)] = coeff.permuted(sigma)
        return DiffOp(self.ctx, out)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        # zero terms are dropped and normal forms are canonical, so equal
        # operators carry identical term maps
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "DiffOp(0)"
        parts = []
        for index in sorted(self.terms, key=lambda i: (sum(i), i),
                            reverse=True):
            names = []
            if index[0]:
                names.append("Dt^%d" % index[0] if index[0] > 1 else "Dt")
            for i in range(1, len(index)):
                if index[i]:
                    names.append("D%d^%d" % (i, index[i])
                                 if index[i] > 1 else "D%d" % i)
            body = "*".join(names) if names else "1"
            parts.append("%r*%s" % (self.terms[index], body))
        return "DiffOp(%s)" % " + ".join(parts)


def compose(first, second):
    """The operator product first * second via the Leibniz rule."""
    first._check(second)
    ctx = first.ctx
    out = {}
    for alpha, c in first.terms.items():
        ranges = [range(e + 1) for e in alpha]
        for beta, d in second.terms.items():
            for gamma in product(*ranges):
                weight = 1
                for a, g in zip(alpha, gamma):
                    weight *= comb(a, g)
                deriv = d.derivative(gamma)
                if deriv.is_zero():
                    continue
                coeff = c * deriv
                if weight != 1:
                    coeff = ctx.rational(weight) * coeff
                index = tuple(a - g + b
                              for a, g, b in zip(alpha, gamma, beta))
                if index in out:
                    out[index] = out[index] + coeff
                else:
                    out[index] = coeff
    return DiffOp(ctx, out)


def commutator(first, second):
    """The bracket first*second - second*first."""
    return compose(first, second) - compose(second, first)


def span_decompose(target, basis):
    """Solve target = sum w_j basis_j and describe the ambiguity.

    Returns a pair (weights, null_vectors).  The weights give one exact
    solution with the free coefficients set to zero; the null vectors
    span all weight vectors that combine to the zero operator, so a
    weight is uniquely determined exactly when its component vanishes in
    every null vector.  Returns (None, None) when no solution exists.
    Solved by Gauss-Jordan elimination on the coefficients of each
    derivative multi-index, pivoting in each column on the entry with
    the fewest terms.

    The solution is then checked exactly against the original equations,
    one multi-index at a time.  The weights are first brought over one
    denominator for the whole system: L_w, the lcm of the distinct
    denominators of the nonzero weights, and each w_j becomes the
    polynomial w_j * L_w over 1 (``CoeffContext.clear_denominators``).
    Each equation is then checked as
    sum (w_j L_w) * B_j[idx] - L_w * target[idx] = 0 by
    ``CoeffContext.combination_is_zero``: the products stay unreduced,
    are brought over the lcm of their distinct denominators, which now
    come from the basis and the target alone, and summed, and the
    numerator, reduced by r**2 = sum x_i**2, must be the zero
    polynomial.  L_w and every denominator are r-free nonzero integer
    polynomials, and for n >= 2 the ring Z[h, x][r]/(r**2 - sum x_i**2)
    has no zero divisors (sum x_i**2 is not a square), so the test is
    exact: it neither accepts a nonzero residual nor rejects a zero one.
    """
    if not basis:
        return ([], []) if target.is_zero() else (None, None)
    ctx = target.ctx
    indices = _indices(target, basis)
    zero = ctx.zero()
    rows = []
    for idx in indices:
        row = [op.terms.get(idx, zero) for op in basis]
        row.append(target.terms.get(idx, zero))
        rows.append(row)

    ncols = len(basis)
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        # the sparsest live entry keeps the fill-in, and so the gcds, small
        live = [k for k in range(pivot_row, len(rows))
                if not rows[k][col].is_zero()]
        if not live:
            continue
        pivot = min(live, key=lambda k: rows[k][col].size())
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [entry / lead for entry in rows[pivot_row]]
        for k in range(len(rows)):
            if k == pivot_row or rows[k][col].is_zero():
                continue
            factor = rows[k][col]
            rows[k] = [a - factor * b
                       for a, b in zip(rows[k], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1

    # rows below the pivot block must have vanishing right-hand side
    for k in range(pivot_row, len(rows)):
        if not rows[k][-1].is_zero():
            return None, None
    solution = [zero] * ncols
    for row_i, col in enumerate(pivots):
        solution[col] = rows[row_i][-1]
    # verify on the original equations, since free columns were set to zero
    if not _reproduces(target, basis, solution):
        return None, None
    one = ctx.one()
    null_vectors = []
    for free_col in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[free_col] = one
        for row_i, col in enumerate(pivots):
            vec[col] = -rows[row_i][free_col]
        null_vectors.append(vec)
    return solution, null_vectors


def _indices(target, basis):
    """The derivative multi-indices of the span system, sorted."""
    indices = set(target.terms)
    for op in basis:
        indices.update(op.terms)
    return sorted(indices)


def _reproduces(target, basis, weights):
    """Whether sum w_j * basis_j equals target exactly; see span_decompose."""
    ctx = target.ctx
    scaled, lcm_w = ctx.clear_denominators(weights)
    minus_lcm = -lcm_w
    for idx in _indices(target, basis):
        pairs = [(w, op.terms[idx]) for w, op in zip(scaled, basis)
                 if idx in op.terms]
        if idx in target.terms:
            pairs.append((minus_lcm, target.terms[idx]))
        if not ctx.combination_is_zero(pairs):
            return False
    return True
