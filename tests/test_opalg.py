import inspect
import random
from itertools import permutations

import pytest

from sympy import QQ, ZZ
from sympy.polys.fields import field

from cuspwave.errors import ParameterError
from cuspwave.opalg import (
    CoeffContext,
    CoeffExpr,
    DiffOp,
    catalog_verify,
    commutator,
    compose,
    verify_identity,
)
from cuspwave.opalg import catalog
from cuspwave.opalg.diffop import _reproduces, span_decompose
from cuspwave.opalg.poly import Poly, PolyRing

from oracles import (CATALOG_SHA256, CERTIFICATE_SHA256, catalog_digest,
                     certificate_digest)


@pytest.fixture(scope="module")
def ctx2():
    return CoeffContext(2)


def multiplier(coeff):
    """The zeroth-order operator of multiplication by coeff."""
    ctx = coeff.ctx
    return DiffOp(ctx, {(0,) * (ctx.n + 1): coeff})


def random_op(ctx, rng, max_terms=3, max_order=2):
    """Small random operator with rational-monomial coefficients."""
    op = DiffOp.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        coeff = ctx.rational(rng.randint(-3, 3))
        if coeff.is_zero():
            coeff = ctx.one()
        coeff = coeff * ctx.t_pow(rng.randint(0, 2))
        coeff = coeff * ctx.x(rng.randint(1, ctx.n)) ** rng.randint(0, 1)
        index = [rng.randint(0, max_order) for _ in range(ctx.n + 1)]
        while sum(index) > max_order:
            index[index.index(max(index))] -= 1
        op = op + DiffOp(ctx, {tuple(index): coeff})
    return op


# -- coefficient field ----------------------------------------------------

def test_coeff_arithmetic_and_radial_reduction(ctx2):
    r = ctx2.r()
    x1, x2 = ctx2.x(1), ctx2.x(2)
    assert (r ** 2 - x1 ** 2 - x2 ** 2).is_zero()
    # rationalized quotients stay exact
    q = (x1 + r) / (x1 - r)
    back = q * (x1 - r)
    assert back == x1 + r
    assert r.dx(1) == x1 / r
    assert (ctx2.t_pow(2) ** 3).dt() == ctx2.rational(3) * ctx2.t_pow(2) ** 2


def test_coeff_half_powers(ctx2):
    h = ctx2.t_pow(1)
    assert h * h == ctx2.t_pow(2)
    assert ctx2.t_pow(3).dt() == ctx2.rational(3, 2) * ctx2.t_pow(1)


def _sample_coeffs(ctx):
    """Normal-form coefficients, with quotients by r where n >= 2."""
    h, t, x1 = ctx.t_pow(1), ctx.t_pow(2), ctx.x(1)
    out = [ctx.zero(), ctx.one(), ctx.rational(-3, 2), x1, ctx.t_pow(-3),
           (x1 + ctx.rational(2) * t) / (x1 - h), x1 ** 2 / (t + 1)]
    if ctx.n >= 2:
        r, x2 = ctx.r(), ctx.x(2)
        out += [r, (x1 + r) / (x1 - r), x2 * r / (t - r),
                ctx.rational(5, 3) / (r + h), r ** 3 - x2 * t]
    if ctx.n == 3:
        out.append(ctx.x(3) * ctx.r() / (ctx.x(3) + h))
    return out


# The oracle is sympy's own fraction field over the same generators: its
# field operators, then one normalisation, give the normal form, and the
# pairs are compared term by term as monomial -> int maps.  Polynomials
# cross between the two rings as exponent dicts.

def _symbols(ctx):
    """The generators h, x1..xn and, for n >= 2, r, in the package's order."""
    return ["h"] + ["x%d" % i for i in range(1, ctx.n + 1)] \
        + (["r"] if ctx.n >= 2 else [])


def _oracle_field(ctx, domain=ZZ):
    return field(_symbols(ctx), domain)[0]


def _as_frac(oracle, c):
    """The coefficient c as an element of the oracle field."""
    ring = oracle.ring
    return oracle.raw_new(ring.from_dict(dict(c.num.items())),
                          ring.from_dict(dict(c.den.items())))


def _poly(sympy_poly):
    """A sympy polynomial over ZZ as one of the package's ring."""
    return Poly({m: int(v) for m, v in sympy_poly.items()})


def _normal_of(ctx, frac):
    """The normal form of an oracle field element, as a coefficient."""
    return ctx.normal(_poly(frac.numer), _poly(frac.denom))


def _pair(c):
    """(num, den) of a coefficient, each as monomial -> int."""
    return ({m: int(v) for m, v in c.num.items()},
            {m: int(v) for m, v in c.den.items()})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_ops_match_field_arithmetic(n):
    ctx = CoeffContext(n)
    oracle = _oracle_field(ctx)
    samples = _sample_coeffs(ctx)
    for c in samples:
        assert _pair(c) == _pair(_normal_of(ctx, _as_frac(oracle, c)))
    ops = [(lambda a, b: a + b), (lambda a, b: a - b),
           (lambda a, b: a * b), (lambda a, b: a / b)]
    for a in samples:
        for b in samples:
            for k, op in enumerate(ops):
                if k == 3 and b.is_zero():
                    continue
                got = op(a, b)
                want = _normal_of(ctx, op(_as_frac(oracle, a),
                                          _as_frac(oracle, b)))
                assert _pair(got) == _pair(want), (k, a, b)
                assert got == want, (k, a, b)


def _terms(poly):
    """monomial -> (numerator, denominator) of each coefficient."""
    return {monom: (int(c.numerator), int(c.denominator))
            for monom, c in poly.items()}


def _qq_normal(ctx, frac):
    """(num, den) of the normal form of a field element over QQ, found
    in sympy's polynomial ring over QQ alone: r**2 -> sum x_i**2, the
    denominator made r-free by its conjugate, one cancel, LC(den) > 0."""
    ring = frac.field.ring
    num, den = frac.numer, frac.denom
    if ctx.n >= 2:
        idx = ctx.n + 1
        sum_x2 = sum(ring.gens[i] ** 2 for i in range(1, ctx.n + 1))

        def reduce(p):
            out = ring.zero
            for monom, c in p.items():
                e = monom[idx]
                base = ring({monom[:idx] + (e % 2,) + monom[idx + 1:]: c})
                out += base * sum_x2 ** (e // 2)
            return out

        num, den = reduce(num), reduce(den)
        odd = ring({m: c for m, c in den.items() if m[idx]})
        if odd:
            conj = den - 2 * odd
            num, den = reduce(num * conj), reduce(den * conj)
    num, den = num.cancel(den)
    return (-num, -den) if den.LC < 0 else (num, den)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_ops_match_rational_ground_field(n):
    # the same normal forms from sympy's polynomial ring over QQ, whose
    # cancel clears denominators and returns to QQ around every gcd
    ctx = CoeffContext(n)
    qq = _oracle_field(ctx, QQ)
    assert qq.domain == QQ

    def same(got, frac, *label):
        num, den = _qq_normal(ctx, frac)
        assert _terms(got.num) == _terms(num), label
        assert _terms(got.den) == _terms(den), label

    ops = [(lambda a, b: a + b), (lambda a, b: a - b),
           (lambda a, b: a * b), (lambda a, b: a / b)]
    pairs = [(a, _as_frac(qq, a)) for a in _sample_coeffs(ctx)]
    for a, qa in pairs:
        same(a, qa)
        same(a.dt(), _field_dt(qq, qa), "dt", a)
        for i in range(1, n + 1):
            same(a.dx(i), _field_dx(qq, qa, n, i), "dx", i, a)
        for b, qb in pairs:
            for k, op in enumerate(ops):
                if k == 3 and b.is_zero():
                    continue
                same(op(a, b), op(qa, qb), k, a, b)


def _field_dt(oracle, frac):
    h = oracle.gens[0]
    return frac.diff(h) / (2 * h)


def _field_dx(oracle, frac, n, i):
    gens = oracle.gens
    raw = frac.diff(gens[i])
    if n >= 2:
        r = gens[n + 1]
        sum_x2 = sum(xj ** 2 for xj in gens[1:n + 1])
        raw = raw + frac.diff(r) * gens[i] * r / sum_x2
    return raw


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_derivatives_match_field_arithmetic(n):
    ctx = CoeffContext(n)
    oracle = _oracle_field(ctx)
    for c in _sample_coeffs(ctx):
        frac = _as_frac(oracle, c)
        cases = [(c.dt(), _field_dt(oracle, frac))]
        cases += [(c.dx(i), _field_dx(oracle, frac, n, i))
                  for i in range(1, n + 1)]
        for k, (got, want) in enumerate(cases):
            assert _pair(got) == _pair(_normal_of(ctx, want)), (k, c)


def _inverse(sigma):
    inverse = [0] * len(sigma)
    for k, image in enumerate(sigma, 1):
        inverse[image - 1] = k
    return tuple(inverse)


def _forms(op):
    """multi-index -> normal form (numerator, denominator)."""
    return {idx: _pair(c) for idx, c in op.terms.items()}


@pytest.mark.parametrize("n", [2, 3])
def test_axis_map_is_a_field_automorphism(n):
    ctx = CoeffContext(n)
    x1, x2 = ctx.x(1), ctx.x(2)
    # x1 - x2 leads with +x1; its image under 1 <-> 2 leads with -x1
    samples = _sample_coeffs(ctx) + [(x2 + ctx.t_pow(1)) / (x1 - x2)]
    ops = [(lambda a, b: a + b), (lambda a, b: a - b),
           (lambda a, b: a * b), (lambda a, b: a / b)]
    flipped = 0
    for sigma in permutations(range(1, n + 1)):
        images = [c.permuted(sigma) for c in samples]
        for c, image in zip(samples, images):
            num = ctx.axis_image(c.num, sigma)
            den = ctx.axis_image(c.den, sigma)
            flipped += den.LC < 0
            want = ctx.normal(num, den)
            assert _pair(image) == _pair(want), (sigma, c)
            assert _pair(image.permuted(_inverse(sigma))) == _pair(c)
            assert _pair(c.dt().permuted(sigma)) == _pair(image.dt())
            for k in range(1, n + 1):
                assert _pair(c.dx(k).permuted(sigma)) \
                    == _pair(image.dx(sigma[k - 1])), (sigma, k, c)
        if sigma not in [catalog._axis_map(n, i) for i in range(2, n + 1)]:
            continue
        for (a, sa) in zip(samples, images):
            for (b, sb) in zip(samples, images):
                for k, op in enumerate(ops):
                    if k == 3 and b.is_zero():
                        continue
                    assert _pair(op(a, b).permuted(sigma)) \
                        == _pair(op(sa, sb)), (sigma, k, a, b)
    assert flipped


@pytest.mark.parametrize("n", [2, 3])
def test_axis_map_commutes_with_compose(n):
    rng = random.Random(5)
    ctx = CoeffContext(n)
    x1, x2 = ctx.x(1), ctx.x(2)
    ops = [random_op(ctx, rng) for _ in range(3)] + [
        # the slanted cone normal field at m = 2 on axis 1
        DiffOp.dx(ctx, 1).scaled(ctx.r() - ctx.rational(1, 2) * ctx.t_pow(4)),
        catalog._field(ctx, "Vbar", (0,), 2),
        catalog._field(ctx, "L", (0, 1), 1),
        DiffOp.dx(ctx, 2).scaled(ctx.r() / (x1 - x2))]
    for sigma in permutations(range(1, n + 1)):
        for k in range(1, n + 1):
            assert _forms(DiffOp.dx(ctx, k).permuted(sigma)) \
                == _forms(DiffOp.dx(ctx, sigma[k - 1]))
        for a in ops:
            assert _forms(a.permuted(sigma).permuted(_inverse(sigma))) \
                == _forms(a)
            for b in ops:
                assert _forms(compose(a, b).permuted(sigma)) \
                    == _forms(compose(a.permuted(sigma),
                                      b.permuted(sigma))), (sigma, a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_combination_is_zero(n):
    ctx = CoeffContext(n)
    oracle = _oracle_field(ctx)
    samples = _sample_coeffs(ctx)
    one, minus_one = ctx.one(), ctx.rational(-1)
    eps = ctx.rational(1, 10 ** 6)
    x1, h, t = ctx.x(1), ctx.t_pow(1), ctx.t_pow(2)
    mixed = list(zip(samples, reversed(samples)))
    mixed_sum = sum((a * b for a, b in mixed), ctx.zero())
    square = [(x1, x1), (minus_one, x1 ** 2)]
    if n >= 2:
        # vanishes only through r**2 = x1**2 + x2**2 (+ x3**2)
        square = [(ctx.r(), ctx.r())] + [(-ctx.x(i), ctx.x(i))
                                         for i in range(1, n + 1)]
    shared = [(one / (x1 - h), one / (t + 1)),
              (-one / (t + 1), one / (x1 - h))]
    cases = [
        ([], True),
        ([(ctx.zero(), x1)], True),
        (square, True),
        (square + [(eps, one)], False),
        (shared, True),
        (shared + [(eps, one / (t + 1))], False),
        (mixed + [(minus_one, mixed_sum)], True),
        (mixed + [(minus_one, mixed_sum), (eps, x1 / (x1 - h))], False),
        (mixed, False),
    ]
    for pairs, expected in cases:
        got = ctx.combination_is_zero(pairs)
        assert got == sum((a * b for a, b in pairs), ctx.zero()).is_zero()
        field_sum = sum((_as_frac(oracle, a) * _as_frac(oracle, b)
                         for a, b in pairs), oracle.zero)
        assert got == _normal_of(ctx, field_sum).is_zero()
        assert got is expected


def test_span_check_rejects_wrong_weights(ctx2, monkeypatch):
    dt, d1 = DiffOp.dt(ctx2), DiffOp.dx(ctx2, 1)
    basis = [dt, d1, multiplier(ctx2.one()), dt + d1]
    target = dt.scaled(ctx2.rational(3)) + d1.scaled(ctx2.x(1)) \
        + multiplier(ctx2.r())
    assert span_decompose(target, basis)[0] is not None
    # every pivot normalisation comes out off by 1/10**6; only the closing
    # check can notice, since no equation is left below the pivot block
    real = CoeffExpr.__truediv__
    eps = ctx2.rational(1, 10 ** 6)
    monkeypatch.setattr(CoeffExpr, "__truediv__",
                        lambda a, b: real(a, b) + eps)
    assert span_decompose(target, basis) == (None, None)


def test_span_check_scales_weights_over_one_denominator(ctx2):
    # weights over distinct non-trivial denominators: two coprime ones, which
    # share no factor with the basis denominators, and their product
    x1, h, t, r = ctx2.x(1), ctx2.t_pow(1), ctx2.t_pow(2), ctx2.r()
    one = ctx2.one()
    dt, d1 = DiffOp.dt(ctx2), DiffOp.dx(ctx2, 1)
    basis = [dt.scaled(r / (x1 + t)), d1 + dt.scaled(x1),
             multiplier(one / (h + 1))]
    weights = [one / (x1 - h), r / (t + 1), x1 / ((x1 - h) * (t + 1))]
    target = DiffOp.zero(ctx2)
    for w, op in zip(weights, basis):
        target = target + op.scaled(w)
    got, nulls = span_decompose(target, basis)
    assert got is not None and nulls == []
    assert all((a - b).is_zero() for a, b in zip(got, weights))
    assert _reproduces(target, basis, weights)
    eps = ctx2.rational(1, 10 ** 6)
    for j in range(len(weights)):
        wrong = list(weights)
        wrong[j] = wrong[j] + eps
        assert not _reproduces(target, basis, wrong), j
    assert not _reproduces(target, basis, [weights[0], weights[1],
                                           ctx2.zero()])


def test_radial_generator_requires_two_dimensions():
    ctx1 = CoeffContext(1)
    with pytest.raises(ParameterError):
        ctx1.r()


# -- operator algebra -----------------------------------------------------

def test_compose_product_rule(ctx2):
    dt = DiffOp.dt(ctx2)
    t_mult = multiplier(ctx2.t_pow(2))
    left = compose(dt, t_mult)
    expect = compose(t_mult, dt) + multiplier(ctx2.one())
    assert (left - expect).is_zero()


def test_compose_radial_product_rule(ctx2):
    d1 = DiffOp.dx(ctx2, 1)
    r_mult = multiplier(ctx2.r())
    left = compose(d1, r_mult)
    expect = compose(r_mult, d1) + multiplier(ctx2.x(1) / ctx2.r())
    assert (left - expect).is_zero()


def test_compose_associative():
    rng = random.Random(7)
    ctx = CoeffContext(2)
    for _ in range(6):
        a, b, c = (random_op(ctx, rng) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert (lhs - rhs).is_zero()


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(11)
    ctx = CoeffContext(2)
    for _ in range(4):
        a, b, c = (random_op(ctx, rng, max_order=1) for _ in range(3))
        assert (commutator(a, b) + commutator(b, a)).is_zero()
        jac = commutator(a, commutator(b, c)) \
            + commutator(b, commutator(c, a)) \
            + commutator(c, commutator(a, b))
        assert jac.is_zero()


def test_scaling_law(ctx2):
    dt = DiffOp.dt(ctx2)
    d1, d2 = DiffOp.dx(ctx2, 1), DiffOp.dx(ctx2, 2)
    t = ctx2.t_pow(2)
    # Q = Dt^2 - t (D1^2 + D2^2),  V0 = 2t Dt + 3 (x1 D1 + x2 D2)
    Q = compose(dt, dt) - (compose(d1, d1) + compose(d2, d2)).scaled(t)
    V0 = dt.scaled(t * 2) + (d1.scaled(ctx2.x(1)) + d2.scaled(ctx2.x(2))).scaled(3)
    holds, residual, terms = verify_identity(
        commutator(Q, V0), Q.scaled(ctx2.rational(4)))
    assert holds
    assert terms == 0
    assert residual.is_zero()


def test_compose_derives_each_coefficient_once(monkeypatch):
    # the derivatives compose needs are kept on the context, so a second
    # product of the same operators differentiates nothing
    ctx = CoeffContext(2)
    dt, d1, d2 = DiffOp.dt(ctx), DiffOp.dx(ctx, 1), DiffOp.dx(ctx, 2)
    Q = compose(dt, dt) - (compose(d1, d1) + compose(d2, d2)).scaled(ctx.t_pow(2))
    V0 = dt.scaled(ctx.t_pow(2) * 2) + (d1.scaled(ctx.x(1)) + d2.scaled(ctx.x(2))).scaled(3)
    calls = []
    for name in ("dt", "dx"):
        real = getattr(CoeffExpr, name)
        monkeypatch.setattr(CoeffExpr, name,
                            lambda self, *args, real=real:
                            calls.append(args) or real(self, *args))
    first = commutator(Q, V0)
    assert calls
    made = len(calls)
    assert commutator(Q, V0) == first
    assert len(calls) == made


def test_solve_in_span(ctx2):
    dt = DiffOp.dt(ctx2)
    d1 = DiffOp.dx(ctx2, 1)
    target = dt.scaled(ctx2.rational(3)) + d1.scaled(ctx2.x(1))
    weights = span_decompose(target, [dt, d1, multiplier(ctx2.one())])[0]
    assert weights is not None
    assert weights[0] == ctx2.rational(3)
    assert weights[1] == ctx2.x(1)
    assert weights[2].is_zero()
    assert span_decompose(multiplier(ctx2.one()), [dt, d1])[0] is None


def test_span_decompose_reports_ambiguity(ctx2):
    dt = DiffOp.dt(ctx2)
    weights, nulls = span_decompose(dt.scaled(ctx2.rational(2)), [dt, dt])
    assert weights is not None
    assert len(nulls) == 1
    combo = DiffOp.zero(ctx2)
    for w, op in zip(nulls[0], [dt, dt]):
        combo = combo + op.scaled(w)
    assert combo.is_zero()


# -- identity catalog -----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_catalog_clean(m, n):
    rows = catalog_verify(m, n)
    for row in rows:
        assert row.ok, row.name
    names = [row.name for row in rows]
    assert any("negative control" in name for name in names)


@pytest.mark.parametrize("pair", [(2, 1), (3, 1), (4, 2)])
def test_catalog_mixed_pairs(pair):
    for n in (1, 2):
        rows = catalog_verify(pair, n)
        assert rows
        for row in rows:
            assert row.ok, row.name


def test_catalog_negative_control_reports_nonzero():
    rows = catalog_verify(1, 1)
    control = [row for row in rows if "negative control" in row.name]
    assert len(control) == 1
    assert control[0].status == "nonzero"
    assert control[0].expected == "nonzero"
    assert control[0].ok


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        catalog_verify(0, 2)
    with pytest.raises(ParameterError):
        catalog_verify(1, 4)
    with pytest.raises(ParameterError):
        catalog_verify((2, 2), 2)
    with pytest.raises(ParameterError):
        catalog_verify((1, 2, 3), 2)


def test_catalog_row_counts():
    # pinned so that a dropped row fails; n == 3 adds the
    # [Vbar_l, L_ij] = 0 and [L12, L13] = L32 rows
    assert len(catalog_verify(1, 1)) == 16
    assert len(catalog_verify(2, 2)) == 52
    assert len(catalog_verify((3, 1), 2)) == 1
    rows = catalog_verify(1, 3)
    assert len(rows) == 85
    for row in rows:
        assert row.ok, row.name


def test_catalog_span_solutions_are_exact(monkeypatch):
    # every system a square row uses, eliminated on axis 1 or carried over
    # from axis 1 by the axis map, solves its own target exactly
    systems = []
    real = catalog._square_solution

    def recording(*args):
        system = real(*args)
        systems.append(system)
        return system

    monkeypatch.setattr(catalog, "_square_solution", recording)
    rows = catalog_verify(2, 2)
    assert all(row.ok for row in rows)
    assert len(systems) == 6
    for target, basis, weights, nulls in systems:
        assert weights is not None
        combo = DiffOp.zero(target.ctx)
        for w, op in zip(weights, basis):
            combo = combo + op.scaled(w)
        assert (combo - target).is_zero()
        for vec in nulls:
            assert not all(v.is_zero() for v in vec)
            combo = DiffOp.zero(target.ctx)
            for v, op in zip(vec, basis):
                combo = combo + op.scaled(v)
            assert combo.is_zero()


def _count_eliminations(monkeypatch):
    calls = []
    real = catalog.span_decompose
    monkeypatch.setattr(catalog, "span_decompose",
                        lambda target, basis:
                        calls.append(len(basis)) or real(target, basis))
    return calls


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_catalog_eliminates_one_system_per_family(m, n, monkeypatch):
    # one elimination for each of the three cone normal-field families;
    # the other axes take the axis-1 solution through the axis map
    calls = _count_eliminations(monkeypatch)
    rows = catalog_verify(m, n)
    assert all(row.ok for row in rows)
    assert len(calls) == 3
    assert catalog_digest(rows) == CATALOG_SHA256[m, n]
    assert certificate_digest(rows) == CERTIFICATE_SHA256[m, n]


def test_catalog_builds_each_field_once(monkeypatch):
    # one alphabet per run: a field built twice is work done twice
    real = catalog._field
    built = []
    monkeypatch.setattr(catalog, "_field",
                        lambda ctx, name, indices, k:
                        built.append((name, tuple(indices), k))
                        or real(ctx, name, indices, k))
    for selector, n in ((2, 2), (1, 3)):
        built.clear()
        catalog_verify(selector, n)
        twice = sorted({key for key in built if built.count(key) > 1})
        assert built and twice == [], (selector, n, twice)


def test_square_system_rotated_column_is_the_rotation_sum():
    # Vbar_i kills x_k for k != i, so Vbar_i * rot_i is the sum of the
    # x_k Vbar_i * L_ik
    for n in (2, 3):
        ctx = CoeffContext(n)
        A = catalog._Alphabet(ctx, 2)
        for i in range(1, n + 1):
            summed = DiffOp.zero(ctx)
            for k in range(1, n + 1):
                if k != i:
                    summed = summed + compose(A.Vbar[i], A.L[i, k]).scaled(
                        ctx.x(k))
            assert compose(A.Vbar[i], A.rot[i]) == summed, (n, i)


@pytest.mark.parametrize("change", [None, "swap", "perturb"])
def test_square_system_off_the_image_is_eliminated(change, monkeypatch):
    ctx, m = CoeffContext(2), 2
    alphabet = catalog._Alphabet(ctx, m)
    quadratic = catalog._quadratic(alphabet)
    # the first cone normal-field family t^(m/2) r D_i
    N1 = [DiffOp.dx(ctx, i).scaled(ctx.t_pow(m) * ctx.r()) for i in (1, 2)]
    target1, basis1 = catalog._square_system(N1[0], 1, alphabet, quadratic)
    first = (target1, basis1) + span_decompose(target1, basis1)
    target, basis = catalog._square_system(N1[1], 2, alphabet, quadratic)
    if change == "swap":
        basis[0], basis[1] = basis[1], basis[0]
    elif change == "perturb":
        # no alphabet product has a zeroth-order term
        target = target + multiplier(ctx.x(1))
    r, tp = ctx.r(), ctx.t_pow
    c1 = ctx.rational(2 * (m + 2)) * tp(m) * r \
        / (ctx.rational((m + 2) ** 2) * r ** 2 - ctx.rational(4)
           * tp(2 * m + 4))
    calls = _count_eliminations(monkeypatch)
    system = catalog._square_solution(target, basis, first, (2, 1))
    assert len(calls) == (0 if change is None else 1)
    direct = (target, basis) + span_decompose(target, basis)
    assert str(system[2:]) == str(direct[2:])
    row = catalog._square_decomp_row("row", system, c1)
    assert row == catalog._square_decomp_row("row", direct, c1)
    assert row.ok == (change != "perturb")


# (name, status, residual_terms, expected) of every row, as recorded from the
# exact arithmetic over a QQ ground field; the benchmark gate reads only ok
_PINNED_M2_N2 = [
    ("[Q, V0] = 4 Q", "zero", 0, "zero"),
    ("[Q, Vbar1] = lower order", "zero", 0, "zero"),
    ("[Q, Vbar2] = lower order", "zero", 0, "zero"),
    ("[Q, L12] = 0", "zero", 0, "zero"),
    ("[V0, Vbar1] = 0", "zero", 0, "zero"),
    ("[V0, Vbar2] = 0", "zero", 0, "zero"),
    ("[V0, L12] = 0", "zero", 0, "zero"),
    ("[Vbar1, L12] = Vbar2", "zero", 0, "zero"),
    ("[Vbar2, L12] = -Vbar1", "zero", 0, "zero"),
    ("[Vbar1, Vbar2] = rotation + lower order", "zero", 0, "zero"),
    ("[P1, V0] = 6 P1", "zero", 0, "zero"),
    ("[P1, L12] = 0", "zero", 0, "zero"),
    ("[P1, Vbar1] = singular expansion", "zero", 0, "zero"),
    ("[P1, Vbar2] = singular expansion", "zero", 0, "zero"),
    ("[P1, t*Dt] = 3 P1 + lower order", "zero", 0, "zero"),
    ("[t*Dt, V0] = 0", "zero", 0, "zero"),
    ("[t*Dt, L12] = 0", "zero", 0, "zero"),
    ("[V, Vbar1] = 0", "zero", 0, "zero"),
    ("[V, R2] = 0", "zero", 0, "zero"),
    ("[Vbar1, R2] = 0", "zero", 0, "zero"),
    ("[P1, R2] = 0", "zero", 0, "zero"),
    ("[Q, R2] = 0", "zero", 0, "zero"),
    ("[P1, V] = 6 P1 + transverse terms", "zero", 0, "zero"),
    ("[Q, V] = 4 Q + transverse terms", "zero", 0, "zero"),
    ("plane square: (x1*Dt)^2", "zero", 0, "zero"),
    ("plane square: branch + slanted field", "zero", 0, "zero"),
    ("plane square: branch - slanted field", "zero", 0, "zero"),
    ("plane square: (t*Dt)^2", "zero", 0, "zero"),
    ("plane square: (t^((m+2)/2)*D1)^2", "zero", 0, "zero"),
    ("cone square: (r*Dt)^2", "zero", 0, "zero"),
    ("cone square: (t^(m/2)*r*D1)^2 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar1 via vertex normal field", "zero", 0, "zero"),
    ("cone elimination: Vbar1 via scaled gradient", "zero", 0, "zero"),
    ("cone square: slanted normal field 1 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar1 via slanted normal field", "zero", 0, "zero"),
    ("cone square: (t^(m/2)*r*D2)^2 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar2 via vertex normal field", "zero", 0, "zero"),
    ("cone elimination: Vbar2 via scaled gradient", "zero", 0, "zero"),
    ("cone square: slanted normal field 2 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar2 via slanted normal field", "zero", 0, "zero"),
    ("cone square: (t*Dt)^2", "zero", 0, "zero"),
    ("cone elimination: Vbar1 via time scaling field", "zero", 0, "zero"),
    ("cone square: (t^((m+2)/2)*D1)^2 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar1 via time-power gradient", "zero", 0, "zero"),
    ("cone elimination: Vbar2 via time scaling field", "zero", 0, "zero"),
    ("cone square: (t^((m+2)/2)*D2)^2 modulo admissible terms",
     "solvable", 0, "zero"),
    ("cone elimination: Vbar2 via time-power gradient", "zero", 0, "zero"),
    ("admissible square decomposition: vertex normal field",
     "asserted", 0, "asserted"),
    ("admissible square decomposition: slanted normal field",
     "asserted", 0, "asserted"),
    ("admissible square decomposition: time scaling field",
     "asserted", 0, "asserted"),
    ("admissible square decomposition: time-power gradient",
     "asserted", 0, "asserted"),
    ("negative control: corrupted scaling law", "nonzero", 1, "nonzero"),
]
_PINNED_PAIR_3_1_N1 = [
    ("scaling field at exponent 3 via exponent 1 alphabet", "zero", 0, "zero"),
]


@pytest.mark.parametrize("selector, n, rows", [
    (2, 2, _PINNED_M2_N2), ((3, 1), 1, _PINNED_PAIR_3_1_N1)])
def test_catalog_rows_are_pinned(selector, n, rows):
    got = [(r.name, r.status, r.residual_terms, r.expected)
           for r in catalog_verify(selector, n)]
    assert got == rows


def test_catalog_gcd_count(monkeypatch):
    # the gcd work of catalog_verify(2, 2): one cancel per normal form and
    # the lcms of the closing span checks
    calls = []
    for name in ("cancel", "lcm"):
        real = getattr(Poly, name)
        monkeypatch.setattr(Poly, name,
                            lambda f, g, real=real, name=name:
                            calls.append(name) or real(f, g))
    catalog_verify(2, 2)
    assert len(calls) <= 7000, len(calls)


# methods the catalog may leave idle: __repr__ is for reading operators and
# coefficients, and __hash__ is kept with __eq__
_IDLE = {"__repr__", "__hash__"}


def test_every_method_of_the_algebra_runs_in_the_catalog(monkeypatch):
    # a method no catalog run calls is sugar the package does not need
    ran = set()

    def spy(key, func):
        def run(*args, **kwargs):
            ran.add(key)
            return func(*args, **kwargs)
        return run

    methods = set()
    for cls in (CoeffContext, CoeffExpr, DiffOp, PolyRing, Poly):
        for name, member in list(vars(cls).items()):
            key = "%s.%s" % (cls.__name__, name)
            if isinstance(member, classmethod):
                monkeypatch.setattr(cls, name,
                                    classmethod(spy(key, member.__func__)))
            elif inspect.isfunction(member):
                monkeypatch.setattr(cls, name, spy(key, member))
            else:
                continue
            if name not in _IDLE:
                methods.add(key)
    assert {"DiffOp.dt", "CoeffExpr.__eq__", "CoeffContext.normal"} <= methods
    catalog_verify(2, 2)
    catalog_verify(1, 1)
    assert sorted(methods - ran) == []


def test_catalog_serial_runs_agree():
    first = catalog_verify(2, 2)
    second = catalog_verify(2, 2)
    assert [(r.name, r.status) for r in first] \
        == [(r.name, r.status) for r in second]


# the field constructors the catalog had before it read the shared
# alphabet, written out as the reference (coordinates count from 1)

def _ref_V0(ctx, k):
    out = DiffOp.dt(ctx).scaled(ctx.rational(2) * ctx.t_pow(2))
    for i in range(1, ctx.n + 1):
        out = out + DiffOp.dx(ctx, i).scaled(ctx.rational(k + 2) * ctx.x(i))
    return out


def _ref_Vbar(ctx, k, i):
    return DiffOp.dx(ctx, i).scaled(ctx.rational(2) * ctx.t_pow(k + 2)) \
        + DiffOp.dt(ctx).scaled(ctx.rational(k + 2) * ctx.x(i) * ctx.t_pow(-k))


def _ref_rotations(ctx):
    n, X = ctx.n, ctx.x
    return {(i, j): DiffOp.dx(ctx, j).scaled(X(i))
            - DiffOp.dx(ctx, i).scaled(X(j))
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def _ref_Vhalf(ctx, k):
    return DiffOp.dt(ctx).scaled(ctx.rational(2) * ctx.t_pow(2)) \
        + DiffOp.dx(ctx, 1).scaled(ctx.rational(k + 2) * ctx.x(1))


def _ref_TDt(ctx):
    return DiffOp.dt(ctx).scaled(ctx.t_pow(2))


def _ref_M1(ctx):
    return DiffOp.dt(ctx).scaled(ctx.x(1))


def _ref_M2(ctx, m, branch):
    coeff = ctx.x(1) - ctx.rational(2 * branch, m + 2) * ctx.t_pow(m + 2)
    return DiffOp.dx(ctx, 1).scaled(coeff)


def _ref_M4(ctx, m):
    return DiffOp.dx(ctx, 1).scaled(ctx.t_pow(m + 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_catalog_fields_match_reference_constructors(n):
    ctx = CoeffContext(n)
    field = catalog._field
    for m in (1, 2, 3):
        pairs = [
            (field(ctx, "V0", (), m), _ref_V0(ctx, m)),
            (field(ctx, "Vhalf", (), m), _ref_Vhalf(ctx, m)),
            (field(ctx, "TDt", (), m), _ref_TDt(ctx)),
            (field(ctx, "N3", (), m), _ref_TDt(ctx)),
            (field(ctx, "N1", (), m), _ref_M1(ctx)),
            (field(ctx, "N4", (), m), _ref_M4(ctx, m)),
        ]
        pairs += [(field(ctx, "N2", (b,), m), _ref_M2(ctx, m, b))
                  for b in (1, -1)]
        for i in range(1, n + 1):
            pairs += [(field(ctx, "Vbar", (i - 1,), m), _ref_Vbar(ctx, m, i)),
                      (field(ctx, "Rl", (i - 1,), m), DiffOp.dx(ctx, i))]
        pairs += [(field(ctx, "L", (i - 1, j - 1), m), op)
                  for (i, j), op in _ref_rotations(ctx).items()]
        for got, want in pairs:
            assert got == want, (m, got, want)
