import random

import pytest

from sympy.polys.rings import PolyElement

from cuspwave.errors import ParameterError, ParseError
from cuspwave.opalg import (
    CoeffContext,
    CoeffExpr,
    DiffOp,
    catalog_verify,
    commutator,
    compose,
    parse,
    to_source,
    verify_identity,
)
from cuspwave.opalg import catalog
from cuspwave.opalg.diffop import span_decompose


@pytest.fixture(scope="module")
def ctx2():
    return CoeffContext(2)


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
    assert (ctx2.t() ** 3).dt() == ctx2.rational(3) * ctx2.t() ** 2


def test_coeff_half_powers(ctx2):
    h = ctx2.t_pow(1)
    assert h * h == ctx2.t()
    assert ctx2.t_pow(3).dt() == ctx2.rational(3, 2) * ctx2.t_pow(1)


def _sample_coeffs(ctx):
    """Normal-form coefficients, with quotients by r where n >= 2."""
    h, t, x1 = ctx.h(), ctx.t(), ctx.x(1)
    out = [ctx.zero(), ctx.one(), ctx.rational(-3, 2), x1, ctx.t_pow(-3),
           (x1 + ctx.rational(2) * t) / (x1 - h), x1 ** 2 / (t + 1)]
    if ctx.n >= 2:
        r, x2 = ctx.r(), ctx.x(2)
        out += [r, (x1 + r) / (x1 - r), x2 * r / (t - r),
                ctx.rational(5, 3) / (r + h), r ** 3 - x2 * t]
    if ctx.n == 3:
        out.append(ctx.x(3) * ctx.r() / (ctx.x(3) + h))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_ops_match_field_arithmetic(n):
    # sympy's own field operators, then one normalisation, are the oracle
    ctx = CoeffContext(n)
    samples = _sample_coeffs(ctx)
    for c in samples:
        oracle = ctx.normalize(c.frac)
        assert (c.frac.numer, c.frac.denom) == (oracle.numer, oracle.denom)
    ops = [(lambda a, b: a + b), (lambda a, b: a - b),
           (lambda a, b: a * b), (lambda a, b: a / b)]
    for a in samples:
        for b in samples:
            for k, op in enumerate(ops):
                if k == 3 and b.is_zero():
                    continue
                got = op(a, b).frac
                want = ctx.normalize(op(a.frac, b.frac))
                assert got.numer == want.numer, (k, a, b)
                assert got.denom == want.denom, (k, a, b)


def _field_dt(ctx, frac):
    h = ctx.field.gens[0]
    return ctx.normalize(frac.diff(h) / (2 * h))


def _field_dx(ctx, frac, i):
    gens = ctx.field.gens
    raw = frac.diff(gens[i])
    if ctx.n >= 2:
        r = gens[ctx.n + 1]
        sum_x2 = sum(xj ** 2 for xj in gens[1:ctx.n + 1])
        raw = raw + frac.diff(r) * gens[i] * r / sum_x2
    return ctx.normalize(raw)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coeff_derivatives_match_field_arithmetic(n):
    # sympy's field operators, then one normalisation, are the oracle
    ctx = CoeffContext(n)
    for c in _sample_coeffs(ctx):
        cases = [(c.dt(), _field_dt(ctx, c.frac))]
        cases += [(c.dx(i), _field_dx(ctx, c.frac, i))
                  for i in range(1, n + 1)]
        for k, (got, want) in enumerate(cases):
            assert got.frac.numer == want.numer, (k, c)
            assert got.frac.denom == want.denom, (k, c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_combination_is_zero(n):
    ctx = CoeffContext(n)
    samples = _sample_coeffs(ctx)
    one, minus_one = ctx.one(), ctx.rational(-1)
    eps = ctx.rational(1, 10 ** 6)
    x1, h, t = ctx.x(1), ctx.h(), ctx.t()
    mixed = list(zip(samples, reversed(samples)))
    mixed_sum = sum(a * b for a, b in mixed)
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
        assert got is expected


def test_span_check_rejects_wrong_weights(ctx2, monkeypatch):
    dt, d1 = DiffOp.dt(ctx2), DiffOp.dx(ctx2, 1)
    basis = [dt, d1, DiffOp.identity(ctx2), dt + d1]
    target = dt.scaled(ctx2.rational(3)) + d1.scaled(ctx2.x(1)) \
        + DiffOp.from_coeff(ctx2.r())
    assert span_decompose(target, basis)[0] is not None
    # every pivot normalisation comes out off by 1/10**6; only the closing
    # check can notice, since no equation is left below the pivot block
    real = CoeffExpr.__truediv__
    eps = ctx2.rational(1, 10 ** 6)
    monkeypatch.setattr(CoeffExpr, "__truediv__",
                        lambda a, b: real(a, b) + eps)
    assert span_decompose(target, basis) == (None, None)


def test_radial_generator_requires_two_dimensions():
    ctx1 = CoeffContext(1)
    with pytest.raises(ParameterError):
        ctx1.r()


# -- operator algebra -----------------------------------------------------

def test_compose_product_rule(ctx2):
    dt = DiffOp.dt(ctx2)
    t_mult = DiffOp.from_coeff(ctx2.t())
    left = compose(dt, t_mult)
    expect = t_mult * dt + DiffOp.identity(ctx2)
    assert (left - expect).is_zero()


def test_compose_radial_product_rule(ctx2):
    d1 = DiffOp.dx(ctx2, 1)
    r_mult = DiffOp.from_coeff(ctx2.r())
    left = compose(d1, r_mult)
    expect = r_mult * d1 + DiffOp.from_coeff(ctx2.x(1) / ctx2.r())
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
    Q = parse("Dt^2 - t*(D1^2 + D2^2)", ctx2)
    V0 = parse("2*t*Dt + 3*(x1*D1 + x2*D2)", ctx2)
    holds, residual, terms = verify_identity(
        commutator(Q, V0), Q.scaled(ctx2.rational(4)))
    assert holds
    assert terms == 0
    assert residual.is_zero()


def test_solve_in_span(ctx2):
    dt = DiffOp.dt(ctx2)
    d1 = DiffOp.dx(ctx2, 1)
    target = dt.scaled(ctx2.rational(3)) + d1.scaled(ctx2.x(1))
    weights = span_decompose(target, [dt, d1, DiffOp.identity(ctx2)])[0]
    assert weights is not None
    assert weights[0] == ctx2.rational(3)
    assert weights[1] == ctx2.x(1)
    assert weights[2].is_zero()
    assert span_decompose(DiffOp.identity(ctx2), [dt, d1])[0] is None


def test_span_decompose_reports_ambiguity(ctx2):
    dt = DiffOp.dt(ctx2)
    weights, nulls = span_decompose(dt.scaled(ctx2.rational(2)), [dt, dt])
    assert weights is not None
    assert len(nulls) == 1
    combo = DiffOp.zero(ctx2)
    for w, op in zip(nulls[0], [dt, dt]):
        combo = combo + op.scaled(w)
    assert combo.is_zero()


# -- parser and printer ---------------------------------------------------

@pytest.mark.parametrize("source", [
    "Dt^2 - t^3*(D1^2 + D2^2)",
    "x1*D2 - x2*D1",
    "2*t*Dt + 3*(x1*D1 + x2*D2)",
    "t^(1/2)*D1",
    "r*Dt + 3/2*x1*D2",
    "(x1 + r)*D1^2 - 5",
])
def test_parse_print_round_trip(source, ctx2):
    op = parse(source, ctx2)
    printed = to_source(op)
    again = parse(printed, ctx2)
    assert (op - again).is_zero()


@pytest.mark.parametrize("bad", [
    "Dt^-1",
    "D3",
    "t^(1/3)",
    "2 +",
    "q*Dt",
    "Dt Dt",
])
def test_parse_rejects_malformed(bad, ctx2):
    with pytest.raises(ParseError):
        parse(bad, ctx2)


def test_parse_radial_needs_dimension():
    with pytest.raises(ParseError):
        parse("r*Dt", CoeffContext(1))


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
    systems = []

    def recording(target, basis):
        weights, nulls = span_decompose(target, basis)
        systems.append((target, basis, weights, nulls))
        return weights, nulls

    monkeypatch.setattr(catalog, "span_decompose", recording)
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


def test_catalog_gcd_count(monkeypatch):
    # the gcd work of catalog_verify(2, 2): one cancel per normal form and
    # the lcms of the closing span checks
    calls = []
    for name in ("cancel", "lcm"):
        real = getattr(PolyElement, name)
        monkeypatch.setattr(PolyElement, name,
                            lambda f, g, real=real, name=name:
                            calls.append(name) or real(f, g))
    catalog_verify(2, 2)
    assert len(calls) <= 7000, len(calls)


def test_catalog_serial_runs_agree():
    first = catalog_verify(2, 2)
    second = catalog_verify(2, 2)
    assert [(r.name, r.status) for r in first] \
        == [(r.name, r.status) for r in second]
