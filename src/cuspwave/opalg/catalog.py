"""The verified identity catalog for the degenerate operators.

Every row checks one exact operator identity: the scaling laws of
Q_m = Dt^2 - t^m*Lap and P1 = Dt*Q_m against the cone and half-space
vector fields, the square decompositions of the normal fields near the
cusp cone and the cusp planes, the radial-field eliminations, and the
cross-exponent relation used when two degeneracies coexist.  Rows whose
right sides contain admissible-but-unspecified lower-order coefficients
are checked modulo the span of the permitted first-order fields, by
solving for those coefficients exactly.

A single-exponent run commutes one alphabet through the operator, and
_Alphabet(ctx, m) builds it once: Dt, the D_i and their squares, Lap,
Q_m, P1, the cone fields V0, Vbar_i, L_ij and t*Dt, the rotation sums
x_k L_ik and the half-space scaling field V.  The exponent m enters the
run there; the row builders read the alphabet and m's rational
constants from it.  The cone normal fields are one table of
coefficients c, each family c*D_i.

The cusp cone and its alphabet are symmetric in the x-coordinates, so
of each cone normal-field family only the axis-1 square system is
eliminated by span_decompose.  The axis-i system takes the axis-1
weights and null vectors through the order-preserving axis map sending
axis 1 to i, after that map is checked to carry the axis-1 target and
basis onto the axis-i ones term for term; a system that fails the check
is eliminated in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from ..fields import VectorFieldId
from .coeff import CoeffContext
from .diffop import DiffOp, commutator, compose, span_decompose

__all__ = ["CatalogRow", "catalog_verify", "certificate_text"]


@dataclass(frozen=True)
class CatalogRow:
    """Outcome of one identity check.

    certificate holds the lines of what the check found: for a residual
    row the normal form of lhs - rhs (no lines when it is zero), and for a
    square row the weights and null vectors of its span system or the
    word unsolvable.
    """

    name: str
    status: str           # "zero", "nonzero", "solvable" or "unsolvable"
    residual_terms: int
    expected: str         # "zero" or "nonzero"
    detail: str = ""
    certificate: tuple = ()

    @property
    def ok(self):
        if self.expected == "zero":
            return self.status in ("zero", "solvable")
        return self.status in ("nonzero", "unsolvable")


# -- operators and vector fields -------------------------------------------

def _field(ctx, name, indices, k):
    """The alphabet field name[indices] at exponent k; axes count from 0."""
    out = DiffOp.zero(ctx)
    for c, p, axis, slot in VectorFieldId(name, indices, k).terms(ctx.n):
        coeff = ctx.rational(c)
        if axis is not None:
            coeff = coeff * ctx.x(axis + 1)
        if p:
            coeff = coeff * ctx.t_pow(p)
        op = DiffOp.dt(ctx) if slot == "t" else DiffOp.dx(ctx, slot + 1)
        out = out + op.scaled(coeff)
    return out


class _Alphabet:
    """The operators of the catalog at exponent m, each built once.

    Coordinates count from 1, as in the row names, and the lists D, D2,
    Vbar and rot hold None at index 0: dt = Dt, dt2 = Dt^2, D[i] = D_i,
    D2[i] = D_i^2, transverse = sum over l >= 2 of D_l^2, lap, Q = Q_m,
    P1 = Dt*Q, V0, Vbar[i], L[i, j] for every pair i != j,
    rot[i] = sum over k != i of x_k L[i, k], TDt = t*Dt and the
    half-space scaling field V.
    """

    def __init__(self, ctx, m):
        n = ctx.n
        axes = range(1, n + 1)
        self.ctx, self.m = ctx, m
        zero = DiffOp.zero(ctx)
        self.dt = DiffOp.dt(ctx)
        self.dt2 = compose(self.dt, self.dt)
        self.D = [None] + [DiffOp.dx(ctx, i) for i in axes]
        self.D2 = [None] + [compose(d, d) for d in self.D[1:]]
        self.transverse = sum(self.D2[2:], zero)
        self.lap = self.D2[1] + self.transverse
        self.Q = self.dt2 - self.lap.scaled(ctx.t_pow(2 * m))
        self.P1 = compose(self.dt, self.Q)
        self.V0 = _field(ctx, "V0", (), m)
        self.Vbar = [None] + [_field(ctx, "Vbar", (i - 1,), m) for i in axes]
        self.L = {(i, j): _field(ctx, "L", (i - 1, j - 1), m)
                  for i in axes for j in axes if i != j}
        self.rot = [None] + [
            sum((self.L[i, k].scaled(ctx.x(k)) for k in axes if k != i),
                zero) for i in axes]
        self.TDt = _field(ctx, "TDt", (), m)
        self.V = _field(ctx, "Vhalf", (), m)


# -- row assembly ---------------------------------------------------------


def _residual_row(name, lhs, rhs, expected="zero", detail=""):
    residual = lhs - rhs
    certificate = tuple("%r: %s" % (index, residual.terms[index].text())
                        for index in sorted(residual.terms))
    return CatalogRow(name, "zero" if residual.is_zero() else "nonzero",
                      len(residual.terms), expected, detail, certificate)


def certificate_text(rows):
    """The certificates of rows as `opalg verify` writes certificates.txt:
    each row's name on a line, then its certificate lines indented."""
    lines = []
    for row in rows:
        lines.append(row.name)
        lines += ["  " + line for line in row.certificate]
    return "".join(line + "\n" for line in lines)


def _cone_rows(A):
    """Commutator table for the cusp-cone and axis alphabets."""
    ctx, m = A.ctx, A.m
    n = ctx.n
    rat, tp, X = ctx.rational, ctx.t_pow, ctx.x
    zero = DiffOp.zero(ctx)
    dt, lap, Q, P1, V0, vbars, L = A.dt, A.lap, A.Q, A.P1, A.V0, A.Vbar, A.L
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    rows = [_residual_row("[Q, V0] = 4 Q", commutator(Q, V0), Q.scaled(4))]
    for l in range(1, n + 1):
        rhs = Q.scaled(rat(-m * (m + 2)) * X(l) * tp(-m - 2)) \
            + vbars[l].scaled(rat(m * (m + 2), 4) * tp(-4))
        rows.append(_residual_row("[Q, Vbar%d] = lower order" % l,
                                  commutator(Q, vbars[l]), rhs))
    for i, j in pairs:
        rows.append(_residual_row("[Q, L%d%d] = 0" % (i, j),
                                  commutator(Q, L[i, j]), zero))
    for i in range(1, n + 1):
        rows.append(_residual_row("[V0, Vbar%d] = 0" % i,
                                  commutator(V0, vbars[i]), zero))
    for i, j in pairs:
        vi, vj, lij = vbars[i], vbars[j], L[i, j]
        rhs = lij.scaled(rat(2 * (m + 1) * (m + 2))) \
            + vi.scaled(rat(m * (m + 2), 2) * X(j) * tp(-m - 2)) \
            - vj.scaled(rat(m * (m + 2), 2) * X(i) * tp(-m - 2))
        rows += [
            _residual_row("[V0, L%d%d] = 0" % (i, j),
                          commutator(V0, lij), zero),
            _residual_row("[Vbar%d, L%d%d] = Vbar%d" % (i, i, j, j),
                          commutator(vi, lij), vj),
            _residual_row("[Vbar%d, L%d%d] = -Vbar%d" % (j, i, j, i),
                          commutator(vj, lij), -vi),
            _residual_row(
                "[Vbar%d, Vbar%d] = rotation + lower order" % (i, j),
                commutator(vi, vj), rhs),
        ]
    if n == 3:
        for (l, i, j) in ((3, 1, 2), (2, 1, 3), (1, 2, 3)):
            rows.append(_residual_row("[Vbar%d, L%d%d] = 0" % (l, i, j),
                                      commutator(vbars[l], L[i, j]), zero))
        rows.append(_residual_row("[L12, L13] = L32",
                                  commutator(L[1, 2], L[1, 3]), L[3, 2]))
    rows.append(_residual_row("[P1, V0] = 6 P1", commutator(P1, V0),
                              P1.scaled(6)))
    for i, j in pairs:
        rows.append(_residual_row("[P1, L%d%d] = 0" % (i, j),
                                  commutator(P1, L[i, j]), zero))
    for i in range(1, n + 1):
        di = A.D[i]
        rhs = P1.scaled(rat(-3 * m * (m + 2), 2) * X(i) * tp(-m - 2)) \
            + compose(Q, di).scaled(rat(m + 2) * tp(m)) \
            + A.dt2.scaled(
                rat(3 * m * (m + 2) ** 2, 4) * X(i) * tp(-m - 4)) \
            + lap.scaled(rat(-m * (m + 2) ** 2, 2) * X(i) * tp(m - 4)) \
            + compose(dt, di).scaled(rat(m * (m + 2), 2) * tp(m - 2)) \
            + di.scaled(rat(m * (m * m - 4), 4) * tp(m - 4)) \
            + dt.scaled(rat(-m * (m + 2) ** 2 * (m + 4), 8)
                        * X(i) * tp(-m - 6))
        rows.append(_residual_row(
            "[P1, Vbar%d] = singular expansion" % i,
            commutator(P1, vbars[i]), rhs,
            detail="the mixed Dt*D%d term enters with a plus sign; "
                   "the source display flips it" % i))

    rhs = P1.scaled(3) \
        + compose(dt, lap).scaled(rat(m + 2) * tp(2 * m)) \
        + lap.scaled(rat(m * (m + 2)) * tp(2 * m - 2))
    rows.append(_residual_row(
        "[P1, t*Dt] = 3 P1 + lower order", commutator(P1, A.TDt), rhs,
        detail="middle term carries t^m; the source display "
               "omits that factor"))
    rows.append(_residual_row("[t*Dt, V0] = 0", commutator(A.TDt, V0), zero))
    for i, j in pairs:
        rows.append(_residual_row("[t*Dt, L%d%d] = 0" % (i, j),
                                  commutator(A.TDt, L[i, j]), zero))
    return rows


def _plane_rows(A):
    """Commutator table for the cusp-plane (half-space) alphabet, whose
    transverse translations R_l are the D_l."""
    ctx, m = A.ctx, A.m
    n = ctx.n
    rat, tp = ctx.rational, ctx.t_pow
    zero = DiffOp.zero(ctx)
    Q, P1, V, vbar1, R = A.Q, A.P1, A.V, A.Vbar[1], A.D

    rows = [_residual_row("[V, Vbar1] = 0", commutator(V, vbar1), zero)]
    for l in range(2, n + 1):
        rows += [
            _residual_row(
                "[V, R%d] = 0" % l, commutator(V, R[l]), zero,
                detail="the slanted scaling field moves only the first "
                       "coordinate, so transverse translations commute; "
                       "the source table lists a spurious -(m+2) R%d" % l),
            _residual_row("[Vbar1, R%d] = 0" % l,
                          commutator(vbar1, R[l]), zero),
            _residual_row("[P1, R%d] = 0" % l, commutator(P1, R[l]), zero),
            _residual_row("[Q, R%d] = 0" % l, commutator(Q, R[l]), zero),
        ]

    rhs_p1 = P1.scaled(6) \
        + compose(A.dt, A.transverse).scaled(rat(2 * (m + 2)) * tp(2 * m)) \
        + A.transverse.scaled(rat(2 * m * (m + 2)) * tp(2 * m - 2))
    rhs_q = Q.scaled(4) \
        + A.transverse.scaled(rat(2 * (m + 2)) * tp(2 * m))
    detail = "" if n == 1 else \
        "the clean 4 Q law holds only in one space dimension; " \
        "transverse second derivatives survive otherwise"
    rows += [
        _residual_row("[P1, V] = 6 P1 + transverse terms",
                      commutator(P1, V), rhs_p1),
        _residual_row("[Q, V] = 4 Q + transverse terms",
                      commutator(Q, V), rhs_q, detail=detail),
    ]
    return rows


def _plane_square_rows(A):
    """Square decompositions of the normal fields at the cusp planes."""
    ctx, m = A.ctx, A.m
    rat, tp, X = ctx.rational, ctx.t_pow, ctx.x
    one = ctx.one()
    Q, V, sumR2 = A.Q, A.V, A.transverse
    V2 = compose(V, V)
    D = rat((m + 2) ** 2) * X(1) ** 2 - rat(4) * tp(2 * m + 4)

    M1 = _field(ctx, "N1", (), m)
    body = Q.scaled(rat((m + 2) ** 2) * X(1) ** 4) \
        + V2.scaled(X(1) ** 2 * tp(2 * m)) \
        - compose(M1, V).scaled(rat(4) * X(1) * tp(2 * m + 2)) \
        + sumR2.scaled(rat((m + 2) ** 2) * X(1) ** 4 * tp(2 * m)) \
        - V.scaled(rat(m + 2) * X(1) ** 2 * tp(2 * m)) \
        + M1.scaled(rat(2 * (m + 4)) * X(1) * tp(2 * m + 2))
    rows = [_residual_row("plane square: (x1*Dt)^2",
                          compose(M1, M1), body.scaled(one / D))]

    for branch, tag in ((1, "+"), (-1, "-")):
        M2 = _field(ctx, "N2", (branch,), m)
        shift = rat(2 * branch, m + 2) * tp(m + 2)
        low = X(1) - shift
        high = X(1) + shift
        rhs = (Q.scaled(rat(4) * tp(4)) - V2
               + sumR2.scaled(rat(4) * tp(2 * m + 4))
               + V.scaled(rat(2))).scaled(
                   low / (rat((m + 2) ** 2) * high)) \
            + compose(M2, V).scaled(
                rat(2) * X(1) / (rat(m + 2) * high)) \
            - M2.scaled(rat(2) * (X(1) - rat(branch) * tp(m + 2))
                        / (rat(m + 2) * high))
        rows.append(_residual_row(
            "plane square: branch %s slanted field" % tag,
            compose(M2, M2), rhs,
            detail="the zeroth-order numerator subtracts the "
                   "branch shift; the source display adds it"))

    M3 = A.TDt  # the plane normal field N3 = t*Dt
    body = Q.scaled(rat((m + 2) ** 2) * X(1) ** 2 * tp(4)) \
        + V2.scaled(tp(2 * m + 4)) \
        - compose(M3, V).scaled(rat(4) * tp(2 * m + 4)) \
        + sumR2.scaled(rat((m + 2) ** 2) * X(1) ** 2 * tp(2 * m + 4)) \
        - V.scaled(rat(m + 2) * tp(2 * m + 4)) \
        + M3.scaled(rat((m + 2) ** 2) * X(1) ** 2
                    + rat(2 * (m + 2)) * tp(2 * m + 4))
    rows.append(_residual_row("plane square: (t*Dt)^2",
                              compose(M3, M3), body.scaled(one / D)))

    M4 = _field(ctx, "N4", (), m)
    body = Q.scaled(rat(4) * tp(2 * m + 8)) \
        - V2.scaled(tp(2 * m + 4)) \
        + compose(M4, V).scaled(rat(2 * (m + 2)) * X(1) * tp(m + 2)) \
        + sumR2.scaled(rat(4) * tp(4 * m + 8)) \
        + V.scaled(rat(2) * tp(2 * m + 4)) \
        - M4.scaled(rat((m + 2) * (m + 4)) * X(1) * tp(m + 2))
    rows.append(_residual_row(
        "plane square: (t^((m+2)/2)*D1)^2",
        compose(M4, M4), body.scaled(one / D),
        detail="the zeroth-order weight is (m+2)(m+4); the source "
               "display prints 3(m+2)^2"))
    return rows


_DECOMP_DETAIL = (
    "existence of the decomposition is solved exactly over the "
    "permitted quadratic alphabet with the lower-order weights free; "
    "the normal-times-scaling weight is gauge invariant and is pinned "
    "to 2(m+2) times the singular quotient; the tabulated value "
    "carries a spurious factor of the dimension, and the remaining "
    "tabulated weights are not consistent in any gauge")


def _quadratic(A):
    """V0^2, sum_j Vbar_j^2 and sum_j x_j V0*Vbar_j: the products of two
    alphabet fields that every cone square is decomposed over."""
    ctx = A.ctx
    zero = DiffOp.zero(ctx)
    vbars = A.Vbar[1:]
    sum_vbar2 = sum((compose(v, v) for v in vbars), zero)
    mixed_v0 = sum((compose(A.V0, v).scaled(ctx.x(j))
                    for j, v in enumerate(vbars, 1)), zero)
    return compose(A.V0, A.V0), sum_vbar2, mixed_v0


def _square_system(Nf, i, A, quadratic):
    """The square of the normal field Nf along axis i, and the quadratic
    alphabet it is decomposed over; quadratic is _quadratic(A)."""
    ctx = A.ctx
    n = ctx.n
    X = ctx.x
    v0_sq, sum_vbar2, mixed_v0 = quadratic
    vbars = A.Vbar
    mixed_n = DiffOp.zero(ctx)
    for kk in range(1, n + 1):
        mixed_n = mixed_n + compose(Nf, vbars[kk]).scaled(X(kk))
    # Vbar_i kills every x_k with k != i, so this is sum x_k Vbar_i*L_ik
    rotated = compose(vbars[i], A.rot[i])
    basis = [A.Q, v0_sq, compose(Nf, A.V0).scaled(X(i)),
             sum_vbar2, mixed_v0, mixed_n, rotated, A.V0, Nf] \
        + [vbars[j] for j in range(1, n + 1) if j != i]
    return compose(Nf, Nf), basis


def _axis_map(n, i):
    """The order-preserving axis map sigma_i, as (sigma(1), .., sigma(n)):
    axis 1 goes to i and the other axes keep their order, so the trailing
    Vbar columns of the axis-1 basis land on those of the axis-i basis."""
    return (i,) + tuple(k for k in range(1, n + 1) if k != i)


def _square_solution(target, basis, first, sigma):
    """(target, basis, weights, null vectors) of target = sum w_j basis_j.

    first is the solved axis-1 system of the same normal-field family, or
    None.  When sigma carries its target and each of its basis columns
    onto target and basis, term for term (operator equality: normal
    forms are canonical, so it needs no gcd), sigma (an automorphism of
    the operator algebra, since r**2 = sum x_i**2 is symmetric) carries
    its weights and null vectors onto a solution of this system; a
    system that is not the image is eliminated by span_decompose.
    """
    if first is not None:
        target1, basis1, weights, null_vectors = first
        if len(basis1) == len(basis) \
                and target1.permuted(sigma) == target \
                and all(a.permuted(sigma) == b
                        for a, b in zip(basis1, basis)):
            if weights is None:
                return target, basis, None, None
            return (target, basis, [w.permuted(sigma) for w in weights],
                    [[v.permuted(sigma) for v in vec]
                     for vec in null_vectors])
    return (target, basis) + span_decompose(target, basis)


def _square_rows(label, normals, c_expected, A, quadratic):
    """The square-decomposition rows of one normal-field family, one per
    axis i (label % i); normals is [None, N_1, .., N_n].  Each system
    after the first goes through _square_solution with the axis-1 one."""
    n = A.ctx.n
    rows = []
    first = None
    for i in range(1, n + 1):
        target, basis = _square_system(normals[i], i, A, quadratic)
        system = _square_solution(target, basis, first, _axis_map(n, i))
        if first is None:
            first = system
        rows.append(_square_decomp_row(label % i, system, c_expected))
    return rows


def _square_decomp_row(name, system, c_expected):
    """Check the square of a normal field against its operator alphabet.

    The products of two alphabet fields satisfy linear relations, so the
    decomposition weights are not unique; the row therefore solves for
    the full weight vector, confirms a solution exists, and then checks
    the one weight that every solution must share: the coefficient of
    x_i times the normal field composed with the anisotropic scaling.
    system is (target, basis, weights, null vectors), as _square_solution
    returns it.
    """
    target, _, weights, null_vectors = system
    if weights is None:
        return CatalogRow(name, "unsolvable", len(target.terms),
                          "zero", _DECOMP_DETAIL, ("unsolvable",))
    certificate = tuple("weight %d: %s" % (j, w.text())
                        for j, w in enumerate(weights))
    certificate += tuple("null vector %d, weight %d: %s" % (k, j, w.text())
                         for k, vec in enumerate(null_vectors)
                         for j, w in enumerate(vec))
    pinned = all(vec[2].is_zero() for vec in null_vectors)
    if not pinned or weights[2] != c_expected:
        return CatalogRow(name, "nonzero", 1, "zero", _DECOMP_DETAIL,
                          certificate)
    return CatalogRow(name, "solvable", 0, "zero", _DECOMP_DETAIL,
                      certificate)


def _cone_square_rows(A):
    """Square decompositions and eliminations near the cusp cone (they
    need the radial generator, n >= 2)."""
    ctx, m = A.ctx, A.m
    n = ctx.n
    rat, tp, X = ctx.rational, ctx.t_pow, ctx.x
    one = ctx.one()
    r = ctx.r()
    Q, V0, vbars, rot = A.Q, A.V0, A.Vbar, A.rot
    quadratic = _quadratic(A)
    sum_vbar2 = quadratic[1]
    N10 = A.dt.scaled(r)
    N30 = A.TDt
    E = rat(4) * tp(2 * m + 4) - rat((m + 2) ** 2) * r ** 2
    Dp = -E

    # the three normal-field families c*D_i, by their coefficient c; the
    # pinned weight of each is 2(m+2) c / Dp (see _DECOMP_DETAIL)
    families = (
        ("cone square: (t^(m/2)*r*D%d)^2 modulo admissible terms",
         tp(m) * r),
        ("cone square: slanted normal field %d modulo admissible terms",
         r - rat(2, m + 2) * tp(m + 2)),
        ("cone square: (t^((m+2)/2)*D%d)^2 modulo admissible terms",
         tp(m + 2)),
    )
    normals, squares = [], []
    for label, c in families:
        family = [None] + [A.D[i].scaled(c) for i in range(1, n + 1)]
        normals.append(family)
        squares.append(_square_rows(label, family, rat(2 * (m + 2)) * c / Dp,
                                    A, quadratic))
    (N1, N2, N4), (squares1, squares2, squares4) = normals, squares

    body = Q.scaled(rat(-4) * r ** 2 * tp(2 * m + 4)) \
        - sum_vbar2.scaled(r ** 2 * tp(2 * m)) \
        + compose(N10, V0).scaled(rat(4) * r * tp(2 * m + 2)) \
        + V0.scaled(rat(m + 2) * r ** 2 * tp(2 * m)) \
        + N10.scaled(rat(2 * (m + 2) * (n - 1) - 8)
                     * tp(2 * m + 2) * r
                     - rat(m * (m + 2) ** 2, 2) * r ** 3 * tp(-2))
    rows = [_residual_row("cone square: (r*Dt)^2",
                          compose(N10, N10), body.scaled(one / E))]

    for i in range(1, n + 1):
        rhs_a = V0.scaled(rat(2) * tp(m + 2) * X(i)
                          / (rat(m + 2) * r ** 2)) \
            + N10.scaled(X(i) * Dp
                         / (rat(m + 2) * r ** 3 * tp(m))) \
            - rot[i].scaled(rat(2) * tp(m + 2) / r ** 2)
        rhs_b = V0.scaled(rat(m + 2) * X(i) / (rat(2) * tp(m + 2))) \
            + N1[i].scaled(E / (rat(2) * tp(2 * m + 2) * r)) \
            - rot[i].scaled(rat((m + 2) ** 2, 2) / tp(m + 2))
        body = V0.scaled(rat(m + 2) * X(i)) \
            - N2[i].scaled(rat(m + 2) * (rat(m + 2) * r
                                         + rat(2) * tp(m + 2))) \
            - rot[i].scaled(rat((m + 2) ** 2))
        rows += [
            squares1[i - 1],
            _residual_row("cone elimination: Vbar%d via vertex "
                          "normal field" % i, vbars[i], rhs_a),
            _residual_row(
                "cone elimination: Vbar%d via scaled gradient" % i,
                vbars[i], rhs_b,
                detail="the gradient-field weight divides by "
                       "2 t^(m+1) r; the source display drops the "
                       "2 t^((m+2)/2) part of that divisor"),
            squares2[i - 1],
            _residual_row(
                "cone elimination: Vbar%d via slanted normal field" % i,
                vbars[i], body.scaled(one / (rat(2) * tp(m + 2)))),
        ]

    body = Q.scaled(rat(-4) * tp(2 * m + 8)) \
        - sum_vbar2.scaled(tp(2 * m + 4)) \
        + compose(N30, V0).scaled(rat(4) * tp(2 * m + 4)) \
        + V0.scaled(rat(m + 2) * tp(2 * m + 4)) \
        + N30.scaled(rat(2 * (n - 1) * (m + 2) - 4) * tp(2 * m + 4)
                     - rat((m + 2) ** 3, 2) * r ** 2)
    rows.append(_residual_row(
        "cone square: (t*Dt)^2",
        compose(N30, N30), body.scaled(one / E),
        detail="zeroth-order weight corrected: -4 t^(m+2) joins the "
               "first bracket and the radial bracket carries "
               "(m+2)^3/2"))

    for i in range(1, n + 1):
        rhs_3 = V0.scaled(rat(2) * tp(m + 2) * X(i)
                          / (rat(m + 2) * r ** 2)) \
            + N30.scaled(X(i) * Dp
                         / (rat(m + 2) * r ** 2 * tp(m + 2))) \
            - rot[i].scaled(rat(2) * tp(m + 2) / r ** 2)
        rhs_4 = V0.scaled(rat(m + 2) * X(i) / (rat(2) * tp(m + 2))) \
            + N4[i].scaled(E / (rat(2) * tp(2 * m + 4))) \
            - rot[i].scaled(rat((m + 2) ** 2, 2) / tp(m + 2))
        rows += [
            _residual_row(
                "cone elimination: Vbar%d via time scaling field" % i,
                vbars[i], rhs_3),
            squares4[i - 1],
            _residual_row(
                "cone elimination: Vbar%d via time-power gradient" % i,
                vbars[i], rhs_4,
                detail="the gradient-field weight divides by "
                       "2 t^(m+2); the source display drops the "
                       "2 t^((m+2)/2) part of that divisor"),
        ]
    return rows


def _mixed_row(ctx, m1, m2):
    """Cross-exponent relation between the two scaling fields."""
    n = ctx.n
    rat, tp, X = ctx.rational, ctx.t_pow, ctx.x
    r2 = ctx.r() ** 2 if n >= 2 else X(1) ** 2
    D = rat((m2 + 2) ** 2) * r2 - rat(4) * tp(2 * m2 + 4)
    V0_2 = _field(ctx, "V0", (), m2)
    rhs = V0_2 + V0_2.scaled(rat((m1 - m2) * (m2 + 2)) * r2 / D)
    for kk in range(1, n + 1):
        rhs = rhs - _field(ctx, "Vbar", (kk - 1,), m2).scaled(
            rat(2 * (m1 - m2)) * tp(m2 + 2) * X(kk) / D)
    return _residual_row(
        "scaling field at exponent %d via exponent %d alphabet"
        % (m1, m2), _field(ctx, "V0", (), m1), rhs,
        detail="coefficients carry the exponent gap %d" % (m1 - m2))


def _negative_control(A):
    corrupted = A.Q.scaled(4) + A.dt
    return _residual_row("negative control: corrupted scaling law",
                         commutator(A.Q, A.V0), corrupted,
                         expected="nonzero")


def catalog_verify(m, n):
    """Verify the identity catalog; returns a list of CatalogRow.

    The first argument is either a single integer exponent, which runs
    the full single-exponent suite, or a pair (m1, m2) of distinct
    exponents, which runs the cross-exponent rows.
    """
    if n not in (1, 2, 3):
        raise ParameterError("space dimension must be 1, 2 or 3")
    ctx = CoeffContext(n)
    if isinstance(m, tuple):
        if len(m) != 2:
            raise ParameterError("expected a pair of exponents")
        m1, m2 = m
        for value in (m1, m2):
            if not isinstance(value, int) or not 1 <= value <= 8:
                raise ParameterError("exponents must be integers in 1..8")
        if m1 == m2:
            raise ParameterError("the two exponents must differ")
        return [_mixed_row(ctx, max(m1, m2), min(m1, m2))]
    if not isinstance(m, int) or not 1 <= m <= 8:
        raise ParameterError("exponent must be an integer in 1..8")
    A = _Alphabet(ctx, m)
    rows = _cone_rows(A) + _plane_rows(A) + _plane_square_rows(A)
    if n >= 2:
        rows += _cone_square_rows(A)
    return rows + [_negative_control(A)]
