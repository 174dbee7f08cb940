"""The confluent hypergeometric function Phi(a, 2a; z) on the imaginary axis,
as the propagator realises it, checked against an independent high-precision
oracle (mpmath at 60 digits).

V1 is e^(-z/2) Phi(a, 2a; z) with a = m/(2(m+2)) and V2/t is the same with
a = (m+4)/(2(m+2)), where z = (4i/(m+2)) t^((m+2)/2) rho.  The propagator
evaluates the pair only there (z = iy), so that is where Phi is checked."""

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cuspwave.propagator import sample_arrays

mp.mp.dps = 60


@dataclass(frozen=True)
class KummerParams:
    """Phi(a, b; z) with b = 2a, tied to the member of the pair it gives."""

    a: Fraction
    b: Fraction
    m: int = field(repr=False)
    which: str = field(repr=False)


def params_v1(m: int) -> KummerParams:
    a = Fraction(m, 2 * (m + 2))
    return KummerParams(a, 2 * a, m, "v1")


def params_v2(m: int) -> KummerParams:
    a = Fraction(m + 4, 2 * (m + 2))
    return KummerParams(a, 2 * a, m, "v2")


def _oracle(p: KummerParams, z) -> complex:
    a = mp.mpf(p.a.numerator) / p.a.denominator
    b = mp.mpf(p.b.numerator) / p.b.denominator
    return complex(mp.hyp1f1(a, b, mp.mpc(z)))


def _phi_from_propagator(p: KummerParams, y: float):
    """(Phi(a, 2a; iy) rebuilt from the propagator at t = 1, and that exact z).

    e^(-z/2) Phi(a, 2a; z) is real and even on the imaginary axis, so a
    negative y uses the sample at |y|.
    """
    rho = abs(y) * (p.m + 2) / 4
    z = mp.mpc(0, np.sign(y) * 4 * mp.mpf(rho) / (p.m + 2))
    v1, v2, _, _ = sample_arrays(p.m, 1.0, rho)
    v = v1 if p.which == "v1" else v2
    return complex(mp.exp(z / 2)) * v, z


FAMILY = [params_v1(m) for m in (1, 2, 3, 4, 8)] + [params_v2(m) for m in (1, 2, 3, 4, 8)]

# imaginary parts of z = iy, including both sides of |z| = 8 and 40, where a
# series/quadrature/asymptotic evaluator of Phi would switch method
AXIS = [0.0, 4 / 3, -4 / 3, 5.0, 7.9, 8.1, 12.0, 25.0, 39.9, 40.1, 60.0, 100.0,
        1e4, -25.0, -100.0]


@pytest.mark.parametrize("p", FAMILY, ids=str)
def test_against_mpmath(p):
    for y in AXIS:
        got, z = _phi_from_propagator(p, y)
        ref = _oracle(p, z)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (p, y, got, ref)


def test_pinned_value_a_sixth():
    # Phi(1/6, 1/3; 4i/3) computed with mpmath at 60 digits; V1 at m = 1,
    # t = 1, rho = 1 is e^(-2i/3) times it
    p = params_v1(1)
    ref = _oracle(p, 4j / 3)
    val = np.exp(-2j / 3) * ref
    # the e^(-z/2) combination is real on the imaginary axis
    assert abs(val.imag) < 1e-13
    assert abs(sample_arrays(1, 1.0, 1.0)[0] - val.real) < 1e-13
    got, _ = _phi_from_propagator(p, 4 / 3)
    assert abs(got - ref) < 1e-13
