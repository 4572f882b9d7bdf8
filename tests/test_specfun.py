"""Tests for the special functions vmma evaluates: Bessel K, through
`vmma.kernels.bessel_k` (the one place K is evaluated), and the Gauss
hypergeometric slice 2F1(1/2, c; 3/2; z) that the covariance closed forms
take from `scipy.special.hyp2f1`.

Oracles used here:
  * closed forms for half-integer Bessel orders,
  * the integral representation K_v(x) = int_0^inf exp(-x cosh t) cosh(v t) dt,
  * mpmath (arbitrary precision, independent implementation),
  * exact-rational truncated series for the hypergeometric family.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from vmma.errors import ValidationError
from vmma.kernels import bessel_k

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# bessel_k
# ---------------------------------------------------------------------------


def test_bessel_k_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    for x in (0.1, 0.5, 1.0, 2.0, 10.0):
        expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(expect, rel=1e-14)


def test_bessel_k_three_halves_closed_form():
    # K_{3/2}(x) = sqrt(pi/(2x)) exp(-x) (1 + 1/x)
    for x in (0.25, 1.0, 4.0):
        expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        assert bessel_k(1.5, x) == pytest.approx(expect, rel=1e-14)


def test_bessel_k_frozen_value():
    # K_{1/2}(1) = sqrt(pi/2) / e, evaluated once with mpmath at 30 digits.
    assert bessel_k(0.5, 1.0) == pytest.approx(0.461068504447894558, rel=1e-15)


@pytest.mark.parametrize("order", [0.05, 0.15, 0.25, 0.35, 0.45])
@pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 5.0])
def test_bessel_k_integral_representation(order, x):
    # Independent oracle: K_v(x) = int_0^inf exp(-x cosh t) cosh(v t) dt.
    def integrand(t):
        return math.exp(-x * math.cosh(t)) * math.cosh(order * t)

    # Split at t=20: beyond that cosh(t) > 2e8 and the integrand underflows
    # for every x in this grid.
    ref, ref_err = quad(integrand, 0.0, 20.0, epsabs=1e-15, epsrel=1e-13, limit=200)
    assert bessel_k(order, x) == pytest.approx(ref, rel=1e-10)


def test_bessel_k_vs_mpmath_wide_range():
    orders = [0.05, 0.3, 0.45, 0.5, 0.75]
    xs = np.geomspace(1e-8, 50.0, 25)
    for v in orders:
        for x in xs:
            ref = float(mpmath.besselk(v, mpmath.mpf(float(x))))
            got = bessel_k(v, float(x))
            if ref == 0.0:
                assert got == 0.0
            else:
                assert abs(got - ref) <= 1e-12 * abs(ref), (v, x, got, ref)


def test_bessel_k_negative_order_symmetry():
    assert bessel_k(-0.3, 2.0) == bessel_k(0.3, 2.0)


def test_bessel_k_array_input():
    xs = np.array([0.5, 1.0, 2.0])
    out = bessel_k(0.5, xs)
    assert out.shape == (3,)
    assert out[1] == bessel_k(0.5, 1.0)


def test_bessel_k_rejects_nonpositive_x():
    with pytest.raises(ValidationError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValidationError):
        bessel_k(0.5, np.array([1.0, -2.0]))


# ---------------------------------------------------------------------------
# 2F1(1/2, c; 3/2; z), as covariance._tr_array calls it
# ---------------------------------------------------------------------------


def hyp2f1_half(c, z):
    return hyp2f1(0.5, c, 1.5, z)


def test_hyp2f1_half_atanh_identity():
    # 2F1(1/2, 1; 3/2; z) = atanh(sqrt z)/sqrt z
    for z in (0.01, 0.25, 0.5, 0.9, 0.99):
        expect = math.atanh(math.sqrt(z)) / math.sqrt(z)
        assert hyp2f1_half(1.0, z) == pytest.approx(expect, rel=1e-13)


def test_hyp2f1_half_asin_identity():
    # 2F1(1/2, 1/2; 3/2; z) = asin(sqrt z)/sqrt z
    for z in (0.04, 0.36, 0.81):
        expect = math.asin(math.sqrt(z)) / math.sqrt(z)
        assert hyp2f1_half(0.5, z) == pytest.approx(expect, rel=1e-13)


def test_hyp2f1_half_at_zero_is_one():
    assert hyp2f1_half(1.23, 0.0) == 1.0


def _series_reference(c: Fraction, z: Fraction, terms: int = 200) -> float:
    """Truncated Gauss series in exact rational arithmetic.

    For |z| <= 1/2 the tail after 200 terms is below 2^-200, far under any
    tolerance used here.
    """
    total = Fraction(0)
    term = Fraction(1)
    a = Fraction(1, 2)
    b = c
    cc = Fraction(3, 2)
    for k in range(terms):
        total += term
        term = term * (a + k) * (b + k) * z / ((cc + k) * (k + 1))
    return float(total)


@pytest.mark.parametrize(
    "c,z",
    [
        (Fraction(5, 4), Fraction(1, 4)),
        (Fraction(11, 10), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(19, 20), Fraction(2, 5)),
    ],
)
def test_hyp2f1_half_vs_exact_rational_series(c, z):
    ref = _series_reference(c, z)
    assert hyp2f1_half(float(c), float(z)) == pytest.approx(ref, rel=1e-10)
