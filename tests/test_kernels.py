"""Tests for the kernel families and the kernel-spec grammar.

Oracles: closed forms (gamma-function limits, exponential-family integrals),
mpmath for the Matern squared-kernel integral, and half-integer Bessel
identities for the correlation function.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmma.errors import QuadratureError, ValidationError
from vmma.kernels import (
    ExpDecay,
    KernelSpec,
    Matern,
    PurePower,
    format_kernel,
    matern_correlation,
    parse_kernel,
)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# family basics
# ---------------------------------------------------------------------------


def test_matern_alpha_is_nu_minus_one():
    assert Matern(0.5, 1.0).alpha == -0.5
    assert Matern(0.2, 2.0).alpha == pytest.approx(-0.8)


def test_matern_L_at_zero_closed_form():
    # L(0+) = 2**(mu-1) Gamma(mu) lam**(-mu), mu = (1-nu)/2.
    for nu, lam in [(0.5, 1.0), (0.3, 2.0), (0.9, 0.7)]:
        mu = (1.0 - nu) / 2.0
        expect = 2.0 ** (mu - 1.0) * math.gamma(mu) * lam ** (-mu)
        k = Matern(nu, lam)
        assert k.L_at_zero() == pytest.approx(expect, rel=1e-14)
        assert k.eval_L(0.0) == pytest.approx(expect, rel=1e-14)


def test_matern_L_continuous_at_zero():
    k = Matern(0.5, 1.0)
    assert k.eval_L(1e-9) == pytest.approx(k.eval_L(0.0), rel=1e-4)


def test_g_is_power_times_L():
    for k in (Matern(0.4, 1.5), ExpDecay(-0.3), PurePower(-0.6, R=2.0)):
        xs = np.array([0.05, 0.5, 1.5])
        expect = xs**k.alpha * k.eval_L(xs)
        assert np.allclose(k.eval_g(xs), expect, rtol=1e-13)


def test_expdecay_L_is_exponential():
    k = ExpDecay(-0.5)
    assert k.eval_L(0.0) == 1.0
    assert k.eval_L(2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_purepower_cutoff():
    k = PurePower(-0.5, R=1.5)
    assert k.eval_g(1.0) == pytest.approx(1.0)
    assert k.eval_g(1.5) == pytest.approx(1.5**-0.5)
    assert k.eval_g(1.5000001) == 0.0
    assert k.kink_radii == (1.5,)


def test_kink_radii_default_empty():
    assert Matern(0.5).kink_radii == ()
    assert ExpDecay(-0.5).kink_radii == ()


def test_family_supplies_only_L():
    # the interface does the validation and scalar return around _L, and
    # declares the default decay
    class Flat(KernelSpec):
        alpha = -0.5

        def _L(self, x):
            return np.ones_like(x)

    k = Flat()
    assert k.beta_decay == -math.inf
    assert k.eval_g(4.0) == 0.5 and isinstance(k.eval_g(4.0), float)
    assert k.eval_L(np.array([0.0, 1.0])).tolist() == [1.0, 1.0]
    with pytest.raises(ValidationError):
        k.eval_g(0.0)
    with pytest.raises(ValidationError):
        k.eval_L(-1.0)
    with pytest.raises(ValidationError):
        format_kernel(k)  # the grammar writes only the three families


def test_eval_g_rejects_nonpositive():
    for k in (Matern(0.5), ExpDecay(-0.5), PurePower(-0.5)):
        with pytest.raises(ValidationError):
            k.eval_g(0.0)
        with pytest.raises(ValidationError):
            k.eval_g(np.array([1.0, -1.0]))


def test_constructor_validation():
    with pytest.raises(ValidationError):
        Matern(1.5)  # alpha would leave (-1, 0)
    with pytest.raises(ValidationError):
        Matern(0.0)
    with pytest.raises(ValidationError):
        Matern(0.5, lam=-1.0)
    with pytest.raises(ValidationError):
        ExpDecay(0.0)
    with pytest.raises(ValidationError):
        ExpDecay(-1.0)
    with pytest.raises(ValidationError):
        PurePower(-0.5, R=0.0)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            Matern(0.5, lam)
    with pytest.raises(ValidationError):
        PurePower(-0.5, R=math.nan)


# ---------------------------------------------------------------------------
# g_squared_integral
# ---------------------------------------------------------------------------


def test_g_squared_expdecay_closed_form():
    # 2*pi int r^(2a+1) e^(-2r) dr = 2*pi Gamma(2a+2) / 2**(2a+2).
    for a in (-0.7, -0.5, -0.2):
        expect = 2.0 * math.pi * math.gamma(2 * a + 2) / 2.0 ** (2 * a + 2)
        assert ExpDecay(a).g_squared_integral() == pytest.approx(expect, rel=1e-9)
    # a = -1/2 specialises to exactly pi.
    assert ExpDecay(-0.5).g_squared_integral() == pytest.approx(math.pi, rel=1e-10)


def test_g_squared_purepower_closed_form():
    # 2*pi R^(2a+2) / (2a+2), and an independent numeric route.
    for a, R in [(-0.5, 1.0), (-0.8, 2.0), (-0.6, 0.3), (-0.3, 7.5)]:
        e = 2 * a + 2
        expect = 2.0 * math.pi * R**e / e
        assert PurePower(a, R=R).g_squared_integral() == pytest.approx(
            expect, rel=1e-13
        )
        numeric = float(
            2 * mpmath.pi * mpmath.quad(lambda r: r ** (2 * a + 1), [0, R])
        )
        assert expect == pytest.approx(numeric, rel=1e-12)


def test_g_squared_matern_vs_mpmath():
    # 2*pi int_0^inf x^nu K_mu(lam x)^2 dx with mu = (nu-1)/2, evaluated by
    # mpmath at 30 digits.
    for nu, lam in [(0.5, 1.0), (0.4, 1.0), (0.8, 2.0)]:
        mu = (nu - 1.0) / 2.0
        ref = float(
            2
            * mpmath.pi
            * mpmath.quad(
                lambda x: x**nu * mpmath.besselk(mu, lam * x) ** 2, [0, mpmath.inf]
            )
        )
        got = Matern(nu, lam).g_squared_integral()
        assert got == pytest.approx(ref, rel=1e-9), (nu, lam)


def test_g_squared_matern_closed_form():
    # Gradshteyn-Ryzhik 6.576.4 with a = (1+nu)/2, mu = (nu-1)/2:
    # 2*pi int_0^inf x^nu K_mu(lam x)^2 dx
    #   = 2*pi sqrt(pi) G(a+mu) G(a-mu) G(a) / (4 G(a+1/2) lam^(1+nu)),
    # which reaches the strong singularities (nu near 0) where mpmath.quad
    # of the integrand loses digits.
    for nu in (0.05, 0.1, 0.2, 0.4, 0.5, 0.8, 0.95):
        for lam in (0.38, 1.0, 2.0, 3.0):
            a = (1.0 + nu) / 2.0
            mu = (nu - 1.0) / 2.0
            expect = (2.0 * math.pi * math.sqrt(math.pi) * math.gamma(a + mu)
                      * math.gamma(a - mu) * math.gamma(a)
                      / (4.0 * math.gamma(a + 0.5) * lam ** (1.0 + nu)))
            got = Matern(nu, lam).g_squared_integral()
            assert got == pytest.approx(expect, rel=1e-12), (nu, lam)


def test_g_squared_rejects_bad_tol():
    with pytest.raises(ValidationError):
        ExpDecay(-0.5).g_squared_integral(tol=0.0)


def test_g_squared_tol_below_error_estimate_raises():
    # the estimate for ExpDecay(-0.9) is about 3e-13, far above 1e-16
    with pytest.raises(QuadratureError):
        ExpDecay(-0.9).g_squared_integral(tol=1e-16)
    assert ExpDecay(-0.9).g_squared_integral(tol=1e-10) > 0.0


# ---------------------------------------------------------------------------
# matern_correlation
# ---------------------------------------------------------------------------


def test_matern_correlation_half_is_exponential():
    rs = np.array([0.01, 0.1, 1.0, 3.0])
    assert np.allclose(matern_correlation(0.5, 1.0, rs), np.exp(-rs), rtol=1e-13)
    assert np.allclose(
        matern_correlation(0.5, 2.0, rs), np.exp(-2.0 * rs), rtol=1e-13
    )


def test_matern_correlation_three_halves_closed_form():
    # rho(r) = (1 + lam r) exp(-lam r) for nu = 3/2.
    lam = 1.3
    rs = np.array([0.05, 0.5, 2.0])
    expect = (1.0 + lam * rs) * np.exp(-lam * rs)
    assert np.allclose(matern_correlation(1.5, lam, rs), expect, rtol=1e-12)


def test_matern_correlation_at_zero_and_monotone():
    assert matern_correlation(0.4, 1.0, 0.0) == 1.0
    rs = np.linspace(0.0, 3.0, 50)
    vals = matern_correlation(0.4, 1.0, rs)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def test_matern_correlation_validation():
    with pytest.raises(ValidationError):
        matern_correlation(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        matern_correlation(0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        matern_correlation(0.5, 1.0, -1.0)


# ---------------------------------------------------------------------------
# grammar round trips
# ---------------------------------------------------------------------------


def test_parse_kernel_examples():
    k = parse_kernel("matern:nu=0.5,lambda=1.0")
    assert isinstance(k, Matern) and k.nu == 0.5 and k.lam == 1.0
    k = parse_kernel("matern:nu=0.4")  # lambda defaults to 1
    assert isinstance(k, Matern) and k.lam == 1.0
    k = parse_kernel("expdecay:alpha=-0.3")
    assert isinstance(k, ExpDecay) and k.alpha == -0.3
    k = parse_kernel("power:alpha=-0.5,R=2.0")
    assert isinstance(k, PurePower) and k.R == 2.0


@given(
    nu=st.floats(0.05, 0.95),
    lam=st.floats(0.1, 10.0),
)
def test_format_parse_round_trip_matern(nu, lam):
    k = Matern(nu, lam)
    k2 = parse_kernel(format_kernel(k))
    assert isinstance(k2, Matern)
    assert k2.nu == pytest.approx(k.nu, rel=1e-15)
    assert k2.lam == pytest.approx(k.lam, rel=1e-15)


def test_format_parse_round_trip_all_families():
    for k in (Matern(0.4, 2.0), ExpDecay(-0.35), PurePower(-0.6, R=1.5)):
        assert parse_kernel(format_kernel(k)) == k


def test_parse_kernel_rejects_malformed():
    for bad in (
        "matern",
        "matern:nu=0.5,bogus=1",
        "matern:nu",  # no '='
        "unknown:alpha=-0.5",
        "expdecay:alpha=notanumber",
        "matern:nu=2.0",  # out of range
        "",
    ):
        with pytest.raises(ValidationError):
            parse_kernel(bad)
