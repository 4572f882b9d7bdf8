"""Tests for the Gauss nodes, the cell rules and the radial quadrature
helpers.

Oracles: elementary closed forms (polynomials, powers of the radius over
squares and annular regions) plus scipy.integrate.dblquad as an independent
adaptive routine.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import dblquad

from vmma.covariance import box_power_integrals
from vmma.errors import ValidationError
from vmma.quadrature import (
    TWELVE_POINT,
    cell_rule,
    gauss_nodes,
    radial_cell_integral,
    square_exterior_radial_integral,
)

# int over the unit square of ||u||^-1: 8 * int_0^{pi/4} int_0^{sec(t)/2} dr dt
# = 4*asinh(1) = 4*ln(1+sqrt(2)).
CENTRAL_INVERSE_RADIUS = 4.0 * math.asinh(1.0)


# ---------------------------------------------------------------------------
# gauss_nodes
# ---------------------------------------------------------------------------


def test_gauss_nodes_integrate_polynomials_exactly():
    # m-point Gauss-Legendre is exact through degree 2m-1 on [0, 1].
    x, w = gauss_nodes(6)
    for k in range(0, 12):
        assert np.dot(w, x**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


# ---------------------------------------------------------------------------
# cell_rule
# ---------------------------------------------------------------------------


def _cell_moment(i: int, j: int) -> float:
    """int over the unit cell [-1/2, 1/2]^2 of x^i y^j."""
    def one(k):
        return 0.0 if k % 2 else 0.5**k / (k + 1)
    return one(i) * one(j)


def test_twelve_point_rule_has_degree_seven():
    ux, uy, w = cell_rule(TWELVE_POINT)
    assert len(w) == 12
    for i in range(8):
        for j in range(8 - i):
            got = float(np.sum(w * ux**i * uy**j))
            want = _cell_moment(i, j)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-16), (i, j)
    # and no more: x^8 comes out about 3 % low (-0.0132 on [-1, 1]^2)
    miss = float(np.sum(w * ux**8)) / _cell_moment(8, 0) - 1.0
    assert miss == pytest.approx(-0.02967, abs=1e-5)


def test_twelve_point_rule_is_inside_with_positive_weights():
    ux, uy, w = cell_rule(TWELVE_POINT)
    assert np.all(np.abs(ux) < 0.5) and np.all(np.abs(uy) < 0.5)
    assert np.all(w > 0.0)
    assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("m", [1, 4, 6, 12, 24])
def test_product_cell_rule_is_the_gauss_outer_product(m):
    # i-major flattening of gauss_nodes(m), bit for bit, so a sum over the
    # points equals the nested loop over i and k
    ux, uy, w = cell_rule(m)
    x, wx = gauss_nodes(m)
    for i in range(m):
        for k in range(m):
            p = i * m + k
            assert (ux[p], uy[p], w[p]) == (x[i] - 0.5, x[k] - 0.5, wx[i] * wx[k])


def test_cell_rule_is_read_only_and_rejects_unknown_rules():
    for c in cell_rule(TWELVE_POINT) + cell_rule(4):
        assert not c.flags.writeable
    for bad in (0, -3, 2.5, True, "stroud"):
        with pytest.raises(ValidationError):
            cell_rule(bad)


# ---------------------------------------------------------------------------
# radial_cell_integral on the origin cell (the unit box)
# ---------------------------------------------------------------------------


def test_radial_unit_box_constant_gives_area():
    val, err = radial_cell_integral(lambda r: 1.0, 0, 0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_radial_unit_box_r_squared():
    # int_{[-1/2,1/2]^2} (x^2 + y^2) = 2 * 1/12 = 1/6.
    val, _ = radial_cell_integral(lambda r: r**2, 0, 0)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_radial_unit_box_inverse_radius():
    val, _ = radial_cell_integral(lambda r: 1.0 / r, 0, 0)
    assert val == pytest.approx(CENTRAL_INVERSE_RADIUS, abs=1e-11)


def test_radial_unit_box_indicator_breakpoint():
    # Disc of radius 0.4 inside the square: area pi * 0.16.
    val, _ = radial_cell_integral(
        lambda r: float(r <= 0.4), 0, 0, breakpoints=(0.4,)
    )
    assert val == pytest.approx(math.pi * 0.16, abs=1e-10)


# ---------------------------------------------------------------------------
# square_exterior_radial_integral
# ---------------------------------------------------------------------------


def test_square_exterior_area_closed_form():
    # fr = 1 up to radius U = 3 > a*sqrt(2): area = pi U^2 - (2a)^2.
    val, _ = square_exterior_radial_integral(
        lambda r: float(r <= 3.0), half_side=1.0, breakpoints=(3.0,)
    )
    assert val == pytest.approx(math.pi * 9.0 - 4.0, abs=1e-10)


def test_square_exterior_inverse_quartic():
    # fr = r^-4 outside [-a,a]^2.  Octant polar reduction gives the closed
    # form 8 * int_0^{pi/4} cos^2(t)/(2 a^2) dt = pi/(2 a^2) + 1/a^2.
    for a in (1.0, 2.5):
        ref = math.pi / (2.0 * a * a) + 1.0 / (a * a)
        val, _ = square_exterior_radial_integral(lambda r: r**-4.0, half_side=a)
        assert val == pytest.approx(ref, rel=1e-11)


def test_square_exterior_breakpoint_on_infinite_leg():
    # Piecewise fr with a kink beyond the diagonal: fr = 1 on [a*sqrt2, 5],
    # 0 after.  Area = pi * 25 - 4 a^2  with a*sqrt(2) < 5.
    a = 1.0

    def fr(r):
        return 1.0 if r <= 5.0 else 0.0

    val, _ = square_exterior_radial_integral(fr, half_side=a, breakpoints=(5.0,))
    assert val == pytest.approx(math.pi * 25.0 - 4.0, abs=1e-8)


def test_square_exterior_rejects_bad_half_side():
    for bad in (0.0, -1.0, float("nan"), float("inf"), True):
        with pytest.raises(ValidationError):
            square_exterior_radial_integral(lambda r: 1.0, half_side=bad)


# ---------------------------------------------------------------------------
# radial_cell_integral
# ---------------------------------------------------------------------------


def _cell_rect(a, b):
    return (a - 0.5, a + 0.5, b - 0.5, b + 0.5)


def test_radial_cell_constant_gives_cell_area():
    for a, b in [(1, 0), (1, 1), (3, 2)]:
        val, _ = radial_cell_integral(lambda r: 1.0, a, b)
        assert val == pytest.approx(1.0, abs=1e-12), (a, b)


def test_radial_cell_vs_dblquad_smooth():
    for a, b in [(1, 0), (2, 1), (3, 3)]:
        fr = lambda r: math.exp(-r) * r**-0.5
        val, _ = radial_cell_integral(fr, a, b)
        x0, x1, y0, y1 = _cell_rect(a, b)
        if b == 0:
            # off-axis cells are mirrored about y=0 inside the octant
            # representative, matching the covariance cell convention
            ref1, _ = dblquad(
                lambda y, x: fr(math.hypot(x, y)), x0, x1, 0.0, y1, epsabs=1e-12
            )
            ref2, _ = dblquad(
                lambda y, x: fr(math.hypot(x, y)), x0, x1, y0, 0.0, epsabs=1e-12
            )
            ref = ref1 + ref2
        else:
            ref, _ = dblquad(
                lambda y, x: fr(math.hypot(x, y)), x0, x1, y0, y1, epsabs=1e-12
            )
        assert val == pytest.approx(ref, rel=1e-10), (a, b)


def test_radial_cell_power_law_vs_dblquad():
    # Negative powers, including strongly singular-ish decay near cell (1,0).
    for e in (-1.8, -1.0, -0.2):
        val, _ = radial_cell_integral(lambda r: r**e, 1, 0)
        x0, x1, y0, y1 = _cell_rect(1, 0)
        ref, _ = dblquad(
            lambda y, x: (x * x + y * y) ** (e / 2.0), x0, x1, y0, y1,
            epsabs=1e-12,
        )
        assert val == pytest.approx(ref, rel=1e-9), e


def test_radial_cell_indicator_disc_area():
    # Disc of radius 2.2 clipped to the cell centred at (2, 0): compare the
    # angular-measure construction against dblquad of the indicator.
    R = 2.2
    val, _ = radial_cell_integral(
        lambda r: 1.0 if r <= R else 0.0, 2, 0, breakpoints=(R,)
    )
    x0, x1, y0, y1 = _cell_rect(2, 0)
    # Exact area of {x in [1.5, 2.5], |y| <= ..., x^2+y^2 <= R^2}:
    # integrate width 2*sqrt(R^2-x^2) clipped to the cell height 1.
    from scipy.integrate import quad

    def width(x):
        if x >= R:
            return 0.0
        return min(1.0, 2.0 * math.sqrt(R * R - x * x))

    ref, _ = quad(width, x0, min(x1, R), epsabs=1e-13, points=[math.sqrt(R * R - 0.25)])
    assert val == pytest.approx(ref, abs=1e-10)


@given(
    a=st.integers(0, 6),
    b=st.integers(0, 6),
    e=st.floats(-1.9, -0.1),
)
def test_radial_cell_power_law_property(a, b, e):
    if b > a:
        a, b = b, a
    val, err = radial_cell_integral(lambda r: r**e, a, b)
    assert val > 0.0
    assert err < 1e-9
    # The closed form is the oracle; off the origin the integrand is also
    # bounded by the min/max radius over the cell.
    assert val == pytest.approx(float(box_power_integrals(a, b, e)), rel=1e-10)
    if a > 0:
        rmax = math.hypot(a + 0.5, b + 0.5)
        rmin = a - 0.5 if b == 0 else math.hypot(a - 0.5, b - 0.5)
        assert rmax**e <= val <= rmin**e


def test_radial_cell_rejects_non_octant_cells():
    # non-integers (1.7 and True would silently integrate cell (1, 0))
    for a, b in [(1, 2), (-1, 0), (2, -1), (1.7, 0), (True, 0), (1, False),
                 (float("nan"), 0)]:
        with pytest.raises(ValidationError):
            radial_cell_integral(lambda r: 1.0, a, b)
