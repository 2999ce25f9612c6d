"""Special functions against frozen reference values and scipy."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from casimir_lens.specfun import (ConvergenceError, SeriesControl, bessel_i1,
                                  bessel_i1_scaled, polylog, polylog_exp_grid)

# Reference values computed with mpmath at 30 decimal digits.
LI_HALF_AT_HALF = 0.8061267230428523
I1_AT_ONE = 0.565159103992485


def test_polylog_frozen_value():
    assert polylog(0.5, 0.5) == pytest.approx(LI_HALF_AT_HALF, rel=1e-12)


def test_polylog_dilog_special_case():
    # Li_1(z) = -ln(1 - z)
    assert polylog(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)
    assert polylog(1.0, -0.25) == pytest.approx(-math.log(1.25), rel=1e-12)


def test_polylog_at_zero_and_small_z():
    assert polylog(0.5, 0.0) == 0.0
    # leading behaviour Li_s(z) ~ z for small z
    assert polylog(-0.5, 1e-12) == pytest.approx(1e-12, rel=1e-10)


def test_polylog_domain():
    with pytest.raises(ValueError):
        polylog(0.5, 1.0)
    with pytest.raises(ValueError):
        polylog(0.5, -1.5)


def test_polylog_near_unity_accelerated():
    # The Euler-Maclaurin path must agree with brute-force summation.
    z = 0.9999
    brute = sum(z ** n / math.sqrt(n) for n in range(1, 2_000_000))
    assert polylog(0.5, z) == pytest.approx(brute, rel=1e-10)


def test_polylog_ladder_identity():
    # Li_{s-1}(z) = z d/dz Li_s(z), checked by central differences.
    for z in (0.1, 0.5, 0.9):
        dz = 1e-6 * z
        deriv = (polylog(0.5, z + dz) - polylog(0.5, z - dz)) / (2.0 * dz)
        assert polylog(-0.5, z) == pytest.approx(z * deriv, rel=1e-6)


def test_polylog_against_scipy_integral():
    # Li_s(z) = z/Gamma(s) * int_0^inf t^{s-1}/(e^t - z) dt for s > 0
    s, z = 1.5, 0.7

    def integrand(t):
        return t ** (s - 1.0) / (math.exp(t) - z)

    ref, _ = scipy.integrate.quad(integrand, 0.0, 80.0)
    ref *= z / math.gamma(s)
    assert polylog(s, z) == pytest.approx(ref, rel=1e-9)


def test_bessel_i1_frozen_value():
    assert bessel_i1(1.0) == pytest.approx(I1_AT_ONE, rel=1e-12)


def test_bessel_i1_against_scipy():
    for x in (1e-8, 0.1, 1.0, 5.0, 29.9, 30.1, 100.0, 700.0):
        assert bessel_i1(x) == pytest.approx(float(scipy.special.i1(x)),
                                             rel=1e-12)


def test_bessel_i1_scaled_against_scipy():
    x = np.array([1e-10, 1e-3, 0.5, 2.0, 10.0, 29.99, 30.01, 1e3, 1e8])
    ref = scipy.special.ive(1, x)
    assert np.allclose(bessel_i1_scaled(x), ref, rtol=1e-12, atol=1e-300)


def test_bessel_i1_oddness():
    assert bessel_i1(-2.5) == pytest.approx(-bessel_i1(2.5), rel=1e-15)
    assert bessel_i1_scaled(-3.0) == pytest.approx(-bessel_i1_scaled(3.0),
                                                   rel=1e-15)


def test_polylog_exp_grid_matches_scalar():
    v = np.geomspace(1e-4, 60.0, 50)
    for s in (0.5, -0.5):
        for r2 in (1.0, 0.63, 1e-6):
            grid = polylog_exp_grid(s, v, r2)
            ref = np.array([polylog(s, r2 * math.exp(-vi)) for vi in v])
            assert np.allclose(grid, ref, rtol=2e-12)


@pytest.mark.parametrize("s", [0.5, -0.5])
@pytest.mark.parametrize("r2", [1.0, 0.63, 1e-6])
def test_polylog_exp_grid_against_mpmath(s, r2):
    # Both branches and the mu = v - ln r2 = 1 seam between them, against
    # 40-digit values; the seam points are kept where v > 0.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    seam = 1.0 + math.log(r2) + np.linspace(-0.02, 0.02, 41)
    v = np.concatenate([np.geomspace(1e-10, 600.0, 200), seam[seam > 0.0]])
    ref = np.array([float(mpmath.polylog(s, mpmath.mpf(r2)
                                         * mpmath.exp(-mpmath.mpf(vi))))
                    for vi in v])
    np.testing.assert_allclose(polylog_exp_grid(s, v, r2), ref, rtol=5e-15,
                               atol=0)


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_polylog_exp_grid_rejects_positive_integer_order(s):
    with pytest.raises(ValueError, match="positive integer"):
        polylog_exp_grid(s, np.array([0.5, 2.0]), 1.0)


def test_polylog_exp_grid_zero_weight():
    v = np.array([0.1, 1.0, 10.0])
    assert np.all(polylog_exp_grid(0.5, v, 0.0) == 0.0)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=1e-12, max_terms=0)


def test_convergence_error_carries_partial():
    err = ConvergenceError("nope", partial=1.25)
    assert err.partial == 1.25


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_polylog_mpmath_spot_checks(s):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for z in (0.3, 0.99, 0.999999, -0.8):
        ref = float(mpmath.polylog(s, z))
        assert polylog(s, z) == pytest.approx(ref, rel=5e-13)
