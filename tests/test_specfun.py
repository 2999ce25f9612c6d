"""Special functions against frozen reference values, mpmath and scipy."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import casimir_lens
from casimir_lens.engine import _force_kernel, _gradient_kernel, _grid_from
from casimir_lens.materials import gold_drude, reflection_sq_grid
from casimir_lens.specfun import (ConvergenceError, bessel_i1_scaled,
                                  polylog_exp_grid)

# Reference values computed with mpmath at 30 decimal digits.
LI_HALF_AT_HALF = 0.8061267230428523
I1_AT_ONE = 0.565159103992485


def li(s, z):
    """Li_s(z) for one z in (0, 1) through the grid form, z = e^-v."""
    return float(polylog_exp_grid(s, np.array([-math.log(z)]), 1.0)[0])


def test_polylog_frozen_value():
    value = polylog_exp_grid(0.5, np.array([math.log(2.0)]), 1.0)[0]
    assert value == pytest.approx(LI_HALF_AT_HALF, rel=1e-12)


def test_polylog_at_zero_and_small_z():
    # z = 0 is test_polylog_exp_grid_zero_weight's r2 = 0; leading behaviour Li_s(z) ~ z for small z
    assert li(-0.5, 1e-12) == pytest.approx(1e-12, rel=1e-10)


def test_polylog_near_unity_accelerated():
    # Wood's series near the singularity against brute-force summation.
    z = 0.9999
    n = np.arange(1, 2_000_000, dtype=float)
    brute = math.fsum(z ** n / np.sqrt(n))
    assert li(0.5, z) == pytest.approx(brute, rel=1e-10)


def test_polylog_ladder_identity():
    # Li_{s-1}(z) = z d/dz Li_s(z), checked by central differences.
    for z in (0.1, 0.5, 0.9):
        dz = 1e-6 * z
        deriv = (li(0.5, z + dz) - li(0.5, z - dz)) / (2.0 * dz)
        assert li(-0.5, z) == pytest.approx(z * deriv, rel=1e-6)


def test_polylog_against_scipy_integral():
    # Li_s(z) = z/Gamma(s) * int_0^inf t^{s-1}/(e^t - z) dt for s > 0
    s, z = 1.5, 0.7

    def integrand(t):
        return t ** (s - 1.0) / (math.exp(t) - z)

    ref, _ = scipy.integrate.quad(integrand, 0.0, 80.0)
    ref *= z / math.gamma(s)
    assert li(s, z) == pytest.approx(ref, rel=1e-9)


def test_bessel_i1_frozen_value():
    assert bessel_i1_scaled(1.0) * math.e == pytest.approx(I1_AT_ONE,
                                                           rel=1e-12)


def test_bessel_i1_against_scipy():
    for x in (1e-8, 0.1, 1.0, 5.0, 29.9, 30.1, 100.0, 700.0):
        assert bessel_i1_scaled(x) * math.exp(x) == pytest.approx(
            float(scipy.special.i1(x)), rel=1e-12)


def test_bessel_i1_scaled_against_scipy():
    x = np.array([1e-10, 1e-3, 0.5, 2.0, 10.0, 29.99, 30.01, 1e3, 1e8])
    ref = scipy.special.ive(1, x)
    assert np.allclose(bessel_i1_scaled(x), ref, rtol=1e-12, atol=1e-300)


def test_bessel_i1_oddness():
    assert bessel_i1_scaled(-3.0) == pytest.approx(-bessel_i1_scaled(3.0),
                                                   rel=1e-15)


@pytest.mark.parametrize("s", [0.5, -0.5])
@pytest.mark.parametrize("r2", [1.0, 0.63, 1e-6])
def test_polylog_exp_grid_against_mpmath(s, r2):
    # Both branches and the mu = v - ln r2 = 1 seam between them, against
    # 40-digit values; the seam points are kept where v > 0.
    mpmath = pytest.importorskip("mpmath")
    seam = 1.0 + math.log(r2) + np.linspace(-0.02, 0.02, 41)
    v = np.concatenate([np.geomspace(1e-10, 600.0, 64), seam[seam > 0.0]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.polylog(s, mpmath.mpf(r2)
                                             * mpmath.exp(-mpmath.mpf(vi))))
                        for vi in v])
    np.testing.assert_allclose(polylog_exp_grid(s, v, r2), ref, rtol=5e-15,
                               atol=0)


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_polylog_exp_grid_far_branch_against_mpmath(s):
    # the economized polynomial over mu in [1, 6], where it meets Wood's
    # series, and a few ulp either side of the mu = 1 seam; half the
    # points through r2 < 1, so x = r2 e^-v takes both factors
    mpmath = pytest.importorskip("mpmath")
    mu = np.concatenate([np.linspace(1.0, 6.0, 200),
                         1.0 + 2.2e-16 * np.arange(-4, 5)])
    r2 = np.where(np.arange(mu.size) % 2 == 0, 1.0, 0.37)
    v = mu + np.log(r2)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.polylog(s, mpmath.mpf(ri)
                                             * mpmath.exp(-mpmath.mpf(vi))))
                        for vi, ri in zip(v, r2)])
    np.testing.assert_allclose(polylog_exp_grid(s, v, r2), ref, rtol=5e-15,
                               atol=0)


@st.composite
def _grids(draw):
    """Nodes (v, r2) with v log-uniform over 1e-9 - 700 and r2 in [0, 1],
    r2 = 0 and 1 included; then a permutation and a subset of them."""
    n = draw(st.integers(1, 64))
    v = draw(st.lists(st.floats(math.log(1e-9), math.log(700.0)),
                      min_size=n, max_size=n))
    r2 = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0),
                                 st.floats(0.0, 1.0)),
                       min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return np.exp(v), np.array(r2), np.array(order), np.array(subset)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid=_grids(), s=st.sampled_from([0.5, -0.5]))
def test_polylog_exp_grid_node_independent_of_the_call(grid, s):
    # each node is the same float whatever else the call holds
    v, r2, order, subset = grid
    whole = polylog_exp_grid(s, v, r2)
    for pick in (order, subset):
        assert np.array_equal(polylog_exp_grid(s, v[pick], r2[pick]),
                              whole[pick])


@st.composite
def _columns(draw):
    """A column of v (n, 1), log-uniform over 1e-9 - 700, and a stack of
    weights r2 (2, n, m) in [0, 1], r2 = 0 and 1 included."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    v = draw(st.lists(st.floats(math.log(1e-9), math.log(700.0)),
                      min_size=n, max_size=n))
    r2 = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0),
                                 st.floats(0.0, 1.0)),
                       min_size=2 * n * m, max_size=2 * n * m))
    return np.exp(v)[:, None], np.array(r2).reshape(2, n, m)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid=_columns(), s=st.sampled_from([0.5, -0.5]))
def test_polylog_exp_grid_column_of_v_equals_v_on_every_node(grid, s):
    # e^-v taken once per row of a column is the same float as per node
    col, r2 = grid
    got = polylog_exp_grid(s, col, r2)
    assert got.shape == r2.shape
    assert np.array_equal(got, polylog_exp_grid(
        s, np.broadcast_to(col, r2.shape), r2))


@pytest.mark.parametrize("kernel, s, power", [(_force_kernel, 0.5, 1.5),
                                              (_gradient_kernel, -0.5, 2.5)])
def test_stacked_kernel_equals_two_calls(kernel, s, power):
    # TM and TE pass through one polylog call; the sum of two calls, one
    # per polarization, is the same float at every node, at zero frequency
    # (where the Drude TE weight vanishes) and on a stack of 19 frequencies
    a = 200e-9
    for zeta in (0.0, 0.33 * np.arange(1, 20)):
        v, _ = _grid_from(zeta)
        r_tm2, r_te2 = r2 = reflection_sq_grid(
            gold_drude(), np.asarray(zeta)[..., None], v, a)
        two = v ** power * (polylog_exp_grid(s, v, r_tm2)
                            + polylog_exp_grid(s, v, r_te2))
        assert np.array_equal(kernel(v, r2), two)


@pytest.mark.parametrize("s", [1.0, 2.0])
def test_polylog_exp_grid_rejects_positive_integer_order(s):
    with pytest.raises(ValueError, match="positive integer"):
        polylog_exp_grid(s, np.array([0.5, 2.0]), 1.0)


def test_polylog_exp_grid_zero_weight():
    v = np.array([0.1, 1.0, 10.0])
    assert np.all(polylog_exp_grid(0.5, v, 0.0) == 0.0)


def test_convergence_error_carries_partial():
    err = ConvergenceError("nope", partial=1.25)
    assert err.partial == 1.25


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_polylog_mpmath_spot_checks(s):
    mpmath = pytest.importorskip("mpmath")
    for z in (0.3, 0.99, 0.999999):
        v = -math.log(z)
        with mpmath.workdps(30):
            ref = float(mpmath.polylog(s, mpmath.exp(-mpmath.mpf(v))))
        assert li(s, z) == pytest.approx(ref, rel=5e-13)


def test_import_and_parse_leave_scipy_unloaded():
    # scipy.special is imported on the first evaluation, so importing the
    # package and parsing a config must not load any of scipy
    src = os.path.dirname(os.path.dirname(casimir_lens.__file__))
    child = """\
import sys
sys.path.insert(0, sys.argv[1])
import casimir_lens, casimir_lens.cli
casimir_lens.parse_config('''\\
[run]
command = force

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = drude

[environment]
a = 200e-9
T = 300
''')
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    out = subprocess.run([sys.executable, "-c", child, src], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
