"""The Clenshaw-Curtis rules of the Euler-Maclaurin remainder.

engine._clenshaw_curtis(n) gives the 2n + 1 nodes -cos(pi k / 2n) on
[-1, 1], the fine rule's weights on them, and the matrix whose row j takes
w f to the error of the nested (n + 1)-point rule, on every other node, on
the Chebyshev mode T_j of f's interpolant.  These tests hold the rules to
Simpson's rule and the 5-point rule, to exactness against the exact
moments, to the nesting, to 30-digit evaluations of the closed form, and
the matrix to the modes it splits.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from casimir_lens import engine
from casimir_lens.engine import _EM_NODES, _clenshaw_curtis, _grid_from

ORDERS = sorted(set(_EM_NODES))  # every panel order the remainder takes


def _coarse(n):
    """The nested rule's weights on all 2n + 1 nodes, read off the matrix:
    fine - coarse is the sum of its rows applied to w f."""
    _, w, miss = _clenshaw_curtis(n)
    return w * (1.0 - miss.sum(axis=0))


def _moment(k):
    return 2.0 / (k + 1) if k % 2 == 0 else 0.0


@pytest.mark.parametrize("n, fine, coarse", [
    (1, [Fraction(1, 3), Fraction(4, 3), Fraction(1, 3)], [1, 0, 1]),
    (2, [Fraction(k, 15) for k in (1, 8, 12, 8, 1)],
     [Fraction(1, 3), 0, Fraction(4, 3), 0, Fraction(1, 3)])])
def test_simpson_and_the_five_point_rule(n, fine, coarse):
    x, w, _ = _clenshaw_curtis(n)
    half = math.sqrt(0.5)
    nodes = [-1, 0, 1] if n == 1 else [-1, -half, 0, half, 1]
    np.testing.assert_allclose(x, nodes, rtol=0.0, atol=2.3e-16)
    np.testing.assert_allclose(w, np.array(fine, dtype=float),
                               rtol=0.0, atol=4e-16)
    np.testing.assert_allclose(_coarse(n), np.array(coarse, dtype=float),
                               rtol=0.0, atol=4e-16)


@pytest.mark.parametrize("n", ORDERS)
def test_exact_to_degree_2n_and_n_with_positive_weights(n):
    x, fine, _ = _clenshaw_curtis(n)
    coarse = _coarse(n)
    assert x.size == 2 * n + 1 and np.all(np.diff(x) > 0.0)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(fine > 0.0) and np.all(coarse[::2] > 0.0)
    for rule, degree in ((fine, 2 * n), (coarse, n)):
        for k in range(degree + 1):
            got = math.fsum(rule * x ** k)
            assert got == pytest.approx(_moment(k), abs=4.5e-16), k


@pytest.mark.parametrize("n", ORDERS)
def test_coarse_rule_is_nested_in_the_fine_one(n):
    # the coarse rule's own nodes, -cos(pi k / n), are the fine nodes [::2]
    # float for float, it weighs nothing else, and it is the rule of order
    # n / 2
    x, _, _ = _clenshaw_curtis(n)
    coarse = _coarse(n)
    assert x[::2].tolist() == (-np.cos(np.pi * np.arange(n + 1) / n)).tolist()
    assert np.all(np.abs(coarse[1::2]) <= 1e-15)
    if n % 2 == 0:
        np.testing.assert_allclose(coarse[::2], _clenshaw_curtis(n // 2)[1],
                                   rtol=0.0, atol=4e-15)


@pytest.mark.parametrize("n", ORDERS)
def test_matrix_splits_the_coarse_error_by_mode(n):
    # on f = T_j the matrix gives the coarse rule's error on T_j in row j
    # alone: zero for j <= n and odd j, int T_j - int T_{2n-j} for even
    # j > n, the mode the coarse nodes read it as
    x, w, miss = _clenshaw_curtis(n)
    for j in range(2 * n + 1):
        t_j = np.cos(j * np.arccos(x))
        got = miss @ (w * t_j)
        want = 0.0
        if j % 2 == 0 and j > n:
            want = 2.0 / ((2 * n - j) ** 2 - 1) - 2.0 / (j * j - 1)
        assert got[j] == pytest.approx(want, abs=1e-14), j
        assert np.all(np.abs(np.delete(got, j)) <= 1e-14), j


@pytest.mark.parametrize("n", ORDERS)
def test_weights_against_30_digits(n):
    # w_k = (c_k / m) (1 - sum_j b_j cos(2 pi j k / m) / (4 j^2 - 1)), with
    # c_k = 1 at the ends and 2 inside, b_j = 1 at j = m / 2 and 2 below;
    # the sum cancels towards the small end weights, so the bound is
    # absolute: an ulp of the largest weight of the 5-point rule, 8/15
    mp = pytest.importorskip("mpmath").mp
    x, w, _ = _clenshaw_curtis(n)
    with mp.workdps(30):
        for row, m in ((w, 2 * n), (_coarse(n)[::2], n)):
            for k, got in enumerate(row.tolist()):
                ref = 1 - mp.fsum((1 if 2 * j == m else 2)
                                  * mp.cos(2 * mp.pi * j * k / m)
                                  / (4 * j * j - 1)
                                  for j in range(1, m // 2 + 1))
                ref *= (1 if k % m == 0 else 2) * mp.mpf(1) / m
                assert abs(got - ref) <= 1.2e-16, (m, k)
        for k, got in enumerate(x.tolist()):
            assert abs(got + mp.cos(mp.pi * k / (2 * n))) <= 4e-16


@pytest.mark.parametrize("span", [80.0, 8000.0])
def test_remainder_window(span):
    # the remainder's window: 157 positions, 2n + 1 on each panel of
    # _PANEL_EDGES scaled to span, its weights summing to span; each
    # interior edge is a node of two panels (to an ulp), so 153 nodes are
    # distinct, zeta itself among them, and a pass evaluates the 152 others
    edges = np.array(engine._PANEL_EDGES) * span / engine._PANEL_EDGES[-1]
    for zeta in (0.0, 0.064, 17.0):
        v, w = _grid_from(zeta, span, _EM_NODES, _clenshaw_curtis)
        assert v.size == 157
        assert np.unique(np.round(v / span, 12)).size == 153
        assert engine._EM_PASS == 152
        assert v[0] == pytest.approx(zeta)
        assert v[-1] == pytest.approx(zeta + span)
        assert w.sum() == pytest.approx(span, rel=1e-14)
        starts = np.cumsum((0,) + tuple(2 * n + 1 for n in _EM_NODES))[:-1]
        np.testing.assert_allclose(v[starts], zeta + edges[:-1], rtol=1e-14)


def test_import_and_config_parse_build_no_rule():
    # rules are built at first use: the package import and a config parse,
    # which the bench's setup_s times, leave every rule cache empty
    src = os.path.dirname(os.path.dirname(engine.__file__))
    child = """\
import sys
sys.path.insert(0, sys.argv[1])
import casimir_lens
from casimir_lens import engine
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
T = 3
''')
print([f.cache_info().currsize for f in (
    engine._clenshaw_curtis, engine._leggauss, engine._panels)])
"""
    out = subprocess.run([sys.executable, "-c", child, src], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[0, 0, 0]"
