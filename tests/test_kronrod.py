"""The Gauss-Kronrod rules of the Euler-Maclaurin remainder.

engine._kronrod(n) builds the (2n + 1)-node Kronrod extension of the n-node
Gauss-Legendre rule in double precision (Laurie's algorithm and an
eigensolve).  These tests hold it to the tabulated K5 and K7 rules, to
exactness against the exact Legendre moments, and to a 40-digit reference
built another way: the new nodes as roots of the Stieltjes polynomial,
found in exact rational arithmetic, and the weights from the moment
equations.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from casimir_lens import engine
from casimir_lens.engine import _PANEL_NODES, _grid_from, _kronrod, _leggauss

ORDERS = sorted(set(_PANEL_NODES))  # every Gauss order the remainder extends


@pytest.mark.parametrize("n, nodes", [
    (2, [0.5773502691896258, 0.9258200997725514]),
    (3, [0.4342437493468026, 0.7745966692414834, 0.9604912687080203])])
def test_k5_and_k7_nodes(n, nodes):
    x, _ = _kronrod(n)
    ref = sorted([0.0] + nodes + [-y for y in nodes])
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", ORDERS)
def test_exact_to_degree_3n_plus_1_with_positive_weights(n):
    x, (wk, wg) = _kronrod(n)
    assert x.size == 2 * n + 1 and np.all(np.diff(x) > 0.0)
    assert np.all(wk > 0.0)
    for k in range(3 * n + 2):
        moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert math.fsum(wk * x ** k) == pytest.approx(moment, abs=4e-15), k
    # the embedded rule is _leggauss(n) itself, zero at the new nodes
    gx, gw = _leggauss(n)
    assert x[1::2].tolist() == gx.tolist()
    assert wg[1::2].tolist() == gw.tolist()
    assert not np.any(wg[0::2])


def _legendre(n):
    """Coefficients of P_n in ascending powers, exact."""
    lo, hi = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        x_hi = [Fraction(0)] + hi
        hi, lo = [((2 * k + 1) * c - k * d) / (k + 1) for c, d in
                  zip(x_hi, lo + [Fraction(0)] * (len(x_hi) - len(lo)))], hi
    return lo if n == 0 else hi


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _integral(p):
    return sum(c * Fraction(2, i + 1) for i, c in enumerate(p) if i % 2 == 0)


def _kronrod_polynomial(n):
    """P_n E_{n+1}, E_{n+1} the Stieltjes polynomial: P_{n+1} plus lower
    P_{n+1-2i} such that int P_n E_{n+1} x^k = 0 for odd k <= n (even k
    vanish by parity), solved exactly by Gauss-Jordan elimination."""
    p_n = _legendre(n)
    basis = [_legendre(n + 1 - 2 * i) for i in range((n + 1) // 2 + 1)]
    rows = []
    for k in range(1, n + 1, 2):
        moments = [_integral(_times(_times(p_n, [Fraction(0)] * k
                                       + [Fraction(1)]), q)) for q in basis]
        rows.append(moments[1:] + [-moments[0]])
    m = len(rows)
    for i in range(m):
        pivot = next(r for r in range(i, m) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(m):
            if r != i and rows[r][i] != 0:
                f = rows[r][i] / rows[i][i]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    e = list(basis[0])
    for row, i, q in zip(rows, range(m), basis[1:]):
        for j, d in enumerate(q):
            e[j] += row[m] / row[i] * d
    return _times(p_n, e)


@pytest.mark.parametrize("n", ORDERS)
def test_nodes_and_weights_against_40_digits(n):
    mp = pytest.importorskip("mpmath").mp
    x, (wk, _) = _kronrod(n)
    with mp.workdps(50):
        coeffs = [mp.mpf(c.numerator) / c.denominator
                  for c in reversed(_kronrod_polynomial(n))]
        slope = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
        ref_x = []
        for root in x.tolist():
            root = mp.mpf(root)
            for _ in range(6):  # Newton from the double node
                root -= mp.polyval(coeffs, root) / mp.polyval(slope, root)
            ref_x.append(root)
        # the weights integrate P_0 ... P_2n exactly
        legendre = mp.matrix(x.size, x.size)
        for j, node in enumerate(ref_x):
            before, p = mp.mpf(0), mp.mpf(1)
            for k in range(x.size):
                legendre[k, j] = p
                before, p = p, ((2 * k + 1) * node * p - k * before) / (k + 1)
        ref_w = mp.lu_solve(legendre, mp.matrix([2] + [0] * (x.size - 1)))
        assert len(set(mp.nstr(r, 30) for r in ref_x)) == x.size
        for got, ref in zip(x.tolist(), ref_x):
            assert abs(got - ref) <= 1e-15
        for got, ref in zip(wk.tolist(), ref_w):
            assert ref > 0 and abs(got / ref - 1) <= 1e-13


@pytest.mark.parametrize("span", [80.0, 8000.0])
def test_remainder_window_embeds_the_gauss_window(span):
    # the remainder's check is the 76-node Gauss window on the same nodes,
    # float for float: the Kronrod window's embedded nodes and weights
    for zeta in (0.0, 0.064, 17.0):
        v, (wk, wg) = _grid_from(zeta, span, _PANEL_NODES, _kronrod)
        gv, gw = _grid_from(zeta, span, _PANEL_NODES)
        gauss = wg != 0.0
        assert v.size == engine._EM_PASS == 157
        assert v[gauss].tolist() == gv.tolist()
        assert wg[gauss].tolist() == gw.tolist()
        assert wk.sum() == pytest.approx(span, rel=1e-14)


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
    engine._kronrod, engine._leggauss, engine._panels)])
"""
    out = subprocess.run([sys.executable, "-c", child, src], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[0, 0, 0]"
