"""The ideal-metal force and gradient at T > 0 against exact references.

For an ideal metal (r^2 = 1) a Matsubara term has a closed form: the
force's is f(zeta) = 2 sum_n Gamma(5/2, n zeta) / n^3, the gradient's the
same with Gamma(7/2, .).  The references below are built from mpmath alone,
so they check the l = 0 term, the explicit block, the hand-off, the Gregory
corrections and the Clenshaw-Curtis remainder without sharing the package's
v-rule, polylog or Matsubara loop.

With p = 3/2 for the force and 5/2 for the gradient, the primed sum S of
f(l zeta_1) gives F(T) / F(0) = zeta_1 S / I, I = int_0^inf f = 2 Gamma(p + 2)
zeta(4), and F(0) is the T = 0 closed form.  S is taken two ways:

- for zeta_1 >= 0.3, as the Gamma sum Gamma(p + 1) zeta(3)
  + 2 sum_m sigma_{-3}(m) Gamma(p + 1, m zeta_1), sigma_{-3}(m) the sum of
  d^-3 over the divisors d of m;
- for zeta_1 <= 0.5, by Navot's extension of Euler-Maclaurin to a branch
  singularity (I. Navot, J. Math. Phys. 40, 271 (1961)).  With s = 2 - p,
  f'(zeta) = -2 zeta^p Li_s(e^-zeta), whose Wood series makes f a power
  series plus sum_k c_k zeta^(k + p + 1), c_k = -2 zeta(s - k) (-1)^k /
  (k! (k + p + 1)).  So zeta_1 S / I - 1 = sum_k c_k zeta(-k - p - 1)
  zeta_1^(k + p + 2) / I; the zeta^2 term drops out, as zeta(-2) = 0.
"""

import math
from functools import lru_cache

import pytest

from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import QuadratureSpec, force, gradient
from casimir_lens.geometry import Environment, symmetric_lens
from casimir_lens.materials import IdealMetal

mp = pytest.importorskip("mpmath")

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
P = {"force": 1.5, "gradient": 2.5}
# (a, T): zeta_1 from 1.1e-3 to 8.2; the sums below zeta_1 ~ 0.03 hand off
# at l = 57 at every rel_tol, those above stop in the block at the default
POINTS = [(200e-9, 1.0), (200e-9, 3.0), (150e-9, 12.0), (200e-9, 24.0),
          (1e-6, 5.0), (1e-6, 24.0), (200e-9, 300.0), (1e-6, 77.0),
          (1e-6, 300.0), (2e-6, 300.0), (3e-6, 300.0), (5e-6, 300.0)]


def _zeta1(a, T):
    return 4.0 * math.pi * a * CONSTANTS.kB * T / (CONSTANTS.hbar * CONSTANTS.c)


def _gamma_ratio(p, z1):
    """zeta_1 S / I from the Gamma sum, at the working precision."""
    g = []  # Gamma(p + 1, m zeta_1) for m = 1, 2, ...
    while not g or g[-1] > mp.eps * g[0]:
        g.append(mp.gammainc(p + 1, (len(g) + 1) * z1))
    tail = mp.fsum(mp.fsum(g[n - 1::n]) / mp.mpf(n) ** 3
                   for n in range(1, len(g) + 1))
    total = mp.gamma(p + 1) * mp.zeta(3) + 2 * tail
    return z1 * total / (2 * mp.gamma(p + 2) * mp.zeta(4))


def _navot_ratio(p, z1, terms=24):
    """zeta_1 S / I from the low-T series; 24 terms reach 1e-24 at 0.5."""
    s = 2 - p
    series = mp.fsum(-2 * mp.zeta(s - k) * (-1) ** k
                     / (mp.factorial(k) * (k + p + 1))
                     * mp.zeta(-k - p - 1) * z1 ** (k + p + 2)
                     for k in range(terms))
    return 1 + series / (2 * mp.gamma(p + 2) * mp.zeta(4))


@lru_cache(maxsize=None)
def _reference(kind, a, T):
    """The exact value in SI units: the T = 0 closed form times zeta_1 S / I."""
    with mp.workdps(25):
        p, z1 = mp.mpf(P[kind]), mp.mpf(_zeta1(a, T))
        ratio = _gamma_ratio(p, z1) if z1 >= 0.3 else _navot_ratio(p, z1)
        a_ = mp.mpf(a)
        scale = (mp.pi ** 3 * mp.mpf(CONSTANTS.hbar) * mp.mpf(CONSTANTS.c)
                 * mp.mpf(LENS.L) * mp.mpf(LENS.A)
                 / mp.sqrt(2 * a_ * mp.mpf(LENS.B)))
        t0 = (-scale / (384 * a_ ** 3) if kind == "force"
              else 7 * scale / (768 * a_ ** 4))
        return float(t0 * ratio)


@pytest.mark.parametrize("rel_tol", [1e-13, QuadratureSpec().rel_tol])
@pytest.mark.parametrize("a, T", POINTS)
@pytest.mark.parametrize("kind", P)
def test_ideal_metal_within_its_estimate_of_the_exact_value(kind, a, T,
                                                            rel_tol):
    # measured: at rel_tol = 1e-13 within <= 0.6 of the estimate (5.8e-13
    # of F at most, 1 um and 24 K); at the default the sums that stop in
    # the block sit at 0.988 - 0.997 of theirs
    quantity = force if kind == "force" else gradient
    res = quantity(LENS, Environment(a=a, T=T), IdealMetal(),
                   QuadratureSpec(rel_tol))
    assert abs(res.value - _reference(kind, a, T)) <= res.est_abs_error


@pytest.mark.parametrize("a, T", [(200e-9, 300.0), (1e-6, 77.0)])
@pytest.mark.parametrize("kind", P)
def test_the_two_references_agree_where_both_apply(kind, a, T):
    # zeta_1 = 0.33 and 0.42: the Gamma sum and the low-T series are two
    # independent evaluations of the same S
    with mp.workdps(25):
        p, z1 = mp.mpf(P[kind]), mp.mpf(_zeta1(a, T))
        assert 0.3 <= z1 <= 0.5
        assert abs(_navot_ratio(p, z1) / _gamma_ratio(p, z1) - 1) <= 1e-20
