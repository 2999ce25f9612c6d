"""Series evaluation of the special functions the force formulas need.

The Lifshitz kernels reduce to polylogarithms Li_{+-1/2}; the oscillator's
shift brings in the Bessel function I_1, whose series it sums with
Hankel's expansion or integrates over Li_{-1/2}.  polylog_exp_grid
evaluates Li_s(e^-mu) from Wood's series in powers of mu near the
singularity (mu < 1), its zeta values written in as literals, and from one
economized polynomial of degree 18 in e^-mu away from it, both by Horner's
rule, as is bessel_i1_scaled: e^-x I_1(x) from 256 pieces of its power
series below x = 32, Hankel's expansion above.  Tests hold both to mpmath.
"""

import math
from functools import lru_cache

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when a sum stops short of its tolerance.

    The Matsubara sum raises it when its one Euler-Maclaurin window falls
    short of rel_tol, and the shift oracle at 2048 theta points; the best
    partial value is carried in the `partial` attribute.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# modified Bessel function I_1

# Hankel's expansion (DLMF 10.40.1), within 5.3e-16 from x = 32 on:
# sqrt(2 pi x) e^{-x} I_1(x) ~ sum_{k<13} c_k x^{-k}, _horner(_HANKEL, 1/x)
_HANKEL = np.cumprod([1.0] + [((2 * k - 1) ** 2 - 4) / (8 * k)
                              for k in range(1, 13)])


@lru_cache(maxsize=None)
def _bessel_coefficients():
    """rows[j][k]: coefficient of u^j, u = x - (k + 1/2) / 8, in the piece
    of g(x) = e^-x I_1(x) / x on [k, k + 1) / 8, k < 256, that interpolates
    g at 9 Chebyshev points, where the power series e^-x sum_k (x/2)^{2k} /
    (2 k! (k+1)!) (DLMF 10.25.2) is summed in long double."""
    t = np.cos(np.pi * (np.arange(9) + 0.5) / 9)
    x = (np.arange(256.0)[:, None] + 0.5 + 0.5 * t.astype(np.longdouble)) / 8
    term, g = np.full_like(x, 0.5), np.full_like(x, 0.5)
    for k in range(1, 64):
        term *= x * x / (4 * k * (k + 1))
        g += term
    g *= np.exp(-x)  # the pieces share a width, so one solve gives them all
    rows = np.linalg.solve(np.vander(t / 16, increasing=True), g.astype(float).T)
    rows.flags.writeable = False
    return rows


def _bessel_head(x):
    """x g(x) for 0 <= x < 32, g gathered on its piece, by Horner's rule."""
    k = (x * 8.0).astype(np.intp)
    u = x - (k + 0.5) / 8.0
    out = np.zeros_like(u)
    for row in _bessel_coefficients()[::-1]:  # gathered a row at a time
        out *= u
        out += row[k]
    out *= x
    return out


def bessel_i1_scaled(x):
    """Scaled modified Bessel function e^-|x| I_1(x), overflow-safe.

    Accepts a scalar (returns a float) or array; odd in x, inf -> 0.  Below
    |x| = 32, |x| g(|x|) on its piece (tiny x keep their relative accuracy);
    above, Hankel's expansion."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.size and 0.0 <= a.min() and a.max() < 32.0:  # no |x|, mask or sign
        return _bessel_head(a) if np.ndim(x) else float(_bessel_head(a)[0])
    a = np.abs(a)
    far = ~(a < 32.0)  # nan too
    out = _bessel_head(np.where(far, 0.0, a))
    if far.any():
        b = a[far]
        out[far] = _horner(_HANKEL, 1.0 / b) / (np.sqrt(b) * math.sqrt(2 * math.pi))
    return np.copysign(out, x) if np.ndim(x) else math.copysign(out[0], x)


# ---------------------------------------------------------------------------
# vectorized kernel used by the force engine

_WOOD_TERMS = 24     # powers of mu kept in Wood's series (mu < 1)
_ECON_DEGREE = 18     # degree of the economized polynomial (mu >= 1)
_ECON_TAYLOR = 64     # Taylor terms it is economized from: e^{-64} ~ 2e-28
# zeta(1/2 - j), j < 25, correctly rounded from 40-digit mpmath (Wood's series)
_ZETA_HALF = (-1.4603545088095868, -0.20788622497735457,
    -0.025485201889833036, 0.008516928777850331, 0.004441011335479432,
    -0.0030916692472158338, -0.0026714580198992244, 0.0027467679395368687,
    0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279, -0.04057496748119458,
    -0.08717525590621725, 0.2011740493842269, 0.4962712199120576,
    -1.303229250705114, -3.629759299774574, 10.687327069021993,
    33.168325785694606, -108.21747505877606, -370.3018783754786,
    1326.0458117490157, 4959.598315043044)


@lru_cache(maxsize=None)
def _polylog_coefficients(s: float):
    """Per-order constants of polylog_exp_grid.

    Returns Gamma(1 - s), the coefficients zeta(s - k) (-1)^k / k! of
    Wood's series for k < _WOOD_TERMS, and the coefficients of p, lowest
    power first: the Chebyshev economization (Numerical Recipes, 3rd ed.,
    sec. 5.8) on [0, 1/e] of g(x) = sum_{n<=_ECON_TAYLOR} n^{-s} x^{n-1},
    cut after degree _ECON_DEGREE (7e-19 of g for s = 1/2, 1.8e-17 for
    s = -1/2).  Only the powers past that degree pass through the
    Chebyshev basis, so the others keep n^{-s} plus a small correction.
    """
    if s not in (0.5, -0.5):
        raise ValueError(f"polylog_exp_grid takes s = +-1/2, got {s!r}")
    from numpy.polynomial import Chebyshev, Polynomial
    zeta = np.array(_ZETA_HALF[round(0.5 - s):][:_WOOD_TERMS])
    k = np.arange(_WOOD_TERMS, dtype=float)
    wood = zeta * (-1.0) ** k / np.cumprod(np.maximum(k, 1.0))
    taylor = np.arange(1, _ECON_TAYLOR + 1, dtype=float) ** (-s)
    kept = _ECON_DEGREE + 1
    high = Polynomial(np.r_[np.zeros(kept), taylor[kept:]]).convert(
        kind=Chebyshev, domain=[0.0, math.exp(-1.0)])
    econ = taylor[:kept] + high.truncate(kept).convert(kind=Polynomial).coef
    wood.flags.writeable = econ.flags.writeable = False
    return math.gamma(1.0 - s), wood, econ


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^k for each element of x, by Horner's rule in place."""
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def polylog_exp_grid(s: float, v: np.ndarray, r2) -> np.ndarray:
    """Li_s(r2 * e^-v) for arrays of v > 0 and reflection weights r2 in [0, 1].

    Vectorized fast path for the engine: the force kernel takes s = 1/2,
    the gradient kernel and the shift's theta rule s = -1/2.  v and r2
    broadcast against each other, so a stack of weights (TM and TE, say)
    shares one v grid and one call; e^-v is taken before v is broadcast,
    once per node of a stack, once per row of a column (m, 1) of v.  With
    mu = v - ln r2 each node takes one of two series, by Horner's rule:

    - mu < 1: Wood's series (D. C. Wood, The computation of polylogarithms,
      Kent TR 15-92, 1992), Li_s(e^-mu) = Gamma(1-s) mu^{s-1}
      + sum_k zeta(s-k) (-mu)^k / k!, cut after 24 terms, the zeta(s-k)
      literals (_ZETA_HALF); it converges like (mu / 2 pi)^k, so the cut is
      below 1e-19 at mu = 1.
    - mu >= 1: x p(x) with x = r2 e^-v <= 1/e, p the degree-18 economized
      polynomial of _polylog_coefficients.  Every node takes that pass
      (Wood's series then replaces the mu < 1 ones).

    Both passes are elementwise, so no value depends on the other nodes in
    the call.  Both agree with 40-digit mpmath values to ~1e-15 relative
    for s = +-1/2; the mu >= 1 branch to 3.3e-16.

    Raises
    ------
    ValueError
        For any order but +-1/2, which alone have zeta literals.
    """
    gamma, wood, econ = _polylog_coefficients(s)
    v, r2 = np.asarray(v, dtype=float), np.asarray(r2, dtype=float)
    x = r2 * np.exp(-v)
    out = x * _horner(econ, x)
    with np.errstate(divide="ignore"):
        mu = v - np.log(r2)
    near = mu < 1.0
    if near.any():
        m = mu[near]
        out[near] = _horner(wood, m) + gamma * m ** (s - 1.0)
    return out
