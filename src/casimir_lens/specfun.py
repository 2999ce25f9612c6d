"""Series evaluation of the special functions the force formulas need.

The Lifshitz kernels reduce to polylogarithms Li_{+-1/2}; the oscillator's
shift brings in the Bessel function I_1, whose series it sums with
Hankel's expansion or integrates over Li_{-1/2}.  polylog_exp_grid
evaluates Li_s(e^-mu) from Wood's series in powers of mu near the
singularity (mu < 1) and from one economized polynomial of degree 18 in
e^-mu away from it, both by Horner's rule.  Tests hold it to mpmath at
~1e-15.
bessel_i1_scaled is scipy's i1e.  scipy.special is imported on the first
evaluation, not with the package, so importing casimir_lens and parsing a
config leaves it out.
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

def bessel_i1_scaled(x):
    """Scaled modified Bessel function e^-|x| I_1(x), overflow-safe.

    Accepts a scalar or ndarray; odd in x.  A thin wrapper over
    scipy.special.i1e that keeps one named entry for the package's Bessel
    evaluations.
    """
    from scipy.special import i1e
    return i1e(x)


# ---------------------------------------------------------------------------
# vectorized kernel used by the force engine

_WOOD_TERMS = 24     # powers of mu kept in Wood's series (mu < 1)
_ECON_DEGREE = 18     # degree of the economized polynomial (mu >= 1)
_ECON_TAYLOR = 64     # Taylor terms it is economized from: e^{-64} ~ 2e-28


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
    if float(s).is_integer() and s >= 1.0:
        raise ValueError(f"polylog_exp_grid needs s not a positive integer, "
                         f"got s = {s!r} (the series has a log term there)")
    from numpy.polynomial import Chebyshev, Polynomial
    from scipy.special import zeta
    k = np.arange(_WOOD_TERMS, dtype=float)
    wood = zeta(s - k) * (-1.0) ** k / np.cumprod(np.maximum(k, 1.0))
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
      + sum_k zeta(s-k) (-mu)^k / k!, cut after 24 terms; it converges
      like (mu / 2 pi)^k, so the cut is below 1e-19 at mu = 1.
    - mu >= 1: x p(x) with x = r2 e^-v <= 1/e, p the degree-18 economized
      polynomial of _polylog_coefficients.  Every node takes that pass
      (Wood's series then replaces the mu < 1 ones).

    Both passes are elementwise, so no value depends on the other nodes in
    the call.

    Both agree with 40-digit mpmath values to ~1e-15 relative for
    s = +-1/2; the mu >= 1 branch to 3.3e-16.

    Raises
    ------
    ValueError
        If s is a positive integer, where Wood's series has a log term.
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
