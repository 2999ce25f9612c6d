"""Series evaluation of the special functions the force formulas need.

The Lifshitz-type kernels reduce to polylogarithms of half-integer order,
Li_{1/2} and Li_{-1/2}, and the anharmonic oscillator response brings in the
modified Bessel function I_1.  The engine's vectorized polylog,
polylog_exp_grid, evaluates Li_s(e^-mu) from Wood's series in powers of mu
near the singularity (mu < 1) and from at most 40 explicit powers of
e^-mu away from it; both agree with 40-digit references to ~1e-15
relative.  The scalar polylog sums the defining series and completes it
near z -> 1 with an Euler-Maclaurin tail: it shares no code with the grid
and is kept as its independent reference.  Both Bessel entries,
bessel_i1 and the vectorized scaled form the frequency shift uses, are
built on scipy's i1e.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, i1e, zeta

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for series evaluation."""

    rel_tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_CONTROL = SeriesControl()


class ConvergenceError(RuntimeError):
    """Raised when a series fails to meet tolerance within max_terms.

    The best partial value is carried in the `partial` attribute.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# polylogarithm


def _em_tail(s: float, mu: float, n_from: int) -> float:
    """Euler-Maclaurin estimate of sum_{n >= n_from} e^{-mu n} n^{-s}.

    Valid for s < 1 (the incomplete-gamma integral needs 1 - s > 0).
    The correction terms use f(x) = e^{-mu x} x^{-s}.
    """
    x0 = float(n_from)
    lam = mu * x0
    integral = mu ** (s - 1.0) * math.gamma(1.0 - s) * gammaincc(1.0 - s, lam)
    f0 = math.exp(-lam) * x0 ** (-s)
    g1 = -mu - s / x0
    g2 = s / (x0 * x0)
    g3 = -2.0 * s / (x0 * x0 * x0)
    f1 = f0 * g1
    f3 = f0 * (g1 ** 3 + 3.0 * g1 * g2 + g3)
    return integral + 0.5 * f0 - f1 / 12.0 + f3 / 720.0


def polylog(s: float, z: float, control: SeriesControl = DEFAULT_CONTROL) -> float:
    """Polylogarithm Li_s(z) = sum_{n>=1} z^n / n^s for real |z| < 1.

    Direct summation with a geometric tail bound; for s < 1 and positive z
    above 0.5 the sum is completed with an Euler-Maclaurin tail instead,
    which avoids both the O(1/(1-z)) term count near z = 1 and the rounding
    accumulated by long direct sums.

    Parameters
    ----------
    s : float
        Order; any real value is accepted, the force kernels use +-1/2.
    z : float
        Argument, must satisfy |z| < 1.
    control : SeriesControl
        Truncation tolerance and term cap.

    Raises
    ------
    ValueError
        If |z| >= 1.
    ConvergenceError
        If max_terms is reached before the tolerance, carrying the partial sum.
    """
    if not abs(z) < 1.0:
        raise ValueError(f"polylog requires |z| < 1, got z = {z!r}")
    if z == 0.0:
        return 0.0

    if z > 0.5 and s < 1.0:
        # z = e^-mu: sum a batch directly, Euler-Maclaurin the rest.
        mu = -math.log(z)
        n_direct = min(max(64, int(math.ceil(0.05 / mu))), max(64, control.max_terms // 2))
        n = np.arange(1, n_direct + 1, dtype=float)
        total = float(np.sum(np.exp(-mu * n) * n ** (-s)))
        return total + _em_tail(s, mu, n_direct + 1)

    total = 0.0
    block = 256
    n0 = 1
    while n0 <= control.max_terms:
        n = np.arange(n0, min(n0 + block, control.max_terms + 1), dtype=float)
        terms = z ** n * n ** (-s)
        total += float(np.sum(terms))
        last = abs(terms[-1])
        n_last = n[-1]
        # geometric bound on the remainder: ratio |z| (1 + 1/n)^{-s} <= rho
        rho = abs(z) * (1.0 + 1.0 / n_last) ** max(0.0, -s)
        if rho < 1.0:
            tail_bound = last * rho / (1.0 - rho)
            if tail_bound <= control.rel_tol * abs(total):
                return total
        n0 = int(n_last) + 1
    raise ConvergenceError(
        f"polylog({s}, {z}) did not converge within {control.max_terms} terms",
        partial=total)


# ---------------------------------------------------------------------------
# modified Bessel function I_1

def bessel_i1_scaled(x):
    """Scaled modified Bessel function e^-|x| I_1(x), overflow-safe.

    Accepts a scalar or ndarray; odd in x.  A thin wrapper over
    scipy.special.i1e that keeps one named entry for the package's Bessel
    evaluations.
    """
    out = i1e(x)
    if np.ndim(out) == 0:
        return float(out)
    return out


def bessel_i1(z: float) -> float:
    """Modified Bessel function I_1(z) of the first kind.

    The scaled function e^-|z| I_1(|z|) is unscaled by e^|z|, which keeps
    every intermediate finite until the result itself overflows (|z|
    around 710); the sign follows z since I_1 is odd.
    """
    az = abs(z)
    return math.copysign(float(i1e(az)) * math.exp(az), z)


# ---------------------------------------------------------------------------
# vectorized kernel used by the force engine

_WOOD_TERMS = 24     # powers of mu kept in Wood's series (mu < 1)
_DIRECT_DECAY = 39.2  # e^{-39.2} ~ 1e-17: where the explicit powers stop
_DIRECT_MAX = math.ceil(_DIRECT_DECAY)  # the term count at mu = 1
# the term counts a node of the explicit series can take
_DIRECT_COUNTS = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, _DIRECT_MAX])


@lru_cache(maxsize=None)
def _polylog_coefficients(s: float):
    """Per-order constants of polylog_exp_grid.

    Returns Gamma(1 - s), the coefficients zeta(s - k) (-1)^k / k! of
    Wood's series for k < _WOOD_TERMS, and n^{-s} for n <= _DIRECT_MAX.
    """
    if float(s).is_integer() and s >= 1.0:
        raise ValueError(f"polylog_exp_grid needs s not a positive integer, "
                         f"got s = {s!r} (the series has a log term there)")
    k = np.arange(_WOOD_TERMS, dtype=float)
    wood = zeta(s - k) * (-1.0) ** k / np.cumprod(np.maximum(k, 1.0))
    direct = np.arange(1, _DIRECT_MAX + 1, dtype=float) ** (-s)
    wood.flags.writeable = direct.flags.writeable = False
    return math.gamma(1.0 - s), wood, direct


def _series(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^(k+1) for each element of x, as one matrix product.

    x is padded with zeros to a multiple of 4 nodes: BLAS computes the
    nodes past the last whole group of 4 on a path that rounds
    differently, so unpadded, a node's value would depend on how many
    nodes share the call.
    """
    k = x.size
    powers = np.zeros((coef.size, -(-k // 4) * 4))
    powers[:, :k] = x
    np.multiply.accumulate(powers, axis=0, out=powers)
    return (coef @ powers)[:k]


def polylog_exp_grid(s: float, v: np.ndarray, r2) -> np.ndarray:
    """Li_s(r2 * e^-v) for arrays of v > 0 and reflection weights r2 in [0, 1].

    Vectorized fast path for the engine; r2 may be scalar or an array
    matching v.  With mu = v - ln r2 each node takes one of two series:

    - mu < 1: Wood's series (D. C. Wood, The computation of polylogarithms,
      Kent TR 15-92, 1992), Li_s(e^-mu) = Gamma(1-s) mu^{s-1}
      + sum_k zeta(s-k) (-mu)^k / k!, cut after 24 terms; it converges
      like (mu / 2 pi)^k, so the cut is below 1e-19 at mu = 1.
    - mu >= 1: sum_{n<=N} x^n n^{-s} with x = r2 e^-v, where each node
      takes its own N: ceil(39.2 / mu) rounded up to one of
      _DIRECT_COUNTS (1, 2, 4, ..., 32, 40).  The first term left out is
      below e^{-39.2} of the first one kept, and a node's value does not
      depend on the other nodes in the call.

    Both agree with 40-digit mpmath values to ~1e-15 relative for
    s = +-1/2.

    Raises
    ------
    ValueError
        If s is a positive integer, where Wood's series has a log term.
    """
    gamma, wood, direct = _polylog_coefficients(s)
    v = np.asarray(v, dtype=float)
    r2 = np.broadcast_to(np.asarray(r2, dtype=float), v.shape)
    out = np.zeros_like(v)
    pos = r2 > 0.0
    v, r2 = v[pos], r2[pos]
    mu = v - np.log(r2)
    near = mu < 1.0
    far = ~near
    value = np.empty_like(mu)
    if near.any():
        m = mu[near]
        value[near] = (gamma * m ** (s - 1.0) + wood[0]
                       + _series(wood[1:], m))
    if far.any():
        x = r2[far] * np.exp(-v[far])
        # each node takes the first count that covers its own ceil(39.2 / mu)
        count = _DIRECT_COUNTS[np.searchsorted(
            _DIRECT_COUNTS, np.ceil(_DIRECT_DECAY / mu[far]))]
        out_far = np.empty_like(x)
        for n in np.unique(count):
            sel = count == n
            out_far[sel] = _series(direct[:int(n)], x[sel])
        value[far] = out_far
    out[pos] = value
    return out
