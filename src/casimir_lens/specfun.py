"""Series evaluation of the special functions the force formulas need.

The Lifshitz-type kernels reduce to polylogarithms of half-integer order,
Li_{1/2} and Li_{-1/2}, and the anharmonic oscillator response brings in the
modified Bessel function I_1.  The polylog is evaluated from its defining
series; near z -> 1 the series is completed with an Euler-Maclaurin tail so
the evaluation stays cheap and accurate at the same time.  Both Bessel
entries, bessel_i1 and the vectorized scaled form the frequency shift uses,
are built on scipy's i1e.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, i1e

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

_N_DIRECT = 64
_N_RANGE = np.arange(1, _N_DIRECT + 1, dtype=float)


def polylog_exp_grid(s: float, v: np.ndarray, r2) -> np.ndarray:
    """Li_s(r2 * e^-v) for arrays of v > 0 and reflection weights r2 in [0, 1].

    Vectorized fast path for the engine: 64 explicit terms plus the
    Euler-Maclaurin tail, accurate to ~1e-13 relative over the full range the
    Matsubara integrals visit.  r2 may be scalar or an array matching v.
    """
    v = np.asarray(v, dtype=float)
    r2b = np.broadcast_to(np.asarray(r2, dtype=float), v.shape)
    out = np.zeros_like(v)
    pos = r2b > 0.0
    if not np.any(pos):
        return out
    mu = v[pos] - np.log(r2b[pos])
    ex = np.exp(-np.outer(_N_RANGE, mu))
    direct = (_N_RANGE ** (-s)) @ ex

    x0 = float(_N_DIRECT + 1)
    lam = mu * x0
    integral = mu ** (s - 1.0) * math.gamma(1.0 - s) * gammaincc(1.0 - s, lam)
    f0 = np.exp(-lam) * x0 ** (-s)
    g1 = -mu - s / x0
    f3 = f0 * (g1 ** 3 + 3.0 * g1 * (s / x0 ** 2) - 2.0 * s / x0 ** 3)
    out[pos] = direct + integral + 0.5 * f0 - f0 * g1 / 12.0 + f3 / 720.0
    return out
