"""Frequency response of the lens mounted as a torsional/flexural oscillator.

The Casimir force shifts the resonance of the oscillator carrying the lens.
For drive amplitude A_z along the separation axis the shift of the squared
frequency is, keeping the full nonlinearity of the force,

    omega_r^2 - omega_0^2 = -(C kB T L / 2 sqrt(pi) a^2 A_z) A/sqrt(2 a B)
        * sum'_l sum_n n^{-1/2} int_{zeta_l}^inf dv v^{3/2}
          (r_TM^{2n} + r_TE^{2n}) e^{-n v} I_1(A_z n v / a),

with C the coupling constant of the mount (C = b^2 / I for a torsional
oscillator with lever arm b and moment of inertia I).  For A_z << a the
Bessel kernel linearizes and the shift reduces to -C dF/da.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .engine import (DEFAULT_QUADRATURE, QuadratureSpec, _leggauss,
                     _lifshitz, casimir_force, gradient)
from .geometry import (EllipticLens, Environment, LensGeometry, expect_variant,
                       for_variant)
from .materials import PermittivityModel
from .specfun import (ConvergenceError, _horner, bessel_i1_scaled,
                      polylog_exp_grid)

_THETA_TOL = 1e-9  # relative stability target of the direct shift oracle


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator carrying the lens.

    Parameters
    ----------
    omega0 : float
        Unperturbed angular resonance frequency, rad/s.
    C : float
        Force-to-frequency coupling, kg^-1: the shift is
        Delta(omega^2) = -C dF/da in the linear regime.  For a torsional
        mount C = b^2 / I.
    Az : float
        Drive amplitude along the separation axis, m.  Must stay below the
        separation a (checked at evaluation time).
    """

    omega0: float
    C: float
    Az: float

    def __post_init__(self) -> None:
        if not self.omega0 > 0.0:
            raise ValueError("omega0 must be positive")
        if not self.C > 0.0:
            raise ValueError("coupling C must be positive")
        if not self.Az > 0.0:
            raise ValueError("drive amplitude Az must be positive")
        if not all(map(math.isfinite, (self.omega0, self.C, self.Az))):
            raise ValueError("omega0, C and Az must be finite")

    @classmethod
    def torsional(cls, omega0: float, b: float, I: float, Az: float) -> "OscillatorParams":
        """Build from lever arm b and moment of inertia I (C = b^2 / I)."""
        if not b > 0.0 or not I > 0.0:
            raise ValueError("b and I must be positive")
        return cls(omega0=omega0, C=b * b / I, Az=Az)


@dataclass(frozen=True)
class LinearShift:
    """Linearized response: shift of omega^2 and the shifted frequency."""

    delta_omega2: float
    omega_r: float


def _check_amplitude(env: Environment, osc: OscillatorParams) -> None:
    if osc.Az >= env.a:
        raise ValueError(
            f"drive amplitude Az = {osc.Az:.3g} must be smaller than the "
            f"separation a = {env.a:.3g}")


# ---------------------------------------------------------------------------
# nonlinear kernel: sum over reflection orders with the Bessel weight

_NL_DECAY = 41.5  # e^{-41.5} ~ 1e-18: where a lam >= 1 node's powers stop
_NL_ELEMENTS = 2 ** 14  # powers per closed-form call (128 kB arrays)
_THETA_NODES = 52  # Gauss-Legendre order of the theta rule
_THETA_CHUNK = 128  # theta-rule nodes per polylog call (52 kB arrays)
# Hankel's expansion (DLMF 10.40.1), within 5.3e-16 from x = 32 on:
# sqrt(2 pi x) e^{-x} I_1(x) ~ sum_{k<13} c_k x^{-k}, _horner(_HANKEL, 1/x)
_HANKEL = np.cumprod([1.0] + [((2 * k - 1) ** 2 - 4) / (8 * k)
                              for k in range(1, 13)])


def _theta_series(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_n n^{-1/2} e^{-(q + lam) n} I_1(q n) per node, as one integral.

    I_1(x) = (x / pi) int_0^pi e^{x cos t} sin^2 t dt (A&S 9.6.18) turns
    the sum into

        (q / pi) int_0^pi sin^2 t Li_{-1/2}(e^{-(lam + 2 q sin^2(t/2))}) dt,

    whose integrand is positive, so nothing cancels.  It peaks near t = 0
    over a width s = sqrt(2 lam / q) and falls below e^{-45} past
    t_end = 2 asin(sqrt(min(1, 22.5 / q))), where 2 q sin^2(t/2) > 45;
    t = s sinh(y) flattens the peak, and _THETA_NODES Gauss-Legendre
    nodes in y over [0, asinh(t_end / s)] take the integral.  Nodes go
    _THETA_CHUNK to a polylog call, and each sums along its own row
    (np.sum, not a matrix product, whose rounding depends on the rows
    sharing the call), so a node's value does not depend on the other
    nodes.
    """
    x, w = _leggauss(_THETA_NODES)
    out = np.empty_like(q)
    for i in range(0, q.size, _THETA_CHUNK):
        qc, lc = q[i:i + _THETA_CHUNK, None], lam[i:i + _THETA_CHUNK, None]
        s = np.sqrt(2.0 * lc / qc)
        t_end = 2.0 * np.arcsin(np.sqrt(np.minimum(1.0, 22.5 / qc)))
        end = np.arcsinh(t_end / s)
        y = 0.5 * end * (x + 1.0)
        t = s * np.sinh(y)
        h2 = np.sin(0.5 * t) ** 2
        f = polylog_exp_grid(-0.5, lc + 2.0 * qc * h2, 1.0)
        f *= 4.0 * h2 * (1.0 - h2) * (s * np.cosh(y))  # 4 h2 (1 - h2) = sin^2 t
        f *= w
        out[i:i + _THETA_CHUNK] = (0.5 / math.pi) * (qc * end)[:, 0] * np.sum(
            f, axis=-1)
    return out


def _closed_series(q: np.ndarray, lam2: np.ndarray,
                   count: np.ndarray) -> np.ndarray:
    """sum_n n^{-1/2} (e^{-(q + lam_TM) n} + e^{-(q + lam_TE) n}) I_1(q n).

    lam2 holds each node's (lam_TM, lam_TE), >= 1 or inf; node k sums
    n = 1 ... count[k], its powers laid flat after the earlier nodes'.
    A power takes sqrt(2 pi x) i1e(x) below x = n q = 32 and Hankel's
    expansion above, one factor for TM and TE.  Each node sums its own
    segment, so its value does not depend on the other nodes.
    """
    start = np.cumsum(count) - count
    n = np.arange(1.0, start[-1] + count[-1] + 1.0) - np.repeat(start, count)
    term = _horner(_HANKEL, 1.0 / n * np.repeat(1.0 / q, count))
    x = np.repeat(q, count) * n
    head = x < 32.0
    x = x[head]
    i1 = bessel_i1_scaled(x) if x.size else x  # no call without a head
    x *= 2.0 * math.pi
    i1 *= np.sqrt(x, out=x)
    term[head] = i1
    del x, i1  # freed for the decay's two rows: 4 arrays of powers at most
    power = np.repeat(-lam2, count, axis=1)
    power *= n
    decay = np.exp(power, out=power)[0]
    decay += power[1]
    decay /= n
    term *= decay
    return np.add.reduceat(term, start) / np.sqrt(2.0 * math.pi * q)


def _nonlinear_kernel(v: np.ndarray, r2: np.ndarray, beta: float) -> np.ndarray:
    """v^{3/2} sum_n n^{-1/2} (r_TM^{2n} + r_TE^{2n}) e^{-nv} I_1(beta n v).

    v holds a v-grid, a stack of them (a row per frequency) or a column
    (one v per row, T = 0), r2 reflection_sq_grid's stack on it.  With q =
    beta v, a polarization's lam = v - ln r^2 - q (inf if r^2 = 0).  Every
    lam < 1 goes to one _theta_series call, and a node with a lam >= 1 sums
    ceil(_NL_DECAY / min lam) powers in _closed_series, <= _NL_ELEMENTS a run.
    """
    q = beta * v
    with np.errstate(divide="ignore"):
        lam = v - np.log(r2) - q
    theta = lam < 1.0
    out = np.zeros_like(lam)
    out[theta] = _theta_series(np.broadcast_to(q, lam.shape)[theta],
                               lam[theta])
    out = out[0] + out[1]
    lam[theta] = np.inf
    closed = np.any(lam < np.inf, axis=0)
    q, lam = np.broadcast_to(q, closed.shape)[closed], lam[:, closed]
    count = np.ceil(_NL_DECAY / lam.min(axis=0)).astype(np.intp)
    end = np.cumsum(count)
    acc = np.empty_like(q)
    i = 0
    while i < q.size:
        j = np.searchsorted(end, end[i] - count[i] + _NL_ELEMENTS, "right")
        acc[i:j] = _closed_series(q[i:j], lam[:, i:j], count[i:j])
        i = j
    out[closed] += acc
    return v ** 1.5 * out


def frequency_shift_for_variant(geom: LensGeometry, env: Environment,
                                model: PermittivityModel, osc: OscillatorParams,
                                quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Shift of omega^2 with the full force nonlinearity retained, rad^2/s^2.

    Negative for the attractive force (the resonance softens).  Requires
    0 < Az < a; T = 0 uses the continuous-frequency integral.  For any lens
    variant it is 2 C / A_z times the force's Lifshitz sum over the Bessel
    kernel.  The two-halves lens averages the A/sqrt(B) factors; the rotated
    lens is scaled by G.  Geometry enters the kernel only through that
    prefactor, so the variants share the frequency sum.
    """
    _check_amplitude(env, osc)
    beta = osc.Az / env.a
    kernel = partial(_nonlinear_kernel, beta=beta)
    return 2.0 * osc.C / osc.Az * _lifshitz(kernel, geom, env, model, quad,
                                            rate=1.0 - beta).value


frequency_shift_nonlinear = for_variant(frequency_shift_for_variant, EllipticLens,
                                        "frequency_shift_nonlinear")

# perfbench/layers.py traces the shift under this name
_shift_nonlinear_any = frequency_shift_for_variant


def frequency_shift_linear(geom: LensGeometry, env: Environment,
                           model: PermittivityModel, osc: OscillatorParams,
                           quad: QuadratureSpec = DEFAULT_QUADRATURE) -> LinearShift:
    """Small-amplitude limit: Delta(omega^2) = -C dF/da and the shifted omega_r.

    omega_r is evaluated to first order, omega_r = omega0 (1 - C/(2 omega0^2)
    dF/da); with the gradient positive for attraction the resonance softens.
    Accepts any lens variant.
    """
    _check_amplitude(env, osc)
    grad = gradient(geom, env, model, quad).value
    delta = -osc.C * grad
    omega_r = osc.omega0 * (1.0 - osc.C * grad / (2.0 * osc.omega0 ** 2))
    return LinearShift(delta_omega2=delta, omega_r=omega_r)


def frequency_shift_direct_oracle(geom: EllipticLens, env: Environment,
                                  model: PermittivityModel, osc: OscillatorParams,
                                  quad: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Time-domain evaluation of the shift: force averaged over one cycle.

    Delta(omega^2) = -(C / pi A_z) int_0^{2pi} dtheta cos(theta)
    F(a + A_z cos(theta)); the oscillation phase theta = omega_r t makes the
    measure independent of omega_r, so no self-consistency loop is needed.
    The periodic trapezoid rule is spectrally convergent here.  The
    integrand is even in theta, so the m-point rule is taken on its
    m/2 + 1 nodes in [0, pi] with weights 1, 2, ..., 2, 1: the same rule in
    exact arithmetic, at m/2 + 1 force calls, where the full circle would
    call the force again at the mirrored nodes, whose cosines round to
    other floats.  m is doubled until the result is stable to _THETA_TOL,
    up to 2048 points, and ConvergenceError carries the last estimate if it
    is not.  Force values are reused across doublings (the grids nest).
    """
    expect_variant(geom, EllipticLens, "frequency_shift_direct_oracle")
    _check_amplitude(env, osc)

    @lru_cache(maxsize=None)
    def force_at(sep: float) -> float:
        return casimir_force(geom, Environment(a=sep, T=env.T), model, quad).value

    prev = None
    for m in (16, 32, 64, 128, 256, 512, 1024, 2048):
        half = m // 2
        cos = np.cos(math.pi * np.arange(half + 1) / half)
        vals = np.array([force_at(env.a + osc.Az * c) for c in cos])
        weight = np.full(half + 1, 2.0)
        weight[[0, -1]] = 1.0
        integral = 2.0 * math.pi / m * float(np.sum(weight * cos * vals))
        shift = -osc.C / (math.pi * osc.Az) * integral
        if prev is not None and abs(shift - prev) <= _THETA_TOL * max(abs(shift), 1e-300):
            return shift
        prev = shift
    raise ConvergenceError(
        f"shift oracle not converged to {_THETA_TOL:g} at {m} points",
        partial=prev)
