"""Electrostatic calibration force between the biased lens and the plate.

Applying a potential difference V - V0 (V0 the residual contact potential)
produces an attractive force quadratic in the bias.  At leading PFA order it
shares the A / sqrt(2 a B) geometry factor with the Casimir force; for a
circular cylinder the two-dimensional capacitor problem is solvable exactly,
which pins the PFA error (about a / 12 R at small separation).
"""

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .geometry import (EllipticLens, Environment, LensGeometry,
                       expect_variant, shape_factor)


@dataclass(frozen=True)
class BiasState:
    """Applied potential V and residual contact potential V0, in volts."""

    V: float
    V0: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.V) or not math.isfinite(self.V0):
            raise ValueError("bias V and V0 must be finite")


def pfa_electric_force(geom: EllipticLens, env: Environment, bias: BiasState) -> float:
    """Leading-order electrostatic force on the symmetric lens, in N.

    F = -pi eps0 L / (2 a) * A / sqrt(2 a B) * (V - V0)^2, negative
    (attractive) for any bias away from V0.
    """
    expect_variant(geom, EllipticLens, "pfa_electric_force",
                   "asymmetric_electric_force")
    return asymmetric_electric_force(geom, env, bias)


def exact_circular_electric_force(R: float, L: float, env: Environment,
                                  bias: BiasState) -> float:
    """Exact electrostatic force for a circular cylinder of radius R.

    The two-dimensional cylinder-plane capacitor gives

        F = -4 pi eps0 L (V - V0)^2 / (Delta * ln^2[(hc - Delta)/(hc + Delta)])

    with hc = R + a the axis height and Delta = sqrt(hc^2 - R^2).  Returned
    negative (attractive), consistent with the PFA expressions.
    """
    if not R > 0.0 or not L > 0.0:
        raise ValueError("R and L must be positive")
    if not (math.isfinite(R) and math.isfinite(L)):
        raise ValueError("R and L must be finite")
    hc = R + env.a
    delta = math.sqrt(hc * hc - R * R)
    log_ratio = math.log((hc - delta) / (hc + delta))
    dv = bias.V - bias.V0
    return -4.0 * math.pi * CONSTANTS.eps0 * L * dv * dv / (delta * log_ratio * log_ratio)


def expanded_electric_force(R: float, L: float, env: Environment,
                            bias: BiasState) -> float:
    """Small-separation expansion of the exact circular force.

    F = -pi eps0 L sqrt(R) / (2 sqrt(2) a^{3/2}) (V - V0)^2
        * [1 - a/(12 R) + 17 a^2/(480 R^2)].

    The leading factor coincides with pfa_electric_force at A = B = R.
    """
    if not R > 0.0 or not L > 0.0:
        raise ValueError("R and L must be positive")
    if not (math.isfinite(R) and math.isfinite(L)):
        raise ValueError("R and L must be finite")
    a = env.a
    x = a / R
    dv = bias.V - bias.V0
    leading = (-math.pi * CONSTANTS.eps0 * L * math.sqrt(R)
               / (2.0 * math.sqrt(2.0) * a ** 1.5) * dv * dv)
    return leading * (1.0 - x / 12.0 + 17.0 * x * x / 480.0)


def asymmetric_electric_force(geom: LensGeometry, env: Environment,
                              bias: BiasState) -> float:
    """PFA electrostatic force for any lens variant.

    The two-halves lens averages the A / sqrt(B) factors of its halves; the
    rotated lens is scaled by the same G factor as the Casimir force.
    """
    dv = bias.V - bias.V0
    return (-math.pi * CONSTANTS.eps0 * geom.L / (2.0 * env.a)
            * shape_factor(geom) / math.sqrt(2.0 * env.a) * dv * dv)
