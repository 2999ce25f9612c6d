"""Thermal Casimir force for a microfabricated cylindrical lens above a plate.

Proximity-force-approximation Lifshitz formulas for the force, its
separation gradient, the electrostatic calibration force and the nonlinear
frequency shift of the oscillator carrying the lens, together with
brute-force oracles that validate every simplification against the
unreduced integrals.
"""

from .constants import CONSTANTS, PhysicalConstants, ev_to_rad_per_s
from .geometry import (EllipticLens, Environment, LensGeometry, RotatedLens,
                       RotationFactor, TwoHalvesLens, ValidityReport,
                       rotation_factor, symmetric_lens, thickness_for_width,
                       validate_geometry, width_for_thickness)
from .materials import (Drude, IdealMetal, PermittivityModel, Plasma,
                        Tabulated, epsilon_at_imaginary, gold_drude,
                        gold_plasma)
from .specfun import ConvergenceError
from .engine import (DEFAULT_QUADRATURE, ForceResult, QuadratureSpec,
                     casimir_force, casimir_gradient,
                     direct_pfa_force_oracle, force, gradient,
                     ideal_metal_force_t0, ideal_metal_gradient_t0,
                     rotated_direct_oracle, rotated_force, rotated_gradient,
                     two_halves_force, two_halves_gradient,
                     zero_temperature_force, zero_temperature_gradient)
from .electrostatics import (BiasState, asymmetric_electric_force,
                             exact_circular_electric_force,
                             expanded_electric_force, pfa_electric_force)
from .oscillator import (LinearShift, OscillatorParams,
                         frequency_shift_direct_oracle,
                         frequency_shift_for_variant, frequency_shift_linear,
                         frequency_shift_nonlinear)
from .config import ConfigError, RunConfig, SweepSpec, load_config, parse_config

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS", "PhysicalConstants", "ev_to_rad_per_s",
    "EllipticLens", "TwoHalvesLens", "RotatedLens", "LensGeometry",
    "Environment", "symmetric_lens",
    "thickness_for_width", "width_for_thickness", "validate_geometry",
    "ValidityReport",
    "IdealMetal", "Plasma", "Drude", "Tabulated", "PermittivityModel",
    "gold_drude", "gold_plasma", "epsilon_at_imaginary",
    "ConvergenceError",
    "QuadratureSpec", "DEFAULT_QUADRATURE", "ForceResult", "RotationFactor",
    "force", "gradient", "casimir_force", "casimir_gradient",
    "zero_temperature_force", "zero_temperature_gradient",
    "ideal_metal_force_t0", "ideal_metal_gradient_t0", "two_halves_force",
    "two_halves_gradient", "rotation_factor", "rotated_force",
    "rotated_gradient", "direct_pfa_force_oracle", "rotated_direct_oracle",
    "BiasState", "pfa_electric_force", "exact_circular_electric_force",
    "expanded_electric_force", "asymmetric_electric_force",
    "OscillatorParams", "LinearShift", "frequency_shift_nonlinear",
    "frequency_shift_linear", "frequency_shift_direct_oracle",
    "frequency_shift_for_variant",
    "RunConfig", "SweepSpec", "ConfigError", "load_config", "parse_config",
    "__version__",
]
