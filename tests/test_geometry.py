"""Geometry construction, derived dimensions and validity checks."""

import math

import pytest

from casimir_lens.electrostatics import (BiasState,
                                         exact_circular_electric_force,
                                         expanded_electric_force)
from casimir_lens.geometry import (EllipticLens, Environment, RotatedLens,
                                   TwoHalvesLens, rotation_factor,
                                   shape_factor, symmetric_lens,
                                   thickness_for_width, validate_geometry,
                                   width_for_thickness)
from casimir_lens.materials import Drude, Plasma
from casimir_lens.oscillator import OscillatorParams


def test_symmetric_lens_defaults():
    lens = symmetric_lens(100e-6, 50e-6, 1e-3)
    assert lens.d == pytest.approx(90e-6)
    # cap thickness at d = 0.9 A: B (1 - sqrt(1 - 0.81))
    assert lens.h == pytest.approx(50e-6 * (1.0 - math.sqrt(0.19)))


def test_width_thickness_roundtrip():
    A, B = 120e-6, 40e-6
    d = 77e-6
    h = thickness_for_width(A, B, d)
    assert width_for_thickness(A, B, h) == pytest.approx(d, rel=1e-12)


def test_symmetric_lens_from_thickness():
    lens = symmetric_lens(100e-6, 50e-6, 1e-3, h=10e-6)
    assert thickness_for_width(lens.A, lens.B, lens.d) == pytest.approx(10e-6)


def test_symmetric_lens_keeps_both_given_dimensions():
    # d and h are kept even where they do not lie on one cylinder surface
    lens = symmetric_lens(100e-6, 50e-6, 1e-3, d=50e-6, h=1e-6)
    assert lens == EllipticLens(A=100e-6, B=50e-6, h=1e-6, d=50e-6, L=1e-3)
    assert thickness_for_width(100e-6, 50e-6, 50e-6) != lens.h


@pytest.mark.parametrize("A, B, message", [
    (0.0, 1e-4, "A must be positive, got 0.0"),
    (1e-4, -1e-4, "B must be positive, got -0.0001"),
    (math.nan, 1e-4, "A must be positive, got nan")])
def test_rotation_factor_requires_positive_semiaxes(A, B, message):
    with pytest.raises(ValueError) as exc:
        rotation_factor(A, B, 0.3)
    assert str(exc.value) == message


def test_shape_factor_rejects_an_object_that_is_not_a_lens():
    with pytest.raises(TypeError, match="unknown lens geometry"):
        shape_factor(Environment(a=1e-7, T=300.0))


def test_semiaxis_ordering_enforced():
    with pytest.raises(ValueError):
        EllipticLens(A=50e-6, B=100e-6, h=1e-6, d=10e-6, L=1e-3)
    with pytest.raises(ValueError):
        RotatedLens(A=50e-6, B=100e-6, phi=0.1, h=1e-6, d=10e-6, L=1e-3)


def test_width_cannot_exceed_semiaxis():
    with pytest.raises(ValueError):
        EllipticLens(A=100e-6, B=50e-6, h=1e-6, d=101e-6, L=1e-3)
    with pytest.raises(ValueError):
        TwoHalvesLens(A1=100e-6, B1=50e-6, A2=80e-6, B2=40e-6,
                      h=1e-6, d=90e-6, L=1e-3)


def test_rotation_angle_range():
    with pytest.raises(ValueError):
        RotatedLens(A=100e-6, B=50e-6, phi=-0.1, h=1e-6, d=10e-6, L=1e-3)
    with pytest.raises(ValueError):
        RotatedLens(A=100e-6, B=50e-6, phi=math.pi / 2 + 0.1, h=1e-6,
                    d=10e-6, L=1e-3)


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment(a=-1e-9, T=300.0)
    with pytest.raises(ValueError):
        Environment(a=1e-7, T=-1.0)
    with pytest.raises(ValueError, match="temperature T cannot be negative"):
        Environment(a=1e-7, T=math.nan)
    Environment(a=1e-7, T=0.0)  # zero temperature is allowed


_ENV, _BIAS = Environment(a=1e-7, T=300.0), BiasState(V=0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: symmetric_lens(100e-6, 50e-6, math.inf),
     "L must be finite, got inf"),
    (lambda: EllipticLens(A=math.inf, B=50e-6, h=1e-6, d=10e-6, L=1e-3),
     "A must be finite, got inf"),
    (lambda: thickness_for_width(math.inf, 50e-6, 10e-6),
     "A must be finite, got inf"),
    (lambda: Environment(a=math.inf, T=300.0), "a must be finite, got inf"),
    (lambda: Environment(a=1e-7, T=math.inf), "T must be finite, got inf"),
    (lambda: OscillatorParams(omega0=math.inf, C=10.0, Az=1e-8),
     "omega0 must be finite, got inf"),
    (lambda: OscillatorParams(omega0=4400.0, C=math.inf, Az=1e-8),
     "C must be finite, got inf"),
    (lambda: OscillatorParams(omega0=4400.0, C=10.0, Az=math.inf),
     "Az must be finite, got inf"),
    (lambda: Plasma(omega_p=math.inf), "omega_p must be finite, got inf"),
    (lambda: Drude(omega_p=math.inf, gamma=5e13),
     "omega_p must be finite, got inf"),
    (lambda: Drude(omega_p=1e16, gamma=math.inf),
     "gamma must be finite, got inf"),
    (lambda: BiasState(V=math.inf), "bias V and V0 must be finite"),
    (lambda: BiasState(V=0.1, V0=-math.inf), "bias V and V0 must be finite"),
    (lambda: BiasState(V=math.nan), "bias V and V0 must be finite"),
    (lambda: rotation_factor(math.inf, 1e-4, 0.3),
     "A must be finite, got inf"),
    (lambda: rotation_factor(1e-4, math.inf, 0.3),
     "B must be finite, got inf"),
    (lambda: exact_circular_electric_force(math.inf, 1e-3, _ENV, _BIAS),
     "R must be finite, got inf"),
    (lambda: exact_circular_electric_force(1e-4, math.inf, _ENV, _BIAS),
     "L must be finite, got inf"),
    (lambda: expanded_electric_force(math.inf, 1e-3, _ENV, _BIAS),
     "R must be finite, got inf"),
    (lambda: expanded_electric_force(1e-4, math.inf, _ENV, _BIAS),
     "L must be finite, got inf"),
], ids=["lens-L", "lens-A", "thickness-A", "env-a", "env-T", "osc-omega0",
        "osc-C", "osc-Az", "plasma", "drude-omega_p", "drude-gamma", "bias-V",
        "bias-V0", "bias-nan", "rotation-A", "rotation-B", "exact-R",
        "exact-L", "expanded-R", "expanded-L"])
def test_constructors_reject_infinite_inputs(build, message):
    # after the sign and NaN checks
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Environment(a=math.nan, T=300.0), "a must be positive, got nan"),
    (lambda: OscillatorParams(omega0=math.nan, C=10.0, Az=1e-8),
     "omega0 must be positive, got nan"),
    (lambda: OscillatorParams(omega0=4400.0, C=math.nan, Az=1e-8),
     "C must be positive, got nan"),
    (lambda: OscillatorParams(omega0=4400.0, C=10.0, Az=math.nan),
     "Az must be positive, got nan"),
    (lambda: OscillatorParams.torsional(
        omega0=4400.0, b=math.nan, I=1e-12, Az=1e-8),
     "b must be positive, got nan"),
    (lambda: OscillatorParams.torsional(
        omega0=4400.0, b=1e-3, I=math.nan, Az=1e-8),
     "I must be positive, got nan"),
    (lambda: Plasma(omega_p=math.nan), "omega_p must be positive, got nan"),
    (lambda: Drude(omega_p=math.nan, gamma=5e13),
     "omega_p must be positive, got nan"),
    (lambda: Drude(omega_p=1e16, gamma=math.nan),
     "gamma must be positive, got nan"),
    (lambda: rotation_factor(1e-4, math.nan, 0.3),
     "B must be positive, got nan"),
    (lambda: exact_circular_electric_force(math.nan, 1e-3, _ENV, _BIAS),
     "R must be positive, got nan"),
    (lambda: exact_circular_electric_force(1e-4, math.nan, _ENV, _BIAS),
     "L must be positive, got nan"),
    (lambda: expanded_electric_force(math.nan, 1e-3, _ENV, _BIAS),
     "R must be positive, got nan"),
    (lambda: expanded_electric_force(1e-4, math.nan, _ENV, _BIAS),
     "L must be positive, got nan"),
], ids=["env-a", "osc-omega0", "osc-C", "osc-Az", "torsional-b", "torsional-I",
        "plasma", "drude-omega_p", "drude-gamma", "rotation-B", "exact-R",
        "exact-L", "expanded-R", "expanded-L"])
def test_constructors_reject_nan_inputs(build, message):
    # a NaN fails the positivity test: each field checked through
    # geometry.require_positive outside the lens classes (rotation_factor's
    # A is in test_rotation_factor_requires_positive_semiaxes)
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_validity_report_flags_large_separation():
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    good = validate_geometry(lens, Environment(a=200e-9, T=300.0))
    assert good.warnings == []
    assert good.pfa_error_estimate == pytest.approx(0.3 * 200e-9 / 100e-6)
    # both ratios past 0.1 warn: a/B = 0.2, and a/h = 0.355 (h = 56.4 um)
    bad = validate_geometry(lens, Environment(a=20e-6, T=300.0))
    assert bad.warnings == [
        "a/B = 0.2 exceeds 0.1; PFA error estimate 6.00%",
        "a/h = 0.355 exceeds 0.1; the lens is thin compared to the separation"]


def test_validity_two_halves_uses_smaller_semiaxis():
    lens = TwoHalvesLens(A1=100e-6, B1=100e-6, A2=100e-6, B2=50e-6,
                         h=5e-6, d=50e-6, L=1e-3)
    rep = validate_geometry(lens, Environment(a=1e-6, T=300.0))
    assert rep.a_over_B == pytest.approx(1e-6 / 50e-6)
