"""Electrostatic calibration force: PFA, exact circular form, expansion."""

import math

import pytest

from casimir_lens.electrostatics import (BiasState, asymmetric_electric_force,
                                         exact_circular_electric_force,
                                         expanded_electric_force,
                                         pfa_electric_force)
from casimir_lens.engine import rotation_factor
from casimir_lens.geometry import (Environment, RotatedLens, TwoHalvesLens,
                                   symmetric_lens)

R = 100e-6
L = 1e-3
LENS = symmetric_lens(R, R, L)
ENVELOPE = Environment(a=100e-9, T=300.0)
BIAS = BiasState(V=0.5, V0=0.0)


def test_pfa_versus_exact_known_deviation():
    # for a/R = 1e-3 the PFA overestimates the exact coaxial-capacitor
    # force magnitude by 0.00833 %
    pfa = pfa_electric_force(LENS, ENVELOPE, BIAS)
    exact = exact_circular_electric_force(R, L, ENVELOPE, BIAS)
    rel = (abs(pfa) - abs(exact)) / abs(exact)
    assert rel == pytest.approx(8.33e-5, abs=0.05e-5)


def test_expansion_matches_exact():
    exact = exact_circular_electric_force(R, L, ENVELOPE, BIAS)
    approx = expanded_electric_force(R, L, ENVELOPE, BIAS)
    assert approx == pytest.approx(exact, rel=1e-9)


def test_force_scales_with_voltage_squared():
    f1 = pfa_electric_force(LENS, ENVELOPE, BiasState(V=1.0, V0=0.0))
    f2 = pfa_electric_force(LENS, ENVELOPE, BiasState(V=2.0, V0=0.0))
    assert f2 == pytest.approx(4.0 * f1, rel=1e-14)


def test_contact_potential_shifts_parabola_vertex():
    v0 = 0.1
    vs = [v0 - 0.2, v0, v0 + 0.2]
    fs = [pfa_electric_force(LENS, ENVELOPE, BiasState(V=v, V0=v0))
          for v in vs]
    assert fs[1] == 0.0
    assert fs[0] == pytest.approx(fs[2], rel=1e-12)
    assert fs[0] < 0.0  # attractive on both flanks


def test_elliptic_reduces_to_effective_circular():
    A, B = 160e-6, 90e-6
    f_ell = pfa_electric_force(symmetric_lens(A, B, L), ENVELOPE, BIAS)
    f_cir = pfa_electric_force(symmetric_lens(A * A / B, A * A / B, L),
                               ENVELOPE, BIAS)
    assert f_cir == pytest.approx(f_ell, rel=1e-14)


@pytest.mark.parametrize("formula", [exact_circular_electric_force,
                                     expanded_electric_force])
@pytest.mark.parametrize("radius, length, message", [
    (0.0, L, "R must be positive, got 0.0"),
    (-R, L, "R must be positive, got -0.0001"),
    (R, 0.0, "L must be positive, got 0.0"),
    (R, -L, "L must be positive, got -0.001")])
def test_circular_forms_require_positive_radius_and_length(formula, radius,
                                                           length, message):
    with pytest.raises(ValueError) as exc:
        formula(radius, length, ENVELOPE, BIAS)
    assert str(exc.value) == message


def test_asymmetric_dispatch_symmetric():
    # criterion 9's equivalences hold bit for bit: the symmetric formula,
    # equal halves and phi = 0 all reduce to the same A / sqrt(B) factor
    base = pfa_electric_force(LENS, ENVELOPE, BIAS)
    assert asymmetric_electric_force(LENS, ENVELOPE, BIAS) == base
    two = TwoHalvesLens(A1=R, B1=R, A2=R, B2=R, h=LENS.h, d=LENS.d, L=L)
    assert asymmetric_electric_force(two, ENVELOPE, BIAS) == base
    rot = RotatedLens(A=R, B=R, phi=0.0, h=LENS.h, d=LENS.d, L=L)
    assert asymmetric_electric_force(rot, ENVELOPE, BIAS) == base


def test_asymmetric_dispatch_two_halves_averages():
    lens2 = TwoHalvesLens(A1=100e-6, B1=100e-6, A2=200e-6, B2=50e-6,
                          h=5e-6, d=90e-6, L=L)
    f_two = asymmetric_electric_force(lens2, ENVELOPE, BIAS)
    f1 = pfa_electric_force(symmetric_lens(100e-6, 100e-6, L), ENVELOPE, BIAS)
    f2 = pfa_electric_force(symmetric_lens(200e-6, 50e-6, L), ENVELOPE, BIAS)
    assert f_two == pytest.approx(0.5 * (f1 + f2), rel=1e-14)


def test_asymmetric_dispatch_rotated_applies_rotation_factor():
    phi = 0.4
    rot = RotatedLens(A=130e-6, B=100e-6, phi=phi, h=2e-6, d=110e-6, L=L)
    flat = symmetric_lens(130e-6, 100e-6, L)
    g = rotation_factor(rot.A, rot.B, phi).G
    assert asymmetric_electric_force(rot, ENVELOPE, BIAS) == \
        pytest.approx(g * pfa_electric_force(flat, ENVELOPE, BIAS), rel=1e-14)


def test_electric_force_decays_with_gap():
    near = pfa_electric_force(LENS, Environment(a=100e-9, T=300.0), BIAS)
    far = pfa_electric_force(LENS, Environment(a=400e-9, T=300.0), BIAS)
    assert abs(far) < abs(near)
    # PFA: F proportional to a^{-3/2}, so the ratio is 8
    assert near / far == pytest.approx(8.0, rel=1e-12)
