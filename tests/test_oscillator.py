"""Oscillator frequency shift: linear limit, nonlinear series, direct oracle."""

import math

import pytest

from casimir_lens.engine import (QuadratureSpec, casimir_gradient,
                                 two_halves_gradient)
from casimir_lens.geometry import (Environment, RotatedLens, TwoHalvesLens,
                                   symmetric_lens)
from casimir_lens.materials import IdealMetal, gold_drude, gold_plasma
from casimir_lens.oscillator import (OscillatorParams,
                                     frequency_shift_direct_oracle,
                                     frequency_shift_for_variant,
                                     frequency_shift_linear,
                                     frequency_shift_nonlinear)
from casimir_lens.specfun import ConvergenceError

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
E300 = Environment(a=200e-9, T=300.0)


def osc(az, omega0=2.0 * math.pi * 700.0, c_coef=10.0):
    return OscillatorParams(omega0=omega0, C=c_coef, Az=az)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(omega0=0.0, C=1.0, Az=1e-9)
    with pytest.raises(ValueError):
        OscillatorParams(omega0=1.0, C=-1.0, Az=1e-9)
    with pytest.raises(ValueError):
        OscillatorParams(omega0=1.0, C=1.0, Az=0.0)


def test_torsional_effective_coefficient():
    p = OscillatorParams.torsional(omega0=5.0, b=2.0, I=8.0, Az=1e-9)
    assert p.C == pytest.approx(0.5)  # b^2 / I
    assert p.omega0 == 5.0


def test_amplitude_must_stay_below_gap():
    with pytest.raises(ValueError):
        frequency_shift_nonlinear(LENS, E300, IdealMetal(), osc(E300.a))
    with pytest.raises(ValueError):
        frequency_shift_nonlinear(LENS, E300, IdealMetal(), osc(2.0 * E300.a))


def test_linear_shift_is_gradient_times_coefficient():
    p = osc(1e-9)
    lin = frequency_shift_linear(LENS, E300, IdealMetal(), p)
    grad = casimir_gradient(LENS, E300, IdealMetal()).value
    assert lin.delta_omega2 == pytest.approx(-p.C * grad, rel=1e-12)
    expected = p.omega0 * math.sqrt(1.0 + lin.delta_omega2 / p.omega0 ** 2)
    assert lin.omega_r == pytest.approx(expected, rel=1e-12)


def test_nonlinear_approaches_linear_at_small_amplitude():
    ratio = 1e-3
    p = osc(ratio * E300.a)
    nl = frequency_shift_nonlinear(LENS, E300, IdealMetal(), p)
    lin = frequency_shift_linear(LENS, E300, IdealMetal(), p)
    rel = abs(nl - lin.delta_omega2) / abs(lin.delta_omega2)
    assert rel < 1e-3
    # the leading correction for the a^{-7/2} gradient is
    # (9/2)(11/2)/8 * (Az/a)^2
    assert rel == pytest.approx(4.5 * 5.5 / 8.0 * ratio ** 2, rel=0.05)


@pytest.mark.parametrize("ratio", [0.1, 0.5])
@pytest.mark.parametrize("model", [IdealMetal(), gold_plasma()],
                         ids=["ideal", "plasma"])
def test_nonlinear_matches_direct_motion_average(ratio, model):
    p = osc(ratio * E300.a)
    series = frequency_shift_nonlinear(LENS, E300, model, p)
    oracle = frequency_shift_direct_oracle(LENS, E300, model, p)
    assert series == pytest.approx(oracle, rel=1e-7)


def test_nonlinear_zero_temperature_path():
    e0 = Environment(a=200e-9, T=0.0)
    p = osc(0.3 * e0.a)
    series = frequency_shift_nonlinear(LENS, e0, IdealMetal(), p)
    # the motion average only sees the force law, so compare against the
    # closed-form a^{-7/2} gradient through the linear route at small Az
    p_small = osc(1e-4 * e0.a)
    small = frequency_shift_nonlinear(LENS, e0, IdealMetal(), p_small)
    lin = frequency_shift_linear(LENS, e0, IdealMetal(), p_small)
    assert small == pytest.approx(lin.delta_omega2, rel=1e-6)
    # larger amplitude softens the spring further (shift more negative)
    assert series < small < 0.0


def test_shift_sign_and_growth_with_amplitude():
    shifts = [frequency_shift_nonlinear(LENS, E300, IdealMetal(),
                                        osc(r * E300.a))
              for r in (0.05, 0.2, 0.4)]
    assert all(s < 0.0 for s in shifts)
    assert shifts[0] > shifts[1] > shifts[2]


def test_variant_dispatch_equivalences():
    p = osc(0.2 * E300.a)
    two = TwoHalvesLens(A1=LENS.A, B1=LENS.B, A2=LENS.A, B2=LENS.B,
                        h=LENS.h, d=LENS.d, L=LENS.L)
    rot = RotatedLens(A=LENS.A, B=LENS.B, phi=0.0, h=LENS.h, d=LENS.d,
                      L=LENS.L)
    # the T = 0 input runs the shift through the zero-temperature integral
    for env, model in ((E300, IdealMetal()),
                       (Environment(a=E300.a, T=0.0), gold_drude())):
        base = frequency_shift_nonlinear(LENS, env, model, p)
        assert frequency_shift_for_variant(two, env, model, p) == base
        assert frequency_shift_for_variant(rot, env, model, p) == base


def test_nonlinear_requires_symmetric_lens():
    rot = RotatedLens(A=LENS.A, B=LENS.B, phi=0.2, h=LENS.h, d=LENS.d,
                      L=LENS.L)
    with pytest.raises(TypeError):
        frequency_shift_nonlinear(rot, E300, IdealMetal(), osc(1e-8))


def test_linear_shift_for_rotated_uses_rotated_gradient():
    from casimir_lens.engine import rotated_gradient
    rot = RotatedLens(A=120e-6, B=100e-6, phi=0.3, h=2e-6, d=100e-6, L=1e-3)
    p = osc(1e-9)
    lin = frequency_shift_linear(rot, E300, IdealMetal(), p)
    grad = rotated_gradient(rot, E300, IdealMetal()).value
    assert lin.delta_omega2 == pytest.approx(-p.C * grad, rel=1e-12)


def test_linear_shift_for_two_halves_uses_two_halves_gradient():
    two = TwoHalvesLens(A1=100e-6, B1=100e-6, A2=200e-6, B2=50e-6,
                        h=5e-6, d=90e-6, L=1e-3)
    p = osc(1e-9)
    lin = frequency_shift_linear(two, E300, IdealMetal(), p)
    grad = two_halves_gradient(two, E300, IdealMetal()).value
    assert lin.delta_omega2 == -p.C * grad


def test_direct_oracle_raises_when_unconverged():
    # a 1e-300 stability target asks successive grids for bit-equal
    # estimates, which 256 points do not give; the last estimate must come
    # back as the partial value instead of as a result
    e = Environment(a=1e-6, T=300.0)
    with pytest.raises(ConvergenceError) as info:
        frequency_shift_direct_oracle(LENS, e, IdealMetal(), osc(0.3 * e.a),
                                      QuadratureSpec(rel_tol=1e-3),
                                      theta_tol=1e-300)
    assert info.value.partial < 0.0
