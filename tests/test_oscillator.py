"""Oscillator frequency shift: linear limit, nonlinear series, direct oracle."""

import math

import numpy as np
import pytest

from casimir_lens import oscillator
from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import (QuadratureSpec, _grid_from, casimir_gradient,
                                 two_halves_gradient)
from casimir_lens.geometry import (Environment, RotatedLens, TwoHalvesLens,
                                   symmetric_lens)
from casimir_lens.materials import (IdealMetal, gold_drude, gold_plasma,
                                    reflection_sq_grid)
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


# ---------------------------------------------------------------------------
# the Bessel series' short first block

_ZETA1 = (4.0 * math.pi * E300.a * CONSTANTS.kB * E300.T
          / (CONSTANTS.hbar * CONSTANTS.c))


def _kernel_fixed_blocks(v, r_tm2, r_te2, beta, rel_tol):
    """The series loop with every block _NL_BLOCK powers long."""
    out = np.zeros_like(v)
    for r2 in (r_tm2, r_te2):
        mask = r2 > 0.0
        if not np.any(mask):
            continue
        vv = v[mask]
        mu = vv - np.log(r2[mask])
        q = beta * vv
        lam = mu - q
        acc = np.zeros_like(vv)
        active = np.ones(vv.shape, dtype=bool)
        n0 = 0
        while n0 < oscillator._NL_CAP and np.any(active):
            n = np.arange(n0 + 1, n0 + oscillator._NL_BLOCK + 1, dtype=float)
            idx = np.where(active)[0]
            nv = np.outer(n, q[idx])
            block = (n[:, None] ** -0.5 * oscillator.bessel_i1_scaled(nv)
                     * np.exp(-np.outer(n, lam[idx])))
            acc[idx] += block.sum(axis=0)
            n0 += oscillator._NL_BLOCK
            last = block[-1]
            rho = np.exp(-lam[idx]) * (1.0 + 0.5 / n0)
            rho = np.minimum(rho, 0.999999)
            bound = last * rho / (1.0 - rho)
            active[idx] = bound >= rel_tol / 10.0 * np.maximum(acc[idx], 1e-300)
        for i in np.where(active)[0]:
            acc[i] += oscillator._bessel_series_tail(
                float(mu[i]), float(q[i]), float(oscillator._NL_CAP + 1))
        out[mask] += acc
    return v ** 1.5 * out


def test_nonlinear_kernel_matches_fixed_64_blocks(monkeypatch):
    # the powers the short first block leaves out are below half an ulp of
    # every partial sum, so the kernel is bit-identical to fixed blocks
    tails = []
    tail = oscillator._bessel_series_tail

    def counted_tail(*args):
        tails.append(args)
        return tail(*args)

    monkeypatch.setattr(oscillator, "_bessel_series_tail", counted_tail)
    a = E300.a
    for model in (gold_drude(), gold_plasma(), IdealMetal()):
        for zeta in (0.0, _ZETA1, 20.0, 200.0):
            v, _ = _grid_from(zeta)
            r_tm2, r_te2 = reflection_sq_grid(model, zeta, v, a)
            for beta in (0.1, 0.5, 0.99):
                for rel_tol in (QuadratureSpec().rel_tol, 1e-13):
                    got = oscillator._nonlinear_kernel(v, r_tm2, r_te2, beta,
                                                       rel_tol)
                    ref = _kernel_fixed_blocks(v, r_tm2, r_te2, beta, rel_tol)
                    assert np.array_equal(got, ref), (model, zeta, beta)
    # at zeta = 0 (r_TM = 1) the smallest v nodes run to _NL_CAP, so the
    # Euler-Maclaurin tail is compared too
    assert tails


def test_nonlinear_kernel_first_block_sized_to_slowest_node(monkeypatch):
    # count elements, not time: past the first block every node here has
    # stopped, so the work is at most ceil(_NL_DECAY / lam_min) per node
    elements = []
    i1e = oscillator.bessel_i1_scaled

    def counted_i1e(x):
        elements.append(np.size(x))
        return i1e(x)

    monkeypatch.setattr(oscillator, "bessel_i1_scaled", counted_i1e)
    zeta, beta, model = 20.0, 0.5, gold_drude()
    v, _ = _grid_from(zeta)
    r_tm2, r_te2 = reflection_sq_grid(model, zeta, v, E300.a)
    oscillator._nonlinear_kernel(v, r_tm2, r_te2, beta, QuadratureSpec().rel_tol)
    limit = full_blocks = 0
    for r2 in (r_tm2, r_te2):
        mask = r2 > 0.0
        lam = v[mask] * (1.0 - beta) - np.log(r2[mask])
        limit += int(mask.sum()) * math.ceil(oscillator._NL_DECAY / lam.min())
        full_blocks += int(mask.sum()) * oscillator._NL_BLOCK
    assert 0 < sum(elements) <= limit < full_blocks
