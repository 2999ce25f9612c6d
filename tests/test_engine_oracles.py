"""Brute-force cross-section oracles versus the width-integrated formulas."""

import math

import numpy as np
import pytest

from casimir_lens import engine
from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import (_SIGMA_CUT, _SIGMA_NODES,
                                 DEFAULT_QUADRATURE,
                                 QuadratureSpec, _Window, _frequency_integral,
                                 _grid_from, _leggauss, _oracle_kernel,
                                 _order_sum, casimir_force,
                                 direct_pfa_force_oracle,
                                 rotated_direct_oracle, rotated_force)
from casimir_lens.geometry import Environment, RotatedLens, symmetric_lens
from casimir_lens.materials import (IdealMetal, gold_drude, gold_plasma,
                                    reflection_sq_grid)


def test_oracle_agrees_within_pfa_budget():
    # the two calculations share the Lifshitz kernel but integrate the
    # profile differently; they must agree to the PFA error scale 0.3 a/B
    a, B = 200e-9, 100e-6
    lens = symmetric_lens(100e-6, B, 1e-3)
    e = Environment(a=a, T=300.0)
    f = casimir_force(lens, e, gold_drude()).value
    oracle = direct_pfa_force_oracle(lens, e, gold_drude()).value
    rel = abs(oracle - f) / abs(f)
    assert rel < 3.0 * 0.3 * a / B


def test_oracle_converges_toward_formula_as_gap_shrinks():
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    rels = []
    for a in (1e-6, 200e-9):
        e = Environment(a=a, T=300.0)
        f = casimir_force(lens, e, IdealMetal()).value
        oracle = direct_pfa_force_oracle(lens, e, IdealMetal()).value
        rels.append(abs(oracle - f) / abs(f))
    assert rels[1] < rels[0]


@pytest.mark.parametrize("a, T", [(200e-9, 20.0), (1e-6, 5.0)])
def test_cold_oracle_through_the_remainder(monkeypatch, a, T):
    # a cold oracle hands off to the Euler-Maclaurin remainder at l = 57
    # in the stacks of a cold force sum: one stack of l = 0 - 57 and the
    # remainder's pass of 152 in two calls, all on the oracles'
    # v-rule; it stays within the PFA error scale 0.3 a/B of the formula
    calls = []
    frequency_integral = engine._frequency_integral

    def counted(kernel, model, zeta, a, window=engine._Window()):
        calls.append((np.size(zeta), window.nodes))
        return frequency_integral(kernel, model, zeta, a, window)

    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    e = Environment(a=a, T=T)
    f = casimir_force(lens, e, gold_drude()).value
    monkeypatch.setattr(engine, "_frequency_integral", counted)
    oracle = direct_pfa_force_oracle(lens, e, gold_drude())
    assert calls == [(n, _Window(order=2).nodes) for n in (58, 76, 76)]
    assert oracle.terms_used == 210
    assert abs(oracle.value - f) <= 0.3 * a / lens.B * abs(f)


@pytest.mark.parametrize("T", [300.0, 20.0])
def test_stacked_oracle_sum_equals_the_lone_frequency_sum(monkeypatch, T):
    # the oracle kernel takes a stack row by row: in stacks (300 K, and
    # 20 K through the remainder) the sum, its term count and its tail are
    # those of the sum taken one frequency per call
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    env, model = Environment(a=200e-9, T=T), gold_drude()
    sizes = []
    frequency_integral = engine._frequency_integral

    def counted(kernel, model, zeta, a, window=engine._Window()):
        sizes.append(np.size(zeta))
        return frequency_integral(kernel, model, zeta, a, window)

    monkeypatch.setattr(engine, "_frequency_integral", counted)
    got = engine._oracle_sum(env, model, lens.B, lens.h, DEFAULT_QUADRATURE)
    assert max(sizes) > 1
    sizes.clear()
    monkeypatch.setattr(engine, "_STACK", 1)
    ref = engine._oracle_sum(env, model, lens.B, lens.h, DEFAULT_QUADRATURE)
    assert set(sizes) == {1}
    assert got == ref


def test_oracle_requires_finite_temperature():
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    with pytest.raises(ValueError):
        direct_pfa_force_oracle(lens, Environment(a=200e-9, T=0.0),
                                IdealMetal())


def test_rotated_oracle_at_zero_angle_matches_flat_oracle():
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    rot = RotatedLens(A=lens.A, B=lens.B, phi=0.0, h=lens.h, d=lens.d,
                      L=lens.L)
    e = Environment(a=200e-9, T=300.0)
    assert rotated_direct_oracle(rot, e, IdealMetal()).value == \
        direct_pfa_force_oracle(lens, e, IdealMetal()).value


def test_rotated_oracle_tracks_rotation_factor():
    phi = 0.3
    rot = RotatedLens(A=120e-6, B=100e-6, phi=phi, h=2e-6, d=100e-6, L=1e-3)
    e = Environment(a=200e-9, T=300.0)
    f = rotated_force(rot, e, gold_drude()).value
    oracle = rotated_direct_oracle(rot, e, gold_drude()).value
    assert oracle == pytest.approx(f, rel=3.0 * 0.3 * e.a / rot.B)


def test_rotated_oracle_rejects_cap_taller_than_tilted_height():
    rot = RotatedLens(A=120e-6, B=30e-6, phi=1.2, h=70e-6, d=100e-6, L=1e-3)
    # H = sqrt(A^2 sin^2 + B^2 cos^2) at phi = 1.2 is about 112 um; a cap
    # height above 2H cannot come from this cross-section
    bad = RotatedLens(A=120e-6, B=30e-6, phi=0.0, h=70e-6, d=100e-6, L=1e-3)
    e = Environment(a=200e-9, T=300.0)
    with pytest.raises(ValueError):
        rotated_direct_oracle(bad, e, IdealMetal())
    rotated_direct_oracle(rot, e, IdealMetal())  # tall enough once tilted


def test_oracle_scales_linearly_with_length():
    lens1 = symmetric_lens(100e-6, 100e-6, 1e-3)
    lens2 = symmetric_lens(100e-6, 100e-6, 2e-3)
    e = Environment(a=300e-9, T=300.0)
    o1 = direct_pfa_force_oracle(lens1, e, IdealMetal()).value
    o2 = direct_pfa_force_oracle(lens2, e, IdealMetal()).value
    assert o2 == pytest.approx(2.0 * o1, rel=1e-14)


def test_oracle_error_estimate_is_measured():
    # the order series is summed in closed form, so the estimate is the
    # measured Matsubara tail plus the rounding floor, with no order
    # remainder to pad it; it must still bracket the same oracle at a much
    # tighter tolerance, and stay close to the error it brackets.  At 1 um
    # the estimate (and so the error) stays below 1e-3 rel_tol; at 200 nm
    # the Matsubara stop itself leaves about 1e-9 |F|, so only rel_tol
    # bounds it there
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    tol = DEFAULT_QUADRATURE.rel_tol
    for model in (gold_drude(), gold_plasma(), IdealMetal()):
        for a, bound in ((200e-9, tol), (1e-6, 1e-3 * tol)):
            e = Environment(a=a, T=300.0)
            res = direct_pfa_force_oracle(lens, e, model)
            tight = direct_pfa_force_oracle(lens, e, model,
                                            QuadratureSpec(rel_tol=1e-13))
            err = abs(res.value - tight.value)
            case = (model, a)
            assert res.est_abs_error != tol * abs(res.value), case
            assert err <= res.est_abs_error, case
            assert res.est_abs_error < bound * abs(res.value), case
            assert res.est_abs_error < 1.2 * err, case


# Per-v reference for the vectorized oracle kernel: the closed-form order
# sum on one v node's sigma nodes, and the width integral evaluated one v
# node at a time.

def _order_sum_ref(r2, exponent, decay):
    """rho/(1 - rho) on one row, rho = r2 decay, decay = e^{exponent}."""
    return r2 * decay / -np.expm1(np.log(r2) + exponent)


def _width_integral_ref(v, r_tm2, r_te2, a, chord, u2_max):
    x, w = _leggauss(_SIGMA_NODES)
    smax = min(math.sqrt(u2_max * v / a), _SIGMA_CUT)
    sig = 0.5 * smax * (x + 1.0)
    wsig = w * 0.5 * smax
    u2 = a * sig * sig / v
    geo = 2.0 * (chord - u2) / np.sqrt(2.0 * chord - u2)
    exponent = -v - sig * sig
    decay = np.exp(exponent)
    series = _order_sum_ref(r_tm2, exponent, decay)
    if r_te2 != 0.0:
        series = series + _order_sum_ref(r_te2, exponent, decay)
    return math.sqrt(a / v) * float(np.sum(wsig * geo * series))


def _oracle_term_ref(model, zeta, a, chord, u2_max):
    # the oracles keep the v-rule of twice the production order; each v
    # node's integrand is evaluated alone, then summed as the v-integral is
    v_nodes, w = _grid_from(zeta, nodes=_Window(order=2).nodes)
    r_tm2, r_te2 = reflection_sq_grid(model, zeta, v_nodes, a)
    rows = np.array([v * v * _width_integral_ref(
        v, tm2, te2, a, chord, u2_max) for v, tm2, te2 in zip(
            v_nodes.tolist(), r_tm2.tolist(), r_te2.tolist())])
    return np.sum(w * rows)


_A_TERM = 200e-9
_ZETA1 = (4.0 * math.pi * _A_TERM * CONSTANTS.kB * 300.0
          / (CONSTANTS.hbar * CONSTANTS.c))


@pytest.mark.parametrize("zeta", [0.0, _ZETA1, 10.0 * _ZETA1],
                         ids=["zeta0", "zeta1", "10zeta1"])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
def test_vectorized_oracle_term_is_bit_identical_to_per_v_loop(model, zeta):
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)

    def kernel(v, r2):
        return _oracle_kernel(v, r2, _A_TERM, lens.B, lens.h)

    with np.errstate(divide="raise", invalid="raise"):  # r^2 = 0 rows
        assert _frequency_integral(kernel, model, zeta, _A_TERM,
                                   _Window(order=2)) == \
            _oracle_term_ref(model, zeta, _A_TERM, lens.B, lens.h)
    if zeta == 0.0 and model == gold_drude():
        v, _ = _grid_from(0.0)
        assert not np.any(reflection_sq_grid(model, 0.0, v, _A_TERM)[1])


@pytest.mark.parametrize("zeta", [0.0, _ZETA1, 10.0 * _ZETA1],
                         ids=["zeta0", "zeta1", "10zeta1"])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
def test_order_sum_matches_mpmath_per_node(model, zeta):
    # the grids _oracle_kernel hands the order sum, every fourth v row and
    # sigma column (the smallest v and sigma, where rho -> 1, included),
    # against 40-digit mpmath from the same float r^2, v and sigma; the
    # (TM, TE) stack in one call gives each polarization's floats
    mp = pytest.importorskip("mpmath")
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    x, _ = _leggauss(_SIGMA_NODES)
    v, _ = _grid_from(zeta, nodes=_Window(order=2).nodes)
    v = v[::4]
    smax = np.minimum(np.sqrt(lens.h * v / _A_TERM), _SIGMA_CUT)[:, None]
    sig = (0.5 * smax * (x + 1.0))[:, ::4]
    exponent = -v[:, None] - sig * sig
    decay = np.exp(exponent)
    stack = reflection_sq_grid(model, zeta, v, _A_TERM)
    both = _order_sum(stack, exponent, decay)
    with mp.workdps(40):
        for r2, row in zip(stack, both):
            got = _order_sum(r2, exponent, decay)
            assert np.array_equal(row, got)
            for i, j in np.ndindex(*got.shape):
                rho = mp.mpf(float(r2[i])) * mp.exp(
                    -mp.mpf(float(v[i])) - mp.mpf(float(sig[i, j])) ** 2)
                want = rho / (1 - rho)
                if want == 0:
                    assert got[i, j] == 0.0
                else:
                    assert abs(got[i, j] / want - 1) <= 1e-13, (i, j)
