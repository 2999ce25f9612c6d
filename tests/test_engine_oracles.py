"""Brute-force cross-section oracles versus the width-integrated formulas."""

import math

import numpy as np
import pytest

from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import (_N_BLOCK, _N_CAP, _SIGMA_CUT, _SIGMA_NODES,
                                 DEFAULT_QUADRATURE, QuadratureSpec,
                                 _grid_from, _leggauss, _oracle_term,
                                 _order_series, casimir_force,
                                 direct_pfa_force_oracle,
                                 rotated_direct_oracle, rotated_force)
from casimir_lens.geometry import Environment, RotatedLens, symmetric_lens
from casimir_lens.materials import (IdealMetal, gold_drude, gold_plasma,
                                    reflection_sq_grid)
from casimir_lens.specfun import _DIRECT_DECAY


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
    # the estimate carries the measured Matsubara tail and order-series
    # remainders, and brackets the same oracle at a much tighter tolerance
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    e = Environment(a=1e-6, T=300.0)
    res = direct_pfa_force_oracle(lens, e, IdealMetal())
    tight = direct_pfa_force_oracle(lens, e, IdealMetal(),
                                    QuadratureSpec(rel_tol=1e-11))
    assert res.est_abs_error != DEFAULT_QUADRATURE.rel_tol * abs(res.value)
    assert abs(res.value - tight.value) <= res.est_abs_error
    assert res.est_abs_error < 1e-3 * DEFAULT_QUADRATURE.rel_tol * abs(res.value)


# Per-v reference for the vectorized oracle term: the order series on one
# v node's sigma nodes, summed until all of them have converged, and the
# width integral evaluated one v node at a time.  The series also reports
# the blocks it summed (None at the n-cap), the width integral whether the
# cap was reached.

def _first_block(rho_max):
    """Powers in a row's first block: ceil(39.2 / -ln rho_max), at most 64."""
    if rho_max == 0.0:
        return 0
    return min(math.ceil(_DIRECT_DECAY / -math.log(rho_max)), _N_BLOCK)


def _order_series_ref(rho, rel_tol, first=None):
    """The series on one row: a first block of `first` powers (by default
    _first_block of the row), then blocks of _N_BLOCK."""
    if first is None:
        first = _first_block(float(rho.max()))
    acc = np.zeros_like(rho)
    power = np.ones_like(rho)
    tol = rel_tol / 10.0
    n = 0
    block = first
    while n < _N_CAP:
        for _ in range(block):
            power = power * rho
            acc += power
        n += _N_BLOCK
        block = _N_BLOCK
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(acc > 0.0, power / np.maximum(acc, 1e-300), 0.0)
        if np.all(rel * rho / np.maximum(1.0 - rho, 1e-300) < tol):
            return acc, power * rho / (1.0 - rho), n // _N_BLOCK
    return acc + power * rho / (1.0 - rho), np.zeros_like(rho), None


def _order_series_ref_64(rho, rel_tol):
    """The series on one row in fixed blocks of _N_BLOCK powers."""
    return _order_series_ref(rho, rel_tol, first=_N_BLOCK)


def _width_integral_ref(v, r_tm2, r_te2, a, chord, u2_max, rel_tol):
    x, w = _leggauss(_SIGMA_NODES)
    smax = min(math.sqrt(u2_max * v / a), _SIGMA_CUT)
    sig = 0.5 * smax * (x + 1.0)
    wsig = w * 0.5 * smax
    u2 = a * sig * sig / v
    geo = 2.0 * (chord - u2) / np.sqrt(2.0 * chord - u2)
    decay = np.exp(-v - sig * sig)
    series, dropped, blocks = _order_series_ref(r_tm2 * decay, rel_tol)
    capped = blocks is None
    if r_te2 != 0.0:
        series_te, dropped_te, blocks = _order_series_ref(r_te2 * decay,
                                                          rel_tol)
        series = series + series_te
        dropped = dropped + dropped_te
        capped = capped or blocks is None
    weight = wsig * geo
    scale = math.sqrt(a / v)
    return (scale * float(np.sum(weight * series)),
            scale * float(np.sum(weight * dropped)), capped)


def _oracle_term_ref(model, zeta, a, chord, u2_max, rel_tol):
    v_nodes, v_weights = _grid_from(zeta)
    r_tm2, r_te2 = reflection_sq_grid(model, zeta, v_nodes, a)
    total, order_tail, capped = 0.0, 0.0, 0
    for v, wv, tm2, te2 in zip(v_nodes, v_weights, r_tm2, r_te2):
        value, dropped, cap = _width_integral_ref(
            float(v), float(tm2), float(te2), a, chord, u2_max, rel_tol)
        total += wv * v * v * value
        order_tail += abs(wv * v * v * dropped)
        capped += cap
    return total, order_tail, capped


_A_TERM = 200e-9
_ZETA1 = (4.0 * math.pi * _A_TERM * CONSTANTS.kB * 300.0
          / (CONSTANTS.hbar * CONSTANTS.c))


@pytest.mark.parametrize("zeta", [0.0, _ZETA1, 10.0 * _ZETA1],
                         ids=["zeta0", "zeta1", "10zeta1"])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
def test_vectorized_oracle_term_is_bit_identical_to_per_v_loop(model, zeta):
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    args = (model, zeta, _A_TERM, lens.B, lens.h, DEFAULT_QUADRATURE.rel_tol)
    ref_value, ref_tail, capped = _oracle_term_ref(*args)
    value, tail = _oracle_term(*args)
    assert value == ref_value
    assert tail == ref_tail
    if zeta == 0.0 and isinstance(model, IdealMetal):
        assert capped > 0  # |r| = 1 near v = 0 reaches the n-cap
    if zeta == 0.0 and model == gold_drude():
        v, _ = _grid_from(0.0)
        assert not np.any(reflection_sq_grid(model, 0.0, v, _A_TERM)[1])


def test_order_series_freezes_each_row_on_its_own():
    # rows converging after one block, after several, and never (at the cap)
    rows = [[0.0, 0.0, 0.0], [0.1, 0.2, 0.05], [0.1, 0.9, 0.5],
            [0.97, 0.3, 0.0], [0.9999, 0.1, 0.5], [0.2, 0.95, 0.99]]
    rho = np.array(rows)
    acc, dropped = _order_series(rho, DEFAULT_QUADRATURE.rel_tol)
    blocks = []
    for i, row in enumerate(rho):
        ref_acc, ref_dropped, n_blocks = _order_series_ref(
            row, DEFAULT_QUADRATURE.rel_tol)
        assert np.array_equal(acc[i], ref_acc), i
        assert np.array_equal(dropped[i], ref_dropped), i
        blocks.append(n_blocks)
    assert blocks == [1, 1, 4, 11, None, 33]
    _assert_sums_of_fixed_64_blocks(rho, acc, dropped)


def _assert_sums_of_fixed_64_blocks(rho, acc, dropped):
    # a short first block leaves out only powers below half an ulp of the
    # partial sum, so the sum is bit-identical to fixed 64-power blocks; its
    # dropped remainder starts at an earlier power, so it is no smaller
    for i, row in enumerate(rho):
        ref_acc, ref_dropped, _ = _order_series_ref_64(
            row, DEFAULT_QUADRATURE.rel_tol)
        assert np.array_equal(acc[i], ref_acc), i
        assert np.all(dropped[i] >= ref_dropped), i


@pytest.mark.parametrize("zeta", [0.0, _ZETA1, 10.0 * _ZETA1],
                         ids=["zeta0", "zeta1", "10zeta1"])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
def test_short_first_block_sums_what_fixed_64_blocks_sum(model, zeta):
    # the rho grids _oracle_term hands the series, one per polarization
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    x, _ = _leggauss(_SIGMA_NODES)
    v, _ = _grid_from(zeta)
    smax = np.minimum(np.sqrt(lens.h * v / _A_TERM), _SIGMA_CUT)[:, None]
    sig = 0.5 * smax * (x + 1.0)
    decay = np.exp(-v[:, None] - sig * sig)
    short = 0
    for r2 in reflection_sq_grid(model, zeta, v, _A_TERM):
        rho = r2[:, None] * decay
        acc, dropped = _order_series(rho, DEFAULT_QUADRATURE.rel_tol)
        _assert_sums_of_fixed_64_blocks(rho, acc, dropped)
        short += sum(0 < _first_block(m) < _N_BLOCK
                     for m in rho.max(axis=1).tolist())
    assert short > 0  # some rows do take a first block under 64 powers
