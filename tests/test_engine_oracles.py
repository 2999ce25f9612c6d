"""Brute-force cross-section oracles versus the width-integrated formulas."""

import math

import pytest

from casimir_lens.engine import (DEFAULT_QUADRATURE, QuadratureSpec,
                                 casimir_force, direct_pfa_force_oracle,
                                 rotated_direct_oracle, rotated_force)
from casimir_lens.geometry import Environment, RotatedLens, symmetric_lens
from casimir_lens.materials import IdealMetal, gold_drude


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
