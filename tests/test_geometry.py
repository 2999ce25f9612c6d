"""Geometry construction, derived dimensions and validity checks."""

import math

import pytest

from casimir_lens.geometry import (EllipticLens, Environment, RotatedLens,
                                   TwoHalvesLens, rotation_factor,
                                   shape_factor, symmetric_lens,
                                   thickness_for_width, validate_geometry,
                                   width_for_thickness)


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


@pytest.mark.parametrize("A, B", [(0.0, 1e-4), (1e-4, -1e-4), (math.nan, 1e-4)])
def test_rotation_factor_requires_positive_semiaxes(A, B):
    with pytest.raises(ValueError, match="semiaxes must be positive"):
        rotation_factor(A, B, 0.3)


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
