"""Property tests over random lenses, separations and temperatures.

Each force evaluation costs tens of milliseconds, so the examples are few
and drawn deterministically; the properties are exact identities of the
leading-order formulas or monotonicity that must hold at every draw.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casimir_lens.engine import force, gradient, rotation_factor
from casimir_lens.geometry import Environment, TwoHalvesLens, symmetric_lens
from casimir_lens.materials import IdealMetal, gold_drude, gold_plasma

FEW = settings(max_examples=10, deadline=None, derandomize=True,
               database=None)

MODELS = st.sampled_from([gold_drude(), gold_plasma(), IdealMetal()])
TEMPERATURES = st.sampled_from([0.0, 300.0])
# separations log-uniform over 150 nm - 5 um
SEPARATIONS = st.floats(math.log(150e-9), math.log(5e-6)).map(math.exp)


@st.composite
def lenses(draw):
    """A symmetric lens with A >= B, both 20-500 um, and L 0.1-5 mm."""
    B = draw(st.floats(20e-6, 500e-6))
    A = B * draw(st.floats(1.0, 3.0))
    L = draw(st.floats(1e-4, 5e-3))
    return symmetric_lens(A, B, L)


@FEW
@given(lens=lenses(), other=lenses(), a=SEPARATIONS, T=TEMPERATURES,
       model=MODELS)
def test_force_scales_with_length_and_shape_factor(lens, other, a, T, model):
    env = Environment(a=a, T=T)
    f = force(lens, env, model).value
    g = force(other, env, model).value
    scale = (other.L / lens.L) * (other.A / math.sqrt(other.B)) \
        / (lens.A / math.sqrt(lens.B))
    assert g == pytest.approx(f * scale, rel=1e-14)


@settings(FEW, max_examples=200)
@given(A=st.floats(1e-6, 1e-3), B=st.floats(1e-6, 1e-3),
       phi=st.floats(0.0, math.pi / 2))
def test_rotation_factor_axis_swap(A, B, phi):
    # turning the cut by pi/2 exchanges the semiaxes:
    # (A / sqrt B) G(A, B, phi + pi/2) = (B / sqrt A) G(B, A, phi)
    lhs = A / math.sqrt(B) * rotation_factor(A, B, phi + math.pi / 2).G
    rhs = B / math.sqrt(A) * rotation_factor(B, A, phi).G
    assert lhs == pytest.approx(rhs, rel=1e-13)


@FEW
@given(lens=lenses(), a=SEPARATIONS, T=TEMPERATURES, model=MODELS)
def test_equal_halves_reproduce_symmetric_lens(lens, a, T, model):
    two = TwoHalvesLens(A1=lens.A, B1=lens.B, A2=lens.A, B2=lens.B,
                        h=lens.h, d=lens.d, L=lens.L)
    env = Environment(a=a, T=T)
    assert force(two, env, model).value == force(lens, env, model).value


@FEW
@given(lens=lenses(), a=SEPARATIONS, b=SEPARATIONS, T=TEMPERATURES,
       model=MODELS)
def test_force_magnitude_decreases_with_separation(lens, a, b, T, model):
    near, far = sorted((a, b))
    assume(far > 1.01 * near)
    f_near = force(lens, Environment(a=near, T=T), model).value
    f_far = force(lens, Environment(a=far, T=T), model).value
    assert abs(f_far) < abs(f_near)


@FEW
@given(lens=lenses(), a=SEPARATIONS, T=TEMPERATURES, model=MODELS)
def test_gradient_is_the_slope_of_the_force(lens, a, T, model):
    # central difference with criterion 2's step and tolerance
    d = 1e-4 * a
    fp = force(lens, Environment(a=a + d, T=T), model).value
    fm = force(lens, Environment(a=a - d, T=T), model).value
    g = gradient(lens, Environment(a=a, T=T), model).value
    assert g == pytest.approx((fp - fm) / (2.0 * d), rel=1e-4)
