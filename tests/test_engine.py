"""Force engine: closed forms, limits, consistency and convergence behavior."""

import math

import numpy as np
import pytest

from casimir_lens.constants import CONSTANTS
from casimir_lens.electrostatics import BiasState, pfa_electric_force
from casimir_lens.engine import (_EM_NODES, _PANEL_EDGES, _PANEL_NODES,
                                 DEFAULT_QUADRATURE, QuadratureSpec, _Window,
                                 _clenshaw_curtis, _em_remainder,
                                 _grid_from, _leggauss, _panels,
                                 casimir_force,
                                 casimir_gradient, direct_pfa_force_oracle,
                                 force, gradient, ideal_metal_force_t0,
                                 ideal_metal_gradient_t0, rotated_direct_oracle,
                                 rotated_force, rotated_gradient,
                                 rotation_factor, two_halves_force,
                                 two_halves_gradient, zero_temperature_force,
                                 zero_temperature_gradient)
from casimir_lens.geometry import (Environment, RotatedLens, TwoHalvesLens,
                                   symmetric_lens)
from casimir_lens.materials import IdealMetal, gold_drude, gold_plasma
from casimir_lens.oscillator import (OscillatorParams,
                                     frequency_shift_direct_oracle,
                                     frequency_shift_nonlinear)
from casimir_lens.specfun import ConvergenceError

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
T300 = 300.0


def env(a, T=T300):
    return Environment(a=a, T=T)


def test_closed_form_reference_magnitude():
    # -5.045 nN at a = 200 nm, A = B = 100 um, L = 1 mm
    f = ideal_metal_force_t0(LENS, env(200e-9, 0.0))
    assert f == pytest.approx(-5.045e-9, rel=1e-3)
    g = ideal_metal_gradient_t0(LENS, env(200e-9, 0.0))
    assert g == pytest.approx(8.83e-2, rel=1e-3)
    # gradient = (7/2) |F| / a for the a^{-7/2} law
    assert g == pytest.approx(3.5 * abs(f) / 200e-9, rel=1e-12)


def test_zero_temperature_matches_closed_form():
    for a in (100e-9, 200e-9, 1e-6):
        e = env(a, 0.0)
        closed = ideal_metal_force_t0(LENS, e)
        engine = zero_temperature_force(LENS, e, IdealMetal())
        assert engine.value == pytest.approx(closed, rel=1e-10)
        assert engine.mode == "zeroT"
        closed_g = ideal_metal_gradient_t0(LENS, e)
        engine_g = zero_temperature_gradient(LENS, e, IdealMetal())
        assert engine_g.value == pytest.approx(closed_g, rel=1e-10)


def test_closed_form_gradient_is_derivative():
    a = 200e-9
    d = 1e-5 * a
    fd = (ideal_metal_force_t0(LENS, env(a + d, 0.0))
          - ideal_metal_force_t0(LENS, env(a - d, 0.0))) / (2.0 * d)
    assert ideal_metal_gradient_t0(LENS, env(a, 0.0)) == \
        pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("model", [IdealMetal(), gold_drude(), gold_plasma()],
                         ids=["ideal", "drude", "plasma"])
def test_gradient_consistent_with_force(model):
    a = 200e-9
    d = 1e-4 * a
    fp = casimir_force(LENS, env(a + d), model).value
    fm = casimir_force(LENS, env(a - d), model).value
    grad = casimir_gradient(LENS, env(a), model).value
    assert grad == pytest.approx((fp - fm) / (2.0 * d), rel=1e-4)
    assert grad > 0.0  # attraction strengthens as the lens approaches


def test_force_attractive_and_monotone():
    values = [casimir_force(LENS, env(a), gold_drude()).value
              for a in (150e-9, 300e-9, 600e-9)]
    assert all(v < 0.0 for v in values)
    assert values[0] < values[1] < values[2]  # magnitude decreases with a


def test_small_temperature_approaches_zero_t():
    a = 200e-9
    f_cold = casimir_force(LENS, env(a, 1.0), IdealMetal()).value
    f_zero = zero_temperature_force(LENS, env(a, 0.0), IdealMetal()).value
    assert f_cold == pytest.approx(f_zero, rel=1e-5)


def test_zero_temperature_routing():
    res = casimir_force(LENS, env(200e-9, 0.0), IdealMetal())
    assert res.mode == "zeroT"


def test_ideal_metal_thermal_force_exceeds_zero_t():
    # extra thermal photons only strengthen the ideal-metal attraction
    a = 1e-6
    f_t = casimir_force(LENS, env(a), IdealMetal()).value
    f_0 = zero_temperature_force(LENS, env(a, 0.0), IdealMetal()).value
    assert abs(f_t) > abs(f_0)


def test_classical_limit_ratios():
    # at a = 5 um the l = 0 term dominates; Drude keeps only TM
    a = 5e-6
    shape = LENS.A / math.sqrt(2.0 * a * LENS.B)
    zeta3 = 1.2020569031595943
    l0 = -(CONSTANTS.kB * T300 * LENS.L / (4.0 * math.sqrt(math.pi) * a * a)
           * shape * math.gamma(2.5) * zeta3)
    f_drude = casimir_force(LENS, env(a), gold_drude()).value
    f_plasma = casimir_force(LENS, env(a), gold_plasma()).value
    assert f_drude / l0 == pytest.approx(0.5, abs=0.02)
    assert f_plasma / l0 == pytest.approx(1.0, rel=0.05)


def test_matsubara_cap_raises_with_partial():
    # at 1 K the sum runs past the explicit block, and at rel_tol = 1e-40
    # its one remainder window falls short: every caller of the shared
    # Matsubara loop must fail loudly
    cold = env(200e-9, 1.0)
    cap = QuadratureSpec(rel_tol=1e-40)
    osc = OscillatorParams(omega0=4400.0, C=10.0, Az=0.2 * cold.a)
    calls = {
        "casimir_force": lambda: casimir_force(LENS, cold, IdealMetal(), cap),
        "casimir_gradient":
            lambda: casimir_gradient(LENS, cold, IdealMetal(), cap),
        "frequency_shift_nonlinear":
            lambda: frequency_shift_nonlinear(LENS, cold, IdealMetal(), osc, cap),
        "direct_pfa_force_oracle":
            lambda: direct_pfa_force_oracle(LENS, cold, IdealMetal(), cap),
    }
    for name, call in calls.items():
        with pytest.raises(ConvergenceError) as info:
            call()
        assert info.value.partial != 0.0, name


def test_remainder_matches_explicit_sum(monkeypatch):
    # 24 K, 200 nm: the block plus Euler-Maclaurin remainder against the
    # same primed sum added term by term to rel_tol = 5e-16
    e = env(200e-9, 24.0)
    remainders = []
    monkeypatch.setattr("casimir_lens.engine._em_remainder",
                        lambda *args: remainders.append(args)
                        or _em_remainder(*args))
    res = casimir_force(LENS, e, gold_drude())
    assert len(remainders) == 1  # the remainder was used
    # no block end and no early hand-off: the sum is explicit throughout,
    # and it may stop where its terms fall by e^{-zeta_1} = 0.974 per step
    monkeypatch.setattr("casimir_lens.engine._EM_BLOCK", 100_000)
    monkeypatch.setattr("casimir_lens.engine._HANDOFF", math.inf)
    monkeypatch.setattr("casimir_lens.engine._MAX_RATIO", 0.99)
    explicit = casimir_force(LENS, e, gold_drude(), QuadratureSpec(rel_tol=5e-16))
    assert explicit.terms_used > 1000
    assert abs(res.value - explicit.value) <= res.est_abs_error
    assert res.est_abs_error < 1e-10 * abs(res.value)


def test_millikelvin_converges_to_zero_t():
    cold = casimir_force(LENS, env(200e-9, 0.01), gold_drude())
    zero = zero_temperature_force(LENS, env(200e-9, 0.0), gold_drude())
    assert cold.value == pytest.approx(zero.value, rel=1e-9)
    assert cold.terms_used < 1000


def test_gradient_and_shift_finish_at_3k():
    cold = env(200e-9, 3.0)
    grad = casimir_gradient(LENS, cold, gold_drude())
    zero = zero_temperature_gradient(LENS, env(200e-9, 0.0), gold_drude())
    assert grad.value == pytest.approx(zero.value, rel=1e-3)
    osc = OscillatorParams(omega0=4400.0, C=10.0, Az=0.2 * cold.a)
    shift = frequency_shift_nonlinear(LENS, cold, gold_drude(), osc)
    assert shift < 0.0 and math.isfinite(shift)


@pytest.mark.parametrize("a, T, force_terms, gradient_terms", [
    # sums that stop on their own keep the counts of the whole block
    (200e-9, 300.0, 63, 69), (1e-6, 24.0, 165, 180), (1e-6, 300.0, 18, 19),
    # cold sums, and sums whose stop is projected more than one remainder
    # pass past l = 57 (200 nm at 77 K), leave the block there for one pass
    # of 152, where running all 256 first would cost up to 409
    (200e-9, 77.0, 210, 210), (200e-9, 24.0, 210, 210),
    (200e-9, 3.0, 210, 210), (200e-9, 1.0, 210, 210),
    (1e-6, 12.0, 210, 210), (1e-6, 1.0, 210, 210)])
def test_matsubara_evaluation_counts(a, T, force_terms, gradient_terms):
    e = env(a, T)
    assert force(LENS, e, gold_drude()).terms_used == force_terms
    assert gradient(LENS, e, gold_drude()).terms_used == gradient_terms
    assert max(force_terms, gradient_terms) <= 300


def test_independent_matsubara_term_spot_check():
    # recompute the l = 1 term with code that shares nothing with the engine:
    # int_zeta^inf v^{3/2} [Li_{1/2}(e^-v) * 2] dv for the ideal metal, with
    # mpmath's polylog and scipy's adaptive quadrature
    mpmath = pytest.importorskip("mpmath")
    import scipy.integrate
    from casimir_lens.engine import _force_kernel, _frequency_integral
    a = 200e-9
    zeta1 = 4.0 * math.pi * a * CONSTANTS.kB * T300 / (CONSTANTS.hbar * CONSTANTS.c)
    ours = _frequency_integral(_force_kernel, IdealMetal(), zeta1, a)

    def integrand(v):
        return v ** 1.5 * 2.0 * float(mpmath.polylog(0.5, mpmath.exp(-v)))

    ref, _ = scipy.integrate.quad(integrand, zeta1, zeta1 + 80.0, limit=400)
    assert ours == pytest.approx(ref, rel=1e-9)


def test_result_error_estimate_brackets_truth():
    a = 400e-9
    res = casimir_force(LENS, env(a), gold_drude())
    precise = casimir_force(LENS, env(a), gold_drude(),
                            QuadratureSpec(rel_tol=1e-12))
    assert abs(res.value - precise.value) <= max(res.est_abs_error,
                                                 1e-12 * abs(res.value))


_TABLE_A = np.geomspace(150e-9, 5e-6, 16)


@pytest.mark.parametrize("quantity, model, a", [
    (force, gold_drude(), _TABLE_A[0]), (force, gold_drude(), _TABLE_A[1]),
    (force, gold_drude(), _TABLE_A[2]), (gradient, gold_plasma(), _TABLE_A[0])])
def test_in_block_tail_estimate_brackets_truncation(quantity, model, a):
    # Rows of the 150 nm - 5 um table at 300 K where the term ratio dips
    # below e^-zeta_1 before the stop: the stop rule's tail estimate must
    # still cover the distance to a rel_tol = 1e-13 sum.
    res = quantity(LENS, env(a), model)
    ref = quantity(LENS, env(a), model, QuadratureSpec(rel_tol=1e-13))
    assert abs(res.value - ref.value) <= res.est_abs_error


@pytest.mark.parametrize("span", [80.0, 160.0, 80.0 / (1.0 - 0.3)])
@pytest.mark.parametrize("nodes", [_PANEL_NODES, _Window(order=2).nodes])
def test_cached_panels_match_fresh_grid(span, nodes):
    # _grid_from reuses panels 2-5 of the unit rule, scaled to span and
    # shifted by zeta; rebuild every panel from its edges and compare.
    # A panel's width is taken from the edges before zeta is added: at
    # zeta = 1e3 and a non-dyadic span, (zeta + hi) - (zeta + lo) is
    # 4.7e-15 off the exact width
    edges = [e * span / _PANEL_EDGES[-1] for e in _PANEL_EDGES]
    for zeta in (0.0, 0.3, 17.0, 1e3):
        vs, ws = [], []
        for i, n in enumerate(nodes):
            x, w = np.polynomial.legendre.leggauss(n)
            lo, hi = zeta + edges[i], zeta + edges[i + 1]
            if i == 0:
                t0, t1 = math.sqrt(lo), math.sqrt(hi)
                t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
                vs.append(t * t)
                ws.append(w * (t1 - t0) * t)
            else:
                half = 0.5 * (edges[i + 1] - edges[i])
                vs.append(half * x + 0.5 * (hi + lo))
                ws.append(half * w)
        ref_v, ref_w = np.concatenate(vs), np.concatenate(ws)
        v, w = _grid_from(zeta, span, nodes)
        assert w.sum() == pytest.approx(span, rel=1e-14)
        # the arrays are the caller's: writing to them leaves the cache intact
        for _ in range(2):
            np.testing.assert_allclose(v, ref_v, rtol=1e-15, atol=0)
            np.testing.assert_allclose(w, ref_w, rtol=1e-15, atol=0)
            v[:] = -1.0
            w[:] = -1.0
            v, w = _grid_from(zeta, span, nodes)


@pytest.mark.parametrize("rule", [_leggauss, _clenshaw_curtis],
                         ids=["gauss", "nested"])
@pytest.mark.parametrize("nodes", [_PANEL_NODES, _Window(order=2).nodes,
                                   (12, 8, 8, 6, 4), _EM_NODES],
                         ids=["production", "fine", "half", "remainder"])
def test_cached_v_rule_holds_no_first_panel(nodes, rule, monkeypatch):
    # _grid_from builds the t^2 panel per call and asks the cache for
    # panels 2-5 alone: sum(nodes[1:]) nodes (2 n + 1 a panel for the
    # nested rule, whose panels start on their edges), none inside the first
    # panel, and _grid_from's panels 2-5 are exactly its floats times
    # span / 80, moved to zeta
    asked = []
    monkeypatch.setattr("casimir_lens.engine._panels",
                        lambda *args: asked.append(args) or _panels(*args))
    count = (lambda n: n) if rule is _leggauss else (lambda n: 2 * n + 1)
    x, w = _panels(_PANEL_EDGES[1:], nodes[1:], rule)
    assert x.size == sum(map(count, nodes[1:]))
    edge = x.min() - _PANEL_EDGES[1]
    assert edge > 0.0 if rule is _leggauss else edge == 0.0
    head = count(nodes[0])
    for span in (80.0, 160.0, 8000.0):
        scale = span / _PANEL_EDGES[-1]
        for zeta in (0.0, 0.003, 1.7):
            v, wv = _grid_from(zeta, span, nodes, rule)
            assert v.size == head + x.size
            assert np.array_equal(v[head:], zeta + scale * x)
            assert np.array_equal(wv[..., head:], scale * w)
    assert set(asked) == {(_PANEL_EDGES[1:], nodes[1:], rule)}


@pytest.mark.parametrize("T", [0.0, 3.0])
def test_panel_cache_does_not_grow_with_az(monkeypatch, T):
    # a shift's window spans 80 / (1 - Az/a): the T = 0 integral's v-rules
    # and, at 3 K, the remainder's nested rule are scaled from one cached
    # unit rule per order, so new Az/a values build no new rule
    e = env(200e-9, T)
    remainders = []
    monkeypatch.setattr("casimir_lens.engine._em_remainder",
                        lambda *args: remainders.append(args)
                        or _em_remainder(*args))

    def shift(beta):
        osc = OscillatorParams(omega0=1e4, C=1.0, Az=beta * e.a)
        return frequency_shift_nonlinear(LENS, e, IdealMetal(), osc)

    shift(0.5)
    size = _panels.cache_info().currsize
    for beta in np.linspace(0.11, 0.97, 20):
        shift(beta)
    assert _panels.cache_info().currsize == size
    assert len(remainders) == (21 if T else 0)


def test_two_halves_equal_halves_is_symmetric():
    lens2 = TwoHalvesLens(A1=LENS.A, B1=LENS.B, A2=LENS.A, B2=LENS.B,
                          h=LENS.h, d=LENS.d, L=LENS.L)
    for T in (0.0, T300):
        f_sym = casimir_force(LENS, env(200e-9, T), gold_drude()).value
        f_two = two_halves_force(lens2, env(200e-9, T), gold_drude()).value
        assert f_two == f_sym
        g_sym = casimir_gradient(LENS, env(200e-9, T), gold_drude()).value
        g_two = two_halves_gradient(lens2, env(200e-9, T), gold_drude()).value
        assert g_two == g_sym


def test_two_halves_averages_shape_factors():
    lens2 = TwoHalvesLens(A1=100e-6, B1=100e-6, A2=200e-6, B2=50e-6,
                          h=5e-6, d=90e-6, L=1e-3)
    e = env(200e-9)
    f_two = two_halves_force(lens2, e, IdealMetal()).value
    f1 = casimir_force(symmetric_lens(100e-6, 100e-6, 1e-3), e, IdealMetal()).value
    f2 = casimir_force(symmetric_lens(200e-6, 50e-6, 1e-3), e, IdealMetal()).value
    assert f_two == pytest.approx(0.5 * (f1 + f2), rel=1e-14)


def test_rotation_factor_limits():
    assert rotation_factor(1.3, 1.0, 0.0).G == 1.0
    # phi = pi/2 seats the lens on its major axis: H = A
    end = rotation_factor(1.3, 1.0, math.pi / 2.0)
    assert end.H == pytest.approx(1.3, rel=1e-15)
    assert end.G == pytest.approx((1.0 / 1.3) ** 1.5, rel=1e-14)


def test_rotation_factor_monotone_decreasing():
    phis = np.linspace(0.0, math.pi / 2.0, 40)
    gs = [rotation_factor(1.2, 1.0, p).G for p in phis]
    assert all(g1 > g2 for g1, g2 in zip(gs, gs[1:]))


def test_rotated_phi_zero_equals_symmetric():
    rot = RotatedLens(A=LENS.A, B=LENS.B, phi=0.0, h=LENS.h, d=LENS.d, L=LENS.L)
    for T in (0.0, T300):
        f_sym = casimir_force(LENS, env(200e-9, T), gold_plasma()).value
        f_rot = rotated_force(rot, env(200e-9, T), gold_plasma()).value
        assert f_rot == f_sym


def test_elliptic_equals_circular_with_effective_radius():
    # A/sqrt(B) = sqrt(A^2/B): the elliptic lens force equals that of a
    # circular cylinder with R = A^2/B
    A, B = 141e-6, 87e-6
    R = A * A / B
    e = env(250e-9)
    f_ell = casimir_force(symmetric_lens(A, B, 1e-3), e, gold_drude()).value
    f_cir = casimir_force(symmetric_lens(R, R, 1e-3), e, gold_drude()).value
    assert f_cir == pytest.approx(f_ell, rel=1e-14)


def test_force_and_gradient_equal_typed_names():
    two = TwoHalvesLens(A1=100e-6, B1=100e-6, A2=200e-6, B2=50e-6,
                        h=5e-6, d=90e-6, L=1e-3)
    rot = RotatedLens(A=120e-6, B=100e-6, phi=0.3, h=2e-6, d=100e-6, L=1e-3)
    typed = [(LENS, casimir_force, casimir_gradient),
             (two, two_halves_force, two_halves_gradient),
             (rot, rotated_force, rotated_gradient)]
    for T in (0.0, T300):
        e = env(200e-9, T)
        for geom, typed_force, typed_gradient in typed:
            model = IdealMetal()
            assert force(geom, e, model) == typed_force(geom, e, model)
            assert gradient(geom, e, model) == typed_gradient(geom, e, model)


def test_variant_type_checks():
    # each entry point written for one variant refuses the others before it
    # evaluates anything, with the full message pinned: the eight names
    # geometry.for_variant builds, then the ones with bodies of their own
    rot = RotatedLens(A=1e-4, B=1e-4, phi=0.1, h=1e-6, d=1e-5, L=1e-3)
    two = TwoHalvesLens(A1=1e-4, B1=1e-4, A2=1e-4, B2=1e-4, h=1e-6, d=1e-5,
                        L=1e-3)
    osc = OscillatorParams(omega0=1e4, C=1.0, Az=20e-9)
    e, im = env(200e-9), IdealMetal()
    cases = [
        (lambda: casimir_force(rot, e, im), "casimir_force expects a "
         "EllipticLens, got RotatedLens; use force for any lens variant"),
        (lambda: casimir_gradient(two, e, im), "casimir_gradient expects a "
         "EllipticLens, got TwoHalvesLens; use gradient for any lens variant"),
        (lambda: two_halves_force(LENS, e, im), "two_halves_force expects a "
         "TwoHalvesLens, got EllipticLens; use force for any lens variant"),
        (lambda: two_halves_gradient(rot, e, im), "two_halves_gradient expects "
         "a TwoHalvesLens, got RotatedLens; use gradient for any lens variant"),
        (lambda: rotated_force(LENS, e, im), "rotated_force expects a "
         "RotatedLens, got EllipticLens; use force for any lens variant"),
        (lambda: rotated_gradient(two, e, im), "rotated_gradient expects a "
         "RotatedLens, got TwoHalvesLens; use gradient for any lens variant"),
        (lambda: frequency_shift_nonlinear(rot, e, im, osc),
         "frequency_shift_nonlinear expects a EllipticLens, got RotatedLens; "
         "use frequency_shift_for_variant for any lens variant"),
        (lambda: pfa_electric_force(two, e, BiasState(V=0.5)),
         "pfa_electric_force expects a EllipticLens, got TwoHalvesLens; "
         "use asymmetric_electric_force for any lens variant"),
        (lambda: ideal_metal_force_t0(rot, env(200e-9, 0.0)),
         "ideal_metal_force_t0 expects a EllipticLens, got RotatedLens; "
         "use force with IdealMetal() at T = 0 for any lens variant"),
        (lambda: ideal_metal_gradient_t0(rot, env(200e-9, 0.0)),
         "ideal_metal_gradient_t0 expects a EllipticLens, got RotatedLens; "
         "use gradient with IdealMetal() at T = 0 for any lens variant"),
        (lambda: frequency_shift_direct_oracle(rot, e, im, osc),
         "frequency_shift_direct_oracle expects a EllipticLens, got RotatedLens"),
        (lambda: direct_pfa_force_oracle(rot, env(1e-6), im),
         "direct_pfa_force_oracle expects a EllipticLens, got RotatedLens"),
        (lambda: rotated_direct_oracle(LENS, env(1e-6), im),
         "rotated_direct_oracle expects a RotatedLens, got EllipticLens"),
    ]
    for call, message in cases:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message
