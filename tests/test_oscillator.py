"""Oscillator frequency shift: linear limit, nonlinear series, direct oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lens import engine, oscillator
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
    for b, inertia in ((0.0, 8.0), (2.0, -1.0)):
        with pytest.raises(ValueError, match="b and I must be positive"):
            OscillatorParams.torsional(omega0=5.0, b=b, I=inertia, Az=1e-9)


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


def test_direct_oracle_raises_when_unconverged(monkeypatch):
    # a stand-in force -(sep/a)^-3.5 at Az/a = 0.99999 is too sharply
    # peaked at closest approach for 2048 theta points to settle to
    # _THETA_TOL; the last estimate must come back as the partial value,
    # not as a result
    calls = []

    def steep(geom, env, model, quad):
        calls.append(env.a)
        return SimpleNamespace(value=-(env.a / E300.a) ** -3.5)

    monkeypatch.setattr(oscillator, "casimir_force", steep)
    with pytest.raises(ConvergenceError) as info:
        frequency_shift_direct_oracle(LENS, E300, gold_drude(),
                                      osc(0.99999 * E300.a))
    assert info.value.partial < 0.0
    assert "2048 points" in str(info.value)
    assert len(set(calls)) == 2048 // 2 + 1


def test_direct_oracle_averages_over_half_a_cycle(monkeypatch):
    # the integrand is even in theta: the m-point rule calls the force at
    # the m/2 + 1 nodes in [0, pi], nested across doublings, and matches
    # the full-circle trapezoid rule at the same m
    p = osc(0.5 * E300.a)
    seps = []

    def recorded(geom, env, model, quad):
        seps.append(env.a)
        return engine.casimir_force(geom, env, model, quad)

    monkeypatch.setattr(oscillator, "casimir_force", recorded)
    shift = frequency_shift_direct_oracle(LENS, E300, gold_drude(), p)
    assert len(seps) == len(set(seps)) == 33  # converged at m = 64
    for m in (16, 32, 64):
        half = m // 2
        cos = np.cos(math.pi * np.arange(half + 1) / half)
        assert set(seps[:half + 1]) == set((E300.a + p.Az * cos).tolist())
    cos = np.cos(2.0 * math.pi * np.arange(64) / 64)
    forces = [engine.casimir_force(LENS, Environment(a=E300.a + p.Az * c,
                                                     T=E300.T),
                                   gold_drude()).value for c in cos.tolist()]
    full = -p.C / (math.pi * p.Az) * 2.0 * math.pi / 64 * float(
        np.sum(cos * np.array(forces)))
    assert shift == pytest.approx(full, rel=1e-14, abs=0.0)


# ROADMAP item 1: the T > 0 window cuts the shift as Az -> a.  These hold
# the shift to a reference that does not share that window; the markers
# go when the window follows the kernel.
_WINDOW = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@pytest.mark.parametrize("beta", [
    0.5, pytest.param(0.9, marks=_WINDOW), pytest.param(0.99, marks=_WINDOW),
    pytest.param(0.999, marks=_WINDOW)])
def test_cold_shift_approaches_the_zero_temperature_shift(beta):
    p = OscillatorParams(omega0=1e4, C=1.0, Az=beta * E300.a)
    cold = frequency_shift_nonlinear(LENS, Environment(a=E300.a, T=3.0),
                                     gold_drude(), p)
    zero = frequency_shift_nonlinear(LENS, Environment(a=E300.a, T=0.0),
                                     gold_drude(), p)
    assert abs(cold - zero) <= 1e-5 * abs(zero)


@pytest.mark.parametrize("beta", [pytest.param(0.9, marks=_WINDOW),
                                  pytest.param(0.99, marks=_WINDOW)])
def test_shift_matches_the_direct_oracle_as_az_approaches_a(beta):
    p = osc(beta * E300.a)
    series = frequency_shift_nonlinear(LENS, E300, gold_drude(), p)
    oracle = frequency_shift_direct_oracle(LENS, E300, gold_drude(), p)
    assert abs(series - oracle) <= 1e-9 * abs(oracle)


# ---------------------------------------------------------------------------
# the Bessel series: closed form, theta rule, work counts

_ZETA1 = (4.0 * math.pi * E300.a * CONSTANTS.kB * E300.T
          / (CONSTANTS.hbar * CONSTANTS.c))


def _li_half(x, wood):
    """Li_{1/2}(e^-x) in mpmath: Wood's series below x = 2, powers above."""
    import mpmath as mp
    eps = mp.mpf(10) ** -32
    if x < 2:
        total = mp.sqrt(mp.pi / x) + wood[0]
        power = mp.mpf(1)
        for c in wood[1:]:
            power *= x
            total += c * power
            if abs(power) < eps:
                break
        return total
    z = mp.exp(-x)
    return mp.fsum(z ** n / mp.sqrt(n) for n in range(1, int(75 / x) + 2))


def _bessel_series_mpmath(mu, q, wood, rule=None):
    """sum_n n^{-1/2} e^{-mu n} I_1(q n) from A&S 9.6.19.

    I_1(x) = (1/pi) int_0^pi e^{x cos t} cos t dt turns the sum into
    (1/pi) int_0^pi cos t Li_{1/2}(e^{-(mu - q cos t)}) dt.  Near t = 0
    the integrand peaks like (lam + q t^2 / 2)^{-1/2}, lam = mu - q, over
    t ~ s = sqrt(2 lam / q); t = s sinh(y) flattens that peak.  Past
    t ~ sqrt(2 / q) it falls like e^{-q t^2 / 2}, so a rule spread over
    all of [0, asinh(pi / s)] misses that fall once q is large (1.5e-13
    at q ~ 13 with 32 nodes).  The y-range is split at t = 2 sqrt(2 / q),
    and each part takes the Gauss-Legendre rule (nodes, weights on
    [-1, 1]); mpmath.quad takes the whole range without one.
    """
    import mpmath as mp
    mu, q = mp.mpf(mu), mp.mpf(q)
    s = mp.sqrt(2 * (mu - q) / q)
    end = mp.asinh(mp.pi / s)

    def integrand(y):
        c = mp.cos(s * mp.sinh(y))
        return s * mp.cosh(y) * c * _li_half(mu - q * c, wood)

    if rule is None:
        return mp.quad(integrand, [0, end]) / mp.pi
    nodes, weights = rule
    edges = [0, min(mp.asinh(2 * mp.sqrt(2 / q) / s), end), end]
    total = mp.fsum(
        (hi - lo) / 2 * w * integrand(lo + (hi - lo) * (x + 1) / 2)
        for lo, hi in zip(edges, edges[1:]) for x, w in zip(nodes, weights))
    return total / mp.pi


def test_bessel_series_matches_mpmath_per_node():
    # Drude TM nodes on every path; the hardest are those at v ~ 1e-5 and
    # zeta = 0, whose series runs to n ~ 1 / lam ~ 1e7 (the theta rule)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        # Wood's series converges like (x / 2 pi)^k: 60 terms reach 1e-30
        wood = [mp.zeta(mp.mpf(0.5) - k) * (-1) ** k / mp.factorial(k)
                for k in range(60)]
        for x in ("1e-6", "1.5", "3"):
            x = mp.mpf(x)
            assert _li_half(x, wood) == pytest.approx(
                mp.polylog(0.5, mp.exp(-x)), rel=1e-25)
        rule = mp.gauss_quadrature(32, "legendre")
        for zeta in (0.0, _ZETA1):
            v, _ = _grid_from(zeta)
            r_tm2, _ = reflection_sq_grid(gold_drude(), zeta, v, E300.a)
            for beta in (0.5, 0.9, 0.99):
                got = oscillator._nonlinear_kernel(
                    v, np.stack((r_tm2, np.zeros_like(v))), beta)
                for i in (0, 1, 2, 5, 10, 20, 47):
                    mu = v[i] - math.log(r_tm2[i])
                    ref = _bessel_series_mpmath(mu, beta * v[i], wood, rule)
                    err = abs(got[i] / (float(ref) * v[i] ** 1.5) - 1.0)
                    assert err < 1e-14, (zeta, beta, i, err)
        # on the hardest node (r_TM = 1) and on the largest q (node 47,
        # q ~ 13) the split 32-point rule agrees with mpmath's adaptive
        # quadrature
        v = _grid_from(0.0)[0]
        for vi in (float(v[0]), float(v[47])):
            fixed = _bessel_series_mpmath(vi, 0.99 * vi, wood, rule)
            adaptive = _bessel_series_mpmath(vi, 0.99 * vi, wood)
            assert abs(fixed / adaptive - 1) < 1e-15


def test_theta_rule_matches_mpmath_per_node():
    # lam < 1 nodes against mpmath's adaptive quadrature of the A&S 9.6.19
    # form (cos t and Li_{1/2}), which shares neither the integrand nor the
    # rule with the theta rule.  q < 2: lam / q from 1e-6 to 1e3.  q >= 2:
    # up to q = 999 (lam < 1 needs q < beta / (1 - beta), 999 at Az/a =
    # 0.999) with lam / q down to (1 - beta) / beta = 1e-3, on both sides
    # of q = 22.5, where the y-range starts to end before t = pi, and at
    # q = 18 - 23, where the integrand's fall past its peak fills the
    # range and a short rule is worst (2.5e-14 at 48 nodes)
    mp = pytest.importorskip("mpmath")
    q = np.array([1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 0.1, 0.1, 0.1, 0.1,
                  1.9, 1.9, 1.9, 1.9,
                  2.0, 2.0, 5.0, 18.0, 20.4, 20.4, 22.4, 22.6, 22.6, 23.0,
                  60.0, 200.0, 999.0])
    lam = np.array([1e-7, 1e-5, 1e-3, 0.1, 0.999, 1e-5, 1e-3, 0.1, 0.9,
                    1.9e-6, 1.9e-4, 0.019, 0.95,
                    2e-3, 0.999, 5e-3, 0.018, 0.0204, 0.21, 0.0224, 0.0226,
                    0.6, 0.023, 0.06, 0.2, 0.999])
    got = oscillator._theta_series(q, lam)
    with mp.workdps(30):
        wood = [mp.zeta(mp.mpf(0.5) - k) * (-1) ** k / mp.factorial(k)
                for k in range(60)]
        for i in range(q.size):
            ref = _bessel_series_mpmath(mp.mpf(q[i]) + mp.mpf(lam[i]), q[i],
                                        wood)
            err = abs(got[i] / float(ref) - 1.0)
            assert err <= 1e-14, (q[i], lam[i], err)


# (q, lam, path): nodes of the shift's Bessel series, head = ceil(32 / q).
# A lam < 1 node takes the theta rule, a lam >= 1 node the closed form
_ROUTED_NODES = [
    (40.0, 0.5, "theta"),  # lam < 1, head 1
    (2.01, 0.3, "theta"),  # lam < 1, head 16
    (2.02, 0.1, "theta"),  # lam < 1, head 16, slow decay
    (5.0, 0.999, "theta"),  # lam just below 1, head 7
    (5.1, 1.001, "closed"),  # lam just above 1, head 7
    (41.0, 2.0, "closed"),  # lam >= 1, head 1
    (2.5, 1.5, "closed"),  # lam >= 1, head 13 of 28 powers
    (0.5, 8.0, "closed"),  # lam >= 1, head 64: every power takes i1e
    (1.9, 0.5, "theta"),  # lam < 1, head 17
]


def _routed_kernel(nodes, beta=0.99):
    """v and r_TM^2 for the (q, lam) nodes, and the q and lam the kernel sees."""
    q, lam = np.array([(n[0], n[1]) for n in nodes]).T
    v = q / beta
    r2 = np.exp(v * (1.0 - beta) - lam)
    assert np.all(r2 <= 1.0)
    q = beta * v
    return v, r2, q, v - np.log(r2) - q


def test_closed_form_route(monkeypatch):
    # every lam < 1 node takes the theta rule, whatever its head; every
    # lam >= 1 node the closed form, whose T_k sums fall like e^{-lam n}
    seen = {"closed": [], "theta": []}
    closed_series = oscillator._closed_series
    theta_series = oscillator._theta_series

    def closed(q, *args):
        seen["closed"].extend(q.tolist())
        return closed_series(q, *args)

    def theta(q, lam):
        seen["theta"].extend(q.tolist())
        return theta_series(q, lam)

    monkeypatch.setattr(oscillator, "_closed_series", closed)
    monkeypatch.setattr(oscillator, "_theta_series", theta)
    v, r2, q, _ = _routed_kernel(_ROUTED_NODES)
    oscillator._nonlinear_kernel(v, np.stack((r2, np.zeros_like(v))), 0.99)
    for qi, (_, lam, path) in zip(q.tolist(), _ROUTED_NODES):
        assert seen[path].count(qi) == 1, (qi, lam, path)
    assert len(seen["closed"]) + len(seen["theta"]) == len(_ROUTED_NODES)


# (q, lam_TM, lam_TE): nodes where both polarizations reflect, so TE
# reaches the Bessel factors TM's powers share with it
_PAIRED_NODES = [
    (2.5, 0.5, 1.5),  # mixed: TM the theta rule, TE the closed form
    (40.0, 0.6, 3.0),  # mixed, head 1
    (2.5, 1.5, 0.4),  # mixed the other way round
    (2.5, 1.2, 9.0),  # both closed, counts 35 and 5
    (0.7, 9.0, 1.2),  # both closed, TE the slower
    (41.0, 2.0, 5.0),  # both closed, head 1
    (33.0, 1.0, 1.1),  # both closed, head 1, lam_TM on the boundary
    (0.5, 1.2, 8.0),  # both closed, head 64: every power takes i1e
    (2.02, 0.3, 0.9),  # both the theta rule
]


def test_closed_form_matches_mpmath_per_node():
    # both routes, head 1 to 64, lam on both sides of 1, with TE dark
    # (r_TE = 0) and with TE reflecting, against 30-digit direct sums of
    # each polarization's series at the q and lam the kernel sees
    mp = pytest.importorskip("mpmath")
    nodes = [(q, lam, math.inf) for q, lam, _ in _ROUTED_NODES] + _PAIRED_NODES
    beta = 0.99
    q, lam_tm, lam_te = np.array(nodes).T
    v = q / beta
    r2 = np.exp(v * (1.0 - beta) - np.stack((lam_tm, lam_te)))
    assert np.all(r2 <= 1.0)
    got = oscillator._nonlinear_kernel(v, r2, beta)
    q = beta * v
    with np.errstate(divide="ignore"):
        lam = v - np.log(r2) - q
    with mp.workdps(30):
        for i in range(v.size):
            x, ref = mp.mpf(q[i]), 0
            for li in lam[np.isfinite(lam[:, i]), i]:
                terms = int(72.0 / li) + 2  # to e^{-72} ~ 5e-32
                mu = x + mp.mpf(li)
                ref += mp.fsum(mp.exp(-mu * n) * mp.besseli(1, x * n)
                               / mp.sqrt(n) for n in range(1, terms))
            err = abs(got[i] / v[i] ** 1.5 / float(ref) - 1.0)
            assert err <= 1e-14, (nodes[i], err)


_BETAS = (0.1, 0.5, 0.9, 0.99)


@st.composite
def _kernel_nodes(draw):
    """Kernel nodes (v, r_TM^2, r_TE^2) and beta, with a permutation and a
    subset of the nodes.  v is log-uniform over 1e-7 - 300 and the weights
    take 0, 1 and values between, so both routes are hit: the closed form's
    lam >= 1 blocks, and the theta rule across a chunk boundary, at q on
    both sides of 22.5."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = np.exp(rng.uniform(math.log(1e-7), math.log(300.0), n))
    r2 = rng.choice([0.0, 1.0, 0.5], size=(2, n), p=[0.1, 0.3, 0.6])
    r2 = np.where(r2 == 0.5, rng.uniform(0.2, 1.0, (2, n)), r2)
    beta = draw(st.sampled_from(_BETAS))
    return v, r2, beta, rng.permutation(n), np.flatnonzero(rng.random(n) < 0.3)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(nodes=_kernel_nodes())
def test_nonlinear_kernel_node_independent_of_the_call(nodes):
    # each node is the same float whatever else the call holds
    v, r2, beta, order, subset = nodes
    whole = oscillator._nonlinear_kernel(v, r2, beta)
    for pick in (order, subset):
        assert np.array_equal(
            oscillator._nonlinear_kernel(v[pick], r2[:, pick], beta),
            whole[pick])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(nodes=_kernel_nodes())
def test_nonlinear_kernel_polarizations_add(nodes):
    # one call on both polarizations, which share each power's Bessel
    # factor, against one call per polarization
    v, (r_tm2, r_te2), beta, _, _ = nodes
    both = oscillator._nonlinear_kernel(v, np.stack((r_tm2, r_te2)), beta)
    zero = np.zeros_like(v)
    split = (oscillator._nonlinear_kernel(v, np.stack((r_tm2, zero)), beta)
             + oscillator._nonlinear_kernel(v, np.stack((zero, r_te2)), beta))
    np.testing.assert_allclose(both, split, rtol=2e-15, atol=0.0)


@st.composite
def _crossing_nodes(draw):
    """Kernel nodes (v, r_TM^2, r_TE^2) whose lam = v (1 - beta) - ln r^2
    crosses 1 between two neighbouring beta of 0.1, 0.5, 0.9, 0.99: the
    node takes the closed form below the crossing and the theta rule
    above it."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r2 = np.where(rng.random((2, n)) < 0.3, 1.0,
                  rng.uniform(math.exp(-0.9), 1.0, (2, n)))
    low = rng.integers(0, len(_BETAS) - 1, n)
    lo, hi = np.array(_BETAS)[low], np.array(_BETAS)[low + 1]
    # lam = 1 at v = (1 + ln r_TM^2) / (1 - beta): put v between those of
    # the two beta, so that the TM node crosses the route boundary
    edge = 1.0 + np.log(r2[0])
    v = rng.uniform(edge / (1.0 - lo), edge / (1.0 - hi))
    return v, r2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(nodes=_crossing_nodes())
def test_nonlinear_kernel_monotone_in_beta(nodes):
    # I_1 rises with its argument, so the kernel rises with beta at fixed
    # (v, r_TM^2, r_TE^2); a jump between the closed form and the theta
    # rule at lam = 1 would break that for the nodes crossing it
    v, r2 = nodes
    values = [oscillator._nonlinear_kernel(v, r2, beta) for beta in _BETAS]
    for below, above in zip(values, values[1:]):
        assert np.all(above >= below)


@st.composite
def _boundary_nodes(draw):
    """TM-only kernel nodes (v, r_TM^2) and the beta* in (0.1, 0.99) where
    lam = v (1 - beta) - ln r_TM^2 is 1: the node takes the closed form
    just below beta* and the theta rule just above it."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r2 = np.where(rng.random(n) < 0.3, 1.0,
                  rng.uniform(math.exp(-0.9), 1.0, n))
    v = (1.0 + np.log(r2)) / (1.0 - rng.uniform(0.1, 0.99, n))
    return v, r2, 1.0 - (1.0 + np.log(r2)) / v


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(nodes=_boundary_nodes())
def test_nonlinear_kernel_monotone_across_the_route_boundary(nodes):
    # 2e-6 in beta raises the kernel by less than 1e-4 of itself, so a
    # theta rule that much low (or a closed form that much high) at lam = 1
    # breaks the rise that the beta pairs above are too far apart to see
    v, r2, beta_star = nodes
    for node in zip(v, r2, beta_star):
        vv, r2 = np.array(node[:1]), np.array([[node[1]], [0.0]])
        below, above = (oscillator._nonlinear_kernel(
            vv, r2, node[2] + step) for step in (-1e-6, 1e-6))
        assert above >= below, node


def _count_work(monkeypatch):
    """Frequency rows evaluated, Bessel elements and theta-rule polylog
    nodes, counted as they run."""
    rows, elements, nodes = [], [], []
    frequency_integral = engine._frequency_integral
    i1e = oscillator.bessel_i1_scaled
    polylog = oscillator.polylog_exp_grid

    def counted_rows(kernel, model, zeta, *args, **kwargs):
        rows.append(np.size(zeta))
        return frequency_integral(kernel, model, zeta, *args, **kwargs)

    def counted_i1e(x):
        elements.append(np.size(x))
        return i1e(x)

    def counted_polylog(s, v, r2):
        nodes.append(np.size(v))
        return polylog(s, v, r2)

    monkeypatch.setattr(engine, "_frequency_integral", counted_rows)
    monkeypatch.setattr(oscillator, "bessel_i1_scaled", counted_i1e)
    monkeypatch.setattr(oscillator, "polylog_exp_grid", counted_polylog)
    return rows, elements, nodes


def test_shift_work_counts(monkeypatch):
    # counts, not time.  At Az/a = 0.99 the Matsubara remainder takes one
    # 80 / (1 - Az/a) window (1169 rows with windows 80 wide and doubling),
    # and the closed form leaves i1e to the heads; at T = 0 the slow
    # nodes take the theta rule, which calls no i1e (407 k elements when
    # they summed explicit blocks) and evaluates _THETA_NODES polylog
    # nodes per Bessel-series node (153 k at 52).  A node's TM and TE
    # share its i1e factors and sum only its own powers: 6 574 and
    # 53 929 elements, against 10 895 and 90 870 when each polarization
    # took its own factors, padded to power-of-2 blocks
    rows, elements, nodes = _count_work(monkeypatch)
    frequency_shift_nonlinear(LENS, E300, gold_drude(), osc(0.99 * E300.a))
    assert 0 < sum(rows) <= 500
    assert 0 < sum(elements) <= 7_000
    e0 = Environment(a=E300.a, T=0.0)
    elements.clear()
    nodes.clear()
    frequency_shift_nonlinear(LENS, e0, gold_drude(), osc(0.5 * e0.a))
    assert 0 < sum(elements) <= 55_000
    assert 0 < sum(nodes) <= 250_000


def test_cold_shift_work_counts(monkeypatch):
    # counts, not time.  At 3 K the shift's Matsubara sum leaves the
    # explicit block at l = 57 for one remainder pass, 215 rows.  At
    # Az/a = 0.5 that takes 79 230 Bessel elements (TM and TE share each
    # power's i1e factor, and each node sums only its own powers) and
    # 143 936 theta-rule polylog nodes on the 76-node v-rule.  The theta
    # bound is a quarter of the 853 216 nodes that the whole block of 256
    # took on 152 nodes
    rows, elements, nodes = _count_work(monkeypatch)
    cold = Environment(a=E300.a, T=3.0)
    frequency_shift_nonlinear(LENS, cold, gold_drude(), osc(0.5 * cold.a))
    assert sum(rows) == 215
    assert 0 < sum(elements) <= 100_000
    assert 0 < sum(nodes) <= 853_216 // 4


def test_bessel_calls_stay_within_the_element_budget(monkeypatch):
    # the closed form takes the Bessel function in calls of at most
    # _NL_ELEMENTS elements, and a larger budget gives the same floats
    rows, elements, _ = _count_work(monkeypatch)
    e0 = Environment(a=E300.a, T=0.0)
    got = frequency_shift_nonlinear(LENS, e0, gold_drude(), osc(0.5 * e0.a))
    assert max(elements) <= oscillator._NL_ELEMENTS
    monkeypatch.setattr(oscillator, "_NL_ELEMENTS", 2 ** 20)
    assert frequency_shift_nonlinear(LENS, e0, gold_drude(),
                                     osc(0.5 * e0.a)) == got


@pytest.mark.parametrize("beta", [0.9, 0.99])
def test_remainder_window_follows_decay_rate(beta):
    # a window sized by the kernel's rate and one twice as wide are two
    # measurements of the same remainder
    model, quad = gold_drude(), QuadratureSpec()

    def term(zeta):
        return engine._frequency_integral(shift_kernel, model, zeta, E300.a)

    def shift_kernel(v, r2):
        return oscillator._nonlinear_kernel(v, r2, beta)

    fast = engine._matsubara_sum(term, E300, quad,
                                 window=engine._Window(1.0 - beta))
    wide = engine._matsubara_sum(term, E300, quad,
                                 window=engine._Window((1.0 - beta) / 2.0))
    zeta1 = 4.0 * math.pi * E300.a * CONSTANTS.kB * E300.T / (
        CONSTANTS.hbar * CONSTANTS.c)
    for rate, got in ((1.0 - beta, fast), ((1.0 - beta) / 2.0, wide)):
        # a sum that cannot stop in the block hands off at l = 57
        if math.exp(-rate * zeta1) > engine._MAX_RATIO:
            assert got[1] == 1 + engine._HANDOFF + engine._EM_PASS == 215
    assert abs(fast[0] - wide[0]) <= fast[2] + wide[2]
    if beta == 0.99:
        # at the force's rate the window is 80 wide, 0.8 e-foldings of
        # these terms: its end cut is 1.5e-3 of the sum, and the sum raises
        with pytest.raises(ConvergenceError):
            engine._matsubara_sum(term, E300, quad, window=engine._Window(1.0))


def test_force_remainder_unchanged_at_unit_rate(monkeypatch):
    env, model, quad = Environment(a=E300.a, T=3.0), gold_drude(), QuadratureSpec()

    def term(zeta):
        return engine._frequency_integral(engine._force_kernel, model, zeta,
                                          env.a)

    remainders = []
    em_remainder = engine._em_remainder
    monkeypatch.setattr(engine, "_em_remainder",
                        lambda *args: remainders.append(args)
                        or em_remainder(*args))
    got = engine._matsubara_sum(term, env, quad, window=engine._Window(1.0))
    assert len(remainders) == 1  # the remainder ran
    assert got == engine._matsubara_sum(term, env, quad)


def test_nonlinear_kernel_first_block_sized_to_slowest_node(monkeypatch):
    # count elements, not time: a node here sums ceil(_NL_DECAY / lam)
    # powers, so the work is at most ceil(_NL_DECAY / lam_min) per node,
    # less than fixed 64-power blocks would take
    elements = []
    i1e = oscillator.bessel_i1_scaled

    def counted_i1e(x):
        elements.append(np.size(x))
        return i1e(x)

    monkeypatch.setattr(oscillator, "bessel_i1_scaled", counted_i1e)
    zeta, beta, model = 20.0, 0.5, gold_drude()
    v, _ = _grid_from(zeta)
    stack = reflection_sq_grid(model, zeta, v, E300.a)
    oscillator._nonlinear_kernel(v, stack, beta)
    limit = full_blocks = 0
    for r2 in stack:
        mask = r2 > 0.0
        lam = v[mask] * (1.0 - beta) - np.log(r2[mask])
        limit += int(mask.sum()) * math.ceil(oscillator._NL_DECAY / lam.min())
        full_blocks += int(mask.sum()) * 64
    assert 0 < sum(elements) <= limit < full_blocks


def test_nonlinear_kernel_bessel_work_is_each_nodes_own_head(monkeypatch):
    # count elements, not time: TM and TE share one i1e factor per power,
    # and a node evaluates it only on its own powers n <= ceil(_NL_DECAY /
    # min lam) with x = n q < 32, so the elements are exactly the sum of
    # those counts, not one per polarization or padded to a block
    _, elements, _ = _count_work(monkeypatch)
    zeta, beta, model = 20.0, 0.5, gold_drude()
    v, _ = _grid_from(zeta)
    r_tm2, r_te2 = r2 = reflection_sq_grid(model, zeta, v, E300.a)
    assert np.all(r_tm2 > 0.0) and np.all(r_te2 > 0.0)
    oscillator._nonlinear_kernel(v, r2, beta)
    q = beta * v
    lam = v - np.log(r2) - q
    lam_min = np.where(lam < 1.0, np.inf, lam).min(axis=0)
    heads = 0
    for qi, li in zip(q[lam_min < np.inf], lam_min[lam_min < np.inf]):
        n = np.arange(1.0, math.ceil(oscillator._NL_DECAY / li) + 1.0)
        heads += int(np.count_nonzero(n * qi < 32.0))
    assert heads > 0
    assert sum(elements) == heads
