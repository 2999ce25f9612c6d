"""Frequency terms evaluated in stacked (zeta, v) batches.

The engine evaluates the v-integral of many frequencies in one call.  These
tests hold it to the term-at-a-time evaluation bit for bit: every term, every
Matsubara sum with its term count and tail, and every partial sum an
unconverged loop reports.  They also count the calls a force makes and the
frequencies every sum evaluates, so a change that falls back to one frequency
per call, or that runs past the block and one remainder pass, shows up
without timing anything.
"""

import math

import numpy as np
import pytest

from casimir_lens import engine, oscillator
from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import (_STACK, QuadratureSpec, _force_kernel, _frequency_integral,
                                 _gradient_kernel, _grid_from, _matsubara_sum,
                                 direct_pfa_force_oracle, force, gradient)
from casimir_lens.geometry import Environment, symmetric_lens
from casimir_lens.materials import (IdealMetal, Tabulated, gold_drude,
                                    gold_plasma, reflection_sq_grid)
from casimir_lens.oscillator import OscillatorParams, frequency_shift_nonlinear
from casimir_lens.specfun import ConvergenceError

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
A = 200e-9
_XI = np.geomspace(1.0e7, 1.0e18, 12)
MODELS = {
    "ideal": IdealMetal(),
    "drude": gold_drude(),
    "plasma": gold_plasma(),
    "tabulated": Tabulated(_XI, 1.0 + 1.0e32 / (_XI * (_XI + 5.0e13))),
}


def _shift_kernel(v, r2):
    return oscillator._nonlinear_kernel(v, r2, 0.5)


KERNELS = {"force": _force_kernel, "gradient": _gradient_kernel,
           "shift": _shift_kernel}


def _zeta1(T, a=A):
    return 4.0 * math.pi * a * CONSTANTS.kB * T / (CONSTANTS.hbar * CONSTANTS.c)


def _lone_term(kernel, model, zeta, a=A):
    """One frequency on its own 1-D grid, summed as the engine sums a row."""
    v, w = _grid_from(zeta)
    r2 = reflection_sq_grid(model, zeta, v, a)
    return float(np.sum(w * kernel(v, r2)))


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_batched_terms_equal_lone_terms(model, kernel):
    def term(zeta):
        return _frequency_integral(kernel, model, zeta, A)

    zero = term(np.zeros(1))
    assert zero.tolist() == [_lone_term(kernel, model, 0.0)]
    matsubara = _zeta1(300.0) * np.arange(1, _STACK + 1)
    batched = term(matsubara)  # one stack, one call
    lone = [_lone_term(kernel, model, float(z)) for z in matsubara]
    assert batched.tolist() == lone


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_chunked_zero_temperature_rows_equal_one_call(model, kernel):
    # the T = 0 integral evaluates each rule's whole (v, s) grid in one
    # call; every v-row, taken alone on its own 1-D s-rule, gives the same
    # float as that call
    v, _, rows = engine._zeta_rows(kernel, model, A, engine._PANEL_EDGES[-1],
                                   engine._PANEL_NODES, engine._S_NODES)
    s, ws = engine._panels(engine._S_EDGES, engine._S_NODES)
    zeta_lo = engine._ZETA_MIN if isinstance(model, Tabulated) else 0.0
    lone = []
    for vi in v.tolist():
        s0 = zeta_lo / vi
        vv = np.full(s.size, vi)
        r2 = reflection_sq_grid(model, vi * (s0 + (1.0 - s0) * s), vv, A)
        w = (1.0 - s0) * ws
        w[0] += s0
        lone.append(vi * float(np.sum(w * kernel(vv, r2))))
    assert rows.tolist() == lone


def _sum_term_at_a_time(term1, zeta1, quad):
    """The explicit block of the Matsubara loop, one evaluation per term."""
    total = 0.5 * term1(0.0)
    terms, streak, prev = 1, 0, math.inf
    for l in range(1, engine._EM_BLOCK + 1):
        value = term1(l * zeta1)
        total += value
        terms += 1
        if abs(value) < quad.rel_tol / 10.0 * abs(total):
            streak += 1
            if streak >= engine._STOP_STREAK:
                ratio = (min(max(abs(value) / prev, math.exp(-zeta1)), 0.97)
                         if prev > 0.0 else 0.0)
                return total, terms, abs(value) * ratio / (1.0 - ratio)
        else:
            streak = 0
        prev = abs(value) if value != 0.0 else prev
    raise AssertionError("the explicit block ended before the stop")


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("model", ["drude", "plasma"])
@pytest.mark.parametrize("a", [150e-9, 1e-6])
def test_matsubara_sum_equals_term_at_a_time(model, kernel, a):
    model = MODELS[model]
    env = Environment(a=a, T=300.0)
    quad = QuadratureSpec()
    evaluated = []

    def term(zeta):
        evaluated.extend(zeta.tolist())
        return _frequency_integral(kernel, model, zeta, a)

    got = _matsubara_sum(term, env, quad)
    ref = _sum_term_at_a_time(
        lambda z: _lone_term(kernel, model, z, a), _zeta1(300.0, a), quad)
    assert got == ref
    # the terms past the stop are evaluated but never summed
    assert got[1] <= len(evaluated) <= got[1] + engine._STOP_STREAK


def test_low_temperature_sum_equals_lone_terms_in_the_remainder(monkeypatch):
    # at 3 K the loop runs past the explicit block into the Euler-Maclaurin
    # windows; batching there must give the same sum, count and tail
    model, env, quad = MODELS["drude"], Environment(a=A, T=3.0), QuadratureSpec()
    calls = []

    def lone(zeta):
        calls.append(zeta.size)
        return np.array([_lone_term(_force_kernel, model, float(z))
                         for z in zeta])

    def batched(zeta):
        sizes.append(zeta.size)
        return _frequency_integral(_force_kernel, model, zeta, A)

    sizes = []
    got = _matsubara_sum(batched, env, quad)
    monkeypatch.setattr(engine, "_STACK", 1)
    ref = _matsubara_sum(lone, env, quad)
    assert got == ref
    assert got[1] == 1 + engine._HANDOFF + engine._EM_PASS
    assert sum(calls) == ref[1]
    # _STACK bounds every call of term, the remainder's too
    assert set(calls) == {1}
    # l = 0 alone, one stack of 57 to the hand-off at l = 57 (the
    # projected stop lies far past it), and the remainder's pass of 157 in
    # two calls
    assert sizes == [1, 57, 79, 78]


def _converged_sum(kernel, model, T, a=A):
    """The primed sum carried term by term until a term is below 1e-19 of
    it, added exactly: a running sum of the ~33 000 terms at 1 K and
    200 nm drifts by ~4e-14 relative, more than the plasma force's
    1.75e-14 estimate."""
    zeta1 = _zeta1(T, a)
    values = [0.5 * float(_frequency_integral(kernel, model, 0.0, a))]
    running, l = values[0], 1
    while abs(values[-1]) >= 1e-19 * abs(running):
        stack = _frequency_integral(kernel, model,
                                    zeta1 * np.arange(l, l + _STACK), a)
        values += stack.tolist()
        running += float(np.sum(stack))
        l += _STACK
    return math.fsum(values)


@pytest.mark.parametrize("model", ["drude", "plasma", "tabulated"])
def test_cold_sum_within_its_estimate_of_the_converged_sum(model,
                                                           monkeypatch):
    # 1 K, 200 nm: zeta_1 ~ 1.1e-3.  Every model's sum hands off to the
    # remainder at l = 57, the table's too (its spline is C^2 in zeta); the
    # Drude term, whose TE part is zero at zeta = 0, still rises there
    model = MODELS[model]
    sums = []

    def recorded(*args, **kwargs):
        sums.append(matsubara_sum(*args, **kwargs))
        return sums[-1]

    matsubara_sum = engine._matsubara_sum
    monkeypatch.setattr(engine, "_matsubara_sum", recorded)
    res = force(LENS, Environment(a=A, T=1.0), model)
    total = sums[0][0]
    ref = _converged_sum(_force_kernel, model, 1.0)
    rel_est = res.est_abs_error / abs(res.value)
    assert abs(total - ref) <= rel_est * abs(total)
    assert res.terms_used == 1 + engine._HANDOFF + engine._EM_PASS
    assert res.est_abs_error <= QuadratureSpec().rel_tol * abs(res.value)


@pytest.mark.parametrize("kind, a, T", [
    ("force", 200e-9, 77.0), ("gradient", 200e-9, 77.0),
    ("force", 500e-9, 30.0), ("gradient", 150e-9, 120.0),
    ("gradient", 300e-9, 60.0)])
def test_warm_sum_handed_off_within_its_estimate_of_the_converged_sum(
        kind, a, T, monkeypatch):
    # sums whose stop is projected more than one remainder pass past l = 57
    # hand off there, though they would stop in the block: 1.6 - 4.6e-13
    # off the converged sum, against estimates of ~1e-9
    sums = []

    def recorded(*args, **kwargs):
        sums.append(matsubara_sum(*args, **kwargs))
        return sums[-1]

    matsubara_sum = engine._matsubara_sum
    monkeypatch.setattr(engine, "_matsubara_sum", recorded)
    res = {"force": force, "gradient": gradient}[kind](
        LENS, Environment(a=a, T=T), MODELS["drude"])
    total = sums[0][0]
    ref = _converged_sum(KERNELS[kind], MODELS["drude"], T, a)
    assert res.terms_used == 1 + engine._HANDOFF + engine._EM_PASS
    assert abs(total - ref) <= res.est_abs_error / abs(res.value) * abs(total)
    assert abs(total - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_slow_sum_at_a_loose_rel_tol_within_its_estimate(T):
    # at 200 nm and T <= 3 K the terms fall slower than e^{-zeta_1} > 0.97
    # per step, a tail no capped geometric series bounds: stopped in the
    # block after 15 - 57 terms, these sums were 91 - 99.7 % short, at 16 -
    # 128 times their estimate
    env = Environment(a=A, T=T)
    ref = force(LENS, env, MODELS["drude"], QuadratureSpec(rel_tol=1e-13))
    for rel_tol in (0.9, 0.5, 0.2):
        res = force(LENS, env, MODELS["drude"], QuadratureSpec(rel_tol))
        assert abs(res.value - ref.value) <= res.est_abs_error


@pytest.mark.parametrize("rel_tol", [0.9, 0.5, 0.2])
@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_slow_sum_at_a_loose_rel_tol_hands_off_at_l_57(monkeypatch, T,
                                                       rel_tol):
    # e^{-zeta_1} > _MAX_RATIO: the sum cannot stop in the block, so it
    # projects no stop and hands off at l = 57, in the stacks of a cold
    # sum at any rel_tol, not in stacks of 3 through the whole block
    sizes = []
    frequency_integral = engine._frequency_integral

    def counted(kernel, model, zeta, a, window=engine._Window()):
        sizes.append(np.size(zeta))
        return frequency_integral(kernel, model, zeta, a, window)

    monkeypatch.setattr(engine, "_frequency_integral", counted)
    res = force(LENS, Environment(a=A, T=T), MODELS["drude"],
                QuadratureSpec(rel_tol))
    assert sizes == [1, engine._HANDOFF, _STACK, engine._EM_PASS - _STACK]
    assert sum(sizes) == res.terms_used == 215


@pytest.mark.parametrize("T", [1.0, 12.0])
@pytest.mark.parametrize("a", [200e-9, 1e-6])
@pytest.mark.parametrize("nodes", [12, 200])
def test_cold_tabulated_sum_within_rel_tol_of_the_converged_sum(nodes, a, T):
    # a table of 1 + 1e32 / (xi (xi + 5e13)) hands off to the remainder at
    # l = 57, as the analytic models do, and lands within rel_tol
    xi = np.geomspace(1.0e7, 1.0e18, nodes)
    model = Tabulated(xi, 1.0 + 1.0e32 / (xi * (xi + 5.0e13)))
    quad = QuadratureSpec()

    def term(zeta):
        return _frequency_integral(_force_kernel, model, zeta, a)

    total, terms, _ = _matsubara_sum(term, Environment(a=a, T=T), quad)
    ref = _converged_sum(_force_kernel, model, T, a)
    assert terms == 1 + engine._HANDOFF + engine._EM_PASS
    assert abs(total - ref) <= quad.rel_tol * abs(ref)


@pytest.mark.parametrize("T", [1.0, 3.0])
def test_capped_sum_raises_with_the_term_at_a_time_partial(T, monkeypatch):
    # at rel_tol = 1e-40 the remainder's one window falls short: batched
    # and one frequency at a time, the sum raises the same error with the
    # same partial sum, within the block and one remainder pass
    model, env = MODELS["drude"], Environment(a=A, T=T)
    quad = QuadratureSpec(rel_tol=1e-40)
    evaluated = []

    def term(zeta):
        evaluated.extend(zeta.tolist())
        return _frequency_integral(_force_kernel, model, zeta, A)

    def lone(zeta):
        return np.array([_lone_term(_force_kernel, model, float(z))
                         for z in zeta])

    with pytest.raises(ConvergenceError) as got:
        _matsubara_sum(term, env, quad)
    monkeypatch.setattr(engine, "_STACK", 1)
    with pytest.raises(ConvergenceError) as ref:
        _matsubara_sum(lone, env, quad)
    assert got.value.partial == ref.value.partial != 0.0
    assert str(got.value) == str(ref.value)
    assert "Euler-Maclaurin remainder" in str(got.value)
    assert len(evaluated) <= 1 + engine._EM_BLOCK + engine._EM_PASS


def _sum_evaluations(monkeypatch):
    """The frequencies each Matsubara sum passes to its term, one count a sum."""
    counts = []
    matsubara_sum = engine._matsubara_sum

    def counted(term, *args, **kwargs):
        counts.append(0)

        def counted_term(zeta):
            counts[-1] += zeta.size
            return term(zeta)

        return matsubara_sum(counted_term, *args, **kwargs)

    monkeypatch.setattr(engine, "_matsubara_sum", counted)
    return counts


_BOUND = 1 + engine._EM_BLOCK + engine._EM_PASS  # l = 0, the block, one pass


@pytest.mark.parametrize("T", [0.01, 3.0, 300.0])
@pytest.mark.parametrize("a", [150e-9, 1e-6])
@pytest.mark.parametrize("model", ["drude", "plasma", "ideal"])
def test_every_sum_evaluates_at_most_the_block_and_one_pass(monkeypatch,
                                                            model, a, T):
    # no setting caps a sum: its structure does.  A cold sum leaves the
    # block at l = 57 for one remainder pass, 215 evaluations
    counts = _sum_evaluations(monkeypatch)
    model, e = MODELS[model], Environment(a=a, T=T)
    force(LENS, e, model)
    gradient(LENS, e, model)
    frequency_shift_nonlinear(LENS, e, model, OscillatorParams(
        omega0=4400.0, C=10.0, Az=0.5 * a))
    assert len(counts) == 3
    assert max(counts) <= _BOUND == 414
    if T < 300.0:
        assert counts[0] == 1 + engine._HANDOFF + engine._EM_PASS == 215


def test_slow_shift_hands_off_at_l_57(monkeypatch):
    # at 300 K and Az/a = 0.9 the shift's terms fall like e^{-0.1 zeta}:
    # at l = 57 its stop is projected 192 terms ahead, more than one
    # remainder pass, so it hands off there instead of running the block
    counts = _sum_evaluations(monkeypatch)
    frequency_shift_nonlinear(LENS, Environment(a=A, T=300.0), gold_drude(),
                              OscillatorParams(omega0=4400.0, C=10.0,
                                               Az=0.9 * A))
    assert counts == [1 + engine._HANDOFF + engine._EM_PASS] == [215]


def test_oracle_evaluates_at_most_the_streak_past_its_stop(monkeypatch):
    # the oracles stack their terms as every sum does: the terms past the
    # stop are evaluated but never summed, in ascending zeta
    evaluated = []
    frequency_integral = engine._frequency_integral

    def counted(kernel, model, zeta, a, window=engine._Window()):
        if window.nodes == engine._FINE_NODES:  # an oracle term
            evaluated.extend(np.ravel(zeta).tolist())
        return frequency_integral(kernel, model, zeta, a, window)

    monkeypatch.setattr(engine, "_frequency_integral", counted)
    res = direct_pfa_force_oracle(LENS, Environment(a=1e-6, T=300.0),
                                  gold_drude())
    assert res.terms_used <= len(evaluated) <= (res.terms_used
                                                + engine._STOP_STREAK)
    assert evaluated == sorted(evaluated)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(engine, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


@pytest.mark.parametrize("T", [0.0, 300.0])
def test_force_call_counts(monkeypatch, T):
    # counts, not times: a term evaluated one frequency per call would make
    # one polylog call per term instead of one per chunk, and TM and TE
    # taken apart would make two per reflection call; at T = 0 each rule's
    # (v, s) grid is one call, where a v-row (one s-integral) evaluated
    # alone would make one per row, 114 in all
    polylog = _count_calls(monkeypatch, "polylog_exp_grid")
    reflection = _count_calls(monkeypatch, "reflection_sq_grid")
    res = force(LENS, Environment(a=A, T=T), gold_drude())
    if T == 0.0:
        # 76 rows of 96 s-nodes in one call, and the half-order check's 38
        # rows of 48 in another
        assert res.terms_used == 76 + 38
        calls = 1 + 1
    else:
        # l = 0 alone, one stack to the hand-off point l = 57, and one
        # stack to _STOP_STREAK past the stop projected at l = 57
        assert res.terms_used == 63
        calls = 1 + 1 + 1
        evaluated = sum(np.shape(args[1])[0] for args in reflection)
        assert evaluated <= res.terms_used + engine._STOP_STREAK
    assert len(reflection) == calls
    assert len(polylog) == calls
