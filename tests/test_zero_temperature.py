"""The T = 0 integral in v-outer order against independent zeta-outer rules.

The engine integrates over the triangle zeta <= v with v outside and
s = zeta / v inside.  These tests hold it to integrals taken the other way
round, over zeta outside, with each frequency's v-integral from the
Matsubara term code: a fine rule for the analytic models, and the
48-node rule the zeta-outer integral used to run for a table.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_lens import engine, oscillator
from casimir_lens.constants import CONSTANTS
from casimir_lens.engine import (_STACK, _ZETA_MIN,
                                 QuadratureSpec, _force_kernel,
                                 _frequency_integral, _gradient_kernel,
                                 _grid_from, _Window, _zeta_integral, force,
                                 gradient)
from casimir_lens.geometry import Environment, symmetric_lens
from casimir_lens.materials import (IdealMetal, Tabulated,
                                    epsilon_at_imaginary, gold_drude,
                                    gold_plasma)
from casimir_lens.oscillator import OscillatorParams, frequency_shift_nonlinear

LENS = symmetric_lens(100e-6, 100e-6, 1e-3)
KINDS = {"force": (force, _force_kernel),
         "gradient": (gradient, _gradient_kernel)}
# 15 zeta-panels of 32 nodes, s = t^2 on the first
_FINE_EDGES = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 14.0,
               22.0, 32.0, 45.0, 60.0, 80.0)


def _gauss_panels(edges, nodes):
    """Gauss-Legendre panels on edges, nodes[i] on the i-th, x = t^2 on the first."""
    zs, ws = [], []
    for i, (lo, hi, n) in enumerate(zip(edges, edges[1:], nodes)):
        x, w = np.polynomial.legendre.leggauss(n)
        if i == 0:
            t1 = math.sqrt(hi)
            t = 0.5 * t1 * (x + 1.0)
            zs.append(t * t)
            ws.append(w * t1 * t)
        else:
            zs.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            ws.append(0.5 * (hi - lo) * w)
    return np.concatenate(zs), np.concatenate(ws)


def _fine_zeta_rule():
    return _gauss_panels(_FINE_EDGES, (32,) * 15)


def _zeta_outer(kernel, model, a, rule):
    """sum_j w_j int_{zeta_j}^{zeta_j + 80} dv kernel, zeta-outer order."""
    zeta, w = rule
    terms = np.concatenate([
        _frequency_integral(kernel, model, zeta[i:i + _STACK], a)
        for i in range(0, zeta.size, _STACK)])
    return float(np.sum(w * terms))


def _reference(quantity, kernel, model, a, rule):
    """The result's value with its integral replaced by the zeta-outer one."""
    res = quantity(LENS, Environment(a=a, T=0.0), model)
    total = _zeta_integral(kernel, model, a)[0]
    return res, res.value / total * _zeta_outer(kernel, model, a, rule)


@pytest.mark.parametrize("a", [5e-6, 20e-6])
@pytest.mark.parametrize("kind", KINDS)
def test_drude_matches_fine_zeta_outer_integral(kind, a):
    # the Drude TE reflection rises over zeta ~ 2 a gamma / c, which the
    # old 48-node first zeta-panel [0, 2] left 9e-11 - 4e-10 off here
    quantity, kernel = KINDS[kind]
    res, ref = _reference(quantity, kernel, gold_drude(), a,
                          _fine_zeta_rule())
    assert res.value == pytest.approx(ref, rel=1e-13, abs=0.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(a=st.floats(math.log(150e-9), math.log(20e-6)).map(math.exp),
       model=st.sampled_from([gold_drude(), gold_plasma(), IdealMetal()]),
       kind=st.sampled_from(sorted(KINDS)))
def test_error_estimate_brackets_fine_reference(a, model, kind):
    quantity, kernel = KINDS[kind]
    res, ref = _reference(quantity, kernel, model, a, _fine_zeta_rule())
    assert res.mode == "zeroT"
    assert abs(res.value - ref) <= res.est_abs_error
    # measured, not a fixed share of the value
    assert res.est_abs_error < 1e-7 * abs(res.value)


def test_zeta_min_is_the_first_node_from_zero():
    # the lowest zeta a table must reach, as the config check has always
    # computed it: the first node from zeta = 0 of _Window(order=2)'s rule
    assert _ZETA_MIN == pytest.approx(
        float(_grid_from(0.0, nodes=_Window(order=2).nodes)[0][0]),
        rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_tabulated_table_from_the_checked_frequency(kind):
    # the table starts exactly where the config check lets it start at
    # 200 nm, so any node below _ZETA_MIN would raise
    a = 200e-9
    xi = np.geomspace(CONSTANTS.c * _ZETA_MIN / (2.0 * a), 1e18, 20_000)
    table = Tabulated(xi, epsilon_at_imaginary(gold_drude(), xi))
    quantity, kernel = KINDS[kind]
    res, ref = _reference(quantity, kernel, table, a,
                          _grid_from(0.0, nodes=_Window(order=2).nodes))
    assert res.value == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_zero_temperature_shift_window_follows_decay_rate():
    # at Az/a = 0.99 the shift's kernel falls like e^{-0.01 v}: the window
    # is 80 / 0.01 wide; one 4x wider at order 2 agrees
    beta, quad = 0.99, QuadratureSpec(rel_tol=1e-13)
    env = Environment(a=200e-9, T=0.0)
    osc = OscillatorParams(omega0=1e4, C=1.0, Az=beta * env.a)
    model = gold_drude()

    def kernel(v, r2):
        return oscillator._nonlinear_kernel(v, r2, beta)

    shift = frequency_shift_nonlinear(LENS, env, model, osc, quad)
    total = _zeta_integral(kernel, model, env.a, _Window(1.0 - beta))[0]
    v, wv, rows, _ = engine._zeta_rows(kernel, model, env.a,
                                       _Window((1.0 - beta) / 4.0, order=2))
    wide = shift / total * float(np.sum(wv * rows))
    assert shift == pytest.approx(wide, rel=1e-9, abs=0.0)
    # the window of 80 truncated it to a quarter
    assert shift < 4.0 * -74.27


@pytest.mark.parametrize("a", [150e-9, 1e-6])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
@pytest.mark.parametrize("kind", KINDS)
def test_zeta_integral_takes_its_v_rule_from_the_window(kind, model, a):
    # the window's order, not a module constant, sets the rules: at the
    # oracles' order 2 the integral has 152 v-rows, and the force and
    # gradient move by <= 3.3e-15 from order 1
    kernel = KINDS[kind][1]
    ref, rows, _ = _zeta_integral(kernel, model, a)
    total, fine_rows, _ = _zeta_integral(kernel, model, a, _Window(order=2))
    assert (rows, fine_rows) == (76, 152)
    assert total == pytest.approx(ref, rel=5e-14, abs=0.0)


_ROW_KERNELS = {
    "force": _force_kernel, "gradient": _gradient_kernel,
    "shift": lambda v, r2: oscillator._nonlinear_kernel(v, r2, 0.5)}


@pytest.mark.parametrize("kind", _ROW_KERNELS)
@pytest.mark.parametrize("model", [gold_drude(), IdealMetal()],
                         ids=["drude", "ideal"])
def test_zeta_rows_take_v_as_a_column(model, kind, monkeypatch):
    # reflection_sq_grid and the kernel see each rule's v as a column, so
    # what depends on v alone is computed once per row; the rows are the
    # same floats as with v, and an ideal metal's r^2, on every node
    kernel = _ROW_KERNELS[kind]
    shapes = []
    reflection = engine.reflection_sq_grid

    def recorded(model, zeta, v, a):
        shapes.append(("reflection", v.shape))
        return reflection(model, zeta, v, a)

    def column(v, r2):
        shapes.append(("kernel", v.shape))
        return kernel(v, r2)

    def every_node(v, r2):
        s_nodes = engine._s_rule(model, 200e-9, v, v.shape[0] // 76)[2]
        shape = (v.shape[0], sum(s_nodes))
        return kernel(np.broadcast_to(v, shape),
                      np.broadcast_to(r2, (2,) + shape))

    monkeypatch.setattr(engine, "reflection_sq_grid", recorded)
    _zeta_integral(column, model, 200e-9)
    assert shapes == [("reflection", (76, 1)), ("kernel", (76, 1))]
    for order in (1, 2):
        rows = [engine._zeta_rows(k, model, 200e-9, _Window(order=order))[2]
                for k in (column, every_node)]
        assert np.array_equal(rows[0], rows[1])


# The graded s-rule the analytic models used to take, here the independent
# reference: Gauss-Legendre panels on these edges, s = t^2 on the first, at
# order 3 (48, 48, 60, 60 and 72 nodes), on the v-rule at order 3
_GRADED_EDGES = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
_GRADED_NODES = (48, 48, 60, 60, 72)


def _graded_integral(kernel, model, a):
    """int_0^80 dv v int_0^1 ds kernel on the graded rules at order 3."""
    v, wv = _grid_from(0.0, nodes=_Window(order=3).nodes)
    s, ws = _gauss_panels(_GRADED_EDGES, _GRADED_NODES)
    col = v[:, None]
    r2 = engine.reflection_sq_grid(model, col * s, col, a)
    return float(np.sum(wv * v * np.sum(ws * kernel(col, r2), axis=-1)))


@pytest.mark.parametrize("a", [150e-9, 1e-6, 5e-6, 20e-6])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
@pytest.mark.parametrize("kind", KINDS)
def test_mapped_s_rule_against_the_graded_rule_at_order_3(kind, model, a):
    # an analytic model's one mapped 32-node s-panel per row, at order 1,
    # holds forces and gradients within 5.2e-15 of the graded rule at
    # order 3 (the graded rule at order 1: 3.7e-15)
    quantity, kernel = KINDS[kind]
    res = quantity(LENS, Environment(a=a, T=0.0), model)
    ref = res.value / _zeta_integral(kernel, model, a)[0] * _graded_integral(kernel, model, a)
    assert res.value == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
def test_analytic_zero_t_sends_76_by_32_nodes_to_the_reflections(model, monkeypatch):
    # at order 1 an analytic model's T = 0 force evaluates 76 v-rows of 32
    # s-nodes each, in one call of reflection_sq_grid
    sizes = []
    reflection = engine.reflection_sq_grid

    def recorded(model, zeta, v, a):
        sizes.append(np.broadcast(zeta, v).size)
        return reflection(model, zeta, v, a)

    monkeypatch.setattr(engine, "reflection_sq_grid", recorded)
    force(LENS, Environment(a=1e-6, T=0.0), model)
    assert sizes == [76 * 32]
