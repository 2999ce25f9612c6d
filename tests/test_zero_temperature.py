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
from casimir_lens.engine import (_STACK, _FINE_NODES, _PANEL_EDGES,
                                 _S_NODES, _ZETA_MIN,
                                 QuadratureSpec, _force_kernel,
                                 _frequency_integral, _gradient_kernel,
                                 _grid_from, _zeta_integral, force, gradient)
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


def _fine_zeta_rule():
    zs, ws = [], []
    for i, (lo, hi) in enumerate(zip(_FINE_EDGES, _FINE_EDGES[1:])):
        x, w = np.polynomial.legendre.leggauss(32)
        if i == 0:
            t1 = math.sqrt(hi)
            t = 0.5 * t1 * (x + 1.0)
            zs.append(t * t)
            ws.append(w * t1 * t)
        else:
            zs.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            ws.append(0.5 * (hi - lo) * w)
    return np.concatenate(zs), np.concatenate(ws)


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
    # computed it: the first node of the rule of twice the v-rule's order
    assert _ZETA_MIN == pytest.approx(
        float(_grid_from(0.0, nodes=_FINE_NODES)[0][0]), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_tabulated_table_from_the_checked_frequency(kind):
    # the table starts exactly where the config check lets it start at
    # 200 nm, so any node below _ZETA_MIN would raise
    a = 200e-9
    xi = np.geomspace(CONSTANTS.c * _ZETA_MIN / (2.0 * a), 1e18, 20_000)
    table = Tabulated(xi, epsilon_at_imaginary(gold_drude(), xi))
    quantity, kernel = KINDS[kind]
    res, ref = _reference(quantity, kernel, table, a,
                          _grid_from(0.0, nodes=_FINE_NODES))
    assert res.value == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_zero_temperature_shift_window_follows_decay_rate():
    # at Az/a = 0.99 the shift's kernel falls like e^{-0.01 v}: the window
    # is 80 / 0.01 wide; one 4x wider at twice the order agrees
    beta, quad = 0.99, QuadratureSpec(rel_tol=1e-13)
    env = Environment(a=200e-9, T=0.0)
    osc = OscillatorParams(omega0=1e4, C=1.0, Az=beta * env.a)
    model = gold_drude()

    def kernel(v, r2):
        return oscillator._nonlinear_kernel(v, r2, beta)

    shift = frequency_shift_nonlinear(LENS, env, model, osc, quad)
    total = _zeta_integral(kernel, model, env.a, engine._Window(1.0 - beta))[0]
    v, wv, rows = engine._zeta_rows(
        kernel, model, env.a, 4.0 * _PANEL_EDGES[-1] / (1.0 - beta),
        _FINE_NODES, tuple(2 * n for n in _S_NODES))
    wide = shift / total * float(np.sum(wv * rows))
    assert shift == pytest.approx(wide, rel=1e-9, abs=0.0)
    # the window of 80 truncated it to a quarter
    assert shift < 4.0 * -74.27


@pytest.mark.parametrize("a", [150e-9, 1e-6])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma(), IdealMetal()],
                         ids=["drude", "plasma", "ideal"])
@pytest.mark.parametrize("kind", KINDS)
def test_zeta_integral_takes_its_v_rule_from_the_window(kind, model, a):
    # the window's nodes, not a module constant, are the v-rule: on the
    # oracles' 152 nodes the integral has 152 + 76 v-rows, and the force
    # and gradient move by <= 3.3e-15 from the 76-node rule
    kernel = KINDS[kind][1]
    ref, rows, _ = _zeta_integral(kernel, model, a)
    total, fine_rows, _ = _zeta_integral(kernel, model, a,
                                         engine._Window(nodes=_FINE_NODES))
    assert (rows, fine_rows) == (76 + 38, 152 + 76)
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
        shape = (v.shape[0], sum(_S_NODES) * v.shape[0] // 76)
        return kernel(np.broadcast_to(v, shape),
                      np.broadcast_to(r2, (2,) + shape))

    monkeypatch.setattr(engine, "reflection_sq_grid", recorded)
    _zeta_integral(column, model, 200e-9)
    assert shapes == [("reflection", (76, 1)), ("kernel", (76, 1)),
                      ("reflection", (38, 1)), ("kernel", (38, 1))]
    for v_nodes, s_nodes in ((engine._PANEL_NODES, _S_NODES),
                             (tuple(n // 2 for n in engine._PANEL_NODES),
                              tuple(n // 2 for n in _S_NODES))):
        rows = [engine._zeta_rows(k, model, 200e-9, _PANEL_EDGES[-1], v_nodes,
                                  s_nodes)[2] for k in (column, every_node)]
        assert np.array_equal(rows[0], rows[1])
