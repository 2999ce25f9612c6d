"""Thermal Casimir force and force gradient for a cylindrical lens over a
plate, in the proximity-force approximation.

The force per lens is

    F(a, T) = -(kB T L / 4 sqrt(pi) a^2) * A / sqrt(2 a B)
              * sum'_l  int_{zeta_l}^inf dv v^{3/2}
                [Li_{1/2}(r_TM^2 e^-v) + Li_{1/2}(r_TE^2 e^-v)],

with zeta_l = 2 a xi_l / c the dimensionless Matsubara frequencies and the
primed sum halving the l = 0 term.  The gradient replaces v^{3/2} by v^{5/2},
Li_{1/2} by Li_{-1/2}, and one power of a in the prefactor.  At T = 0 the sum
goes over to (hbar c / 4 pi a) times an integral over continuous zeta, taken
over the triangle zeta <= v with v outside (_zeta_integral).

Besides these production formulas the module carries two deliberately
unsimplified oracles that evaluate the underlying pressure integral over the
actual lens profile, with the reflection-order sum of each node in its
exact geometric closed form; they retain the finite width and thickness of
the lens and are used to bound the error of the leading-order expressions.
"""

import ctypes
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .constants import CONSTANTS
from .geometry import (EllipticLens, Environment, LensGeometry, RotatedLens,
                       TwoHalvesLens, expect_variant, for_variant,
                       rotation_factor, shape_factor, thickness_for_width)
from .materials import PermittivityModel, Tabulated, reflection_scale, reflection_sq_grid
from .specfun import ConvergenceError, polylog_exp_grid

# A T = 0 rule (~270 KiB of numpy temporaries) and a 76-frequency term stack
# (~544 KiB) pass glibc's default 128 KiB trim threshold: its heap would shrink
# and regrow on every call, unless raised (as importing scipy.special did).
_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "mallopt"):  # glibc's, set once; skipped where absent
    _libc.mallopt.argtypes, _libc.mallopt.restype = (ctypes.c_int,) * 2, ctypes.c_int
    _libc.mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD: blocks below 2 MiB on the heap
    _libc.mallopt(-1, 4 << 20)  # M_TRIM_THRESHOLD: keep up to 4 MiB free on it


@dataclass(frozen=True)
class QuadratureSpec:
    """The package's one numerical setting: the frequency sum's tolerance.

    rel_tol drives the Matsubara stop rule (three consecutive terms below
    rel_tol/10 of the running sum), the projected stop that sends a long
    sum to the Euler-Maclaurin remainder early, and the end of that
    remainder: a cold force, or any slower sum, costs 210 evaluations in
    3 calls (l = 0 - 57, then a remainder pass of 152 in two, _em_remainder),
    and no sum more than 409 (_matsubara_sum), for every permittivity model.
    The v-integral is not a knob: the kernel's window (_Window) owns its
    rule, 76 nodes at order 1 (152 for the oracles).  At T > 0 its error is
    not yet in est_abs_error, and its window [zeta_l, zeta_l + 80]
    truncates the shift as Az -> a; at T = 0 (76 x 32 nodes, a table 76 x
    96) the error is estimated from the rules' own Legendre coefficients
    (_zeta_integral).  README, "Numerical methods", gives their errors.
    """

    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class ForceResult:
    """Value in SI units with an error estimate and convergence metadata."""

    value: float
    est_abs_error: float
    terms_used: int
    mode: str  # "finiteT" or "zeroT"


# ---------------------------------------------------------------------------
# quadrature grids

_PANEL_EDGES = (0.0, 2.0, 8.0, 20.0, 45.0, 80.0)
_PANEL_NODES = (24, 16, 16, 12, 8)  # the v-rule at order 1, 76 nodes


class _Window(NamedTuple):
    """A kernel's v-window, built once per evaluation (_lifshitz, _oracle_sum).

    The kernel falls like e^{-rate v} (rate 1 for the force, the gradient
    and the oracles, 1 - Az/a for the shift), its Matsubara terms like
    e^{-rate zeta_l} times a power of l.  span (80 e-foldings at every rate)
    is the remainder's zeta-window and the T = 0 integral's v-window; nodes,
    order x _PANEL_NODES, the v-rule of that integral and of the terms, on
    [zeta_l, zeta_l + 80]; order also scales the integral's s-rule (_s_rule).
    """

    rate: float = 1.0
    order: int = 1

    @property
    def span(self) -> float:
        return _PANEL_EDGES[-1] / self.rate

    @property
    def nodes(self) -> tuple:
        return tuple(self.order * n for n in _PANEL_NODES)


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _clenshaw_curtis(n: int):
    """Nodes -cos(pi k / m), k = 0 ... m = 2n, on [-1, 1], Clenshaw-Curtis
    weights w on them, exact to degree m (J. Waldvogel, BIT 46, 195 (2006)),
    and rows j taking w f to the error on T_j of the nested rule on every
    other node, which reads T_j as T_{m-j}: nonzero for even j in (n, m]."""
    m, k = 2 * n, np.arange(2 * n + 1)
    half = np.where(k % m, 1.0, 0.5)
    jk = np.outer(k, k) % (2 * m)  # cos(pi j k / m), its argument reduced
    modes = 2.0 / m * np.outer(half, half) * np.cos(np.pi * jk / m)  # f -> c_j
    moment = np.where(k % 2, 0.0, 2.0 / (1.0 - k * k + k % 2))  # int T_j
    w = moment @ modes
    miss = moment - moment[np.minimum(k, m - k)]
    return -np.cos(np.pi * k / m), w, miss[:, None] * modes / w


@lru_cache(maxsize=None)
def _panels(edges: tuple, nodes: tuple, rule=_leggauss):
    """Nodes and weights of rule over the panels [edges[i], edges[i+1]].

    nodes gives each panel's order (_clenshaw_curtis takes 2n + 1 nodes,
    the panel's edges among them).  A panel that starts at 0 is mapped
    through x = t^2, so that the half-integer powers the kernels develop
    near 0 are integrated exactly.  The arrays are read-only: one copy per
    set of fixed edges (never a span's), nodes and rule serves every caller.
    """
    xs, ws = [], []
    for lo, hi, n in zip(edges, edges[1:], nodes):
        x, w, *_ = rule(n)
        if lo == 0.0:
            t0, t1 = math.sqrt(lo), math.sqrt(hi)
            t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
            xs.append(t * t)
            ws.append(w * (t1 - t0) * t)
        else:
            half = 0.5 * (hi - lo)
            xs.append(half * x + 0.5 * (hi + lo))
            ws.append(w * half)
    x, w = np.concatenate(xs), np.concatenate(ws, axis=-1)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _legendre_tail(nodes: tuple):
    """(2k + 1) P_k(x_i), k = n-1 ... n-4, on each panel's n Gauss nodes, in
    columns (k, panel): w f times it gives each panel's last four Legendre
    coefficients of f, in units of its integral."""
    basis = np.zeros((sum(nodes), 4, len(nodes)))
    for j, (i, n) in enumerate(zip(np.cumsum((0,) + nodes), nodes)):
        k = np.arange(n - 1, n - 5, -1)
        vander = np.polynomial.legendre.legvander(_leggauss(n)[0], n - 1)
        basis[i:i + n, :, j] = (2 * k + 1) * vander[:, k]
    return basis.reshape(sum(nodes), -1)


def _gauss_error(wf, nodes: tuple):
    """Error of Gauss panels of orders nodes, from w f on the last axis: per
    panel, last = |c_{n-1}| + |c_{n-2}| times min(1, last / (|c_{n-3}| +
    |c_{n-4}|))^((n + 1) / 4) (P. Gonnet, ACM TOMS 37(3), 26 (2010)); at
    (n + 1) / 2 the T = 0 ideal-metal shift at Az/a = 0.999 fell below it."""
    c = np.abs(wf @ _legendre_tail(nodes)).reshape(*wf.shape[:-1], 4, -1)
    last, before = c[..., 0, :] + c[..., 1, :], c[..., 2, :] + c[..., 3, :]
    ratio = np.divide(last, before, out=np.ones_like(last),
                      where=before > last)
    return np.sum(last * ratio ** ((np.asarray(nodes) + 1.0) / 4), axis=-1)


def _grid_from(zeta, span: float = _PANEL_EDGES[-1], nodes=_PANEL_NODES,
               rule=_leggauss):
    """Nodes and weights covering [zeta, zeta + span].

    The panels are _PANEL_EDGES scaled to span, the first mapped through
    v = w^2 so that the half-integer powers the polylog kernels develop at
    small v are integrated exactly.  Only that first panel is built per
    call; panels 2-5 are _panels(_PANEL_EDGES[1:], nodes[1:], rule), whole,
    times span / 80 and moved rigidly to zeta.  zeta is a float, giving
    1-D nodes, or (for _leggauss) a 1-D array, giving one row per zeta; a
    row holds the same floats a lone zeta would.  The arrays returned are
    new on every call.
    """
    scale = span / _PANEL_EDGES[-1]
    x, w, *_ = rule(nodes[0])
    v_out, w_out = _panels(_PANEL_EDGES[1:], nodes[1:], rule)
    v_out, w_out = scale * v_out, scale * w_out
    z = np.asarray(zeta, dtype=float)[..., None]
    t0 = np.sqrt(z)
    t1 = np.sqrt(z + _PANEL_EDGES[1] * scale)
    t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
    w_out = np.broadcast_to(w_out, z.shape[:-1] + w_out.shape)
    return (np.concatenate((t * t, z + v_out), axis=-1),
            np.concatenate((w * (t1 - t0) * t, w_out), axis=-1))


# The T = 0 integral's inner variable s = zeta / v runs, for a table, over
# these panels, with s = t^2 on the first, else over one mapped panel (_s_rule)
_S_EDGES = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0)
_S_NODES = (16, 16, 20, 20, 24)
_S_MAPPED = 32
# The lowest zeta the T = 0 integral evaluates a table at, and a config's
# table must reach: the first node from zeta = 0 of _Window(order=2)'s rule,
# 2 ((1 + x_0) / 2)^2 with x_0 the first of 48 Gauss-Legendre nodes, written
# out so that importing the package computes no quadrature rule.
_ZETA_MIN = 7.552115867947006e-07


# ---------------------------------------------------------------------------
# kernels:  integrand(v) given reflection_sq_grid's stack r2 of r_TM^2 and
# r_TE^2, which share the v grid, so one polylog call takes both

def _polylog_kernel(v, r2, s: float):
    """v^{2-s} [Li_s(r_TM^2 e^-v) + Li_s(r_TE^2 e^-v)]: the force at s = 1/2,
    the gradient at s = -1/2."""
    li = polylog_exp_grid(s, v, r2)
    return v ** (2.0 - s) * (li[0] + li[1])


_force_kernel = partial(_polylog_kernel, s=0.5)
_gradient_kernel = partial(_polylog_kernel, s=-0.5)


Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]  # kernel(v, r2)
Term = Callable[[np.ndarray], np.ndarray]


def _frequency_integral(kernel: Kernel, model: PermittivityModel, zeta,
                        a: float, window: _Window = _Window()):
    """The v-integral at fixed zeta: one Matsubara term per frequency.

    The package's one, for every kernel, on window.nodes (_grid_from); zeta
    is a float or a 1-D array.  For an array, one call of reflection_sq_grid
    and of the kernel covers the whole (zeta, v) grid, a row per frequency,
    and each row is then summed on its own, as a lone frequency is.
    """
    zeta = np.asarray(zeta, dtype=float)
    v, w = _grid_from(zeta, nodes=window.nodes)
    col = zeta[..., None]
    if zeta.size > 1 and zeta[0] == 0.0:  # l = 0 heads a sum's first stack
        r2 = np.concatenate([reflection_sq_grid(model, col[rows], v[rows], a)
                             for rows in (slice(1), slice(1, None))], axis=1)
    else:
        r2 = reflection_sq_grid(model, col, v, a)
    return np.sum(w * kernel(v, r2), axis=-1)


_STOP_STREAK = 3
_EM_BLOCK = 256  # explicit terms before the Euler-Maclaurin remainder
# the remainder's n a panel (2n + 1 nodes): most on the first, where the terms vary
_EM_NODES = (32, 16, 14, 12, 2)
_EM_PASS = 2 * sum(_EM_NODES)  # one window's evaluations: its distinct nodes but zeta_b
_STACK = _EM_PASS // 2  # frequencies per term call: half a pass
_HANDOFF = 57  # the one l before the block's end at which a sum may hand off
_MAX_RATIO = 0.97  # the largest ratio the geometric tail estimate takes


def _matsubara_sum(term: Term, env: Environment, quad: QuadratureSpec,
                   window: _Window = _Window()):
    """Primed Matsubara sum of term(zeta_l) over zeta_l = l * zeta_1.

    The only frequency sum in the package: force, gradient, the nonlinear
    shift and the oracles differ only in the per-frequency callable, which
    takes an array of frequencies and returns one term per frequency.
    Returns (sum, terms_used, tail_estimate), terms_used counting the terms
    summed.  The terms are evaluated one stack per call, l = 0 the first row
    of the first; each term of a stack is added in ascending l, so results are
    bit-reproducible and a term evaluated past the stop never enters the
    sum.  The sum stops after _STOP_STREAK consecutive terms each contribute
    less than need = rel_tol/10 of it, and its tail is estimated as a
    geometric series: the last term ratio, raised to at least
    e^{-rate zeta_1} (_Window; after a dip the ratio rises back toward it),
    capped at _MAX_RATIO.  Such a series cannot bound terms that fall
    slower, so where e^{-rate zeta_1} > _MAX_RATIO the sum neither stops in
    the block nor projects a stop: it hands off at l = _HANDOFF at every
    rel_tol.  After each stack the stop is projected once, at the last term
    ratio r: n = ln(need / |f_l|) / ln r terms ahead (0 once |f_l| <= need,
    none at r >= 1); before the first, ln(10 / rel_tol) / (rate zeta_1).
    The next stack ends _STOP_STREAK past that stop, after at most _STACK
    terms (as does every remainder call), or at l = _HANDOFF or _EM_BLOCK.
    A sum still running after the block is completed by _em_remainder, and
    one whose stop lies more than one remainder pass (_EM_PASS
    evaluations) past l = _HANDOFF hands off there.  That point does not
    depend on _STACK, so lone-frequency and stacked sums stay bit-identical.
    The remainder's end corrections need a term that is C^2 in zeta; a
    table's spline is.  No sum evaluates more than 1 + _EM_BLOCK + _EM_PASS
    = 409 terms; a remainder that falls short raises ConvergenceError with
    the partial sum.
    """
    zeta1 = 4.0 * math.pi * env.a * CONSTANTS.kB * env.T / (CONSTANTS.hbar * CONSTANTS.c)
    decay = math.exp(-window.rate * zeta1)  # the terms' asymptotic ratio
    stops = decay <= _MAX_RATIO  # else the sum cannot stop in the block
    values = []  # the terms l >= 1 summed so far
    head = 1  # the first stack opens with l = 0
    streak = 0
    prev = math.inf
    ahead = math.log(10.0 / quad.rel_tol) / (window.rate * zeta1)
    while len(values) < _EM_BLOCK:
        first = len(values) + 1
        end = _HANDOFF if first <= _HANDOFF else _EM_BLOCK
        last = min(end, math.ceil(
            first - 1 + min(_STACK - head, ahead + _STOP_STREAK)))
        stack = term(np.arange(first - head, last + 1) * zeta1).tolist()
        if head:
            total, head = 0.5 * stack.pop(0), 0
            if not stack:  # l = 0 alone (_STACK = 1)
                continue
        for value in stack:
            total += value
            values.append(value)
            need = quad.rel_tol / 10.0 * abs(total)
            ratio = abs(value) / prev
            if abs(value) < need:
                streak += 1
                if streak >= _STOP_STREAK and stops:
                    ratio = min(max(ratio, decay), _MAX_RATIO)
                    return (total, len(values) + 1,
                            abs(value) * ratio / (1.0 - ratio))
            else:
                streak = 0
            prev = abs(value) if value != 0.0 else prev
        ahead = math.inf  # the projected stop, terms past l = last
        if stops and abs(value) <= need:
            ahead = 0.0
        elif stops and 0.0 < ratio < 1.0 and need > 0.0:
            ahead = math.log(need / abs(value)) / math.log(ratio)
        if last == _HANDOFF and ahead > _EM_PASS:
            break
    return _em_remainder(term, zeta1, values, total, quad, window)


def _em_remainder(term: Term, h: float, values: list, total: float,
                  quad: QuadratureSpec, window: _Window):
    """Add sum_{l > L} f(l h) to a sum whose explicit part ends at zeta_b = L h.

    values holds the explicit terms f(h) ... f(L h), and total their
    primed sum with the l = 0 term.  The primed sum is the trapezoid rule
    for the zeta-integral, so by Euler-Maclaurin the remainder is

        (1/h) int_{zeta_b}^inf f - f(zeta_b)/2 - h f'(zeta_b)/12
            + h^3 f'''(zeta_b)/720.

    h f' and h^3 f''' come from the backward differences of the last seven
    terms f(zeta_b - 6h) ... f(zeta_b) (Gregory's form), so they cost no
    evaluations.  The integral runs over one window, [zeta_b, zeta_b +
    window.span] (_Window), on 2n + 1 Clenshaw-Curtis nodes a panel for n
    in _EM_NODES, one composite rule: a panel's first node is zeta_b (term
    values[-1]) or the last of the panel before, so a pass evaluates
    _EM_PASS frequencies, _STACK a call of term.  Its check, the nested
    rules' error (81 nodes), is summed in absolute value by panel and
    Chebyshev mode: a table's knot spreads it over modes of both signs.
    The tail estimate: the last correction applied, the check, and the cut
    at the window's end (its last term times its width).  A cut above
    rel_tol/10 of the sum (or a NaN) raises ConvergenceError with the sum
    so far; the ideal-metal force at 200 nm and 1 K needs a rel_tol below
    ~3e-30 for that.  Returns (sum, terms_used, tail_estimate).
    """
    nabla = [float(np.diff(values[-7:], k)[-1]) for k in range(1, 7)]
    d1 = sum(d / k for k, d in enumerate(nabla, start=1))
    d3 = nabla[2] + 1.5 * nabla[3] + 1.75 * nabla[4] + 1.875 * nabla[5]
    last_correction = d3 / 720.0
    total += -0.5 * values[-1] - d1 / 12.0 + last_correction
    z, w = _grid_from(len(values) * h, window.span, _EM_NODES, _clenshaw_curtis)
    starts = np.cumsum([0] + [2 * n + 1 for n in _EM_NODES[:-1]])  # panels' first
    new, f = np.delete(np.arange(z.size), starts), np.empty(z.size)
    f[new] = np.concatenate([term(z[new[i:i + _STACK]])
                             for i in range(0, new.size, _STACK)])
    f[starts] = [values[-1], *f[starts[1:] - 1]]  # f(zeta_b), each edge's once
    total += float(w @ f) / h
    panels = np.split(w * f / h, starts[1:])
    check = sum(np.abs(_clenshaw_curtis(n)[2] @ part).sum()
                for n, part in zip(_EM_NODES, panels))
    cut = abs(float(f[-1])) * window.span / h
    if not cut <= quad.rel_tol / 10.0 * abs(total):
        raise ConvergenceError(
            f"Euler-Maclaurin remainder cut at {cut / abs(total):.3g} of the "
            f"sum, above rel_tol/10 (rel_tol = {quad.rel_tol:g})", partial=total)
    return (total, len(values) + 1 + _EM_PASS,
            abs(last_correction) + float(check) + cut)


def _s_rule(model: PermittivityModel, a: float, col, order: int):
    """s = zeta / v on [0, 1], a row per v of the column col: nodes, weights
    and Gauss panel orders.  A table: _S_EDGES on [_ZETA_MIN / v, 1], the
    sliver below in the first weight.  An analytic model: order x _S_MAPPED
    nodes in u, s = s_lo (e^{L u} - 1), L = ln(1 + 1/s_lo), from the row's
    lowest feature s_lo (reflection_scale, >= the unit roundoff) to 1."""
    if isinstance(model, Tabulated):
        nodes = tuple(order * n for n in _S_NODES)
        s, ws = _panels(_S_EDGES, nodes)
        s0 = _ZETA_MIN / col
        w = (1.0 - s0) * ws
        w[:, 0] += s0[:, 0]
        return s0 + (1.0 - s0) * s, w, nodes
    x, wx = _leggauss(order * _S_MAPPED)
    lo = np.maximum(reflection_scale(model, a, col), np.finfo(float).eps)
    span = np.log1p(1.0 / lo)
    s = lo * np.expm1(0.5 * span * (x + 1.0))
    return s, 0.5 * span * wx * (s + lo), (x.size,)


def _zeta_rows(kernel: Kernel, model: PermittivityModel, a: float,
               window: _Window):
    """v nodes and weights (a Matsubara term's v-rule at zeta = 0), the row
    integrals int_0^v dzeta = v int_0^1 ds of the kernel on _s_rule's rule,
    and their s-rule errors (_gauss_error).  The whole (v, s) grid goes
    through one call of reflection_sq_grid and of the kernel, which take v
    as a column (n, 1), so e^-v, its powers and an ideal metal's kernel are
    computed once per row; each row is then summed on its own."""
    v, wv = _grid_from(0.0, window.span, window.nodes)
    col = v[:, None]
    s, w, s_nodes = _s_rule(model, a, col, window.order)
    wk = w * kernel(col, reflection_sq_grid(model, col * s, col, a))
    return v, wv, v * np.sum(wk, axis=-1), v * _gauss_error(wk, s_nodes)


def _zeta_integral(kernel: Kernel, model: PermittivityModel, a: float,
                   window: _Window = _Window()):
    """Zero-temperature replacement of the sum: integral over continuous zeta.

    The integral over 0 <= zeta <= v runs in v-outer order,

        int_0^V dv v int_0^1 ds kernel(v, r^2(v s, v)),

    with V = window.span: v on the panels _PANEL_EDGES at window.nodes, s on
    the model's rule at the window's order (_s_rule), in one call of
    reflection_sq_grid and of the kernel (_zeta_rows).  The error is
    measured from those node values alone: the v-rule's _gauss_error on the
    row integrals, the s-rules' on each row, a rounding floor (sum |w g|
    times the unit roundoff) and the cut at the window's end (the last row
    times the window's width).  Returns (integral, rows, error), rows
    counting the v-rows, one s-integral each.
    """
    v, wv, g, g_err = _zeta_rows(kernel, model, a, window)
    wg = wv * g
    err = (_gauss_error(wg, window.nodes) + np.sum(wv * g_err) + abs(g[-1])
           * window.span + np.sum(np.abs(wg)) * np.finfo(float).eps)
    return float(np.sum(wg)), v.size, float(err)


# ---------------------------------------------------------------------------
# public operations

def _scaled(prefactor: float, total: float, terms: int, tail: float,
            mode: str = "finiteT") -> ForceResult:
    """Result from a frequency sum or integral and its error estimate."""
    value = prefactor * total
    err = abs(prefactor) * tail + 1e-14 * abs(value)
    return ForceResult(value=value, est_abs_error=err, terms_used=terms,
                       mode=mode)


def _finite_t(term: Term, prefactor: float, env: Environment,
              quad: QuadratureSpec, window: _Window) -> ForceResult:
    return _scaled(prefactor, *_matsubara_sum(term, env, quad, window=window))


def _lifshitz(kernel: Kernel, geom: LensGeometry, env: Environment,
              model: PermittivityModel, quad: QuadratureSpec,
              derivative: bool = False, rate: float = 1.0) -> ForceResult:
    """A/sqrt(2aB) prefactor times the primed sum of the v-integral of kernel.

    The one evaluator of every Lifshitz-type quantity: force, gradient and
    nonlinear shift differ only in the per-v kernel (and derivative=True
    adds the gradient's extra -1/a).  Holds the one prefactor, kT at every
    temperature, and the only T = 0 dispatch: at T = 0 kT is hbar c / 4 pi a
    and the sum the continuous zeta-integral (_zeta_integral), whose
    terms_used counts v-rows.  The kernel's _Window, built here once from
    its decay rate, goes to the terms, the sum and the T = 0 integral.
    """
    a = env.a
    zero_t = env.T == 0.0
    kT = (CONSTANTS.hbar * CONSTANTS.c / (4.0 * math.pi * a) if zero_t
          else CONSTANTS.kB * env.T)
    pref = -(kT * geom.L / (4.0 * math.sqrt(math.pi) * a * a)
             * shape_factor(geom) / math.sqrt(2.0 * a))
    if derivative:
        pref = -pref / a
    window = _Window(rate)
    if zero_t:
        return _scaled(pref, *_zeta_integral(kernel, model, a, window),
                       mode="zeroT")
    term = partial(_frequency_integral, kernel, model, a=a, window=window)
    return _finite_t(term, pref, env, quad, window)


def xi_reach(a: float, T: float, rate: float = 1.0) -> tuple[float, float]:
    """Lowest and highest xi (rad/s) at which a run at a and T evaluates a model.

    The lowest is the T = 0 integral's first node, zeta = _ZETA_MIN; the
    highest lies one window (rate 1 - Az/a for the shift) past l = _EM_BLOCK.
    """
    return (CONSTANTS.c * _ZETA_MIN / (2.0 * a),
            CONSTANTS.c * _Window(rate).span / (2.0 * a)
            + _EM_BLOCK * (2.0 * math.pi * CONSTANTS.kB * T / CONSTANTS.hbar))


def force(geom: LensGeometry, env: Environment, model: PermittivityModel,
          quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Casimir force on any lens variant, negative for attraction.

    The variants share the frequency sum; only the A/sqrt(B) factor
    differs (averaged over the halves, or scaled by G for the rotated
    lens).

    Parameters
    ----------
    geom : EllipticLens, TwoHalvesLens or RotatedLens
    env : Environment
        Separation and temperature; T = 0 routes to the zero-temperature
        integral automatically.
    model : PermittivityModel
    quad : QuadratureSpec

    Returns
    -------
    ForceResult
        Force in N with error estimate and the number of frequency terms.
    """
    return _lifshitz(_force_kernel, geom, env, model, quad)


def gradient(geom: LensGeometry, env: Environment, model: PermittivityModel,
             quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Separation derivative dF/da for any lens variant, positive for attraction."""
    return _lifshitz(_gradient_kernel, geom, env, model, quad,
                     derivative=True)


casimir_force = for_variant(force, EllipticLens, "casimir_force")
casimir_gradient = for_variant(gradient, EllipticLens, "casimir_gradient")
two_halves_force = for_variant(force, TwoHalvesLens, "two_halves_force")
two_halves_gradient = for_variant(gradient, TwoHalvesLens, "two_halves_gradient")
rotated_force = for_variant(force, RotatedLens, "rotated_force")
rotated_gradient = for_variant(gradient, RotatedLens, "rotated_gradient")


def zero_temperature_force(geom: LensGeometry, env: Environment,
                           model: PermittivityModel,
                           quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Casimir force on any lens variant at T = 0 (continuous frequency integral)."""
    return force(geom, Environment(a=env.a, T=0.0), model, quad)


def zero_temperature_gradient(geom: LensGeometry, env: Environment,
                              model: PermittivityModel,
                              quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Separation derivative of the force at T = 0."""
    return gradient(geom, Environment(a=env.a, T=0.0), model, quad)


def ideal_metal_force_t0(geom: EllipticLens, env: Environment) -> float:
    """Closed form for an ideal-metal lens at T = 0.

    F = -pi^3 L hbar c / (384 a^3) * A / sqrt(2 a B).  The numerical factor
    pi^3/384 equals (15/64 pi) * pi^4/90, i.e. the reflection-order sum
    collapses to zeta(4).
    """
    expect_variant(geom, EllipticLens, "ideal_metal_force_t0",
                   "force with IdealMetal() at T = 0")
    a = env.a
    return (-math.pi ** 3 * geom.L * CONSTANTS.hbar * CONSTANTS.c / (384.0 * a ** 3)
            * geom.A / math.sqrt(2.0 * a * geom.B))


def ideal_metal_gradient_t0(geom: EllipticLens, env: Environment) -> float:
    """Closed-form dF/da for an ideal-metal lens at T = 0.

    Differentiating the a^{-7/2} closed form gives
    7 pi^3 L hbar c / (768 a^4) * A / sqrt(2 a B), i.e. (7/2) |F| / a.
    """
    expect_variant(geom, EllipticLens, "ideal_metal_gradient_t0",
                   "gradient with IdealMetal() at T = 0")
    a = env.a
    return (7.0 * math.pi ** 3 * geom.L * CONSTANTS.hbar * CONSTANTS.c
            / (768.0 * a ** 4) * geom.A / math.sqrt(2.0 * a * geom.B))


# ---------------------------------------------------------------------------
# brute-force oracles
#
# These evaluate the pressure integral over the true lens profile
# z(x) = a + B - sqrt(B^2 - B^2 x^2 / A^2), with none of the leading-order
# simplifications the production formulas rely on.  Exact variable changes
# only: the width integral is taken in z with z - a = u^2 (removing the
# inverse-sqrt edge factor), and u is rescaled by sqrt(a/v) so a fixed Gauss
# grid resolves the exponential weight at every v.  A Matsubara term is the
# v-integral of _oracle_kernel, a sigma axis past each v node's.  At
# each node the plate-plate reflection-order series sum_{n>=1} rho^n is the
# geometric series rho/(1 - rho), taken in that closed form: it is exact per
# node, so the oracle drops no order and its independence from the
# production formulas rests on the profile and the width integral.

_SIGMA_NODES = 48
_SIGMA_CUT = 8.5  # e^{-sigma^2} ~ 3e-32


def _order_sum(r2: np.ndarray, exponent: np.ndarray,
               decay: np.ndarray) -> np.ndarray:
    """sum_{n>=1} rho^n = rho/(1 - rho), rho = r2 e^{exponent}, per node.

    r2 holds reflection_sq_grid's (TM, TE) stack (or one row of it),
    exponent (<= 0) each v node's -v - sigma^2 on a last, sigma axis and
    decay its exp.  The denominator is -expm1(ln r2 + exponent), with ln
    r2 taken once per v node, so 1 - rho keeps its digits as rho -> 1 (on
    the oracle grids the naive 1 - rho is up to 9e-11 relative off
    40-digit mpmath, this form 2e-14).  A node with r2 = 0 gives exactly 0.
    """
    with np.errstate(divide="ignore"):
        ln_r2 = np.log(r2)[..., None]
    return r2[..., None] * decay / -np.expm1(ln_r2 + exponent)


def _oracle_kernel(v, r2, a: float, chord: float, u2_max: float):
    """The oracles' integrand: v^2 times the width integral, per v node.

    The width integral at fixed v is

        2 int_0^sqrt(u2_max) du (chord - u^2)/sqrt(2 chord - u^2)
            sum_n [ (r_TM^2 e^{-v(a+u^2)/a})^n + (TE term) ],

    taken in sigma = u sqrt(v/a) on a fixed Gauss grid on a last axis, so
    the e^{-sigma^2} weight is resolved at every v.  Both polarizations'
    order series are summed on the (v, sigma) grid in one _order_sum call
    (closed form); one that does not reflect (TE for Drude at zeta = 0)
    adds exactly 0.0.  Each v node goes through the operations it would
    alone, and a stack of frequencies row by row: one row's grid at a time.
    """
    if v.ndim > 1:
        return np.stack([_oracle_kernel(row, r2[:, i], a, chord, u2_max)
                         for i, row in enumerate(v)])
    x, w = _leggauss(_SIGMA_NODES)
    col = v[..., None]
    smax = np.minimum(np.sqrt(u2_max * col / a), _SIGMA_CUT)
    sig = 0.5 * smax * (x + 1.0)
    u2 = a * sig * sig / col
    geo = 2.0 * (chord - u2) / np.sqrt(2.0 * chord - u2)
    exponent = -col - sig * sig
    decay = np.exp(exponent)
    tm, te = _order_sum(r2, exponent, decay)
    return v * v * (np.sqrt(a / v)
                    * np.sum(w * 0.5 * smax * geo * (tm + te), axis=-1))


def _oracle_sum(env: Environment, model: PermittivityModel, chord: float,
                u2_max: float, quad: QuadratureSpec):
    """Matsubara sum of the v-integral of _oracle_kernel at order 2.

    The term is _lifshitz's partial of _frequency_integral, on the oracles'
    kernel and v-rule (at order 1 the PFA oracle drifts by 1.7 - 3.3e-12,
    past its estimate at rel_tol = 1e-13), summed in stacks as every other
    term is.  Returns (sum, terms_used, tail_estimate), the tail estimate
    the Matsubara loop's alone: the order series is summed exactly.
    """
    if env.T == 0.0:
        raise ValueError("the oracle is defined for T > 0")
    kernel = partial(_oracle_kernel, a=env.a, chord=chord, u2_max=u2_max)
    window = _Window(order=2)
    term = partial(_frequency_integral, kernel, model, a=env.a, window=window)
    return _matsubara_sum(term, env, quad, window=window)


def direct_pfa_force_oracle(geom: EllipticLens, env: Environment,
                            model: PermittivityModel,
                            quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Unsimplified PFA force: plate pressure integrated over the real profile.

    Keeps the finite width 2d (through the thickness of the cap it subtends)
    and the full curvature of the surface; no small-a/B expansion.  Used to
    quantify the error of casimir_force, which should agree within a few
    times 0.3 a/B.
    """
    expect_variant(geom, EllipticLens, "direct_pfa_force_oracle")
    h_d = thickness_for_width(geom.A, geom.B, geom.d)
    pref = -(CONSTANTS.kB * env.T * geom.L * geom.A
             / (4.0 * math.pi * env.a ** 3 * geom.B))
    return _scaled(pref, *_oracle_sum(env, model, geom.B, h_d, quad))


def rotated_direct_oracle(geom: RotatedLens, env: Environment,
                          model: PermittivityModel,
                          quad: QuadratureSpec = DEFAULT_QUADRATURE) -> ForceResult:
    """Unsimplified force on the rotated lens.

    Same pressure integral taken over the tilted-cut profile, whose vertical
    chord is 2H; requires h <= 2H so the surface parameterization stays
    single-valued.  At phi = 0 this reduces exactly to the symmetric oracle.
    """
    expect_variant(geom, RotatedLens, "rotated_direct_oracle")
    H = rotation_factor(geom.A, geom.B, geom.phi).H
    if geom.h > 2.0 * H:
        raise ValueError("lens thickness exceeds the vertical chord 2H of the cut")
    pref = -(CONSTANTS.kB * env.T * geom.L * geom.A * geom.B
             / (4.0 * math.pi * env.a ** 3 * H * H))
    return _scaled(pref, *_oracle_sum(env, model, H, geom.h, quad))
