"""Tests of the benchmark itself: inputs, accuracy gate and tracing.

    python3 -m pytest perfbench/tests
"""

import math
import sys
import types

import pytest

import workloads
from gate import Check, Evaluation, summarize
from spans import (Boundary, Span, TraceError, Tracer, layer_stats,
                   require_calls, self_times)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_configs(name):
    assert workloads.make(name, 7).texts == workloads.make(name, 7).texts


def test_seeds_move_sweep_points_inside_the_nominal_range():
    nominal = workloads.make("force-sweep", workloads.NOMINAL_SEED).cfgs[0]
    assert (nominal.sweep.start, nominal.sweep.stop) == (150e-9, 5e-6)
    moved = workloads.make("force-sweep", 7).cfgs[0]
    assert moved.sweep.points().tolist() != nominal.sweep.points().tolist()
    assert 150e-9 <= moved.sweep.start < moved.sweep.stop <= 5e-6
    # the costly ends stay put: 3 K and Az/a = 0.99
    assert workloads.make("cryo-sweep", 7).cfgs[0].sweep.start == 3.0
    assert workloads.make("freq-shift", 7).cfgs[0].sweep.stop == 0.99 * 200e-9


FAR_FORCE = """\
[run]
command = force
[geometry]
A = 100e-6
B = 100e-6
L = 1e-3
[material]
model = drude
[environment]
a = 4e-6
T = 300
"""


def test_gate_fails_a_value_moved_by_twice_its_error_estimate():
    wl = workloads.CliWorkload(["force"], [FAR_FORCE])
    out = wl.table()
    refs = wl.references()
    assert summarize(wl.evaluations(out, refs, None))["failed"] == 0

    row = out[0].rows[0]
    est = row[5]
    for shift, failed in ((0.5, 0), (2.0, 1), (-2.0, 1)):
        moved = list(row)
        moved[2] = row[2] + shift * est
        out[0].rows[0] = moved
        assert summarize(wl.evaluations(out, refs, None))["failed"] == failed


def test_gate_counts_errors_and_non_finite_values():
    evals = [Evaluation("raised", error="ConvergenceError: cap"),
             Evaluation("nan", [Check("ref", math.nan, 1.0, 1e-8)]),
             Evaluation("ok", [Check("ref", 1.0 + 5e-9, 1.0, 1e-8)])]
    assert summarize(evals) == {"attempted": 3, "failed": 2, "wrong": 2,
                                "err_ratio_max": pytest.approx(0.5)}


def test_self_time_of_nested_spans_is_exact():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("leaf", 2.0, 3.0, 1),
             Span("b", 5.0, 7.0, 0),
             Span("c", 6.5, 8.0, 0)]  # overlaps b, as a second thread would
    assert self_times(spans) == [10.0 - 3.0 - 3.0, 2.0, 1.0, 2.0, 1.5]
    stats = layer_stats(spans)
    assert stats["root"].self_s == 4.0 and stats["root"].total_s == 10.0


@pytest.fixture
def fakepkg(monkeypatch):
    """A two-module package whose caller binds the callee by import."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    for mod in (pkg, lib, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec("def f(x):\n    return x + 1\n", lib.__dict__)
    exec("from fakepkg.lib import f\n"
         "_BY_NAME = {'f': f}\n"
         "def g(x):\n    return f(x)\n"
         "def h(x):\n    return _BY_NAME['f'](x)\n", user.__dict__)
    return lib, user


def test_tracer_patches_the_callers_binding_and_restores_it(fakepkg):
    lib, user = fakepkg
    original = lib.f
    tracer = Tracer([Boundary("lib.f", "fakepkg.lib", "f", work=lambda r: r)],
                    package="fakepkg")
    with tracer:
        assert user.g(1) == 2
    assert lib.f is original and user.f is original
    stats = layer_stats(tracer.spans)
    assert stats["lib.f"].calls == 1 and stats["lib.f"].work == 2
    require_calls(stats, ["lib.f"], "fake")


def test_zero_call_check_fires_when_a_boundary_is_unpatched(fakepkg):
    _, user = fakepkg
    tracer = Tracer([Boundary("lib.f", "fakepkg.lib", "f")], package="fakepkg")
    with tracer:
        assert user.h(1) == 2  # reaches f through a dict the patch cannot see
    with pytest.raises(TraceError, match="lib.f"):
        require_calls(layer_stats(tracer.spans), ["lib.f"], "fake")


def test_tracing_a_missing_function_fails_loudly(fakepkg):
    with pytest.raises(TraceError, match="missing"):
        with Tracer([Boundary("lib.missing", "fakepkg.lib", "missing")],
                    package="fakepkg"):
            pass
